// PathAuditor: empirical verification of §3.5's loop-freedom theorem.
//
// Using the simulator's frame tap, every UDP data packet is followed
// switch by switch through the fabric. For each delivered packet the
// auditor checks the paper's invariants *per packet*, not statistically:
//   * no switch is visited twice (no loops, ever);
//   * the level sequence is up-then-down (edge->agg->core->agg->edge with
//     no valley): once a packet starts descending it never ascends again;
//   * at most 5 switch hops (the fat-tree diameter).
// It also histograms switch-hop counts, giving the empirical path-length
// distribution of the fabric under any workload.
//
// The frame tap runs on whichever thread executes the receiving shard, so
// under the sharded engine deliveries arrive concurrently; the auditor
// serializes them. A packet's hops are still seen in path order: each hop
// happens in a later lookahead window than the one before it, or on the
// same shard in time order. Read the results at quiescence.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/fabric.h"

namespace portland::core {

class PathAuditor {
 public:
  /// Installs the frame tap on the fabric's network. Only one auditor per
  /// fabric at a time.
  explicit PathAuditor(PortlandFabric& fabric);
  ~PathAuditor();
  PathAuditor(const PathAuditor&) = delete;
  PathAuditor& operator=(const PathAuditor&) = delete;

  /// Number of audited packets delivered to a host.
  [[nodiscard]] std::uint64_t packets_completed() const { return completed_; }

  /// Invariant violations found (empty = loop-freedom held for every
  /// observed packet).
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }

  /// switch-hops -> completed packet count.
  [[nodiscard]] const std::map<std::size_t, std::uint64_t>& hop_histogram()
      const {
    return hops_;
  }

  /// Forgets any in-flight partial paths (e.g. after deliberate drops).
  void reset_in_flight() {
    std::lock_guard<std::mutex> lock(mutex_);
    in_flight_.clear();
  }

 private:
  struct PacketKey {
    std::uint32_t src_ip = 0;
    std::uint32_t dst_ip = 0;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint64_t seq = 0;

    friend bool operator<(const PacketKey& a, const PacketKey& b) {
      return std::tie(a.src_ip, a.dst_ip, a.src_port, a.dst_port, a.seq) <
             std::tie(b.src_ip, b.dst_ip, b.src_port, b.dst_port, b.seq);
    }
  };

  void on_delivery(const sim::Link& link, int rx_side,
                   const sim::FramePtr& frame);
  void finish(const PacketKey& key, std::vector<const PortlandSwitch*> path);

  PortlandFabric* fabric_;
  std::mutex mutex_;  // guards everything below against shard threads
  std::map<PacketKey, std::vector<const PortlandSwitch*>> in_flight_;
  std::map<std::size_t, std::uint64_t> hops_;
  std::vector<std::string> violations_;
  std::uint64_t completed_ = 0;
};

}  // namespace portland::core
