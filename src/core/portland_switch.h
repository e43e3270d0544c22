// PortlandSwitch: one switch of the fabric. A single class serves edge,
// aggregation, and core roles — the role is *discovered* by the embedded
// LdpAgent, never configured (requirement R2).
//
// Data plane:
//   * hierarchical PMAC forwarding — down by (pod, position, port) fields,
//     up via flow-hashed ECMP over the surviving uplinks (§3.2, §3.5);
//   * PMAC<->AMAC rewriting at edge ingress/egress so hosts stay
//     unmodified (§3.2);
//   * proxy ARP: edge switches intercept ARP requests, resolve them
//     through the fabric manager, and fall back to a loop-free
//     core-rooted broadcast on a miss (§3.3);
//   * multicast via FM-installed replication port sets (§3.6);
//   * migration support: invalidated PMACs are trapped, rewritten to the
//     host's new PMAC, and senders' stale caches corrected with unicast
//     gratuitous ARPs (§3.7).
//
// Control plane:
//   * LDP (location discovery + liveness),
//   * SwitchHello reports to the fabric manager,
//   * FaultNotify on LDM timeout; PruneUpdate application on reroutes.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/drop_reason.h"
#include "core/config.h"
#include "core/control_plane.h"
#include "core/fabric_graph.h"
#include "core/host_table.h"
#include "core/ldp_agent.h"
#include "core/messages.h"
#include "core/pmac.h"
#include "core/port_set.h"
#include "net/packet.h"
#include "sim/device.h"

namespace portland::core {

class PortlandSwitch : public sim::Device {
 public:
  PortlandSwitch(sim::Simulator& sim, std::string name, SwitchId id,
                 std::size_t num_ports, ControlPlane& control,
                 PortlandConfig config, Rng rng);
  ~PortlandSwitch() override;

  void start() override;
  void handle_frame(sim::PortId in_port, const sim::FramePtr& frame) override;
  void handle_link_status(sim::PortId port, bool up) override;

  /// Checkpoint: LDP state, host/redirect/prune/multicast tables, the
  /// precomputed FIB (restored rather than rebuilt, so fib_rebuilds()
  /// reads the same after a restore), pending ARP queries with their
  /// timers, fault reports, rng. A load fails the reader on any port id
  /// at or past port_count().
  void snapshot(sim::SnapshotIo& io) override;

  // --- inspection --------------------------------------------------------
  [[nodiscard]] SwitchId id() const { return id_; }
  [[nodiscard]] const SwitchLocator& locator() const { return ldp_.self(); }
  [[nodiscard]] const LdpAgent& ldp() const { return ldp_; }

  /// PMAC assigned to a local host AMAC (edge switches).
  [[nodiscard]] std::optional<Pmac> pmac_for(MacAddress amac) const;

  /// Host (PMAC/AMAC) table size — the state the paper argues stays O(k)
  /// per edge switch instead of O(total hosts).
  [[nodiscard]] std::size_t host_table_size() const {
    return host_table_.size();
  }
  /// Installed reroute (prune) entries.
  [[nodiscard]] std::size_t prune_entry_count() const;
  /// Installed multicast forwarding entries.
  [[nodiscard]] std::size_t multicast_entry_count() const {
    return mcast_ports_.size();
  }
  /// Total forwarding-state footprint in entries (neighbors + hosts +
  /// prunes + multicast) — compared against the baseline's MAC table in E5.
  [[nodiscard]] std::size_t forwarding_state_size() const;

  // --- fast-path introspection -------------------------------------------
  /// Always 0: the uplink is picked straight from the FIB, with no flow
  /// cache in front of it. Kept because perfbench still reads them.
  [[nodiscard]] std::uint64_t flow_cache_hits() const { return 0; }
  [[nodiscard]] std::uint64_t flow_cache_misses() const { return 0; }
  /// Times the precomputed FIB was rebuilt (should track topology / prune
  /// events, never packet count).
  [[nodiscard]] std::uint64_t fib_rebuilds() const { return fib_rebuilds_; }

  /// Counted forwarding-state bytes by component (E19): exact vector
  /// footprints, plus estimated allocator footprints for the remaining
  /// node-based maps (see common/memsize.h).
  struct TableBytes {
    std::size_t host_table = 0;
    std::size_t fib = 0;
    std::size_t prunes = 0;
    std::size_t multicast = 0;
    std::size_t other = 0;  // vmid/fault vectors, redirects, pending ARPs
    [[nodiscard]] std::size_t total() const {
      return host_table + fib + prunes + multicast + other;
    }
  };
  [[nodiscard]] TableBytes table_bytes() const;

 private:
  /// A duplicate requester riding a coalesced in-flight ARP query: when
  /// the one FM answer arrives, each waiter gets its own proxied reply
  /// (or its own fallback broadcast on a miss).
  struct ArpWaiter {
    sim::PortId host_port = 0;
    MacAddress amac;
    MacAddress pmac;
    Ipv4Address ip;
    sim::FramePtr original;
  };
  struct PendingArp {
    sim::PortId host_port = 0;
    MacAddress requester_amac;
    MacAddress requester_pmac;
    Ipv4Address requester_ip;
    Ipv4Address target;
    sim::FramePtr original;
    std::unique_ptr<sim::Timer> timer;
    std::vector<ArpWaiter> waiters;
  };
  /// One bounded negative-cache entry: the FM answered "not found" for
  /// this IP at most arp_negative_ttl ago.
  struct NegativeArp {
    std::uint32_t ip = 0;
    SimTime expires = 0;
  };
  struct Redirect {
    MacAddress new_pmac;
    Ipv4Address ip;
    std::set<MacAddress> garp_sent_to;  // sender PMACs already corrected
  };

  /// One prune-applied uplink candidate array, keyed by the PMAC prefix
  /// (pod << 8 | position) — u32 order equals DstKey's (pod, position)
  /// lexicographic order, so the flat table sorts in prune order and
  /// lookups binary-search it.
  struct PrunedRoute {
    std::uint32_t key = 0;
    std::vector<sim::PortId> ports;
  };
  [[nodiscard]] static constexpr std::uint32_t dst_key_u32(
      std::uint16_t pod, std::uint8_t position) {
    return (static_cast<std::uint32_t>(pod) << 8) | position;
  }

  /// Precomputed forwarding tables, derived from the LDP neighbor table
  /// and the FM-installed prune sets. Rebuilt lazily when either input's
  /// generation moves (event-driven invalidation) — never per packet.
  struct Fib {
    // Input generations this build reflects. Start stale so the first
    // lookup builds.
    std::uint64_t ldp_gen = 0;
    std::uint64_t prune_gen = 0;
    /// Live uplinks with no prune applied (the common case).
    std::vector<sim::PortId> base_up;
    /// Per-destination uplink candidate arrays with the avoid sets already
    /// subtracted (fine entries also fold in the pod-wide coarse set),
    /// sorted by key.
    std::vector<PrunedRoute> pruned_up;
    /// Aggregation: edge position -> down port (-1 = none).
    std::vector<std::int32_t> down_by_position;
    /// Core: pod -> down port (-1 = none).
    std::vector<std::int32_t> down_by_pod;
  };

  // --- ingress dispatch ---
  void handle_host_ingress(sim::PortId port, const net::ParsedFrame& parsed,
                           const sim::FramePtr& frame);
  void handle_fabric_ingress(sim::PortId port, const net::ParsedFrame& parsed,
                             const sim::FramePtr& frame);

  // --- forwarding ---
  void forward_unicast(sim::PortId in_port, MacAddress dst,
                       const net::ParsedFrame& parsed,
                       const sim::FramePtr& frame, int redirect_depth);
  void forward_broadcast(sim::PortId in_port, bool from_host, bool from_above,
                         const sim::FramePtr& frame);
  void forward_multicast(sim::PortId in_port, bool from_host,
                         const net::ParsedFrame& parsed,
                         const sim::FramePtr& frame);
  void deliver_to_local_host(const HostEntry& entry,
                             const net::ParsedFrame& parsed,
                             const sim::FramePtr& frame);
  [[nodiscard]] std::optional<sim::PortId> pick_up_port(
      const net::ParsedFrame& parsed, const sim::FramePtr& frame,
      std::uint16_t dst_pod, std::uint8_t dst_position) const;
  [[nodiscard]] std::optional<sim::PortId> designated_up_port() const;

  /// Counts a typed drop through its cached counter cell (no string
  /// lookup) and hands it to the flight recorder when one is attached.
  void drop(obs::DropReason reason, const sim::FramePtr& frame,
            sim::PortId port = 0);

  /// Returns the precomputed FIB, rebuilding first if an input changed.
  [[nodiscard]] const Fib& fib() const;
  void rebuild_fib() const;

  // --- proxy ARP ---
  void handle_host_arp(sim::PortId port, const net::ParsedFrame& parsed,
                       const sim::FramePtr& frame);
  void on_arp_response(const ArpResponse& m);
  void flood_arp_fallback(std::uint32_t query_id);
  void send_garp_to_sender(MacAddress old_pmac, MacAddress sender_pmac);
  /// Loop-free broadcast of the original request for the primary
  /// requester and every coalesced waiter (FM miss / query timeout).
  void broadcast_pending_arp(const PendingArp& pending);
  /// In-flight FM query for `target`, if any (coalescer index lookup).
  [[nodiscard]] std::optional<std::uint32_t> pending_query_for(
      Ipv4Address target) const;
  void unindex_pending_target(Ipv4Address target, std::uint32_t query_id);
  /// True while a negative-cache entry for `ip` is fresh (expired entries
  /// are dropped on probe).
  [[nodiscard]] bool negative_arp_fresh(Ipv4Address ip);
  void note_negative_arp(Ipv4Address ip);

  // --- host registration ---
  HostEntry* ensure_host(sim::PortId port, MacAddress amac,
                         Ipv4Address ip_hint);

  // --- control plane ---
  void on_control(const ControlMessage& msg);
  void send_to_fm(ControlBody body);
  void schedule_hello();
  void send_hello();
  /// Periodic soft-state refresh toward the fabric manager: host
  /// registrations, multicast membership/senders, and outstanding faults.
  /// This is what lets a cold fabric-manager replica rebuild everything.
  void send_soft_state_refresh();

  // --- LDP hooks ---
  void on_location_changed();
  void on_neighbor_event(sim::PortId port, SwitchId neighbor, bool lost);

  SwitchId id_;
  ControlPlane* control_;
  PortlandConfig config_;
  Rng rng_;
  LdpAgent ldp_;

  // Edge state: the host table and the per-port vmid counters.
  HostTable host_table_;
  std::vector<std::uint16_t> next_vmid_;
  std::map<MacAddress, Redirect> redirects_;  // old pmac -> new location
  std::map<std::uint32_t, PendingArp> pending_arps_;
  std::uint32_t next_query_id_ = 1;
  /// Coalescer index over pending_arps_: (target IP, query id), sorted.
  /// Derived state — rebuilt from pending_arps_ on restore. Consulted
  /// only when config.arp_coalescing is on (duplicate IPs can appear
  /// when it is off; the index tolerates them).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pending_by_target_;
  /// Bounded negative ARP cache, sorted by IP; earliest expiry is evicted
  /// when full.
  std::vector<NegativeArp> arp_negative_;

  // Reroute state installed by the fabric manager. `prune_generation_` is
  // bumped on every PruneUpdate so the FIB knows to fold the new avoid
  // sets in.
  std::map<DstKey, std::set<SwitchId>> prunes_;
  std::uint64_t prune_generation_ = 1;

  // Data-plane fast path (logically derived state, hence mutable).
  mutable Fib fib_;
  mutable std::uint64_t fib_rebuilds_ = 0;

  // Multicast state: per-group port bitmaps (a switch has at most k
  // ports), iterated in ascending order exactly like the sets they
  // replaced.
  std::map<Ipv4Address, PortSet> mcast_ports_;  // FM-installed
  std::map<Ipv4Address, PortSet> local_members_;
  std::set<Ipv4Address> mcast_sender_reported_;

  // Fault reporting: the neighbors we reported lost, refreshed
  // periodically so a failed-over fabric manager relearns the fault
  // matrix. Sorted by port (refresh order is determinism-relevant) and
  // normally empty, so it costs nothing per switch at scale.
  struct PortFault {
    sim::PortId port = 0;
    SwitchId neighbor = kInvalidSwitchId;
  };
  std::vector<PortFault> reported_down_;

  sim::Timer hello_timer_;
  sim::PeriodicTimer hello_periodic_;
  sim::PeriodicTimer refresh_periodic_;
  bool hello_pending_ = false;
  // Round-robin counter for the kPacketSpray ECMP ablation.
  mutable std::uint64_t spray_counter_ = 0;
};

}  // namespace portland::core
