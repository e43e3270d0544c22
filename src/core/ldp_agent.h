// Location Discovery Protocol agent (paper §3.4).
//
// Every PortLand switch runs one LdpAgent. With zero configuration it
// discovers:
//   * its tree LEVEL — a port that carries host traffic but no LDMs marks
//     the switch as an edge; a switch hearing edge neighbors is an
//     aggregation switch; a switch hearing only aggregation neighbors on
//     more than half its ports is a core;
//   * its POSITION within the pod (edge switches only) — the edge proposes
//     a position to the pod's aggregation switches, which ack exactly one
//     owner per position;
//   * its POD number — the edge switch holding position 0 requests a pod
//     number from the fabric manager; everyone else in the pod adopts it
//     from neighbor LDMs (edge <-> aggregation adoption only; cores have
//     no pod).
//
// LDMs double as liveness probes: a switch port silent for
// `neighbor_timeout` (default 50 ms = 5 missed LDMs) is declared failed —
// this is the fabric's failure detector and the dominant term in the
// paper's ~65 ms convergence time.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/config.h"
#include "core/messages.h"
#include "sim/device.h"
#include "sim/simulator.h"

namespace portland::core {

class LdpAgent {
 public:
  struct Hooks {
    /// Transmit an LDP frame out of a port.
    std::function<void(sim::PortId, std::vector<std::uint8_t>)> send_frame;
    /// Send a control message to the fabric manager.
    std::function<void(ControlBody)> send_to_fm;
    /// Our own locator changed (level, position, or pod resolved).
    std::function<void()> location_changed;
    /// The neighbor on `port` timed out (or reappeared: `lost == false`).
    std::function<void(sim::PortId, SwitchId, bool lost)> neighbor_event;
  };

  LdpAgent(sim::Simulator& sim, SwitchId id, std::size_t num_ports,
           const PortlandConfig& config, Hooks hooks, Rng rng);

  /// Arms the LDM and liveness timers (staggered start).
  void start();

  /// Feed an incoming LDP frame (EtherType kLdp).
  void handle_frame(sim::PortId port, std::span<const std::uint8_t> bytes);

  /// The switch saw a non-LDP frame on `port`; if no LDM neighbor lives
  /// there, the port is host-facing and we are an edge switch.
  void note_host_traffic(sim::PortId port);

  /// Pod number arrived from the fabric manager.
  void handle_pod_assignment(std::uint16_t pod);

  /// Expires the neighbor on `port` immediately (carrier-loss fast
  /// detection ablation; the paper's design waits for the LDM timeout).
  void expire_neighbor(sim::PortId port);

  // --- discovered state -------------------------------------------------
  [[nodiscard]] const SwitchLocator& self() const { return self_; }
  [[nodiscard]] bool located() const { return self_.located(); }

  [[nodiscard]] std::optional<SwitchLocator> neighbor(sim::PortId port) const;
  [[nodiscard]] bool is_host_port(sim::PortId port) const;

  /// True when `port` currently has an LDM neighbor (cheaper than
  /// neighbor(), which copies the locator — this is the per-frame check).
  [[nodiscard]] bool has_neighbor(sim::PortId port) const {
    return port < ports_.size() && ports_[port].neighbor.has_value();
  }

  /// True when the link behind `port` passes traffic in BOTH directions
  /// (neighbor fresh and our own LDMs are being echoed back). Only
  /// bidirectional ports participate in forwarding.
  [[nodiscard]] bool port_bidirectional(sim::PortId port) const;

  /// Ports whose live neighbor sits one level above us (edge: aggs;
  /// agg: cores). Sorted for deterministic ECMP. The reference stays
  /// valid until the next topology event; the list is rebuilt lazily on
  /// change, never per call — the steady-state data plane performs no
  /// allocation here.
  [[nodiscard]] const std::vector<sim::PortId>& up_ports() const;

  /// Ports whose live neighbor sits one level below us. Same caching
  /// contract as up_ports().
  [[nodiscard]] const std::vector<sim::PortId>& down_ports() const;

  /// Bumped on every event that can change up_ports()/down_ports() or any
  /// port's neighbor identity. The switch FIB stamps this to know when
  /// its precomputed tables are stale (event-driven invalidation).
  [[nodiscard]] std::uint64_t topology_generation() const {
    return topology_generation_;
  }

  /// Neighbor table for SwitchHello reports.
  [[nodiscard]] std::vector<NeighborEntry> neighbor_entries() const;

  /// Checkpoint: discovered location, per-port neighbor/liveness state,
  /// position negotiation, pending protocol timers, rng stream, stats.
  /// The port-list caches are rebuilt lazily after a load. A load of an
  /// image with another port count fails the reader.
  void snapshot(sim::SnapshotIo& io);

  // --- stats --------------------------------------------------------------
  [[nodiscard]] std::uint64_t ldms_sent() const { return ldms_sent_; }
  [[nodiscard]] std::uint64_t ldms_received() const { return ldms_received_; }
  [[nodiscard]] std::uint64_t ldm_bytes_sent() const { return ldm_bytes_sent_; }
  /// Times the port-list caches were recomputed (should track topology
  /// events, not packets).
  [[nodiscard]] std::uint64_t port_cache_rebuilds() const {
    return port_cache_rebuilds_;
  }

 private:
  struct PortState {
    std::optional<SwitchLocator> neighbor;
    SimTime last_ldm = -1;
    /// Last time the neighbor's LDM echoed *our* switch id back — evidence
    /// the direction we transmit on still works (unidirectional-failure
    /// detection).
    SimTime last_echo = -1;
    bool host_seen = false;
    bool reported_down = false;  // FaultNotify(down) outstanding
    bool echo_lost = false;      // reverse direction declared dead
  };

  void send_ldms();
  void liveness_sweep();
  /// Marks the cached port lists stale and bumps topology_generation().
  void invalidate_topology();
  void rebuild_port_caches() const;
  void maybe_infer_level();
  void adopt_pod(const SwitchLocator& nbr);
  void start_position_negotiation();
  void propose_position();
  void handle_proposal(sim::PortId port, const LdpMessage& m);
  void handle_vote(const LdpMessage& m);
  void maybe_request_pod();
  void set_level(Level level);
  [[nodiscard]] std::size_t half() const { return num_ports_ / 2; }

  sim::Simulator* sim_;
  PortlandConfig config_;
  Hooks hooks_;
  Rng rng_;
  std::size_t num_ports_;

  SwitchLocator self_;
  std::vector<PortState> ports_;

  // Allocation-free accessor caches (see up_ports()).
  std::uint64_t topology_generation_ = 1;
  mutable bool port_caches_dirty_ = true;
  mutable std::vector<sim::PortId> up_cache_;
  mutable std::vector<sim::PortId> down_cache_;
  mutable std::uint64_t port_cache_rebuilds_ = 0;

  // Edge-side position negotiation. Each of these tables holds at most
  // k/2 entries, so they are sorted flat vectors: a snapshot load refills
  // them without a node allocation per entry, and walked in key order
  // they give the bytes the ordered containers gave.
  bool position_confirmed_ = false;
  std::uint8_t proposed_position_ = kUnknownPosition;
  std::uint32_t proposal_nonce_ = 0;
  std::vector<SwitchId> proposal_pending_;  // aggs yet to ack, ascending
  std::vector<std::uint8_t> positions_nacked_;  // ascending
  sim::Timer position_timer_;

  // Aggregation-side position reservations: (position, owning edge),
  // ascending by position.
  std::vector<std::pair<std::uint8_t, SwitchId>> position_owners_;

  // Pod acquisition.
  bool pod_requested_ = false;
  sim::Timer pod_timer_;

  sim::PeriodicTimer ldm_timer_;
  sim::PeriodicTimer sweep_timer_;

  std::uint64_t ldms_sent_ = 0;
  std::uint64_t ldms_received_ = 0;
  std::uint64_t ldm_bytes_sent_ = 0;
};

}  // namespace portland::core
