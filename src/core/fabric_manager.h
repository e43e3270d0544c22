// The fabric manager (paper §3.1): a logically centralized controller
// holding *soft state* only — everything it knows is rebuilt from switch
// reports, so a restarted FM recovers without configuration.
//
// Responsibilities:
//   * pod-number allocation for LDP (§3.4),
//   * the IP -> PMAC registry behind proxy ARP (§3.3),
//   * the fault matrix and reroute (prune) dissemination to exactly the
//     affected switches (§3.6),
//   * multicast group state, rendezvous-tree computation and installation
//     (§3.6),
//   * VM-migration detection and old-edge invalidation (§3.7).
//
// Scale-out (E22): the IP -> PMAC registry is split across
// config.fm_shards independent soft-state shards, keyed by IP hash
// (fm_shard_of). With more than one shard each answers ArpQuery /
// HostRegister traffic at its own control-plane address
// (kFmShardIdBase + s), pinned by the fabric to its own simulator shard,
// so proxy-ARP service parallelizes under the PDES engine. Every other
// responsibility (topology, pods, prunes, multicast, migration) stays on
// the primary endpoint. With fm_shards == 1 the behavior and message
// flow are exactly the classic single-endpoint FM.
//
// Hot standby (config.fm_replica): the primary and every registry shard
// periodically stream dirty state sections to kFmReplicaId as FmDelta
// messages (serialized with the snapshot plumbing). failover_to_replica()
// rebuilds the new incarnation from the last streamed images, so the
// blackout is bounded by the sync interval instead of a full
// soft-state refresh period.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/ipv4_address.h"
#include "common/mac_address.h"
#include "common/stats.h"
#include "core/config.h"
#include "core/control_plane.h"
#include "core/fabric_graph.h"
#include "core/fm_registry.h"
#include "core/messages.h"
#include "core/multicast.h"
#include "sim/simulator.h"

namespace portland::obs {
class ConvergenceMonitor;
}  // namespace portland::obs

namespace portland::core {

class FabricManager {
 public:
  struct HostRecord {
    MacAddress pmac;
    MacAddress amac;
    SwitchId edge = kInvalidSwitchId;
    std::uint16_t edge_port = 0;

    friend bool operator==(const HostRecord&, const HostRecord&) = default;
  };

  FabricManager(sim::Simulator& sim, ControlPlane& control,
                PortlandConfig config);

  /// The control-message entry point (registered at kFabricManagerId).
  /// Registry traffic (ArpQuery / HostRegister) arriving here is routed
  /// to the owning shard internally, so direct sends to the primary
  /// behave identically at any shard count.
  void handle_message(const ControlMessage& msg);

  /// Pre-sizes the host registry and the switch-keyed tables for the
  /// expected fabric (the boot-time gratuitous-ARP storm registers every
  /// host — and every switch hellos — in a tight burst).
  void reserve(std::size_t hosts, std::size_t switches) {
    for (RegistryShard& s : shards_) {
      s.hosts.reserve(hosts / shards_.size() + 1);
    }
    pod_by_requester_.reserve(switches);
    synced_switches_.reserve(switches);
  }

  // --- inspection (tests, benches) --------------------------------------
  [[nodiscard]] const FabricGraph& graph() const { return graph_; }
  [[nodiscard]] std::optional<HostRecord> host(Ipv4Address ip) const;
  [[nodiscard]] std::size_t host_count() const {
    std::size_t n = 0;
    for (const RegistryShard& s : shards_) n += s.hosts.size();
    return n;
  }
  [[nodiscard]] std::uint16_t pods_assigned() const { return next_pod_; }
  /// Merged counter view: the primary's counters plus every registry
  /// shard's, summed cell by cell.
  [[nodiscard]] CounterSet counters() const;
  [[nodiscard]] std::size_t installed_prune_keys() const {
    return installed_prunes_.size();
  }
  [[nodiscard]] const std::map<Ipv4Address, GroupState>& groups() const {
    return groups_;
  }
  [[nodiscard]] std::optional<MulticastTree> installed_tree(
      Ipv4Address group) const;

  // --- registry sharding -------------------------------------------------
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Registry shard owning `ip` under the current shard count.
  [[nodiscard]] std::size_t shard_of(Ipv4Address ip) const {
    return fm_shard_of(ip, shards_.size());
  }
  /// Per-shard counters (E22 reports the per-shard ArpQuery split).
  [[nodiscard]] const CounterSet& shard_counters(std::size_t s) const {
    return shards_[s].counters;
  }

  // --- benchmark fast paths (E6: ARP service throughput) ----------------
  /// Pure lookup, exactly the proxy-ARP hot path: one hash, one probe
  /// run over the owning shard's open-addressed index.
  [[nodiscard]] std::optional<MacAddress> lookup_pmac(Ipv4Address ip) const {
    const HostRecord* rec = shards_[shard_of(ip)].hosts.find(ip);
    if (rec == nullptr) return std::nullopt;
    return rec->pmac;
  }

  /// Registers a host mapping directly (bench setup, bypassing the wire).
  void register_host_direct(Ipv4Address ip, const HostRecord& record);

  /// Drops a host record (soft-state expiry; also used by tests to force
  /// the proxy-ARP miss/broadcast-fallback path).
  void forget_host(Ipv4Address ip) {
    RegistryShard& s = shards_[shard_of(ip)];
    if (s.hosts.erase(ip)) {
      s.dirty = true;
      s.snap_clean = false;
    }
  }

  /// Simulates an FM failover: every piece of soft state is wiped, as if a
  /// cold replica took over (paper §3.1). Recovery requires no
  /// configuration: topology returns with the next hellos, pod numbers are
  /// re-learned from switch locators, host mappings and multicast
  /// membership return with the edges' periodic refreshes, and the first
  /// hello from each switch carries a prune flush so no stale reroutes
  /// survive the old incarnation.
  void simulate_failover();

  /// Fails over to the hot standby: wipes like simulate_failover, then
  /// restores from the last FmDelta images streamed to kFmReplicaId.
  /// Only the dirty window since the last sync is lost; the periodic
  /// soft-state refreshes top that remainder up. Requires fm_replica.
  void failover_to_replica();

  /// Wires the replica delta stream: registry shard s ticks its sync
  /// timer on simulator shard `registry_shards[s]`, the primary's core
  /// section on `core_shard` (pass empty/kNoShard outside parallel runs).
  /// Call once after construction when config.fm_replica is on.
  void start_replica_sync(const std::vector<sim::ShardId>& registry_shards,
                          sim::ShardId core_shard);

  /// Sections held by the standby with a streamed image (tests).
  [[nodiscard]] std::size_t replica_sections_held() const {
    std::size_t n = 0;
    for (const ReplicaSection& s : replica_) n += s.version > 0 ? 1 : 0;
    return n;
  }

  /// Checkpoint: the complete soft state — topology view, pod allocations,
  /// host registry (every shard), installed prunes, multicast
  /// groups/trees, counters, and the standby's streamed images. The
  /// control-plane endpoint registration is construction wiring. A load
  /// of an image saved under another registry shard count or replica
  /// setting fails the reader and returns what differs; any other refusal
  /// only fails the reader, and a save always returns nullptr. Each
  /// registry shard's entries are a content-addressed section
  /// (SnapshotIo::hashed): a shard that holds the incoming entries skips
  /// them.
  const char* snapshot(sim::SnapshotIo& io);

  /// Attaches the convergence monitor (nullptr = off). The FM is not a
  /// Device, so the fabric tells it which shard its handlers run on (the
  /// core shard hosting the control-plane endpoint).
  void set_convergence_monitor(obs::ConvergenceMonitor* monitor,
                               std::uint32_t shard) {
    monitor_ = monitor;
    monitor_shard_ = shard;
  }

 private:
  /// One independent soft-state slice of the IP -> PMAC registry. Each
  /// runs its control handler (and replica sync timer) on its own
  /// simulator shard, so everything here — registry, counters, dirty
  /// flag — is touched only from that shard's context.
  struct RegistryShard {
    FmRegistry<HostRecord> hosts;
    CounterSet counters;
    std::uint64_t delta_version = 0;
    bool dirty = false;
    /// True while `hosts` is exactly the snapshot section it last loaded,
    /// whose hash is `snap_hash`: a load of that section skips it. Every
    /// change to `hosts` clears it.
    bool snap_clean = false;
    std::uint64_t snap_hash = 0;
    std::unique_ptr<sim::PeriodicTimer> sync_timer;
  };
  /// One streamed standby image: section 0 is the primary's core state,
  /// section 1 + s registry shard s. Written only by the kFmReplicaId
  /// handler (its own shard context).
  struct ReplicaSection {
    std::uint64_t version = 0;
    std::vector<std::uint8_t> image;
  };

  void handle_shard_message(std::size_t shard, const ControlMessage& msg);
  void on_replica_delta(const FmDelta& m);

  void on_hello(SwitchId sender, const SwitchHello& m);
  void on_pod_request(SwitchId sender);
  void on_host_register(SwitchId sender, const HostRegister& m,
                        std::size_t shard);
  void on_arp_query(SwitchId sender, const ArpQuery& m, std::size_t shard);
  void on_fault_notify(SwitchId sender, const FaultNotify& m);
  void on_mcast_join(SwitchId sender, const McastJoin& m);
  void on_mcast_leave(SwitchId sender, const McastLeave& m);
  void on_mcast_sender_seen(SwitchId sender, const McastSenderSeen& m);

  /// Recomputes prunes for `event_keys` plus every key already installed
  /// (compound faults interact), diffs against installed state, and pushes
  /// deltas to the affected switches.
  void recompute_prunes(const std::vector<DstKey>& event_keys,
                        SimDuration base_delay);

  /// Recomputes one group's tree and (re)installs the diff.
  void recompute_group(Ipv4Address group, SimDuration base_delay);

  /// Recomputes every group (after topology changes).
  void recompute_all_groups(SimDuration base_delay);

  void send(SwitchId to, ControlBody body, SimDuration extra = 0);

  /// Everything the primary owns except the registry shards and counters
  /// (replica section 0 and the head of the snapshot image).
  void snapshot_core(sim::SnapshotIo& io);
  /// One registry shard's entries, ascending by IP. A load replaces `s`'s
  /// entries and refuses one that another shard owns.
  void snapshot_registry(sim::SnapshotIo& io, RegistryShard& s);

  void sync_core_section();
  void sync_shard_section(std::size_t shard);
  void wipe_soft_state();

  sim::Simulator* sim_;
  ControlPlane* control_;
  PortlandConfig config_;

  FabricGraph graph_;

  std::uint16_t next_pod_ = 0;
  /// Flat sorted-by-id vectors (reserved up front in reserve()): the
  /// boot-time hello storm touches these once per switch, and a sorted
  /// vector keeps both the no-allocation registration path and the
  /// ascending iteration order the snapshot layout relies on.
  std::vector<std::pair<SwitchId, std::uint16_t>> pod_by_requester_;
  /// Switches that have hello'd this FM incarnation (and therefore had
  /// their prune state flushed/re-synced). Sorted by id.
  std::vector<SwitchId> synced_switches_;

  std::vector<RegistryShard> shards_;  // size >= 1

  /// Currently installed prune state, per destination key.
  std::map<DstKey, PruneMap> installed_prunes_;

  std::map<Ipv4Address, GroupState> groups_;
  std::map<Ipv4Address, MulticastTree> installed_trees_;

  CounterSet counters_;

  // Hot-standby state (present only when config.fm_replica).
  std::vector<ReplicaSection> replica_;  // 1 + shard count sections
  std::uint64_t core_version_ = 0;
  bool core_dirty_ = false;
  std::unique_ptr<sim::PeriodicTimer> core_sync_timer_;

  obs::ConvergenceMonitor* monitor_ = nullptr;
  std::uint32_t monitor_shard_ = 0;
};

}  // namespace portland::core
