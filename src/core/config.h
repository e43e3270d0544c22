// Tunables for the PortLand fabric. Defaults follow the paper's testbed:
// LDM period 10 ms, failure declared after 5 missed LDMs (50 ms).
#pragma once

#include <cstddef>

#include "common/units.h"

namespace portland::core {

struct PortlandConfig {
  // --- Location Discovery Protocol (paper §3.4 / §4) ---
  /// Period between Location Discovery Messages on every switch port.
  SimDuration ldm_period = millis(10);
  /// A switch port with no LDM for this long is declared failed.
  SimDuration neighbor_timeout = millis(50);
  /// Retry interval for position proposals awaiting aggregation acks.
  SimDuration position_retry = millis(15);
  /// Retry interval for pod-number requests to the fabric manager.
  SimDuration pod_request_retry = millis(20);

  /// Periodic SwitchHello (locator + neighbor table) interval.
  SimDuration hello_interval = seconds(1);
  /// Batch delay between a local state change and the triggered hello.
  SimDuration hello_batch_delay = millis(1);
  /// Edge switches re-register their hosts with the fabric manager at
  /// this period. The FM holds soft state only (paper §3.1): after an FM
  /// failover the replica rebuilds its PMAC registry from these refreshes
  /// and its topology from hellos, with zero configuration.
  SimDuration host_reregister_interval = seconds(1);

  // --- control network (switches <-> fabric manager) ---
  /// One-way latency of the out-of-band control network.
  SimDuration control_latency = micros(500);
  /// Fabric-manager processing time to recompute reroutes for one fault.
  SimDuration fm_fault_processing = millis(2);
  /// Fabric-manager processing time to recompute one multicast tree; the
  /// paper's multicast recovery (~110 ms) is slower than unicast (~65 ms)
  /// because the tree must be recomputed and reinstalled switch by switch.
  SimDuration fm_multicast_processing = millis(30);
  /// Per-switch flow-table installation cost (OpenFlow flow_mod analogue).
  SimDuration flow_install_cost = millis(1);

  // --- failure detection ablation ---
  /// When true, switches also react to carrier loss immediately instead of
  /// waiting for the LDM timeout (not part of the paper's design; used by
  /// the ablation bench).
  bool fast_link_detection = false;

  // --- proxy ARP ---
  /// Edge-switch timeout for an ARP query to the fabric manager, after
  /// which the request falls back to broadcast.
  SimDuration arp_query_timeout = millis(50);

  // --- fabric-manager scale-out (E22) ---
  /// Registry shards the FM splits its IP->PMAC soft state across. 1
  /// (default): the classic single endpoint. 0: auto — one shard per pod.
  /// N > 1: each shard answers ArpQuery/HostRegister at its own
  /// control-plane address (kFmShardIdBase + s) pinned to its own
  /// simulator shard, so ARP service parallelizes under the PDES engine.
  std::size_t fm_shards = 1;
  /// Edge-switch ARP coalescing: duplicate in-flight resolutions for one
  /// IP ride a single FM query and fan the answer out (on by default —
  /// the first query per IP is always issued, so resolution behavior is
  /// unchanged; only duplicate control traffic disappears).
  bool arp_coalescing = true;
  /// Bounded per-edge negative ARP cache: after an FM miss, repeat
  /// queries for the same absent IP are answered locally (with the same
  /// broadcast fallback) until the entry expires. 0 disables.
  std::size_t arp_negative_cache_entries = 64;
  /// Lifetime of a negative cache entry. Matches the host ARP retry
  /// interval by default so a retrying host is throttled to roughly one
  /// FM-bound query per edge per interval.
  SimDuration arp_negative_ttl = millis(200);
  /// Hot-standby FM replica at kFmReplicaId, fed by a state-delta stream
  /// from the primary (and every registry shard). failover_to_replica()
  /// then restores from the last streamed deltas instead of a cold wipe,
  /// bounding the blackout to the dirty window.
  bool fm_replica = false;
  /// Period between delta syncs toward the replica (per section; dirty
  /// sections only).
  SimDuration fm_replica_sync_interval = millis(100);

  // --- ECMP ablation ---
  /// kFlowHash pins each flow to one uplink (the paper's design: no
  /// intra-flow reordering). kPacketSpray round-robins every packet —
  /// better instantaneous balance, but reorders TCP (bench E11 quantifies
  /// why the paper hashes flows).
  enum class EcmpMode { kFlowHash, kPacketSpray };
  EcmpMode ecmp_mode = EcmpMode::kFlowHash;

  // --- forwarding state (E19 scale work) ---
  // Switch tables are flat PMAC-prefix tables: a contiguous host table
  // with sorted indexes, a flat pruned-route FIB, and a fixed
  // open-addressed flow cache.
  /// Flow-cache capacity per switch (rounded up to a power of two;
  /// allocated lazily, so core switches that never route upward pay
  /// nothing).
  std::size_t flow_cache_entries = 4096;
};

}  // namespace portland::core
