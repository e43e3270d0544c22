// Fabric-manager unit tests against a hand-built topology graph: pod
// allocation, proxy-ARP registry, migration detection, fault-matrix prune
// computation, and multicast tree computation.
#include <gtest/gtest.h>

#include "core/fabric_graph.h"
#include "core/fabric_manager.h"
#include "core/multicast.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"

namespace portland::core {
namespace {

/// Builds the FM-visible graph of a k=4 fat tree with LDP-true locators.
/// Switch ids: edge = 100 + pod*2 + e; agg = 200 + pod*2 + a;
/// core = 300 + g*2 + m.
class GraphFixture {
 public:
  GraphFixture() {
    for (std::uint16_t pod = 0; pod < 4; ++pod) {
      for (std::uint8_t e = 0; e < 2; ++e) {
        hello(edge_id(pod, e), Level::kEdge, pod, e);
      }
      for (std::uint8_t a = 0; a < 2; ++a) {
        hello(agg_id(pod, a), Level::kAggregation, pod, a);
      }
    }
    for (std::uint8_t g = 0; g < 2; ++g) {
      for (std::uint8_t m = 0; m < 2; ++m) {
        hello(core_id(g, m), Level::kCore, kUnknownPod, kUnknownPosition);
      }
    }
    // Wire adjacency: edge <-> agg within pods; agg(pos a) <-> cores (a,*).
    for (std::uint16_t pod = 0; pod < 4; ++pod) {
      for (std::uint8_t e = 0; e < 2; ++e) {
        for (std::uint8_t a = 0; a < 2; ++a) {
          link(edge_id(pod, e), 2 + a, agg_id(pod, a), e);
        }
      }
      for (std::uint8_t a = 0; a < 2; ++a) {
        for (std::uint8_t m = 0; m < 2; ++m) {
          link(agg_id(pod, a), 2 + m, core_id(a, m),
               static_cast<std::uint16_t>(pod));
        }
      }
    }
    flush();
  }

  static SwitchId edge_id(std::uint16_t pod, std::uint8_t e) {
    return 100 + pod * 2 + e;
  }
  static SwitchId agg_id(std::uint16_t pod, std::uint8_t a) {
    return 200 + pod * 2 + a;
  }
  static SwitchId core_id(std::uint8_t g, std::uint8_t m) {
    return 300 + g * 2 + m;
  }

  FabricGraph graph;

 private:
  void hello(SwitchId id, Level level, std::uint16_t pod, std::uint8_t pos) {
    hellos_[id].self = SwitchLocator{id, level, pod, pos};
  }
  void link(SwitchId a, std::uint16_t port_a, SwitchId b,
            std::uint16_t port_b) {
    hellos_[a].neighbors.push_back(NeighborEntry{port_a, hellos_[b].self});
    hellos_[b].neighbors.push_back(NeighborEntry{port_b, hellos_[a].self});
  }
  void flush() {
    for (const auto& [id, h] : hellos_) graph.apply_hello(id, h);
  }

  std::map<SwitchId, SwitchHello> hellos_;
};

TEST(FabricGraph, QueriesReflectTopology) {
  GraphFixture fx;
  EXPECT_EQ(fx.graph.switch_count(), 20u);
  EXPECT_EQ(fx.graph.cores().size(), 4u);
  EXPECT_EQ(fx.graph.edges_in_pod(2).size(), 2u);
  EXPECT_EQ(fx.graph.aggs_in_pod(2).size(), 2u);
  EXPECT_EQ(fx.graph.edge_at(1, 1), GraphFixture::edge_id(1, 1));
  EXPECT_EQ(fx.graph.edge_at(1, 9), kInvalidSwitchId);

  const SwitchId e = GraphFixture::edge_id(0, 0);
  const SwitchId a = GraphFixture::agg_id(0, 1);
  EXPECT_TRUE(fx.graph.adjacent(e, a));
  EXPECT_TRUE(fx.graph.link_alive(e, a));
  EXPECT_EQ(fx.graph.port_between(e, a), 3);  // uplink 2 + a
  EXPECT_EQ(fx.graph.port_between(a, e), 0);
  EXPECT_FALSE(fx.graph.adjacent(e, GraphFixture::core_id(0, 0)));
}

TEST(FabricGraph, LinkStateChanges) {
  GraphFixture fx;
  const SwitchId a = GraphFixture::agg_id(1, 0);
  const SwitchId c = GraphFixture::core_id(0, 1);
  EXPECT_TRUE(fx.graph.set_link_state(a, c, false));
  EXPECT_FALSE(fx.graph.set_link_state(a, c, false));  // idempotent
  EXPECT_FALSE(fx.graph.link_alive(a, c));
  EXPECT_EQ(fx.graph.failed_link_count(), 1u);
  EXPECT_TRUE(fx.graph.set_link_state(a, c, true));
  EXPECT_EQ(fx.graph.failed_link_count(), 0u);
}

TEST(FabricGraph, KeysForLink) {
  GraphFixture fx;
  const auto edge_keys = fx.graph.keys_for_link(
      GraphFixture::edge_id(2, 1), GraphFixture::agg_id(2, 0));
  ASSERT_EQ(edge_keys.size(), 1u);
  EXPECT_EQ(edge_keys[0], (DstKey{2, 1}));

  const auto pod_keys = fx.graph.keys_for_link(
      GraphFixture::core_id(1, 0), GraphFixture::agg_id(3, 1));
  ASSERT_EQ(pod_keys.size(), 1u);
  EXPECT_EQ(pod_keys[0], (DstKey{3, kUnknownPosition}));

  // Unknown endpoints yield nothing.
  EXPECT_TRUE(fx.graph.keys_for_link(1, 2).empty());
}

TEST(FabricGraph, NoPrunesOnHealthyFabric) {
  GraphFixture fx;
  EXPECT_TRUE(fx.graph.compute_prunes(DstKey{0, 0}).empty());
  EXPECT_TRUE(fx.graph.compute_prunes(DstKey{2, kUnknownPosition}).empty());
}

TEST(FabricGraph, EdgeAggFaultPrunesEverywhereRelevant) {
  GraphFixture fx;
  // Kill agg(0,0) <-> edge(0,0): destination (pod 0, position 0).
  const SwitchId e00 = GraphFixture::edge_id(0, 0);
  const SwitchId a00 = GraphFixture::agg_id(0, 0);
  fx.graph.set_link_state(e00, a00, false);
  const PruneMap prunes = fx.graph.compute_prunes(DstKey{0, 0});

  // In-pod: edge(0,1) must avoid agg(0,0) for this destination.
  const SwitchId e01 = GraphFixture::edge_id(0, 1);
  ASSERT_TRUE(prunes.count(e01));
  EXPECT_TRUE(prunes.at(e01).count(a00));

  // Group-0 cores (which enter pod 0 at a00) are dead for this dst: aggs
  // at position 0 in other pods must avoid both of them.
  const SwitchId a10 = GraphFixture::agg_id(1, 0);
  ASSERT_TRUE(prunes.count(a10));
  EXPECT_TRUE(prunes.at(a10).count(GraphFixture::core_id(0, 0)));
  EXPECT_TRUE(prunes.at(a10).count(GraphFixture::core_id(0, 1)));

  // Those aggs then have no surviving core for the dst, so edges in other
  // pods must avoid them entirely.
  const SwitchId e10 = GraphFixture::edge_id(1, 0);
  ASSERT_TRUE(prunes.count(e10));
  EXPECT_TRUE(prunes.at(e10).count(a10));
  EXPECT_FALSE(prunes.at(e10).count(GraphFixture::agg_id(1, 1)));

  // Position-1 aggs are untouched.
  EXPECT_FALSE(prunes.count(GraphFixture::agg_id(1, 1)));
}

TEST(FabricGraph, AggCoreFaultPrunesPodLevel) {
  GraphFixture fx;
  // Kill agg(2,1) <-> core(1,0): pod 2 loses that core.
  const SwitchId a21 = GraphFixture::agg_id(2, 1);
  const SwitchId c10 = GraphFixture::core_id(1, 0);
  fx.graph.set_link_state(a21, c10, false);
  const PruneMap prunes = fx.graph.compute_prunes(DstKey{2, kUnknownPosition});

  // Aggs at position 1 in other pods avoid core(1,0) for dst pod 2.
  const SwitchId a01 = GraphFixture::agg_id(0, 1);
  ASSERT_TRUE(prunes.count(a01));
  EXPECT_TRUE(prunes.at(a01).count(c10));
  EXPECT_FALSE(prunes.at(a01).count(GraphFixture::core_id(1, 1)));

  // Those aggs still reach pod 2 via core(1,1): edges need no pruning.
  EXPECT_FALSE(prunes.count(GraphFixture::edge_id(0, 0)));
  // Aggs inside pod 2 are not restricted for their own pod.
  EXPECT_FALSE(prunes.count(GraphFixture::agg_id(2, 0)));
}

TEST(FabricGraph, CompoundFaultsEscalateToEdgePruning) {
  GraphFixture fx;
  // Cut BOTH cores of group 1 off from pod 2: now any agg at position 1
  // anywhere has no path to pod 2, and edges must avoid position-1 aggs.
  fx.graph.set_link_state(GraphFixture::agg_id(2, 1),
                          GraphFixture::core_id(1, 0), false);
  fx.graph.set_link_state(GraphFixture::agg_id(2, 1),
                          GraphFixture::core_id(1, 1), false);
  const PruneMap prunes = fx.graph.compute_prunes(DstKey{2, kUnknownPosition});
  const SwitchId e00 = GraphFixture::edge_id(0, 0);
  ASSERT_TRUE(prunes.count(e00));
  EXPECT_TRUE(prunes.at(e00).count(GraphFixture::agg_id(0, 1)));
}

TEST(Multicast, TreeSpansParticipantPods) {
  GraphFixture fx;
  GroupState state;
  state.receivers[GraphFixture::edge_id(0, 0)] = {0};
  state.receivers[GraphFixture::edge_id(2, 1)] = {0, 1};
  state.senders.insert(GraphFixture::edge_id(3, 0));

  const auto tree =
      compute_multicast_tree(fx.graph, Ipv4Address(224, 1, 1, 1), state);
  ASSERT_TRUE(tree.has_value());
  // The rendezvous core must be adjacent to aggs of pods 0, 2 and 3.
  const SwitchLocator* core_loc = fx.graph.locator(tree->core);
  ASSERT_NE(core_loc, nullptr);
  EXPECT_EQ(core_loc->level, Level::kCore);
  // Every participant edge appears with its member host ports included.
  ASSERT_TRUE(tree->ports.count(GraphFixture::edge_id(2, 1)));
  const auto& e21_ports = tree->ports.at(GraphFixture::edge_id(2, 1));
  EXPECT_TRUE(e21_ports.count(0));
  EXPECT_TRUE(e21_ports.count(1));
  // Sender edge is in the tree even without receivers.
  EXPECT_TRUE(tree->ports.count(GraphFixture::edge_id(3, 0)));
}

TEST(Multicast, AvoidsDeadCore) {
  GraphFixture fx;
  GroupState state;
  state.receivers[GraphFixture::edge_id(0, 0)] = {0};
  state.receivers[GraphFixture::edge_id(1, 0)] = {0};

  const Ipv4Address group(224, 0, 0, 2);
  const auto before = compute_multicast_tree(fx.graph, group, state);
  ASSERT_TRUE(before.has_value());

  // Kill the chosen core's links; recomputation must pick another.
  for (std::uint16_t pod = 0; pod < 4; ++pod) {
    for (std::uint8_t a = 0; a < 2; ++a) {
      fx.graph.set_link_state(GraphFixture::agg_id(pod, a), before->core,
                              false);
    }
  }
  const auto after = compute_multicast_tree(fx.graph, group, state);
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(after->core, before->core);
}

TEST(Multicast, NoParticipantsNoTree) {
  GraphFixture fx;
  EXPECT_FALSE(compute_multicast_tree(fx.graph, Ipv4Address(224, 0, 0, 1),
                                      GroupState{})
                   .has_value());
}

// ---------------------------------------------------------------------------
// FabricManager behaviors over a real control plane.
// ---------------------------------------------------------------------------

struct FmFixture {
  sim::Simulator sim;
  ControlPlane control{sim, micros(10)};
  PortlandConfig config;
  FabricManager fm{sim, control, config};
  std::vector<ControlMessage> inbox;

  void attach_switch(SwitchId id) {
    control.register_endpoint(
        id, [this](const ControlMessage& m) { inbox.push_back(m); });
  }
  void from_switch(SwitchId id, ControlBody body) {
    control.send(kFabricManagerId, ControlMessage{id, std::move(body)});
  }
};

TEST(FabricManager, PodAssignmentIsSequentialAndIdempotent) {
  FmFixture fx;
  fx.attach_switch(50);
  fx.attach_switch(51);
  fx.from_switch(50, PodRequest{});
  fx.from_switch(50, PodRequest{});  // duplicate request
  fx.from_switch(51, PodRequest{});
  fx.sim.run();

  ASSERT_EQ(fx.inbox.size(), 3u);
  EXPECT_EQ(std::get<PodAssignment>(fx.inbox[0].body).pod, 0);
  EXPECT_EQ(std::get<PodAssignment>(fx.inbox[1].body).pod, 0);  // same pod
  EXPECT_EQ(std::get<PodAssignment>(fx.inbox[2].body).pod, 1);
  EXPECT_EQ(fx.fm.pods_assigned(), 2);
}

TEST(FabricManager, ArpHitAndMiss) {
  FmFixture fx;
  fx.attach_switch(60);
  const Ipv4Address ip(10, 0, 0, 5);
  const MacAddress pmac = MacAddress::from_u64(0x000000010001);
  fx.from_switch(60, HostRegister{ip, MacAddress::from_u64(0x02000001),
                                  pmac, 1});
  fx.from_switch(60, ArpQuery{1, ip});
  fx.from_switch(60, ArpQuery{2, Ipv4Address(10, 9, 9, 9)});
  fx.sim.run();

  ASSERT_EQ(fx.inbox.size(), 2u);
  const auto& hit = std::get<ArpResponse>(fx.inbox[0].body);
  EXPECT_TRUE(hit.found);
  EXPECT_EQ(hit.pmac, pmac);
  const auto& miss = std::get<ArpResponse>(fx.inbox[1].body);
  EXPECT_FALSE(miss.found);
  EXPECT_EQ(fx.fm.counters().get("arp_hits"), 1u);
  EXPECT_EQ(fx.fm.counters().get("arp_misses"), 1u);
}

TEST(FabricManager, DetectsMigrationAndInvalidatesOldEdge) {
  FmFixture fx;
  fx.attach_switch(60);  // old edge
  fx.attach_switch(61);  // new edge
  const Ipv4Address ip(10, 0, 0, 7);
  const MacAddress amac = MacAddress::from_u64(0x020000000007);
  const MacAddress old_pmac = MacAddress::from_u64(0x000000010001);
  const MacAddress new_pmac = MacAddress::from_u64(0x000300010001);

  fx.from_switch(60, HostRegister{ip, amac, old_pmac, 0});
  fx.sim.run();
  EXPECT_TRUE(fx.inbox.empty());

  fx.from_switch(61, HostRegister{ip, amac, new_pmac, 1});
  fx.sim.run();
  ASSERT_EQ(fx.inbox.size(), 1u);
  EXPECT_EQ(fx.inbox[0].sender, kFabricManagerId);
  const auto& inv = std::get<InvalidateHost>(fx.inbox[0].body);
  EXPECT_EQ(inv.ip, ip);
  EXPECT_EQ(inv.old_pmac, old_pmac);
  EXPECT_EQ(inv.new_pmac, new_pmac);
  EXPECT_EQ(fx.fm.counters().get("migrations_detected"), 1u);
  EXPECT_EQ(fx.fm.host(ip)->edge, 61u);
}

TEST(FabricManager, LookupFastPath) {
  FmFixture fx;
  const Ipv4Address ip(10, 1, 1, 1);
  const MacAddress pmac = MacAddress::from_u64(0x000100000001);
  fx.fm.register_host_direct(ip, {pmac, MacAddress::from_u64(0x02001), 9, 0});
  EXPECT_EQ(fx.fm.lookup_pmac(ip), pmac);
  EXPECT_FALSE(fx.fm.lookup_pmac(Ipv4Address(1, 2, 3, 4)).has_value());
}

// ---------------------------------------------------------------------------
// Sharded registry (E22) and the hot-standby delta stream.
// ---------------------------------------------------------------------------

TEST(FabricManager, ShardedRegistryServesPerShardEndpoints) {
  sim::Simulator sim;
  ControlPlane control(sim, micros(10));
  PortlandConfig config;
  config.fm_shards = 4;
  FabricManager fm(sim, control, config);
  ASSERT_EQ(fm.shard_count(), 4u);
  std::vector<ControlMessage> inbox;
  control.register_endpoint(
      60, [&](const ControlMessage& m) { inbox.push_back(m); });

  // Register 32 hosts, each at its owning shard's endpoint (as a sharded
  // edge switch would).
  std::vector<Ipv4Address> ips;
  for (std::uint32_t i = 0; i < 32; ++i) {
    const Ipv4Address ip(10, 0, 0, 1 + i);
    ips.push_back(ip);
    control.send(
        static_cast<SwitchId>(kFmShardIdBase + fm.shard_of(ip)),
        ControlMessage{60, HostRegister{
                               ip, MacAddress::from_u64(0x020000000000ull + i),
                               MacAddress::from_u64(0x000000010000ull + i),
                               1}});
  }
  sim.run();
  EXPECT_EQ(fm.host_count(), 32u);

  // Queries at the shard endpoints answer exactly like the classic FM.
  std::uint32_t qid = 1;
  for (const Ipv4Address ip : ips) {
    control.send(static_cast<SwitchId>(kFmShardIdBase + fm.shard_of(ip)),
                 ControlMessage{60, ArpQuery{qid++, ip}});
  }
  const Ipv4Address absent(10, 9, 9, 9);
  control.send(static_cast<SwitchId>(kFmShardIdBase + fm.shard_of(absent)),
               ControlMessage{60, ArpQuery{qid++, absent}});
  sim.run();
  ASSERT_EQ(inbox.size(), 33u);
  for (std::size_t i = 0; i + 1 < inbox.size(); ++i) {
    EXPECT_TRUE(std::get<ArpResponse>(inbox[i].body).found) << i;
  }
  EXPECT_FALSE(std::get<ArpResponse>(inbox.back().body).found);

  // Merged counters sum the per-shard slices, and the load really split
  // across more than one shard.
  EXPECT_EQ(fm.counters().get("arp_hits"), 32u);
  EXPECT_EQ(fm.counters().get("arp_misses"), 1u);
  std::size_t shards_serving = 0;
  std::uint64_t per_shard_total = 0;
  for (std::size_t s = 0; s < fm.shard_count(); ++s) {
    const std::uint64_t q = fm.shard_counters(s).get("arp_queries");
    shards_serving += q > 0 ? 1 : 0;
    per_shard_total += q;
  }
  EXPECT_GE(shards_serving, 2u);
  EXPECT_EQ(per_shard_total, 33u);

  // The primary address still routes registry traffic internally, so
  // unsharded senders keep working at any shard count.
  inbox.clear();
  control.send(kFabricManagerId, ControlMessage{60, ArpQuery{qid++, ips[0]}});
  sim.run();
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_TRUE(std::get<ArpResponse>(inbox[0].body).found);
  EXPECT_EQ(fm.lookup_pmac(ips[0]), MacAddress::from_u64(0x000000010000ull));
}

TEST(FabricManager, ReplicaFailoverRestoresStreamedState) {
  sim::Simulator sim;
  ControlPlane control(sim, micros(10));
  PortlandConfig config;
  config.fm_shards = 2;
  config.fm_replica = true;
  config.fm_replica_sync_interval = millis(10);
  FabricManager fm(sim, control, config);
  fm.start_replica_sync({0, 0}, 0);

  for (std::uint32_t i = 0; i < 16; ++i) {
    const Ipv4Address ip(10, 0, 0, 1 + i);
    control.send(
        static_cast<SwitchId>(kFmShardIdBase + fm.shard_of(ip)),
        ControlMessage{60, HostRegister{
                               ip, MacAddress::from_u64(0x020000000000ull + i),
                               MacAddress::from_u64(0x000000010000ull + i),
                               1}});
  }
  sim.run_until(millis(55));  // several sync intervals stream the deltas
  EXPECT_EQ(fm.host_count(), 16u);
  EXPECT_GE(fm.replica_sections_held(), 2u);  // both registry shards synced

  // A registration landing inside the dirty window (after the last sync)
  // is exactly what a failover may lose — nothing more.
  const Ipv4Address late(10, 0, 0, 99);
  control.send(static_cast<SwitchId>(kFmShardIdBase + fm.shard_of(late)),
               ControlMessage{60, HostRegister{
                                      late, MacAddress::from_u64(0x02990000),
                                      MacAddress::from_u64(0x00990000), 1}});
  sim.run_until(millis(56));  // delivered, but the next sync hasn't run
  EXPECT_EQ(fm.host_count(), 17u);

  fm.failover_to_replica();
  EXPECT_EQ(fm.host_count(), 16u);  // streamed state back, dirty window lost
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(fm.lookup_pmac(Ipv4Address(10, 0, 0, 1 + i)).has_value()) << i;
  }
  EXPECT_FALSE(fm.lookup_pmac(late).has_value());
  EXPECT_EQ(fm.counters().get("replica_failovers"), 1u);

  // A cold failover (no replica restore) wipes everything instead.
  fm.simulate_failover();
  EXPECT_EQ(fm.host_count(), 0u);
}

TEST(FabricManager, SnapshotRedistributesAcrossShardCounts) {
  sim::Simulator sim_a;
  ControlPlane control_a(sim_a, micros(10));
  PortlandConfig config_a;
  config_a.fm_shards = 4;
  FabricManager fm_a(sim_a, control_a, config_a);
  for (std::uint32_t i = 0; i < 24; ++i) {
    fm_a.register_host_direct(
        Ipv4Address(10, 0, 1, i),
        {MacAddress::from_u64(0x000000020000ull + i),
         MacAddress::from_u64(0x020000000000ull + i), 7, 0});
  }
  // Per-shard counters: 24 hits spread over the shards, plus one miss.
  for (std::uint32_t i = 0; i <= 24; ++i) {
    fm_a.handle_message({1, ArpQuery{i, Ipv4Address(10, 0, 1, i)}});
  }
  std::vector<std::uint8_t> image;
  sim::SnapshotWriter w(image);
  sim::SnapshotIo save(w);
  fm_a.snapshot(save);

  // Restoring a 4-shard image into a single-shard FM re-homes every
  // record, and folds every shard's counters, under the new shard count.
  // Counts the target had before the restore do not survive it.
  sim::Simulator sim_b;
  ControlPlane control_b(sim_b, micros(10));
  FabricManager fm_b(sim_b, control_b, PortlandConfig{});
  fm_b.handle_message({1, ArpQuery{99, Ipv4Address(10, 9, 9, 9)}});
  sim::SnapshotReader r(image);
  sim::SnapshotIo load(r);
  fm_b.snapshot(load);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(fm_b.counters() == fm_a.counters());
  EXPECT_EQ(fm_b.shard_counters(0).get(Counter::arp_queries), 25u);
  EXPECT_EQ(fm_b.shard_counters(0).get(Counter::arp_hits), 24u);
  EXPECT_EQ(fm_b.shard_counters(0).get(Counter::arp_misses), 1u);
  EXPECT_EQ(fm_b.host_count(), 24u);
  for (std::uint32_t i = 0; i < 24; ++i) {
    EXPECT_EQ(fm_b.lookup_pmac(Ipv4Address(10, 0, 1, i)),
              MacAddress::from_u64(0x000000020000ull + i))
        << i;
  }
}

TEST(ControlPlane, CountsPerTypeAndBytes) {
  sim::Simulator sim;
  ControlPlane cp(sim, micros(5));
  int received = 0;
  cp.register_endpoint(7, [&](const ControlMessage&) { ++received; });
  cp.send(7, ControlMessage{1, ArpQuery{1, Ipv4Address(10, 0, 0, 1)}});
  cp.send(7, ControlMessage{1, ArpQuery{2, Ipv4Address(10, 0, 0, 2)}});
  cp.send(99, ControlMessage{1, PodRequest{}});  // no such endpoint
  sim.run();

  EXPECT_EQ(received, 2);
  EXPECT_EQ(cp.messages_sent(), 3u);
  EXPECT_EQ(cp.messages_of("arp_query"), 2u);
  EXPECT_GT(cp.bytes_of("arp_query"), 0u);
  EXPECT_EQ(cp.messages_of("pod_request"), 1u);
  EXPECT_EQ(cp.messages_of("no_such_type"), 0u);
  EXPECT_EQ(cp.bytes_sent(),
            cp.bytes_of("arp_query") + cp.bytes_of("pod_request"));
  EXPECT_EQ(cp.undeliverable(), 1u);
}

TEST(ControlPlane, DeliversAfterLatencyPlusExtraDelay) {
  sim::Simulator sim;
  ControlPlane cp(sim, millis(1));
  SimTime delivered_at = -1;
  cp.register_endpoint(7, [&](const ControlMessage&) {
    delivered_at = sim.now();
  });
  cp.send(7, ControlMessage{1, PodRequest{}}, millis(2));
  sim.run();
  EXPECT_EQ(delivered_at, millis(3));
}

}  // namespace
}  // namespace portland::core
