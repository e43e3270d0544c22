// Fabric-manager failover and soft-state reconstruction (paper §3.1: the
// FM holds soft state only; a cold replica rebuilds everything from switch
// reports with zero configuration). Plus the ECMP-mode ablation and other
// robustness corners: unidirectional link failure and link flap storms.
#include <gtest/gtest.h>

#include "core/fabric.h"
#include "host/apps.h"

namespace portland::core {
namespace {

std::unique_ptr<PortlandFabric> make_fabric(int k, std::uint64_t seed,
                                            PortlandConfig config = {}) {
  PortlandFabric::Options options;
  options.k = k;
  options.seed = seed;
  options.config = config;
  auto fabric = std::make_unique<PortlandFabric>(options);
  EXPECT_TRUE(fabric->run_until_converged());
  return fabric;
}

bool ping(PortlandFabric& fabric, host::Host& a, host::Host& b,
          SimDuration wait = millis(300)) {
  static std::uint16_t port = 27000;
  ++port;
  bool got = false;
  b.bind_udp(port, [&](Ipv4Address, std::uint16_t, std::uint16_t,
                       std::span<const std::uint8_t>) { got = true; });
  a.send_udp(b.ip(), port, port, {1});
  fabric.sim().run_until(fabric.sim().now() + wait);
  return got;
}

TEST(FmFailover, RebuildsTopologyAndHostsWithinRefreshInterval) {
  auto fabric = make_fabric(4, 61);
  FabricManager& fm = fabric->fabric_manager();
  ASSERT_EQ(fm.host_count(), 16u);
  ASSERT_EQ(fm.graph().switch_count(), 20u);

  fm.simulate_failover();
  EXPECT_EQ(fm.host_count(), 0u);
  EXPECT_EQ(fm.graph().switch_count(), 0u);

  // Hellos (1 s) + host refreshes (1 s) restore everything.
  fabric->sim().run_until(fabric->sim().now() + seconds(2) + millis(100));
  EXPECT_EQ(fm.graph().switch_count(), 20u);
  EXPECT_EQ(fm.host_count(), 16u);
  // Pod allocator's high-water mark relearned from locators: no pod
  // number is ever re-issued.
  EXPECT_EQ(fm.pods_assigned(), 4u);
}

TEST(FmFailover, ProxyArpRecoversAfterFailover) {
  auto fabric = make_fabric(4, 62);
  host::Host& a = fabric->host_at(0, 0, 0);
  host::Host& b = fabric->host_at(3, 1, 0);

  fabric->fabric_manager().simulate_failover();
  // Immediately after the failover the registry is empty: the first ARP
  // takes the broadcast fallback and still resolves.
  EXPECT_TRUE(ping(*fabric, a, b));

  // After the refresh interval the registry is warm again: a new
  // resolution is a straight FM hit.
  fabric->sim().run_until(fabric->sim().now() + seconds(2));
  const auto hits0 = fabric->fabric_manager().counters().get("arp_hits");
  host::Host& c = fabric->host_at(1, 0, 1);
  host::Host& d = fabric->host_at(2, 1, 1);
  EXPECT_TRUE(ping(*fabric, c, d));
  EXPECT_GT(fabric->fabric_manager().counters().get("arp_hits"), hits0);
}

TEST(FmFailover, FaultMatrixRelearnedFromRefreshes) {
  auto fabric = make_fabric(4, 63);
  // Create a fault, then fail the FM over: the new FM must re-learn the
  // dead link from the switches' periodic fault refreshes and re-install
  // prunes.
  sim::Link* victim = fabric->network().find_link(fabric->edge_at(0, 0),
                                                  fabric->agg_at(0, 0));
  victim->set_up(false);
  fabric->sim().run_until(fabric->sim().now() + millis(200));
  ASSERT_GE(fabric->fabric_manager().installed_prune_keys(), 1u);

  fabric->fabric_manager().simulate_failover();
  EXPECT_EQ(fabric->fabric_manager().installed_prune_keys(), 0u);

  fabric->sim().run_until(fabric->sim().now() + seconds(2) + millis(200));
  EXPECT_EQ(fabric->fabric_manager().graph().failed_link_count(), 1u);
  EXPECT_GE(fabric->fabric_manager().installed_prune_keys(), 1u);

  // Traffic that needs the reroute still flows.
  EXPECT_TRUE(ping(*fabric, fabric->host_at(1, 0, 0),
                   fabric->host_at(0, 0, 0)));
}

TEST(FmFailover, StalePrunesFlushedByNewIncarnation) {
  auto fabric = make_fabric(4, 64);
  // Fault -> prunes installed at switches. Then: repair the link AND fail
  // the FM over in the same instant. The old FM never processes the
  // repair; without the flush the switches would carry stale prunes
  // forever.
  sim::Link* victim = fabric->network().find_link(fabric->edge_at(0, 0),
                                                  fabric->agg_at(0, 0));
  victim->set_up(false);
  fabric->sim().run_until(fabric->sim().now() + millis(200));
  std::size_t pruned_switches = 0;
  for (const PortlandSwitch* sw : fabric->switches()) {
    if (sw->prune_entry_count() > 0) ++pruned_switches;
  }
  ASSERT_GE(pruned_switches, 1u);

  victim->set_up(true);
  fabric->fabric_manager().simulate_failover();
  fabric->sim().run_until(fabric->sim().now() + seconds(2) + millis(200));

  for (const PortlandSwitch* sw : fabric->switches()) {
    EXPECT_EQ(sw->prune_entry_count(), 0u) << sw->name();
  }
  EXPECT_GE(fabric->control().messages_of("prune_update"), 1u);
}

TEST(FmFailover, MulticastTreeRebuilt) {
  auto fabric = make_fabric(4, 65);
  const Ipv4Address group(224, 2, 0, 9);
  host::Host& sender = fabric->host_at(0, 0, 0);
  host::Host& receiver = fabric->host_at(2, 1, 0);
  int delivered = 0;
  receiver.join_group(group, [&](Ipv4Address, std::uint16_t, std::uint16_t,
                                 std::span<const std::uint8_t>) {
    ++delivered;
  });
  fabric->sim().run_until(fabric->sim().now() + millis(100));
  sender.send_udp_multicast(group, 8000, 8001, {0});  // graft
  fabric->sim().run_until(fabric->sim().now() + millis(100));
  sender.send_udp_multicast(group, 8000, 8001, {1});
  fabric->sim().run_until(fabric->sim().now() + millis(50));
  // The graft packet dropped (sender edge not yet in tree); the second
  // delivered.
  ASSERT_EQ(delivered, 1);

  fabric->fabric_manager().simulate_failover();
  // Joins and sender grafts return with the refresh; the tree reinstalls.
  fabric->sim().run_until(fabric->sim().now() + seconds(2) + millis(200));
  ASSERT_TRUE(fabric->fabric_manager().installed_tree(group).has_value());

  const int before = delivered;
  sender.send_udp_multicast(group, 8000, 8001, {2});
  fabric->sim().run_until(fabric->sim().now() + millis(50));
  EXPECT_EQ(delivered, before + 1);
}

TEST(FmFailover, ReplicaTakeoverUnderLiveTrafficBeatsColdRebuild) {
  // Hot-standby contrast (E22): with the sharded FM streaming deltas to a
  // replica, failover restores the registry immediately instead of waiting
  // for the soft-state refresh cycle — while ARP queries and a UDP flow
  // are in flight, and with the loop-freedom invariant checked throughout.
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 71;
  options.config.fm_shards = 0;  // auto: one registry shard per pod
  options.config.fm_replica = true;
  options.config.fm_replica_sync_interval = millis(50);
  options.obs.convergence_monitor = true;
  PortlandFabric fabric(options);
  ASSERT_TRUE(fabric.run_until_converged());
  FabricManager& fm = fabric.fabric_manager();
  ASSERT_EQ(fm.shard_count(), 4u);
  ASSERT_EQ(fm.host_count(), 16u);

  host::Host& src = fabric.host_at(0, 0, 0);
  host::Host& dst = fabric.host_at(3, 1, 1);
  host::UdpFlowReceiver receiver(dst, 7001);
  host::UdpFlowSender::Config cfg;
  cfg.dst = dst.ip();
  cfg.interval = millis(1);
  host::UdpFlowSender sender(src, cfg);
  sender.start();
  // Steady state, several replica sync intervals deep.
  fabric.sim().run_until(fabric.sim().now() + millis(200));
  ASSERT_GE(fm.replica_sections_held(), 4u);

  // Kick off a fresh resolution so an ArpQuery is in flight at the instant
  // the primary dies.
  fabric.host_at(1, 0, 0).send_udp(fabric.host_at(2, 1, 0).ip(), 26000,
                                   26000, {1});
  fabric.sim().run_until(fabric.sim().now() + micros(50));

  fm.failover_to_replica();
  // The streamed registry is back before a single refresh arrives.
  EXPECT_EQ(fm.host_count(), 16u);
  EXPECT_EQ(fm.counters().get("replica_failovers"), 1u);
  fabric.sim().run_until(fabric.sim().now() + millis(300));
  // The in-flight resolution completed and the flow never died.
  EXPECT_TRUE(ping(fabric, fabric.host_at(1, 0, 1), fabric.host_at(2, 0, 1)));
  EXPECT_GT(receiver.last_arrival_time(), fabric.sim().now() - millis(10));

  // Cold contrast: the classic wipe loses everything until refreshes
  // repopulate it (~1 s host refresh interval).
  fm.simulate_failover();
  EXPECT_EQ(fm.host_count(), 0u);
  EXPECT_TRUE(ping(fabric, fabric.host_at(0, 1, 0), fabric.host_at(3, 0, 0)));
  fabric.sim().run_until(fabric.sim().now() + seconds(2));
  EXPECT_EQ(fm.host_count(), 16u);
  EXPECT_EQ(fm.counters().get("failovers"), 2u);
  EXPECT_GT(receiver.last_arrival_time(), fabric.sim().now() - millis(10));

  // Neither takeover may ever forward a frame in a loop.
  obs::ConvergenceMonitor* monitor = fabric.convergence_monitor();
  ASSERT_NE(monitor, nullptr);
  monitor->finalize();
  EXPECT_GT(monitor->paths_completed(), 0u);
  EXPECT_EQ(monitor->path_violations(), 0u);
}

TEST(Robustness, UnidirectionalLinkFailureIsDetectedAndRouted) {
  auto fabric = make_fabric(4, 66);
  host::Host& a = fabric->host_at(0, 0, 0);
  host::Host& b = fabric->host_at(3, 0, 0);
  host::UdpFlowReceiver receiver(b, 7001);
  host::UdpFlowSender::Config cfg;
  cfg.dst = b.ip();
  cfg.interval = millis(1);
  host::UdpFlowSender sender(a, cfg);
  sender.start();
  fabric->sim().run_until(fabric->sim().now() + millis(100));

  // Kill only one direction of the uplink carrying the flow. The silent
  // side stops hearing LDMs, expires the neighbor, and reports the fault;
  // the fabric reroutes even though the other direction still works.
  const auto& edge = fabric->edge_at(0, 0);
  sim::Link* victim = nullptr;
  int victim_side = 0;
  std::uint64_t best = 0;
  for (const sim::PortId p : edge.ldp().up_ports()) {
    sim::Link* l = edge.port_link(p);
    const int side = &l->device(0) == &edge ? 0 : 1;
    if (l->tx_frames(side) > best) {
      best = l->tx_frames(side);
      victim = l;
      victim_side = side;
    }
  }
  const SimTime fail_at = fabric->sim().now();
  victim->set_direction_up(victim_side, false);  // edge -> agg dead only
  fabric->sim().run_until(fail_at + millis(500));

  // The flow recovered.
  EXPECT_GT(receiver.last_arrival_time(), fabric->sim().now() - millis(10));
  const SimDuration gap = receiver.max_gap(fail_at - millis(5),
                                           fail_at + millis(300));
  EXPECT_LE(gap, millis(120));
  EXPECT_GE(fabric->fabric_manager().counters().get("fault_notifications"),
            1u);
}

TEST(Robustness, LinkFlapStormSettlesCleanly) {
  auto fabric = make_fabric(4, 67);
  Rng rng(67);
  // Flap 6 random fabric links down/up repeatedly while traffic runs.
  host::Host& a = fabric->host_at(0, 0, 0);
  host::Host& b = fabric->host_at(2, 0, 0);
  host::UdpFlowReceiver receiver(b, 7001);
  host::UdpFlowSender::Config cfg;
  cfg.dst = b.ip();
  cfg.interval = millis(1);
  host::UdpFlowSender sender(a, cfg);
  sender.start();
  fabric->sim().run_until(fabric->sim().now() + millis(100));

  const auto& links = fabric->fabric_links();
  for (int round = 0; round < 6; ++round) {
    sim::Link* l = links[rng.next_below(links.size())];
    const SimTime t = fabric->sim().now() + millis(30);
    fabric->failures().fail_link_at(*l, t);
    fabric->failures().repair_link_at(*l, t + millis(60) +
                                      static_cast<SimDuration>(
                                          rng.next_below(millis(60))));
    fabric->sim().run_until(t + millis(150));
  }
  // Quiet period: everything must settle back to pristine.
  fabric->sim().run_until(fabric->sim().now() + seconds(1));
  EXPECT_EQ(fabric->fabric_manager().graph().failed_link_count(), 0u);
  EXPECT_EQ(fabric->fabric_manager().installed_prune_keys(), 0u);
  for (const PortlandSwitch* sw : fabric->switches()) {
    EXPECT_EQ(sw->prune_entry_count(), 0u) << sw->name();
  }
  // And traffic still flows end to end.
  EXPECT_GT(receiver.last_arrival_time(), fabric->sim().now() - millis(10));
}

TEST(EcmpAblation, SprayModeBalancesSingleFlowButReordersTcp) {
  // Flow-hash mode: one flow -> one path, zero reordering.
  PortlandConfig hash_cfg;
  hash_cfg.ecmp_mode = PortlandConfig::EcmpMode::kFlowHash;
  auto run = [&](PortlandConfig cfg) {
    auto fabric = make_fabric(4, 68, cfg);
    host::Host& src = fabric->host_at(0, 0, 0);
    host::Host& dst = fabric->host_at(3, 1, 0);
    host::TcpConnection* accepted = nullptr;
    dst.tcp_listen(5001, [&](host::TcpConnection& c) { accepted = &c; });
    host::TcpConnection* conn = nullptr;
    fabric->sim().after(millis(1), [&] {
      conn = src.tcp_connect(dst.ip(), 5001);
      conn->send(20'000'000);
    });
    fabric->sim().run_until(fabric->sim().now() + seconds(3));
    EXPECT_EQ(accepted->bytes_delivered(), 20'000'000u);
    EXPECT_FALSE(accepted->payload_corruption_seen());
    return accepted->out_of_order_segments();
  };

  const std::uint64_t hash_ooo = run(hash_cfg);
  PortlandConfig spray_cfg;
  spray_cfg.ecmp_mode = PortlandConfig::EcmpMode::kPacketSpray;
  const std::uint64_t spray_ooo = run(spray_cfg);

  // Both modes deliver everything intact (TCP repairs reordering), but
  // spraying produces observable reordering while flow hashing does not —
  // the reason the paper pins flows to paths.
  EXPECT_EQ(hash_ooo, 0u);
  EXPECT_GT(spray_ooo, 0u);
}

TEST(EcmpAblation, SpraySpreadsEvenASingleFlow) {
  PortlandConfig cfg;
  cfg.ecmp_mode = PortlandConfig::EcmpMode::kPacketSpray;
  auto fabric = make_fabric(4, 69, cfg);
  host::Host& src = fabric->host_at(0, 0, 0);
  host::Host& dst = fabric->host_at(3, 1, 0);
  ASSERT_TRUE(ping(*fabric, src, dst));

  const auto& edge = fabric->edge_at(0, 0);
  const auto ups = edge.ldp().up_ports();
  std::vector<std::uint64_t> before;
  for (const sim::PortId p : ups) {
    sim::Link* l = edge.port_link(p);
    before.push_back(l->tx_frames(&l->device(0) == &edge ? 0 : 1));
  }
  for (int i = 0; i < 100; ++i) src.send_udp(dst.ip(), 40000, 7001, {0});
  fabric->sim().run_until(fabric->sim().now() + millis(20));

  // One flow is split across BOTH uplinks (contrast with test_fabric's
  // FlowsArePinnedToOnePath under flow hashing).
  for (std::size_t i = 0; i < ups.size(); ++i) {
    sim::Link* l = edge.port_link(ups[i]);
    const std::uint64_t d =
        l->tx_frames(&l->device(0) == &edge ? 0 : 1) - before[i];
    EXPECT_GT(d, 30u);
    EXPECT_LT(d, 70u + 10u);  // ~50 each plus LDM noise
  }
}

}  // namespace
}  // namespace portland::core
