// Fabric-wide integration tests: end-to-end connectivity, proxy ARP,
// broadcast fallback, ECMP spread, loop-freedom, and state accounting.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/fabric.h"
#include "host/apps.h"
#include "obs/convergence_monitor.h"

namespace portland::core {
namespace {

std::unique_ptr<PortlandFabric> make_fabric(int k, std::uint64_t seed = 1,
                                            bool monitor = false) {
  PortlandFabric::Options options;
  options.k = k;
  options.seed = seed;
  options.obs.convergence_monitor = monitor;
  auto fabric = std::make_unique<PortlandFabric>(options);
  EXPECT_TRUE(fabric->run_until_converged());
  return fabric;
}

/// Sends one UDP datagram from a to b; returns true if delivered within
/// `wait`.
bool ping(PortlandFabric& fabric, host::Host& a, host::Host& b,
          SimDuration wait = millis(200)) {
  static std::uint16_t port = 20000;
  ++port;
  bool got = false;
  b.bind_udp(port, [&](Ipv4Address, std::uint16_t, std::uint16_t,
                       std::span<const std::uint8_t>) { got = true; });
  a.send_udp(b.ip(), port, port, {0xAA});
  fabric.sim().run_until(fabric.sim().now() + wait);
  return got;
}

/// Tx counter of the link behind `port` of `sw`, seen from sw's side.
std::uint64_t uplink_tx(const PortlandSwitch& sw, sim::PortId port) {
  const sim::Link* link = sw.port_link(port);
  const int side = &link->device(0) == &sw ? 0 : 1;
  return link->tx_frames(side);
}

TEST(Fabric, AllPairsConnectivityK4) {
  auto fabric = make_fabric(4);
  const auto& hosts = fabric->hosts();
  for (host::Host* a : hosts) {
    for (host::Host* b : hosts) {
      if (a == b) continue;
      EXPECT_TRUE(ping(*fabric, *a, *b)) << a->name() << " -> " << b->name();
    }
  }
}

TEST(Fabric, SampledConnectivityK8) {
  auto fabric = make_fabric(8);
  Rng rng(99);
  const auto& hosts = fabric->hosts();
  for (int i = 0; i < 40; ++i) {
    host::Host* a = hosts[rng.next_below(hosts.size())];
    host::Host* b = hosts[rng.next_below(hosts.size())];
    if (a == b) continue;
    EXPECT_TRUE(ping(*fabric, *a, *b)) << a->name() << " -> " << b->name();
  }
}

TEST(Fabric, ProxyArpServesFromFabricManagerWithoutBroadcast) {
  auto fabric = make_fabric(4);
  host::Host& a = fabric->host_at(0, 0, 0);
  host::Host& b = fabric->host_at(2, 1, 0);
  const auto before_fallbacks =
      fabric->edge_at(0, 0).counters().get("arp_fallback_broadcasts");
  ASSERT_TRUE(ping(*fabric, a, b));
  EXPECT_GE(fabric->fabric_manager().counters().get("arp_hits"), 1u);
  EXPECT_EQ(fabric->edge_at(0, 0).counters().get("arp_fallback_broadcasts"),
            before_fallbacks);
  // The cached entry is b's PMAC, not its AMAC.
  const auto cached = a.arp_cache().lookup(b.ip(), fabric->sim().now());
  ASSERT_TRUE(cached.has_value());
  EXPECT_NE(*cached, b.mac());
  EXPECT_TRUE(looks_like_pmac(*cached));
}

TEST(Fabric, ArpMissFallsBackToBroadcastAndResolves) {
  auto fabric = make_fabric(4);
  host::Host& a = fabric->host_at(0, 0, 0);
  host::Host& b = fabric->host_at(1, 1, 1);
  // Force a registry miss: the fabric manager's soft state for b expires.
  fabric->fabric_manager().forget_host(b.ip());

  EXPECT_TRUE(ping(*fabric, a, b, millis(300)));
  EXPECT_GE(fabric->fabric_manager().counters().get("arp_misses"), 1u);
  EXPECT_GE(fabric->edge_at(0, 0).counters().get("arp_fallback_broadcasts"),
            1u);
  // The reply b sent still carried b's PMAC (rewritten at its edge).
  const auto cached = a.arp_cache().lookup(b.ip(), fabric->sim().now());
  ASSERT_TRUE(cached.has_value());
  EXPECT_TRUE(looks_like_pmac(*cached));
}

TEST(Fabric, EcmpSpreadsFlowsAcrossUplinks) {
  auto fabric = make_fabric(4);
  host::Host& src = fabric->host_at(0, 0, 0);
  host::Host& dst = fabric->host_at(3, 1, 1);

  // Warm ARP once, then fire many distinct flows (varying source port).
  ASSERT_TRUE(ping(*fabric, src, dst));
  const auto& edge = fabric->edge_at(0, 0);
  const auto ups = edge.ldp().up_ports();
  ASSERT_EQ(ups.size(), 2u);

  std::vector<std::uint64_t> tx_before;
  for (const sim::PortId p : ups) tx_before.push_back(uplink_tx(edge, p));
  for (std::uint16_t f = 0; f < 200; ++f) {
    src.send_udp(dst.ip(), static_cast<std::uint16_t>(30000 + f), 7001, {0});
  }
  fabric->sim().run_until(fabric->sim().now() + millis(50));

  std::vector<std::uint64_t> delta;
  for (std::size_t i = 0; i < ups.size(); ++i) {
    delta.push_back(uplink_tx(edge, ups[i]) - tx_before[i]);
  }
  const std::uint64_t total = delta[0] + delta[1];
  EXPECT_GE(total, 200u);
  // Hash split should be roughly even: each uplink gets at least 30%.
  EXPECT_GT(delta[0], total * 3 / 10);
  EXPECT_GT(delta[1], total * 3 / 10);
}

TEST(Fabric, FlowsArePinnedToOnePath) {
  auto fabric = make_fabric(4);
  host::Host& src = fabric->host_at(0, 0, 0);
  host::Host& dst = fabric->host_at(3, 1, 1);
  ASSERT_TRUE(ping(*fabric, src, dst));

  // One flow, many packets: the LDM background is spread evenly over the
  // uplinks, so the flow's 100 packets must land on exactly one of them.
  const auto& edge = fabric->edge_at(0, 0);
  const auto ups = edge.ldp().up_ports();
  std::vector<std::uint64_t> tx_before;
  for (const sim::PortId p : ups) tx_before.push_back(uplink_tx(edge, p));

  for (int i = 0; i < 100; ++i) src.send_udp(dst.ip(), 40000, 7001, {0});
  fabric->sim().run_until(fabric->sim().now() + millis(20));

  int carrying = 0;
  for (std::size_t i = 0; i < ups.size(); ++i) {
    if (uplink_tx(edge, ups[i]) - tx_before[i] >= 100) ++carrying;
  }
  EXPECT_EQ(carrying, 1);
}

TEST(Fabric, LoopFreedomUnderUnicastLoad) {
  auto fabric = make_fabric(4);
  // Aggregate switch transmissions for a known number of unicast packets:
  // a loop would blow the per-packet hop bound (max 5 switch hops plus
  // bounded LDP background noise).
  const SimTime t0 = fabric->sim().now();
  std::uint64_t tx0 = 0;
  for (const PortlandSwitch* sw : fabric->switches()) {
    tx0 += sw->counters().get("tx_frames");
  }

  host::Host& a = fabric->host_at(0, 0, 0);
  host::Host& b = fabric->host_at(3, 1, 1);
  ASSERT_TRUE(ping(*fabric, a, b));
  const int kPackets = 500;
  for (int i = 0; i < kPackets; ++i) a.send_udp(b.ip(), 41000, 7001, {0});
  fabric->sim().run_until(fabric->sim().now() + millis(100));

  std::uint64_t tx1 = 0;
  for (const PortlandSwitch* sw : fabric->switches()) {
    tx1 += sw->counters().get("tx_frames");
  }
  const double elapsed_s = to_seconds(fabric->sim().now() - t0);
  const double ldp_budget = 20 * 4 * 100 * elapsed_s * 1.2;
  const double unicast_budget = kPackets * 5 + 200;
  EXPECT_LT(static_cast<double>(tx1 - tx0), ldp_budget + unicast_budget);
}

TEST(Fabric, BroadcastDeliversExactlyOnceToEveryHost) {
  auto fabric = make_fabric(4);
  host::Host& a = fabric->host_at(0, 0, 0);
  // Hosts also hear one LDM per 10 ms on their access port (counted in
  // rx_frames and rx_ignored alike), so measure broadcast deliveries as
  // rx_frames minus rx_ignored.
  auto broadcast_rx = [](const host::Host& h) {
    return h.counters().get("rx_frames") - h.counters().get("rx_ignored");
  };
  std::map<const host::Host*, std::uint64_t> rx_before;
  for (host::Host* h : fabric->hosts()) rx_before[h] = broadcast_rx(*h);
  // One ARP request for a nonexistent IP: FM miss -> loop-free broadcast.
  a.send_udp(Ipv4Address(10, 200, 0, 1), 1, 2, {0});
  fabric->sim().run_until(fabric->sim().now() + millis(100));

  for (host::Host* h : fabric->hosts()) {
    if (h == &a) continue;
    EXPECT_EQ(broadcast_rx(*h) - rx_before[h], 1u) << h->name();
  }
}

TEST(Fabric, StateScalesWithKNotHosts) {
  auto fabric = make_fabric(4);
  // Push all-pairs traffic so tables are maximally warm.
  const auto& hosts = fabric->hosts();
  for (host::Host* a : hosts) {
    for (host::Host* b : hosts) {
      if (a != b) a->send_udp(b->ip(), 5000, 5000, {0});
    }
  }
  fabric->sim().run_until(fabric->sim().now() + millis(200));

  // Edge switches hold exactly their local hosts (k/2 = 2), never all 16.
  for (std::size_t pod = 0; pod < 4; ++pod) {
    for (std::size_t e = 0; e < 2; ++e) {
      EXPECT_EQ(fabric->edge_at(pod, e).host_table_size(), 2u);
      EXPECT_LE(fabric->edge_at(pod, e).forwarding_state_size(), 8u);
    }
  }
  // Aggs and cores hold no host state at all.
  for (std::size_t pod = 0; pod < 4; ++pod) {
    for (std::size_t a = 0; a < 2; ++a) {
      EXPECT_EQ(fabric->agg_at(pod, a).host_table_size(), 0u);
    }
  }
}

TEST(Fabric, SwitchTableBytesIndependentOfFlowCount) {
  // PortLand's forwarding state is O(k) PMAC prefixes per switch, never
  // O(flows) (§1): once the FIBs are built, 256 concurrent cross-pod
  // flows leave every switch's table bytes exactly where one flow left
  // them.
  constexpr std::size_t kK = 8;
  constexpr std::size_t kHalf = kK / 2;
  auto fabric = make_fabric(static_cast<int>(kK));
  auto run_ms = [&](int ms) {
    fabric->sim().run_until(fabric->sim().now() + millis(ms));
  };
  std::uint64_t received = 0;
  for (host::Host* h : fabric->hosts()) {
    h->bind_udp(9, [&received](Ipv4Address, std::uint16_t, std::uint16_t,
                               std::span<const std::uint8_t>) { ++received; });
  }

  // Warm-up builds the FIBs. Intra-pod traffic takes each edge up and
  // each aggregation switch down; pod 0 alone also sends cross-pod, which
  // reaches every core any up-path from another pod reaches. (Edge and
  // aggregation index the same flow hash modulo k/2, so those are the k/2
  // cores core-j-j.)
  for (std::size_t pod = 0; pod < kK; ++pod) {
    for (std::size_t e = 0; e < kHalf; ++e) {
      for (std::size_t i = 0; i < kHalf; ++i) {
        host::Host& a = fabric->host_at(pod, e, i);
        const Ipv4Address b = fabric->host_at(pod, (e + 1) % kHalf, i).ip();
        for (std::uint16_t sp = 0; sp < 8; ++sp) {
          a.send_udp(b, static_cast<std::uint16_t>(21000 + sp), 9, {0});
        }
        if (pod != 0) continue;
        for (std::size_t other = 1; other < kK; ++other) {
          const Ipv4Address c = fabric->host_at(other, e, i).ip();
          for (std::uint16_t sp = 0; sp < 4; ++sp) {
            a.send_udp(c, static_cast<std::uint16_t>(22000 + sp), 9, {0});
          }
        }
      }
    }
  }
  run_ms(100);
  for (const PortlandSwitch* sw : fabric->switches()) {
    if (sw->locator().level == Level::kCore) continue;
    ASSERT_GT(sw->fib_rebuilds(), 0u) << sw->name();
  }

  // Flows from each host of pods 1..k-1 to its twin in the next of those
  // pods (7 -> 1), two or three flows per pair. Their senders learn the
  // peers' PMACs up front, as proxy ARP would hand them out, so the
  // measured window carries data frames only.
  struct Flow {
    host::Host* src;
    Ipv4Address dst;
    std::uint16_t port;
  };
  std::vector<Flow> flows;
  for (std::size_t f = 0; f < 256; ++f) {
    const std::size_t slot = f % ((kK - 1) * kHalf * kHalf);
    const std::size_t pod = 1 + slot / (kHalf * kHalf);
    const std::size_t e = (slot / kHalf) % kHalf;
    const std::size_t i = slot % kHalf;
    host::Host& src = fabric->host_at(pod, e, i);
    const Ipv4Address dst = fabric->host_at(pod % (kK - 1) + 1, e, i).ip();
    const auto record = fabric->fabric_manager().host(dst);
    ASSERT_TRUE(record.has_value());
    src.arp_cache().insert(dst, record->pmac, fabric->sim().now());
    flows.push_back({&src, dst, static_cast<std::uint16_t>(30000 + f)});
  }
  auto drive = [&](std::size_t n) {
    for (int round = 0; round < 4; ++round) {
      for (std::size_t f = 0; f < n; ++f) {
        flows[f].src->send_udp(flows[f].dst, flows[f].port, 9, {0});
      }
      run_ms(5);
    }
    run_ms(20);
  };

  drive(1);
  std::vector<std::size_t> one_flow;
  for (const PortlandSwitch* sw : fabric->switches()) {
    one_flow.push_back(sw->table_bytes().total());
  }
  const std::uint64_t received_before = received;
  drive(flows.size());
  EXPECT_EQ(received - received_before, 4 * flows.size());
  for (std::size_t s = 0; s < fabric->switches().size(); ++s) {
    const PortlandSwitch* sw = fabric->switches()[s];
    EXPECT_EQ(sw->table_bytes().total(), one_flow[s]) << sw->name();
  }
}

TEST(Fabric, SkippedHostLeavesPortFree) {
  PortlandFabric::Options options;
  options.k = 4;
  const topo::FatTree tree(4);
  options.skip_host_indices = {tree.host_index(3, 1, 1)};
  PortlandFabric fabric(options);
  ASSERT_TRUE(fabric.run_until_converged());
  EXPECT_EQ(fabric.hosts().size(), 15u);
  EXPECT_EQ(fabric.host(tree.host_index(3, 1, 1)), nullptr);
  EXPECT_FALSE(fabric.edge_at(3, 1).port_connected(1));
}

TEST(Fabric, PathAuditProvesLoopFreedomPerPacket) {
  auto fabric = make_fabric(4, 77, /*monitor=*/true);
  obs::ConvergenceMonitor& monitor = *fabric->convergence_monitor();

  // Three flows covering the 1/3/5-switch-hop classes.
  host::UdpFlowReceiver r1(fabric->host_at(0, 0, 1), 7100);  // same edge
  host::UdpFlowReceiver r2(fabric->host_at(0, 1, 0), 7101);  // same pod
  host::UdpFlowReceiver r3(fabric->host_at(3, 1, 1), 7102);  // inter-pod
  std::vector<std::unique_ptr<host::UdpFlowSender>> senders;
  const std::uint16_t ports[3] = {7100, 7101, 7102};
  host::Host* dsts[3] = {&fabric->host_at(0, 0, 1), &fabric->host_at(0, 1, 0),
                         &fabric->host_at(3, 1, 1)};
  for (int i = 0; i < 3; ++i) {
    host::UdpFlowSender::Config cfg;
    cfg.dst = dsts[i]->ip();
    cfg.src_port = cfg.dst_port = ports[i];
    cfg.interval = millis(1);
    senders.push_back(std::make_unique<host::UdpFlowSender>(
        fabric->host_at(0, 0, 0), cfg));
    senders.back()->start();
  }
  fabric->sim().run_until(fabric->sim().now() + millis(200));
  for (auto& s : senders) s->stop();
  fabric->sim().run_until(fabric->sim().now() + millis(20));
  monitor.finalize();

  EXPECT_EQ(monitor.path_violations(), 0u);
  EXPECT_GT(monitor.paths_completed(), 400u);
  // All three hop classes observed, nothing else.
  const auto& h = monitor.path_hop_histogram();
  EXPECT_TRUE(h.count(1));
  EXPECT_TRUE(h.count(3));
  EXPECT_TRUE(h.count(5));
  for (const auto& [hops, n] : h) {
    EXPECT_TRUE(hops == 1 || hops == 3 || hops == 5) << hops;
  }
}

TEST(Fabric, PathAuditHoldsDuringFailureRecovery) {
  auto fabric = make_fabric(4, 78, /*monitor=*/true);
  obs::ConvergenceMonitor& monitor = *fabric->convergence_monitor();
  Rng rng(78);
  host::UdpFlowReceiver receiver(fabric->host_at(2, 1, 0), 7103);
  host::UdpFlowSender::Config cfg;
  cfg.dst = fabric->host_at(2, 1, 0).ip();
  cfg.src_port = cfg.dst_port = 7103;
  cfg.interval = millis(1);
  host::UdpFlowSender sender(fabric->host_at(0, 0, 0), cfg);
  sender.start();
  fabric->sim().run_until(fabric->sim().now() + millis(50));
  fabric->failures().fail_random_links_at(fabric->fabric_links(), 2,
                                          fabric->sim().now() + millis(10),
                                          rng);
  fabric->sim().run_until(fabric->sim().now() + millis(400));
  sender.stop();
  fabric->sim().run_until(fabric->sim().now() + millis(20));
  monitor.finalize();
  EXPECT_EQ(monitor.path_violations(), 0u);
  EXPECT_GT(monitor.paths_completed(), 100u);
}

/// Audits three cross-pod flows plus two intra-pod ones on a k=4 fabric
/// run by the sharded engine with `workers` threads, every window handed
/// to the worker pool (parallel_min_events = 0), so the monitor's shard
/// streams fill from several threads at once.
struct PooledAudit {
  std::uint64_t completed = 0;
  std::uint64_t violations = 0;
  std::map<std::size_t, std::uint64_t> hops;
};

PooledAudit run_pooled_audit(unsigned workers) {
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 79;
  options.workers = workers;
  options.parallel_min_events = 0;
  options.obs.convergence_monitor = true;
  PortlandFabric fabric(options);
  EXPECT_TRUE(fabric.run_until_converged());
  obs::ConvergenceMonitor& monitor = *fabric.convergence_monitor();
  const std::array<std::array<std::size_t, 6>, 5> pairs = {{
      {0, 0, 0, 1, 0, 1},
      {1, 1, 0, 2, 0, 0},
      {2, 0, 1, 3, 1, 1},
      {3, 0, 0, 3, 1, 0},
      {1, 0, 1, 1, 0, 0},
  }};
  std::vector<std::unique_ptr<host::UdpFlowReceiver>> receivers;
  std::vector<std::unique_ptr<host::UdpFlowSender>> senders;
  std::uint16_t port = 7200;
  for (const auto& p : pairs) {
    host::Host& a = fabric.host_at(p[0], p[1], p[2]);
    host::Host& b = fabric.host_at(p[3], p[4], p[5]);
    receivers.push_back(std::make_unique<host::UdpFlowReceiver>(b, port));
    host::UdpFlowSender::Config cfg;
    cfg.dst = b.ip();
    cfg.src_port = cfg.dst_port = port;
    cfg.interval = micros(200);
    senders.push_back(std::make_unique<host::UdpFlowSender>(a, cfg));
    sim::ShardGuard guard(fabric.sim(), a.shard());
    senders.back()->start();
    ++port;
  }
  fabric.sim().run_until(fabric.sim().now() + millis(100));
  for (auto& s : senders) s->stop();
  fabric.sim().run_until(fabric.sim().now() + millis(20));
  monitor.finalize();
  return PooledAudit{monitor.paths_completed(), monitor.path_violations(),
                     monitor.path_hop_histogram()};
}

TEST(Fabric, PathAuditIsWorkerCountInvariant) {
  const PooledAudit one = run_pooled_audit(1);
  const PooledAudit four = run_pooled_audit(4);
  EXPECT_GT(one.completed, 1000u);
  EXPECT_EQ(one.violations, 0u);
  EXPECT_EQ(four.violations, 0u);
  EXPECT_EQ(four.completed, one.completed);
  EXPECT_EQ(four.hops, one.hops);
  EXPECT_TRUE(one.hops.count(3));  // intra-pod
  EXPECT_TRUE(one.hops.count(5));  // inter-pod
}

TEST(Fabric, DegenerateK2FabricWorks) {
  // k=2: 2 pods x (1 edge + 1 agg) + 1 core, 2 hosts. The smallest legal
  // fat tree; position negotiation has exactly one slot and ECMP exactly
  // one uplink.
  auto fabric = make_fabric(2, 2);
  EXPECT_EQ(fabric->switches().size(), 5u);
  EXPECT_EQ(fabric->hosts().size(), 2u);
  host::Host& a = fabric->host_at(0, 0, 0);
  host::Host& b = fabric->host_at(1, 0, 0);
  EXPECT_TRUE(ping(*fabric, a, b));
  EXPECT_TRUE(ping(*fabric, b, a));
}

TEST(Fabric, FmShardAddressesStayBelowSwitchIds) {
  // Registry shard s answers at kFmShardIdBase + s; one more shard than
  // kMaxFmShards would take the first switch's address.
  PortlandFabric::Options options;
  options.k = 4;
  options.config.fm_shards = kMaxFmShards + 1;
  EXPECT_THROW(PortlandFabric{options}, std::invalid_argument);

  options.config.fm_shards = kMaxFmShards;
  PortlandFabric fabric(options);
  ASSERT_TRUE(fabric.run_until_converged());
  for (const PortlandSwitch* sw : fabric.switches()) {
    EXPECT_GE(sw->id(), kFmShardIdBase + kMaxFmShards);
  }
  // Every host's address is served by its own registry shard.
  host::Host& a = fabric.host_at(0, 0, 0);
  for (std::size_t pod = 1; pod < 4; ++pod) {
    for (std::size_t edge = 0; edge < 2; ++edge) {
      for (std::size_t port = 0; port < 2; ++port) {
        EXPECT_TRUE(ping(fabric, a, fabric.host_at(pod, edge, port)))
            << pod << "/" << edge << "/" << port;
      }
    }
  }
}

class Oversubscribed : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Oversubscribed, MultiRootedTreeWorksLikeAFatTree) {
  // PortLand targets general multi-rooted trees (§3.4), not only pristine
  // fat trees: with c < k/2 cores per group the fabric is oversubscribed
  // (fewer uplinks per aggregation switch) and everything must still work.
  PortlandFabric::Options options;
  options.k = 8;
  options.seed = 1700 + GetParam();
  options.cores_per_group = GetParam();  // 1..k/2
  PortlandFabric fabric(options);
  ASSERT_TRUE(fabric.run_until_converged());

  // Every switch located; cores exist in reduced number.
  // k=8: 32 edges + 32 aggs + (k/2 groups x c cores each).
  EXPECT_EQ(fabric.switches().size(), 64u + 4u * GetParam());
  for (const PortlandSwitch* sw : fabric.switches()) {
    EXPECT_TRUE(sw->locator().located()) << sw->name();
  }
  // Aggregation switches see exactly c live uplinks.
  EXPECT_EQ(fabric.agg_at(0, 0).ldp().up_ports().size(), GetParam());

  // Sampled connectivity across pods.
  Rng rng(GetParam());
  const auto& hosts = fabric.hosts();
  for (int i = 0; i < 10; ++i) {
    host::Host* a = hosts[rng.next_below(hosts.size())];
    host::Host* b = hosts[rng.next_below(hosts.size())];
    if (a == b) continue;
    EXPECT_TRUE(ping(fabric, *a, *b)) << a->name() << " -> " << b->name();
  }
}

INSTANTIATE_TEST_SUITE_P(CoresPerGroup, Oversubscribed,
                         ::testing::Values(1, 2, 3));

TEST(Fabric, IpPlanIsStable) {
  EXPECT_EQ(PortlandFabric::ip_at(0, 0, 0), Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(PortlandFabric::ip_at(3, 1, 1), Ipv4Address(10, 3, 1, 2));
}

}  // namespace
}  // namespace portland::core
