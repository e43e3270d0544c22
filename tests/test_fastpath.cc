// Data-plane fast path regressions: the precomputed FIB must never serve
// stale decisions (a PruneUpdate or neighbor loss landing mid-flow
// reroutes the very next frame), and the parse-once metadata path must
// preserve forwarding behavior hop by hop.
#include <gtest/gtest.h>

#include <array>

#include "core/fabric.h"
#include "host/apps.h"
#include "net/packet.h"
#include "obs/convergence_monitor.h"
#include "sim/simulator.h"

namespace portland::core {
namespace {

struct CrossPodFlow {
  std::unique_ptr<PortlandFabric> fabric;
  host::Host* src = nullptr;
  host::Host* dst = nullptr;
  std::unique_ptr<host::UdpFlowReceiver> receiver;
  std::unique_ptr<host::UdpFlowSender> sender;

  explicit CrossPodFlow(std::uint64_t seed, bool fast_link_detection = false) {
    PortlandFabric::Options options;
    options.k = 4;
    options.seed = seed;
    options.config.fast_link_detection = fast_link_detection;
    fabric = std::make_unique<PortlandFabric>(options);
    EXPECT_TRUE(fabric->run_until_converged());
    src = &fabric->host_at(0, 0, 0);
    dst = &fabric->host_at(3, 0, 0);
    receiver = std::make_unique<host::UdpFlowReceiver>(*dst, 7001);
    host::UdpFlowSender::Config cfg;
    cfg.dst = dst->ip();
    cfg.interval = millis(1);
    sender = std::make_unique<host::UdpFlowSender>(*src, cfg);
    sender->start();
    fabric->sim().run_until(fabric->sim().now() + millis(100));
  }

  /// The source edge's uplink currently carrying the flow, found by
  /// transmit volume (the flow adds ~1000 frames/s; LDP adds ~100).
  sim::PortId busiest_uplink() {
    const PortlandSwitch& edge = fabric->edge_at(0, 0);
    std::vector<std::uint64_t> before;
    const std::vector<sim::PortId> ups = edge.ldp().up_ports();
    for (const sim::PortId p : ups) {
      before.push_back(edge.port_link(p)->tx_frames(0) +
                       edge.port_link(p)->tx_frames(1));
    }
    fabric->sim().run_until(fabric->sim().now() + millis(20));
    sim::PortId best_port = ups.front();
    std::uint64_t best = 0;
    for (std::size_t i = 0; i < ups.size(); ++i) {
      sim::Link* l = edge.port_link(ups[i]);
      const std::uint64_t delta = l->tx_frames(0) + l->tx_frames(1) - before[i];
      if (delta > best) {
        best = delta;
        best_port = ups[i];
      }
    }
    EXPECT_GT(best, 10u);
    return best_port;
  }
};

/// Counts data (non-LDP-dominated) frames the edge sent out a port over a
/// window by diffing the link's transmit counter from the edge's side.
std::uint64_t edge_tx(const PortlandSwitch& edge, sim::PortId port) {
  sim::Link* l = edge.port_link(port);
  // The edge's side of the link: side 0 transmits a->b.
  return &l->device(0) == &edge ? l->tx_frames(0) : l->tx_frames(1);
}

TEST(Fastpath, PruneUpdateMidFlowReroutesTheVeryNextFrame) {
  CrossPodFlow fx(31);
  PortlandSwitch& edge = fx.fabric->edge_at(0, 0);
  const sim::PortId hot = fx.busiest_uplink();
  const auto hot_nbr = edge.ldp().neighbor(hot);
  ASSERT_TRUE(hot_nbr.has_value());

  const std::uint64_t rebuilds_before = edge.fib_rebuilds();
  const std::uint64_t hot_tx_before = edge_tx(edge, hot);

  // Forge the fabric manager's reroute: avoid the aggregation switch the
  // flow currently transits for the destination edge. Pod and position
  // come from the destination edge's own locator (positions are assigned
  // by the protocol, not by topology index).
  const SwitchLocator dst_loc = fx.fabric->edge_at(3, 0).ldp().self();
  PruneUpdate prune;
  prune.entries.push_back(PruneEntry{dst_loc.pod, dst_loc.position,
                                     hot_nbr->switch_id, /*add=*/true});
  fx.fabric->control().send(edge.id(),
                            ControlMessage{kFabricManagerId, prune});

  const SimTime prune_at = fx.fabric->sim().now();
  fx.fabric->sim().run_until(prune_at + millis(100));

  // The FIB was invalidated...
  EXPECT_GT(edge.fib_rebuilds(), rebuilds_before);
  // ...the stale uplink carries control traffic only from then on (LDMs
  // are ~10 per 100 ms; the flow would have added ~100)...
  EXPECT_LT(edge_tx(edge, hot) - hot_tx_before, 40u);
  // ...and not a single frame blackholed: the reroute took effect on the
  // very next frame, so the largest delivery gap stays at the control
  // latency scale, far under the 1 ms send interval x a handful.
  const SimDuration gap =
      fx.receiver->max_gap(prune_at - millis(5), prune_at + millis(100));
  EXPECT_LE(gap, millis(10));
  EXPECT_GT(fx.receiver->last_arrival_time(),
            fx.fabric->sim().now() - millis(10));
}

TEST(Fastpath, NeighborLossMidFlowReroutesTheVeryNextFrame) {
  // Carrier-loss detection expires the neighbor the instant the link
  // fails; the next frame must route around it without waiting for any
  // cache to age out.
  CrossPodFlow fx(32, /*fast_link_detection=*/true);
  PortlandSwitch& edge = fx.fabric->edge_at(0, 0);
  const sim::PortId hot = fx.busiest_uplink();

  const std::uint64_t rebuilds_before = edge.fib_rebuilds();
  const SimTime fail_at = fx.fabric->sim().now() + millis(10);
  fx.fabric->failures().fail_link_at(*edge.port_link(hot), fail_at);
  fx.fabric->sim().run_until(fail_at + millis(200));

  EXPECT_GT(edge.fib_rebuilds(), rebuilds_before);
  const SimDuration gap =
      fx.receiver->max_gap(fail_at - millis(5), fail_at + millis(150));
  // Only frames already in flight on the dead link are lost.
  EXPECT_LE(gap, millis(10));
  EXPECT_GT(fx.receiver->last_arrival_time(),
            fx.fabric->sim().now() - millis(10));
}

TEST(Fastpath, IntermediateHopsForwardWithoutReparsing) {
  CrossPodFlow fx(33);
  const net::ParseStats before = net::parse_stats();
  const std::uint64_t delivered_before = fx.receiver->packets_received();

  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(200));

  const net::ParseStats& after = net::parse_stats();
  const std::uint64_t delivered =
      fx.receiver->packets_received() - delivered_before;
  const std::uint64_t parses = after.parse_calls - before.parse_calls;
  const std::uint64_t hits = after.meta_hits - before.meta_hits;

  ASSERT_GT(delivered, 150u);  // the flow kept flowing
  // One parse per frame (at edge ingress), not one per hop. Control
  // traffic (ARP refreshes etc.) adds a small constant.
  EXPECT_LE(parses, delivered + delivered / 5 + 50);
  // Every downstream hop and the destination host read the cached parse:
  // a 5-switch-hop cross-pod path yields >= 3 metadata hits per frame.
  EXPECT_GE(hits, delivered * 3);
}

TEST(Fastpath, UpPortAccessorsAreCachedAndStable) {
  CrossPodFlow fx(34);
  const PortlandSwitch& edge = fx.fabric->edge_at(0, 0);
  // Same backing storage across calls: the accessor is allocation-free at
  // steady state.
  const auto* first = &edge.ldp().up_ports();
  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(50));
  EXPECT_EQ(first, &edge.ldp().up_ports());
  EXPECT_EQ(&edge.ldp().down_ports(), &edge.ldp().down_ports());
}

TEST(Fastpath, PathAuditHoldsWithPrunesInstalled) {
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 35;
  options.obs.convergence_monitor = true;
  PortlandFabric fabric(options);
  ASSERT_TRUE(fabric.run_until_converged());
  obs::ConvergenceMonitor& monitor = *fabric.convergence_monitor();

  // Several cross-pod flows so multiple up-paths are live at once.
  std::vector<std::unique_ptr<host::UdpFlowReceiver>> receivers;
  std::vector<std::unique_ptr<host::UdpFlowSender>> senders;
  std::uint16_t port = 7100;
  for (std::size_t pod = 0; pod < 4; ++pod) {
    host::Host& a = fabric.host_at(pod, 0, 0);
    host::Host& b = fabric.host_at((pod + 2) % 4, 1, 1);
    receivers.push_back(std::make_unique<host::UdpFlowReceiver>(b, port));
    host::UdpFlowSender::Config cfg;
    cfg.dst = b.ip();
    cfg.src_port = port;
    cfg.dst_port = port;
    cfg.interval = millis(1);
    senders.push_back(std::make_unique<host::UdpFlowSender>(a, cfg));
    senders.back()->start();
    ++port;
  }

  fabric.sim().run_until(fabric.sim().now() + millis(150));

  // Mid-run, every source edge gets a fine (pod, position) prune for its
  // flow's destination edge, avoiding its first uplink neighbor, so the
  // rest of the run forwards through the FIB's pruned_up lookup.
  for (std::size_t pod = 0; pod < 4; ++pod) {
    PortlandSwitch& edge = fabric.edge_at(pod, 0);
    const auto nbr = edge.ldp().neighbor(edge.ldp().up_ports().front());
    ASSERT_TRUE(nbr.has_value());
    const SwitchLocator dst = fabric.edge_at((pod + 2) % 4, 1).ldp().self();
    PruneUpdate prune;
    prune.entries.push_back(
        PruneEntry{dst.pod, dst.position, nbr->switch_id, /*add=*/true});
    fabric.control().send(edge.id(), ControlMessage{kFabricManagerId, prune});
  }
  const SimTime prune_at = fabric.sim().now();
  fabric.sim().run_until(prune_at + millis(150));

  monitor.finalize();
  EXPECT_GT(monitor.paths_completed(), 500u);
  EXPECT_EQ(monitor.path_violations(), 0u);
  for (std::size_t pod = 0; pod < 4; ++pod) {
    EXPECT_EQ(fabric.edge_at(pod, 0).prune_entry_count(), 1u);
    // The pruned lookup kept every flow delivering to the end.
    EXPECT_GT(receivers[pod]->last_arrival_time(),
              fabric.sim().now() - millis(10));
    EXPECT_LE(receivers[pod]->max_gap(prune_at, fabric.sim().now()),
              millis(10));
  }
}

TEST(Fastpath, SmallFnHeapFallbackStillRuns) {
  // Captures larger than the inline buffer transparently fall back to the
  // heap; behavior must be identical.
  sim::Simulator sim;
  std::array<std::uint8_t, 2 * sim::SmallFn::kInlineSize> big{};
  big.fill(7);
  int sum = 0;
  sim.after(10, [big, &sum] {
    for (const std::uint8_t b : big) sum += b;
  });
  sim.run();
  EXPECT_EQ(sum, 7 * static_cast<int>(big.size()));
}

}  // namespace
}  // namespace portland::core
