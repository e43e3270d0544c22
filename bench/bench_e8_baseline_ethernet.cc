// E8 — PortLand vs. conventional Ethernet + STP on the same fat tree
// (paper §1/§2 motivation, quantified).
//
// Three comparisons on identical k=4 topologies:
//   1. Failure recovery: PortLand's LDM-timeout reroute (~65 ms) vs. STP
//      reconvergence at real 802.1D timers (max_age 20 s + 2x15 s forward
//      delay: tens of seconds).
//   2. ARP load: proxy ARP (2 control messages, zero data-plane flooding)
//      vs. fabric-wide broadcast per resolution.
//   3. Usable fabric links: ECMP over every link vs. the spanning tree's
//      blocked ports.
#include "bench/bench_util.h"
#include "l2/baseline_fabric.h"

using namespace portland;
using namespace portland::bench;

namespace {

struct Report {
  double portland_recovery_ms = 0;
  double stp_recovery_ms = 0;
  std::uint64_t arp_control_msgs = 0;
  std::uint64_t arp_flood_events = 0;
  std::size_t fabric_links = 0;
  std::size_t stp_blocked_links = 0;

  static void walk(auto&& fn) {
    fn("portland_recovery_ms", &Report::portland_recovery_ms);
    fn("stp_recovery_ms", &Report::stp_recovery_ms);
    fn("arp_control_msgs", &Report::arp_control_msgs);
    fn("arp_flood_events", &Report::arp_flood_events);
    fn("fabric_links", &Report::fabric_links);
    fn("stp_blocked_links", &Report::stp_blocked_links);
  }
};

double portland_recovery_ms() {
  auto fabric = make_fabric(4, 77);
  host::Host& a = fabric->host_at(0, 0, 0);
  host::Host& b = fabric->host_at(3, 0, 0);
  host::UdpFlowReceiver receiver(b, 7001);
  host::UdpFlowSender::Config cfg;
  cfg.dst = b.ip();
  cfg.interval = millis(1);
  host::UdpFlowSender sender(a, cfg);
  sender.start();
  fabric->sim().run_until(fabric->sim().now() + millis(100));

  const auto& edge = fabric->edge_at(0, 0);
  sim::Link* victim = nullptr;
  std::uint64_t best = 0;
  for (const sim::PortId p : edge.ldp().up_ports()) {
    sim::Link* l = edge.port_link(p);
    if (l->tx_frames(0) + l->tx_frames(1) > best) {
      best = l->tx_frames(0) + l->tx_frames(1);
      victim = l;
    }
  }
  const SimTime fail_at = fabric->sim().now();
  victim->set_up(false);
  fabric->sim().run_until(fail_at + millis(500));
  return to_millis(receiver.max_gap(fail_at - millis(5), fail_at + millis(400)));
}

double baseline_recovery_ms() {
  l2::BaselineFabric::Options options;
  options.k = 4;
  options.seed = 77;  // real 802.1D timers (default StpConfig)
  l2::BaselineFabric fabric(options);
  fabric.run_until_stp_converged();

  host::Host& a = fabric.host_at(0, 0, 0);
  host::Host& b = fabric.host_at(3, 0, 0);
  host::UdpFlowReceiver receiver(b, 7001);
  host::UdpFlowSender::Config cfg;
  cfg.dst = b.ip();
  cfg.interval = millis(5);
  host::UdpFlowSender sender(a, cfg);
  sender.start();
  fabric.sim().run_until(fabric.sim().now() + seconds(2));

  // Fail the busiest tree link on the flow's path.
  std::vector<std::uint64_t> before;
  for (sim::Link* l : fabric.fabric_links()) {
    before.push_back(l->tx_frames(0) + l->tx_frames(1));
  }
  fabric.sim().run_until(fabric.sim().now() + seconds(1));
  sim::Link* victim = nullptr;
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < fabric.fabric_links().size(); ++i) {
    sim::Link* l = fabric.fabric_links()[i];
    const std::uint64_t d = l->tx_frames(0) + l->tx_frames(1) - before[i];
    if (d > best) {
      best = d;
      victim = l;
    }
  }
  const SimTime fail_at = fabric.sim().now();
  victim->set_up(false);
  fabric.sim().run_until(fail_at + seconds(80));
  return to_millis(receiver.max_gap(fail_at - millis(10), fail_at + seconds(70)));
}

}  // namespace

int main(int argc, char** argv) {
  print_header(
      "E8  PortLand vs. conventional Ethernet + 802.1D STP (same k=4 fat "
      "tree)");
  Report report;

  // --- 1. failure recovery ---
  report.portland_recovery_ms = portland_recovery_ms();
  report.stp_recovery_ms = baseline_recovery_ms();
  std::printf("\n1. Failure recovery after one on-path link failure:\n");
  std::printf("   %-34s %12.1f ms\n", "PortLand (LDM timeout + reroute):",
              report.portland_recovery_ms);
  std::printf("   %-34s %12.1f ms\n", "Ethernet + STP (802.1D timers):",
              report.stp_recovery_ms);
  std::printf("   ratio: %.0fx\n",
              report.stp_recovery_ms / report.portland_recovery_ms);

  // --- 2. ARP cost ---
  {
    auto fabric = make_fabric(4, 78);
    host::Host& a = fabric->host_at(0, 0, 0);
    host::Host& b = fabric->host_at(2, 0, 0);
    const std::uint64_t q0 =
        fabric->control().messages_of("arp_query");
    a.send_udp(b.ip(), 6000, 6000, {0});
    fabric->sim().run_until(fabric->sim().now() + millis(50));
    const std::uint64_t queries =
        fabric->control().messages_of("arp_query") - q0;

    l2::BaselineFabric::Options options;
    options.k = 4;
    options.seed = 78;
    options.switch_config.stp = l2::StpConfig::fast();
    l2::BaselineFabric baseline(options);
    baseline.run_until_stp_converged();
    const std::uint64_t floods0 = baseline.total_floods();
    baseline.host_at(0, 0, 0).send_udp(baseline.host_at(2, 0, 0).ip(), 6000,
                                       6000, {0});
    baseline.sim().run_until(baseline.sim().now() + millis(300));
    const std::uint64_t floods = baseline.total_floods() - floods0;

    std::printf("\n2. Cost of one ARP resolution:\n");
    std::printf("   %-34s %4llu control msgs, 0 data-plane floods\n",
                "PortLand proxy ARP:",
                static_cast<unsigned long long>(queries));
    std::printf("   %-34s %4llu switch flood events (fabric-wide)\n",
                "Ethernet broadcast:",
                static_cast<unsigned long long>(floods));
    report.arp_control_msgs = queries;
    report.arp_flood_events = floods;
  }

  // --- 3. usable links ---
  {
    l2::BaselineFabric::Options options;
    options.k = 4;
    options.seed = 79;
    options.switch_config.stp = l2::StpConfig::fast();
    l2::BaselineFabric baseline(options);
    baseline.run_until_stp_converged();
    std::size_t blocked = 0, total_fabric_ports = 0;
    for (const l2::LearningSwitch* sw : baseline.switches()) {
      for (sim::PortId p = 0; p < sw->port_count(); ++p) {
        if (!sw->port_connected(p)) continue;
        if (sw->port_role(p) == l2::PortRole::kBlocked) ++blocked;
      }
    }
    total_fabric_ports = baseline.fabric_links().size();
    std::printf("\n3. Fabric links usable for forwarding (k=4: %zu links):\n",
                total_fabric_ports);
    std::printf("   %-34s %zu of %zu (ECMP over all)\n", "PortLand:",
                total_fabric_ports, total_fabric_ports);
    std::printf("   %-34s %zu of %zu (spanning tree blocks %zu)\n",
                "Ethernet + STP:", total_fabric_ports - blocked,
                total_fabric_ports, blocked);
    report.stp_blocked_links = blocked;
    report.fabric_links = total_fabric_ports;
  }

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) write_json(json, "e8_baseline_ethernet", report);
  return 0;
}
