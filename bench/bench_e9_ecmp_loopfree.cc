// E9 — ECMP multipath and loop-freedom ablation (paper §3.5).
//
//   1. Flow-spread: distribution of many distinct flows over an edge
//      switch's uplinks (flow hashing should split ~evenly).
//   2. Aggregate goodput: permutation workload on PortLand (all paths)
//      vs. the STP baseline (one tree) at identical offered load — the
//      bisection-bandwidth argument for multipath.
//   3. Loop audit: under random failures and rerouting, total switch
//      transmissions stay within the strict per-packet hop bound.
#include "bench/bench_util.h"
#include "l2/baseline_fabric.h"

using namespace portland;
using namespace portland::bench;

namespace {

void flow_spread() {
  auto fabric = make_fabric(8, 11);
  host::Host& src = fabric->host_at(0, 0, 0);
  host::Host& dst = fabric->host_at(7, 3, 3);
  // Warm ARP.
  src.send_udp(dst.ip(), 1, 1, {0});
  fabric->sim().run_until(fabric->sim().now() + millis(50));

  const auto& edge = fabric->edge_at(0, 0);
  const auto ups = edge.ldp().up_ports();
  std::vector<std::uint64_t> before;
  for (const sim::PortId p : ups) {
    sim::Link* l = edge.port_link(p);
    before.push_back(l->tx_frames(&l->device(0) == &edge ? 0 : 1));
  }
  const int kFlows = 4000;
  for (int f = 0; f < kFlows; ++f) {
    src.send_udp(dst.ip(), static_cast<std::uint16_t>(10000 + f), 7001, {0});
  }
  fabric->sim().run_until(fabric->sim().now() + millis(100));

  std::printf("\n1. ECMP spread of %d flows over k/2=%zu uplinks (k=8):\n",
              kFlows, ups.size());
  std::uint64_t total = 0;
  std::vector<std::uint64_t> delta;
  for (std::size_t i = 0; i < ups.size(); ++i) {
    sim::Link* l = edge.port_link(ups[i]);
    const std::uint64_t d =
        l->tx_frames(&l->device(0) == &edge ? 0 : 1) - before[i];
    delta.push_back(d);
    total += d;
  }
  for (std::size_t i = 0; i < delta.size(); ++i) {
    std::printf("   uplink %zu: %6llu flows (%.1f%%, ideal %.1f%%)\n", i,
                static_cast<unsigned long long>(delta[i]),
                100.0 * static_cast<double>(delta[i]) / static_cast<double>(total),
                100.0 / static_cast<double>(ups.size()));
  }
}

/// Aggregate goodput (packets/s) of the permutation workload: every host
/// sends a 1000-byte payload every 10 us (~800 Mb/s offered) to its peer.
template <class Fabric>
double permutation_goodput(Fabric& fabric) {
  Rng rng(13);
  const auto perm = host::permutation_pairing(fabric.hosts().size(), rng);
  Flows flows;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    flows.push_back(std::make_unique<ProbeFlow>(
        *fabric.hosts()[i], *fabric.hosts()[perm[i]],
        static_cast<std::uint16_t>(9000 + i), micros(10),
        /*payload_bytes=*/1000));
  }
  fabric.sim().run_until(fabric.sim().now() + millis(100));
  const std::uint64_t rx0 = packets_received(flows);
  fabric.sim().run_until(fabric.sim().now() + millis(500));
  return static_cast<double>(packets_received(flows) - rx0) / 0.5;
}

double permutation_goodput_baseline() {
  l2::BaselineFabric::Options options;
  options.k = 4;
  options.seed = 13;
  options.switch_config.stp = l2::StpConfig::fast();
  l2::BaselineFabric fabric(options);
  fabric.run_until_stp_converged();
  return permutation_goodput(fabric);
}

struct Report {
  double portland_pkts_per_s = 0;
  double baseline_pkts_per_s = 0;
  double multipath_advantage = 0;
  std::uint64_t loop_audit_transmissions = 0;
  double loop_audit_bound = 0;
  bool loop_audit_pass = false;

  static void walk(auto&& fn) {
    fn("portland_pkts_per_s", &Report::portland_pkts_per_s);
    fn("baseline_pkts_per_s", &Report::baseline_pkts_per_s);
    fn("multipath_advantage", &Report::multipath_advantage);
    fn("loop_audit_transmissions", &Report::loop_audit_transmissions);
    fn("loop_audit_bound", &Report::loop_audit_bound);
    fn("loop_audit_pass", &Report::loop_audit_pass);
  }
};

/// Fills the report's loop_audit_* fields.
void loop_audit(Report& report) {
  auto fabric = make_fabric(4, 15);
  Rng rng(15);
  auto flows = random_interpod_flows(*fabric, 10, rng);
  fabric->sim().run_until(fabric->sim().now() + millis(100));

  const SimTime t0 = fabric->sim().now();
  std::uint64_t tx0 = 0, rx_host0 = 0;
  for (const core::PortlandSwitch* sw : fabric->switches()) {
    tx0 += sw->counters().get("tx_frames");
  }
  for (const host::Host* h : fabric->hosts()) {
    rx_host0 += h->counters().get("rx_frames");
  }

  // Random failures + repairs while traffic runs.
  fabric->failures().fail_random_links_at(fabric->fabric_links(), 3,
                                          t0 + millis(50), rng);
  fabric->sim().run_until(t0 + millis(500));

  std::uint64_t tx1 = 0;
  for (const core::PortlandSwitch* sw : fabric->switches()) {
    tx1 += sw->counters().get("tx_frames");
  }
  const double elapsed_s = to_seconds(fabric->sim().now() - t0);
  const double ldp = 20 * 4 * 100 * elapsed_s;            // LDM background
  const double data = 10 * 1000 * elapsed_s * 5;          // <=5 hops/pkt
  const double bound = (ldp + data) * 1.3 + 1000;
  report.loop_audit_transmissions = tx1 - tx0;
  report.loop_audit_bound = bound;
  report.loop_audit_pass =
      static_cast<double>(report.loop_audit_transmissions) < bound;
  std::printf("\n3. Loop audit under 3 random failures + rerouting:\n");
  std::printf("   switch transmissions: %llu; strict no-loop bound: %.0f -> %s\n",
              static_cast<unsigned long long>(report.loop_audit_transmissions),
              bound, report.loop_audit_pass ? "PASS" : "FAIL");
}

}  // namespace

int main(int argc, char** argv) {
  print_header(
      "E9  ECMP multipath + loop-freedom ablation (paper §3.5: flows hash\n"
      "     over all up-paths; packets never travel down then up)");
  flow_spread();

  Report report;
  report.portland_pkts_per_s = permutation_goodput(*make_fabric(4, 13));
  report.baseline_pkts_per_s = permutation_goodput_baseline();
  report.multipath_advantage =
      report.portland_pkts_per_s / report.baseline_pkts_per_s;
  std::printf("\n2. Permutation workload aggregate goodput (16 hosts, 800 "
              "Mb/s offered each):\n");
  std::printf("   %-28s %10.0f pkt/s\n", "PortLand (ECMP, all links):",
              report.portland_pkts_per_s);
  std::printf("   %-28s %10.0f pkt/s\n", "Ethernet+STP (single tree):",
              report.baseline_pkts_per_s);
  std::printf("   multipath advantage: %.1fx\n", report.multipath_advantage);

  loop_audit(report);

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) write_json(json, "e9_ecmp_loopfree", report);
  return 0;
}
