// E13 — per-packet loop-freedom audit and empirical path-length
// distribution (paper §3.5, Theorem 1 made empirical).
//
// The convergence monitor follows every unicast IPv4 frame of a
// permutation workload switch by switch and checks, per packet: no
// switch visited twice, no valley (down then up), no lateral hop, <= 5
// switch hops. The hop histogram is the fabric's empirical path-length
// distribution (2/4/6 link hops = 1/3/5 switch hops for
// same-edge/same-pod/inter-pod pairs). The audit repeats under random
// link failures: rerouted paths must obey the same invariants.
#include <map>
#include <string>

#include "bench/bench_util.h"

using namespace portland;
using namespace portland::bench;

namespace {

struct Row {
  int k = 0;
  int failures = 0;
  std::uint64_t packets_audited = 0;
  std::uint64_t violations = 0;
  std::map<std::size_t, std::uint64_t> hops;  // switch hops -> packets
  std::uint64_t events_overflowed = 0;        // summed into the report

  static void walk(auto&& fn) {
    fn("k", &Row::k);
    fn("failures", &Row::failures);
    fn("packets_audited", &Row::packets_audited);
    fn("violations", &Row::violations);
    fn("hops", &Row::hops);
  }
};

struct Report {
  std::uint64_t packets_audited = 0;
  std::uint64_t violations = 0;
  std::uint64_t events_overflowed = 0;
  std::vector<Row> rows;

  static void walk(auto&& fn) {
    fn("packets_audited", &Report::packets_audited);
    fn("violations", &Report::violations);
    fn("events_overflowed", &Report::events_overflowed);
    fn("rows", &Report::rows);
  }
};

Row run_audit(int k, bool with_failures) {
  core::PortlandFabric::Options options;
  options.k = k;
  options.seed = 1234 + static_cast<std::uint64_t>(k);
  options.obs.convergence_monitor = true;
  auto fabric = make_fabric(options);
  obs::ConvergenceMonitor& monitor = *fabric->convergence_monitor();

  Rng rng(99);
  const auto& hosts = fabric->hosts();
  const auto perm = host::permutation_pairing(hosts.size(), rng);
  Flows flows;
  std::uint16_t port = 7100;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    flows.push_back(std::make_unique<ProbeFlow>(*hosts[i], *hosts[perm[i]],
                                                port++, millis(1)));
  }

  if (with_failures) {
    fabric->failures().fail_random_links_at(
        fabric->fabric_links(), 3, fabric->sim().now() + millis(100), rng);
  }
  run_monitored(*fabric, fabric->sim().now() + millis(400));
  for (auto& f : flows) f->sender->stop();
  run_monitored(*fabric, fabric->sim().now() + millis(20));
  monitor.finalize();

  std::printf("\nk=%d, %zu permutation flows%s: %llu packets audited\n", k,
              flows.size(), with_failures ? " + 3 link failures" : "",
              static_cast<unsigned long long>(monitor.paths_completed()));
  std::printf("  %-14s %10s %10s\n", "switch_hops", "packets", "share");
  for (const auto& [hops, n] : monitor.path_hop_histogram()) {
    std::printf("  %-14zu %10llu %9.1f%%\n", hops,
                static_cast<unsigned long long>(n),
                100.0 * static_cast<double>(n) /
                    static_cast<double>(monitor.paths_completed()));
  }
  const auto& details = monitor.path_violation_details();
  if (monitor.path_violations() == 0) {
    std::printf("  invariants: PASS — 0 violations (no loops, no valleys, "
                "no lateral hops, <=5 hops)\n");
  } else {
    std::printf("  invariants: FAIL — %llu violations, first: %s at %s "
                "(trace %llu)\n",
                static_cast<unsigned long long>(monitor.path_violations()),
                obs::path_invariant_name(details.front().kind),
                details.front().device,
                static_cast<unsigned long long>(details.front().trace_id));
  }

  return {k,
          with_failures ? 3 : 0,
          monitor.paths_completed(),
          monitor.path_violations(),
          monitor.path_hop_histogram(),
          monitor.events_overflowed()};
}

}  // namespace

int main(int argc, char** argv) {
  print_header(
      "E13 Per-packet loop-freedom audit + empirical path lengths (§3.5)");
  Report report;
  report.rows = {
      run_audit(4, /*with_failures=*/false),
      run_audit(6, /*with_failures=*/false),
      run_audit(4, /*with_failures=*/true),
  };
  for (const Row& r : report.rows) {
    report.packets_audited += r.packets_audited;
    report.violations += r.violations;
    report.events_overflowed += r.events_overflowed;
  }
  std::printf(
      "\n1/3/5 switch hops correspond to same-edge / same-pod / inter-pod\n"
      "destinations; failures shift traffic but never create loops or\n"
      "valleys — the paper's Theorem 1, checked packet by packet.\n");

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) write_json(json, "e13_path_audit", report);
  return 0;
}
