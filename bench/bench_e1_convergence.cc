// E1 — "Convergence time with increasing faults" (paper Fig. ~9).
//
// Methodology (as in the paper): constant-rate UDP probe flows cross the
// fabric; n random fabric links fail simultaneously; a flow's convergence
// time is the gap between the last packet before the outage and the first
// packet after rerouting. The paper's testbed measured ~65 ms for a single
// failure (50 ms LDM timeout + notification + reroute), growing modestly
// with the number of faults.
//
// Output: one row per fault count with mean/p95/max convergence across
// affected flows, averaged over several seeds.
//
// Usage: bench_e1_convergence [k] [seeds] [sequential] [--json PATH]
//        defaults: 6  5  (simultaneous failures)
#include <algorithm>
#include <string_view>

#include "bench/bench_util.h"
#include "common/stats.h"

using namespace portland;
using namespace portland::bench;

namespace {

struct Row {
  std::size_t failures = 0;
  std::uint64_t flows_hit = 0;
  double mean_ms = 0;
  double p95_ms = 0;
  double max_ms = 0;

  static void walk(auto&& fn) {
    fn("failures", &Row::failures);
    fn("flows_hit", &Row::flows_hit);
    fn("mean_ms", &Row::mean_ms);
    fn("p95_ms", &Row::p95_ms);
    fn("max_ms", &Row::max_ms);
  }
};

struct Report {
  int k = 0;
  int seeds = 0;
  bool sequential = false;
  std::vector<Row> rows;

  static void walk(auto&& fn) {
    fn("k", &Report::k);
    fn("seeds", &Report::seeds);
    fn("sequential", &Report::sequential);
    fn("rows", &Report::rows);
  }
};

/// The convergence gaps (ms) of the flows the failures hit.
std::vector<double> run_trial(int k, std::size_t failures, std::uint64_t seed,
                              bool sequential) {
  auto fabric = make_fabric(k, seed);
  Rng rng(seed * 7919 + failures);
  auto flows = random_interpod_flows(*fabric, 20, rng);

  // Warm up: ARP resolution + steady state.
  fabric->sim().run_until(fabric->sim().now() + millis(200));

  const SimTime fail_at = fabric->sim().now();
  SimTime window_end = fail_at + millis(400);
  if (sequential) {
    // The paper's methodology: faults injected one after another (here
    // 150 ms apart), convergence measured across the whole episode.
    const auto picks = rng.sample_indices(fabric->fabric_links().size(),
                                          failures);
    SimTime t = fail_at;
    for (const std::size_t idx : picks) {
      fabric->failures().fail_link_at(*fabric->fabric_links()[idx], t);
      t += millis(150);
    }
    window_end = t + millis(400);
  } else {
    fabric->failures().fail_random_links_at(fabric->fabric_links(), failures,
                                            fail_at, rng);
  }
  // Detection (50 ms) + reroute + slack.
  fabric->sim().run_until(window_end + millis(200));

  std::vector<double> gaps_ms;
  for (const auto& flow : flows) {
    // Ignore flows that ended up with no live path (rare at these counts).
    if (flow->receiver->last_arrival_time() < window_end) continue;
    const SimDuration gap =
        flow->receiver->max_gap(fail_at - millis(5), window_end);
    if (gap < millis(20)) continue;  // flow untouched by these failures
    gaps_ms.push_back(to_millis(gap));
  }
  return gaps_ms;
}

constexpr const char* kUsage =
    "bench_e1_convergence [k] [seeds] [sequential] [--json PATH]";

}  // namespace

int main(int argc, char** argv) {
  const auto pos = positional_args(argc, argv);
  if (pos.size() > 3) usage_exit(kUsage, pos[3]);
  if (pos.size() > 2 && pos[2] != "sequential") usage_exit(kUsage, pos[2]);
  Report report;
  report.k = !pos.empty() ? fat_tree_k_or_exit(pos[0], kUsage) : 6;
  report.seeds =
      pos.size() > 1 ? int_arg_or_exit(pos[1], 1, 1000, kUsage) : 5;
  report.sequential = pos.size() > 2;

  print_header(
      "E1  Convergence time vs. number of failures (paper Fig. 9: ~65 ms at "
      "1 fault,\n     growing modestly; LDM period 10 ms, timeout 50 ms)");
  std::printf("k=%d fat tree, 20 probe flows @1000 pkt/s, %d seeds/row, "
              "%s failures\n",
              report.k, report.seeds,
              report.sequential ? "sequential (150 ms apart)"
                                : "simultaneous");
  // Paper reference band (reconstructed): ~65 ms at 1 fault to ~140 ms
  // at 16 sequential faults.
  std::printf("paper: ~65 ms at 1 fault, rising ~5 ms per extra fault to "
              "~140 ms at 16\n\n");

  for (const std::size_t failures : {1, 2, 4, 6, 8, 12, 16}) {
    Accumulator acc;
    std::vector<double> all;
    for (int s = 0; s < report.seeds; ++s) {
      for (const double g :
           run_trial(report.k, failures, 1000 + static_cast<std::uint64_t>(s),
                     report.sequential)) {
        acc.add(g);
        all.push_back(g);
      }
    }
    report.rows.push_back(
        {failures, acc.count(), acc.mean(), percentile(all, 95), acc.max()});
  }
  print_table(report.rows);
  std::printf(
      "\nShape check: single-fault convergence is dominated by the 50 ms\n"
      "LDM timeout; additional non-overlapping faults add little because\n"
      "detection and reroute run per fault in parallel.\n");

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) write_json(json, "e1_convergence", report);
  return 0;
}
