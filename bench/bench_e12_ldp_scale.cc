// E12 — zero-configuration discovery at scale (paper §3.4 scalability
// argument).
//
// For growing k, measures: simulated time for every switch to discover
// its complete location (level + pod + position), the control messages
// that took, the fabric manager's resulting state, and the wall-clock
// cost of simulating it — demonstrating the protocol's O(1)-per-switch
// convergence behavior as the fabric grows from 20 to 320 switches.
//
// Usage: bench_e12_ldp_scale [max_k] [--json PATH]   (default max_k 16)
#include <chrono>

#include "bench/bench_util.h"

using namespace portland;
using namespace portland::bench;

namespace {

constexpr const char* kUsage = "bench_e12_ldp_scale [max_k] [--json PATH]";

struct Row {
  int k = 0;
  std::size_t switches = 0;
  std::size_t hosts = 0;
  double converge_ms = 0;
  std::uint64_t ctrl_msgs = 0;
  long long wall_ms = 0;

  static void walk(auto&& fn) {
    fn("k", &Row::k);
    fn("switches", &Row::switches);
    fn("hosts", &Row::hosts);
    fn("converge_ms", &Row::converge_ms);
    fn("ctrl_msgs", &Row::ctrl_msgs);
    fn("wall_ms", &Row::wall_ms);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto pos = positional_args(argc, argv);
  if (pos.size() > 1) usage_exit(kUsage, pos[1]);
  const int max_k = !pos.empty() ? fat_tree_k_or_exit(pos[0], kUsage) : 16;
  print_header(
      "E12 LDP discovery at scale: convergence time and control cost vs k");

  std::printf("\n");
  RowsReport<Row> report;
  for (int k = 4; k <= max_k; k += 4) {
    const auto wall0 = std::chrono::steady_clock::now();
    core::PortlandFabric::Options options;
    options.k = k;
    options.seed = 5150 + static_cast<std::uint64_t>(k);
    core::PortlandFabric fabric(options);
    if (!fabric.run_until_converged(seconds(10))) {
      std::printf("%4d  DID NOT CONVERGE\n", k);
      continue;
    }
    const auto wall1 = std::chrono::steady_clock::now();
    Row row;
    row.k = k;
    row.switches = fabric.switches().size();
    row.hosts = fabric.hosts().size();
    row.converge_ms = to_millis(fabric.sim().now());
    row.ctrl_msgs = fabric.control().messages_sent();
    row.wall_ms = static_cast<long long>(
        std::chrono::duration_cast<std::chrono::milliseconds>(wall1 - wall0)
            .count());
    report.rows.push_back(row);
    const std::size_t fm_switches =
        fabric.fabric_manager().graph().switch_count();
    if (fm_switches != row.switches) {
      std::printf("k=%d: the fabric manager knows only %zu switches\n", k,
                  fm_switches);
    }
  }
  print_table(report.rows);
  std::printf(
      "\nDiscovery time is dominated by per-pod position negotiation and is\n"
      "nearly flat in k: every switch resolves its location from purely\n"
      "local exchanges plus one pod-number round trip per pod (§3.4).\n");

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) write_json(json, "e12_ldp_scale", report);
  return 0;
}
