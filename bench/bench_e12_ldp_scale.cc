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
}  // namespace

int main(int argc, char** argv) {
  const auto pos = positional_args(argc, argv);
  if (pos.size() > 1) usage_exit(kUsage, pos[1]);
  const int max_k = !pos.empty() ? fat_tree_k_or_exit(pos[0], kUsage) : 16;
  print_header(
      "E12 LDP discovery at scale: convergence time and control cost vs k");

  std::printf("\n%4s %10s %8s %16s %14s %16s %14s\n", "k", "switches",
              "hosts", "converge_ms", "ctrl_msgs", "fm_switches",
              "wall_ms");
  std::string json_rows = "[";
  bool first_row = true;
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
    const long long wall_ms = static_cast<long long>(
        std::chrono::duration_cast<std::chrono::milliseconds>(wall1 - wall0)
            .count());
    std::printf("%4d %10zu %8zu %16.1f %14llu %16zu %14lld\n", k,
                fabric.switches().size(), fabric.hosts().size(),
                to_millis(fabric.sim().now()),
                static_cast<unsigned long long>(
                    fabric.control().messages_sent()),
                fabric.fabric_manager().graph().switch_count(), wall_ms);
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"k\": %d, \"switches\": %zu, \"hosts\": %zu, "
                  "\"converge_ms\": %.1f, \"ctrl_msgs\": %llu, "
                  "\"wall_ms\": %lld}",
                  first_row ? "" : ",", k, fabric.switches().size(),
                  fabric.hosts().size(), to_millis(fabric.sim().now()),
                  static_cast<unsigned long long>(
                      fabric.control().messages_sent()),
                  wall_ms);
    json_rows += buf;
    first_row = false;
  }
  json_rows += "\n  ]";
  std::printf(
      "\nDiscovery time is dominated by per-pod position negotiation and is\n"
      "nearly flat in k: every switch resolves its location from purely\n"
      "local exchanges plus one pod-number round trip per pod (§3.4).\n");

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) {
    JsonReport report("e12_ldp_scale");
    report.add_raw("rows", json_rows);
    report.write(json);
  }
  return 0;
}
