// E19 — production-scale memory footprint and startup cost.
//
// Builds one fabric per k and reports, per row:
//   * construction wall-clock (topology + wiring, before any event runs),
//   * startup-to-converged wall-clock (LDP discovery + the boot-time
//     gratuitous-ARP storm that fills the fabric manager's registry),
//   * counted forwarding-table bytes per switch component (host tables,
//     FIB, prunes, multicast, misc) via
//     PortlandFabric::total_table_bytes(),
//   * arena reservation and process-RSS delta across the build,
//   * bytes per host (counted table bytes / hosts — the deterministic
//     number the CI floors check; RSS/host rides along for context),
//   * steady-state throughput of a bounded random inter-pod flow set
//     (bounded because all-to-all at k=48 would measure the workload
//     generator, not the fabric).
//
// The headline metric is table bytes per host — the paper's O(k) state
// argument (§3) only pays off at production scale if the constant factor
// is small.
//
// k=64 (65,536 hosts) runs behind --full: the point of that row is "a
// k=64 fabric builds and converges on one core".
//
// Usage: bench_e19_scale [--ks N[,N...]] [--full] [--flows N]
//                        [--measure-ms N] [--warm-ms N]
//                        [--converge-budget-s N] [--json PATH]
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rss.h"

using namespace portland;
using namespace portland::bench;

namespace {

constexpr const char* kUsage =
    "bench_e19_scale [--ks N[,N...]] [--full] [--flows N] [--measure-ms N] "
    "[--warm-ms N] [--converge-budget-s N] [--json PATH]";

struct Args {
  std::vector<int> ks = {16, 32, 48};
  bool full = false;            // adds k=64
  std::size_t flows = 256;      // steady-state probe flows
  SimDuration measure = millis(50);
  SimDuration warm = millis(20);
  double converge_budget_s = 0; // >0: fail if any row exceeds it
  std::string json_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  FlagReader flags(argc, argv, kUsage);
  while (flags.next()) {
    if (flags.is("--ks")) {
      a.ks = flags.k_list();
    } else if (flags.is("--full")) {
      a.full = true;
    } else if (flags.is("--flows")) {
      a.flows = static_cast<std::size_t>(flags.integer(0, 1000000));
    } else if (flags.is("--measure-ms")) {
      a.measure = millis(flags.integer(0, 1000000));
    } else if (flags.is("--warm-ms")) {
      a.warm = millis(flags.integer(0, 1000000));
    } else if (flags.is("--converge-budget-s")) {
      a.converge_budget_s = flags.real(0, 1e6);
    } else if (flags.is("--json")) {
      a.json_path = flags.value();
    } else {
      flags.unknown();
    }
  }
  if (a.full) a.ks.push_back(64);
  return a;
}

struct Row {
  int k = 0;
  std::size_t hosts = 0;
  std::size_t switches = 0;
  bool converged = false;
  double construct_s = 0;
  double converge_s = 0;
  core::PortlandSwitch::TableBytes tables;
  std::size_t arena_reserved = 0;
  long long rss_delta = 0;  // can go negative: the allocator reuses pages
                            // freed by the previous row's fabric
  double table_bytes_per_host = 0;
  double rss_per_host = 0;
  double frames_per_sec = 0;
};

Row run_one(const Args& args, int k) {
  Row row;
  row.k = k;
  std::printf("\n--- k=%d ---\n", k);

  const std::size_t rss0 = current_rss_bytes();
  const auto t0 = std::chrono::steady_clock::now();

  core::PortlandFabric::Options options;
  options.k = k;
  options.seed = 19;
  auto fabric = std::make_unique<core::PortlandFabric>(options);

  const auto t1 = std::chrono::steady_clock::now();
  // Generous simulated-time limit: convergence is bounded by LDP timer
  // rounds, not fabric size, but the FM's per-message processing delay
  // stretches the boot ARP storm at k=64.
  row.converged = fabric->run_until_converged(seconds(60));
  const auto t2 = std::chrono::steady_clock::now();

  row.construct_s = std::chrono::duration<double>(t1 - t0).count();
  row.converge_s = std::chrono::duration<double>(t2 - t1).count();
  row.hosts = fabric->hosts().size();
  row.switches = fabric->switches().size();
  row.tables = fabric->total_table_bytes();
  row.arena_reserved = fabric->network().arena().bytes_reserved();
  row.rss_delta = static_cast<long long>(current_rss_bytes()) -
                  static_cast<long long>(rss0);
  row.table_bytes_per_host = static_cast<double>(row.tables.total()) /
                             static_cast<double>(row.hosts);
  row.rss_per_host =
      static_cast<double>(row.rss_delta) / static_cast<double>(row.hosts);

  std::printf("hosts/switches        : %zu / %zu\n", row.hosts, row.switches);
  std::printf("construct wall        : %.3f s\n", row.construct_s);
  std::printf("converge wall         : %.3f s (%s)\n", row.converge_s,
              row.converged ? "converged" : "DID NOT CONVERGE");
  std::printf("table bytes           : %zu (host %zu, fib %zu, prune %zu, "
              "mcast %zu, other %zu)\n",
              row.tables.total(), row.tables.host_table, row.tables.fib,
              row.tables.prunes, row.tables.multicast, row.tables.other);
  std::printf("table bytes/host      : %.1f\n", row.table_bytes_per_host);
  std::printf("arena reserved        : %zu\n", row.arena_reserved);
  std::printf("rss delta             : %lld (%.1f/host)\n", row.rss_delta,
              row.rss_per_host);

  if (!row.converged || args.measure == 0) return row;

  // Bounded steady-state throughput: random inter-pod probe flows.
  Rng rng(97);
  auto flows = random_interpod_flows(*fabric, args.flows, rng);
  sim::Simulator& sim = fabric->sim();
  sim.run_until(sim.now() + args.warm);

  auto delivered = [&] {
    std::uint64_t d = 0;
    for (const auto& fl : flows) d += fl->receiver->packets_received();
    return d;
  };
  const std::uint64_t d0 = delivered();
  const auto w0 = std::chrono::steady_clock::now();
  sim.run_until(sim.now() + args.measure);
  const auto w1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(w1 - w0).count();
  row.frames_per_sec = static_cast<double>(delivered() - d0) / wall_s;
  std::printf("frames/sec (wall)     : %.0f (%zu flows)\n",
              row.frames_per_sec, flows.size());
  return row;
}

void run(const Args& args) {
  print_header("E19: production-scale memory footprint and startup cost");

  std::vector<Row> rows;
  for (const int k : args.ks) rows.push_back(run_one(args, k));

  bool budget_blown = false;
  if (args.converge_budget_s > 0) {
    for (const Row& r : rows) {
      const double wall = r.construct_s + r.converge_s;
      const bool ok = r.converged && wall <= args.converge_budget_s;
      std::printf("%s  k=%d startup %.1f s vs budget %.1f s\n",
                  ok ? "ok  " : "FAIL", r.k, wall, args.converge_budget_s);
      if (!ok) budget_blown = true;
    }
  }

  if (!args.json_path.empty()) {
    JsonReport report("e19_scale");
    report.add("peak_rss_bytes_overall",
               static_cast<std::uint64_t>(peak_rss_bytes()));
    std::string arr = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      char buf[640];
      std::snprintf(
          buf, sizeof(buf),
          "%s\n    {\"k\": %d, \"hosts\": %zu, "
          "\"switches\": %zu, \"converged\": %s, "
          "\"construct_seconds\": %.3f, \"converge_seconds\": %.3f, "
          "\"table_bytes\": %zu, \"host_table_bytes\": %zu, "
          "\"fib_bytes\": %zu, "
          "\"prune_bytes\": %zu, \"multicast_bytes\": %zu, "
          "\"other_bytes\": %zu, \"arena_reserved_bytes\": %zu, "
          "\"rss_delta_bytes\": %lld, \"table_bytes_per_host\": %.1f, "
          "\"rss_bytes_per_host\": %.1f, \"frames_per_sec\": %.1f}",
          i == 0 ? "" : ",", r.k, r.hosts,
          r.switches, r.converged ? "true" : "false", r.construct_s,
          r.converge_s, r.tables.total(), r.tables.host_table, r.tables.fib,
          r.tables.prunes, r.tables.multicast, r.tables.other,
          r.arena_reserved, r.rss_delta,
          r.table_bytes_per_host, r.rss_per_host, r.frames_per_sec);
      arr += buf;
    }
    arr += "\n  ]";
    report.add_raw("rows", arr);
    report.write(args.json_path);
  }

  for (const Row& r : rows) {
    if (!r.converged) {
      std::fprintf(stderr, "FAIL: k=%d did not converge\n", r.k);
      std::exit(1);
    }
  }
  if (budget_blown) {
    std::fprintf(stderr, "FAIL: convergence wall-clock budget exceeded\n");
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) { run(parse_args(argc, argv)); }
