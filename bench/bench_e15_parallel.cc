// E15 — parallel simulation thread-scaling (sharded engine).
//
// The same all-to-all UDP workload as E14, but on the sharded
// conservative-lookahead engine, timed at 1..8 worker threads. Because the
// engine is deterministic across worker counts (see
// Soak.ParallelEngineIsWorkerCountInvariant), every thread count simulates
// the *identical* event sequence — the only thing that changes is the wall
// clock, so the speedup column is a pure engine measurement.
//
// Method: one fabric per k; after convergence and warm-up, consecutive
// steady-state measurement windows run with set_workers(1), (2), (4), (8).
// Each window is repeated `--reps` times and the median wall time is
// reported. Per-window event counts land in the JSON as a sanity check
// that every configuration simulated comparable load (consecutive windows
// cover different simulated periods, so they differ by a few keepalives).
//
// The headline target (>= 2.5x at 8 workers, k=32) assumes >= 8 physical
// cores; the bench prints the machine's hardware_concurrency and flags
// configurations that oversubscribe it, where speedup is not expected.
//
// Usage: bench_e15_parallel [--k N[,N...]] [--threads N] [--reps N]
//                           [--measure-ms N] [--flows-per-host N]
//                           [--full] [--json PATH]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

using namespace portland;
using namespace portland::bench;

namespace {

constexpr const char* kUsage =
    "bench_e15_parallel [--k N[,N...]] [--threads N] [--reps N] "
    "[--measure-ms N] [--flows-per-host N] [--full] [--json PATH]";

struct Args {
  std::vector<int> ks = {16, 32};
  unsigned max_threads = 8;
  std::size_t reps = 3;
  SimDuration measure = millis(200);
  std::size_t flows_per_host = 1;
  std::string json_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  FlagReader flags(argc, argv, kUsage);
  while (flags.next()) {
    if (flags.is("--k")) {
      a.ks = flags.k_list();
    } else if (flags.is("--threads")) {
      a.max_threads = static_cast<unsigned>(flags.integer(1, 256));
    } else if (flags.is("--reps")) {
      a.reps = static_cast<std::size_t>(flags.integer(1, 1000));
    } else if (flags.is("--measure-ms")) {
      a.measure = millis(flags.integer(1, 1000000));
    } else if (flags.is("--flows-per-host")) {
      a.flows_per_host = static_cast<std::size_t>(flags.integer(1, 1000));
    } else if (flags.is("--full")) {
      a.ks = {16, 32, 48};
    } else if (flags.is("--json")) {
      a.json_path = flags.value();
    } else {
      flags.unknown();
    }
  }
  return a;
}

struct Row {
  int k = 0;
  unsigned workers = 0;
  double wall_s = 0;
  double frames_per_sec = 0;
  double speedup = 0;
  std::uint64_t events = 0;
  bool oversubscribed = false;
};

void run_k(const Args& args, int k, unsigned hw, std::vector<Row>& rows) {
  core::PortlandFabric::Options options;
  options.k = k;
  options.seed = 15;
  options.workers = 1;  // sharded engine from the start
  // Wider link propagation widens the conservative lookahead window (the
  // engine can only parallelize events less than one cross-shard latency
  // apart). 5 us is still far below any protocol timescale in the sim.
  options.host_link.propagation = micros(5);
  options.fabric_link.propagation = micros(5);
  core::PortlandFabric fabric(options);
  if (!fabric.run_until_converged(seconds(30))) {
    std::fprintf(stderr, "FATAL: LDP did not converge (k=%d)\n", k);
    std::exit(1);
  }

  const auto& hosts = fabric.hosts();
  const std::size_t n = hosts.size();
  const std::size_t hosts_per_pod = n / static_cast<std::size_t>(k);
  std::vector<std::unique_ptr<ProbeFlow>> flows;
  std::uint16_t port = 9000;
  for (std::size_t f = 0; f < args.flows_per_host; ++f) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t dst = (i + (f + 1) * hosts_per_pod) % n;
      flows.push_back(std::make_unique<ProbeFlow>(
          *hosts[i], *hosts[dst], port++, /*interval=*/millis(1),
          /*payload_bytes=*/64));
    }
  }

  sim::Simulator& sim = fabric.sim();
  sim.run_until(sim.now() + millis(100));  // warm-up: ARP, flow pinning

  std::printf("\nk=%d: %zu hosts, %zu switches, %zu flows, %zu shards, "
              "lookahead %lld ns\n",
              k, n, fabric.switches().size(), flows.size(), sim.shard_count(),
              static_cast<long long>(sim.lookahead()));
  std::printf("%4s %8s %10s %12s %10s %8s\n", "k", "workers", "wall_s",
              "frames/s", "speedup", "note");

  double base_wall = 0;
  for (unsigned w = 1; w <= args.max_threads; w *= 2) {
    sim.set_workers(w);
    std::uint64_t window_events = 0;
    std::uint64_t window_frames = 0;
    const double wall_s = repeat_median(args.reps, [&] {
      auto delivered = [&] {
        std::uint64_t d = 0;
        for (const auto& fl : flows) d += fl->receiver->packets_received();
        return d;
      };
      const std::uint64_t d0 = delivered();
      const std::uint64_t e0 = sim.executed_events();
      const auto wall0 = std::chrono::steady_clock::now();
      sim.run_until(sim.now() + args.measure);
      const auto wall1 = std::chrono::steady_clock::now();
      window_frames = delivered() - d0;
      window_events = sim.executed_events() - e0;
      return std::chrono::duration<double>(wall1 - wall0).count();
    });

    Row row;
    row.k = k;
    row.workers = w;
    row.wall_s = wall_s;
    row.frames_per_sec = static_cast<double>(window_frames) / wall_s;
    if (w == 1) base_wall = wall_s;
    row.speedup = base_wall / wall_s;
    row.events = window_events;
    row.oversubscribed = w > hw;
    rows.push_back(row);
    std::printf("%4d %8u %10.3f %12.0f %9.2fx %8s\n", k, w, wall_s,
                row.frames_per_sec, row.speedup,
                row.oversubscribed ? "> cores" : "");
  }
}

void run(const Args& args) {
  print_header("E15: sharded parallel engine thread-scaling "
               "(all-to-all UDP, per-pod shards)");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency  : %u\n", hw);
  if (hw < args.max_threads) {
    std::printf("NOTE: only %u core(s) available — speedup beyond %u "
                "worker(s) is not expected on this machine; the scaling "
                "target assumes >= 8 physical cores.\n",
                hw, hw);
  }

  std::vector<Row> rows;
  for (const int k : args.ks) run_k(args, k, hw, rows);

  if (!args.json_path.empty()) {
    JsonReport report("e15_parallel");
    report.add("hardware_concurrency", static_cast<std::uint64_t>(hw));
    report.add("reps", args.reps);
    report.add("measure_ms", static_cast<std::uint64_t>(
                                 static_cast<std::uint64_t>(args.measure) /
                                 1000000ull));
    std::string arr = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\n    {\"k\": %d, \"workers\": %u, "
                    "\"wall_seconds\": %.6f, \"frames_per_sec\": %.1f, "
                    "\"speedup\": %.3f, \"window_events\": %llu, "
                    "\"oversubscribed\": %s}",
                    i == 0 ? "" : ",", r.k, r.workers, r.wall_s,
                    r.frames_per_sec, r.speedup,
                    static_cast<unsigned long long>(r.events),
                    r.oversubscribed ? "true" : "false");
      arr += buf;
    }
    arr += "\n  ]";
    report.add_raw("rows", arr);
    report.write(args.json_path);
  }
}

}  // namespace

int main(int argc, char** argv) { run(parse_args(argc, argv)); }
