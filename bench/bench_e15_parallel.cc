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

  static void walk(auto&& fn) {
    fn("k", &Row::k);
    fn("workers", &Row::workers);
    fn("wall_seconds", &Row::wall_s);
    fn("frames_per_sec", &Row::frames_per_sec);
    fn("speedup", &Row::speedup);
    fn("window_events", &Row::events);
    fn("oversubscribed", &Row::oversubscribed);
  }
};

struct Report {
  unsigned hardware_concurrency = 0;
  std::size_t reps = 0;
  std::uint64_t measure_ms = 0;
  std::vector<Row> rows;

  static void walk(auto&& fn) {
    fn("hardware_concurrency", &Report::hardware_concurrency);
    fn("reps", &Report::reps);
    fn("measure_ms", &Report::measure_ms);
    fn("rows", &Report::rows);
  }
};

/// Times one fabric at 1, 2, 4, ... workers and prints its rows.
std::vector<Row> run_k(const Args& args, int k, unsigned hw) {
  core::PortlandFabric::Options options;
  options.k = k;
  options.seed = 15;
  options.workers = 1;  // sharded engine from the start
  // Wider link propagation widens the conservative lookahead window (the
  // engine can only parallelize events less than one cross-shard latency
  // apart). 5 us is still far below any protocol timescale in the sim.
  options.host_link.propagation = micros(5);
  options.fabric_link.propagation = micros(5);
  const auto fabric = make_fabric(options, seconds(30));

  const Flows flows = all_to_all_flows(*fabric, args.flows_per_host);
  sim::Simulator& sim = fabric->sim();
  sim.run_until(sim.now() + millis(100));  // warm-up: ARP, flow pinning

  std::printf("\nk=%d: %zu hosts, %zu switches, %zu flows, %zu shards, "
              "lookahead %lld ns\n",
              k, fabric->hosts().size(), fabric->switches().size(),
              flows.size(), sim.shard_count(),
              static_cast<long long>(sim.lookahead()));
  std::vector<Row> rows;
  double base_wall = 0;
  for (unsigned w = 1; w <= args.max_threads; w *= 2) {
    sim.set_workers(w);
    std::uint64_t window_events = 0;
    std::uint64_t window_frames = 0;
    const double wall_s = repeat_median(args.reps, [&] {
      const std::uint64_t d0 = packets_received(flows);
      const std::uint64_t e0 = sim.executed_events();
      const auto wall0 = std::chrono::steady_clock::now();
      sim.run_until(sim.now() + args.measure);
      const auto wall1 = std::chrono::steady_clock::now();
      window_frames = packets_received(flows) - d0;
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
  }
  print_table(rows);
  return rows;
}

void run(const Args& args) {
  print_header("E15: sharded parallel engine thread-scaling "
               "(all-to-all UDP, per-pod shards)");
  Report report;
  report.hardware_concurrency = std::thread::hardware_concurrency();
  report.reps = args.reps;
  report.measure_ms = static_cast<std::uint64_t>(args.measure) / 1000000ull;
  const unsigned hw = report.hardware_concurrency;
  std::printf("hardware_concurrency  : %u\n", hw);
  if (hw < args.max_threads) {
    std::printf("NOTE: only %u core(s) available — speedup beyond %u "
                "worker(s) is not expected on this machine; the scaling "
                "target assumes >= 8 physical cores.\n",
                hw, hw);
  }

  for (const int k : args.ks) {
    for (const Row& row : run_k(args, k, hw)) report.rows.push_back(row);
  }

  if (!args.json_path.empty()) {
    write_json(args.json_path, "e15_parallel", report);
  }
}

}  // namespace

int main(int argc, char** argv) { run(parse_args(argc, argv)); }
