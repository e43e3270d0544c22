// E18 — burst/train event execution.
//
// All-to-all *shuffle bursts* on modern-datacenter links: every host
// emits `--burst` back-to-back frames per `--interval-us` tick, and links
// run at `--bandwidth-gbps` (default 100) with 5 us propagation. On such
// links serialization (~9 ns/frame) is tiny against propagation, so a
// burst traverses the fabric as a self-contained train: all its arrivals
// on one link are adjacent in the event order, and the engine's train
// batching (sim/train.h) delivers the whole comb from a single scheduler
// pop. This is the regime train batching targets — and it is the
// realistic one: a 100G link moves a frame in nanoseconds while the cable
// and switch pipeline hold it for microseconds. (E14 keeps the 1 Gb/s
// paced-traffic shape, where trains degenerate to length ~1 and must
// simply not lose.)
//
// Rows (k=16): the engine at 1 shard (workers=0), and at k+1 shards (one
// per pod plus one for the cores) with 1 and 4 workers. The acceptance row is sharded workers=1 (one execution
// thread, per-pod queues). Targets: >= 1M delivered data frames/s of wall
// clock, scheduler inserts per delivered frame < 1.0 (one event per frame
// hop would cost ~6.1: six link hops plus timer bookkeeping), and
// workers=4 never slower than workers=1 (the "parallel never loses"
// invariant — on a box without the cores the engine falls back to inline
// windows, so the two should tie rather than regress).
//
// The sharded rows simulate a bit-identical event sequence at any worker
// count (see Soak.ParallelEngineIsWorkerCountInvariant); only wall clock
// may differ.
//
// Metrics per row:
//   * probe frames/s   — end-to-end delivered data frames per wall second
//                        (same definition as E14's headline),
//   * hop frames/s     — link-level frame deliveries per wall second
//                        (sum of link tx_frames deltas),
//   * events/hop       — scheduler inserts (nodes_pushed) per frame hop;
//                        < 1.0 means trains amortized the scheduler,
//   * train share      — fraction of hops delivered via trains.
//
// Usage: bench_e18_burst [--k N] [--reps N] [--measure-us N]
//                        [--interval-us N] [--burst N] [--bandwidth-gbps N]
//                        [--flows-per-host N] [--json PATH]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace portland;
using namespace portland::bench;

namespace {

constexpr const char* kUsage =
    "bench_e18_burst [--k N] [--reps N] [--measure-us N] [--interval-us N] "
    "[--burst N] [--bandwidth-gbps N] [--flows-per-host N] [--json PATH]";

struct Args {
  int k = 16;
  std::size_t reps = 10;
  SimDuration measure = millis(8);
  SimDuration interval = millis(8);
  std::size_t burst = 128;
  double bandwidth_gbps = 100.0;
  std::size_t flows_per_host = 1;
  std::string json_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  FlagReader flags(argc, argv, kUsage);
  while (flags.next()) {
    if (flags.is("--k")) {
      a.k = flags.k();
    } else if (flags.is("--reps")) {
      a.reps = static_cast<std::size_t>(flags.integer(1, 1000));
    } else if (flags.is("--measure-us")) {
      a.measure = micros(flags.integer(1, 1000000000));
    } else if (flags.is("--interval-us")) {
      a.interval = micros(flags.integer(1, 1000000000));
    } else if (flags.is("--burst")) {
      a.burst = static_cast<std::size_t>(flags.integer(1, 1 << 20));
    } else if (flags.is("--bandwidth-gbps")) {
      a.bandwidth_gbps = flags.real(0.001, 100000);
    } else if (flags.is("--flows-per-host")) {
      a.flows_per_host = static_cast<std::size_t>(flags.integer(1, 1000));
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
  double probe_per_sec = 0;
  double hops_per_sec = 0;
  double events_per_hop = 0;
  double events_per_frame = 0;  // scheduler inserts per *delivered* frame
  double train_share = 0;
  double train_len = 0;    // frames per dispatched train
  double repush_ratio = 0; // repushes per dispatched train
};

struct Workload {
  std::unique_ptr<core::PortlandFabric> fabric;
  std::vector<std::unique_ptr<ProbeFlow>> flows;
};

/// Builds a converged fabric plus the all-to-all probe set (each host
/// sends `flows_per_host` paced flows to hosts in other pods, E14-style).
Workload make_workload(const Args& args, int k,
                       const core::PortlandFabric::Options& engine) {
  Workload w;
  core::PortlandFabric::Options options = engine;
  options.k = k;
  options.seed = 18;
  // Fast links, wide propagation: serialization shrinks to nanoseconds
  // while the 5 us flight time both keeps each burst's hops from
  // overlapping (the train-friendly regime) and widens the conservative
  // lookahead window, exactly as in E15.
  options.host_link.bandwidth_bps = args.bandwidth_gbps * 1e9;
  options.fabric_link.bandwidth_bps = args.bandwidth_gbps * 1e9;
  options.host_link.propagation = micros(5);
  options.fabric_link.propagation = micros(5);
  w.fabric = std::make_unique<core::PortlandFabric>(options);
  if (!w.fabric->run_until_converged(seconds(30))) {
    std::fprintf(stderr, "FATAL: LDP did not converge (k=%d)\n", k);
    std::exit(1);
  }
  const auto& hosts = w.fabric->hosts();
  const std::size_t n = hosts.size();
  const std::size_t hosts_per_pod = n / static_cast<std::size_t>(k);
  std::uint16_t port = 9000;
  const std::size_t total = args.flows_per_host * n;
  std::size_t idx = 0;
  for (std::size_t f = 0; f < args.flows_per_host; ++f) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t dst = (i + (f + 1) * hosts_per_pod) % n;
      // Spread flow phases across the period so bursts from different
      // senders rarely collide on the same instant (real shuffles are
      // not nanosecond-synchronized; neither should the model be).
      const SimDuration phase = static_cast<SimDuration>(
          (static_cast<std::uint64_t>(args.interval) * idx++) / total);
      w.flows.push_back(std::make_unique<ProbeFlow>(
          *hosts[i], *hosts[dst], port++, args.interval,
          /*payload_bytes=*/64, args.burst, phase, /*record=*/false));
    }
  }
  // Warm-up: ARP resolution, FIB builds, a few full burst periods.
  // Delivered counting starts after this.
  const SimDuration warm =
      std::max<SimDuration>(millis(2), 4 * args.interval);
  w.fabric->sim().run_until(w.fabric->sim().now() + warm);
  return w;
}

/// Sum of frame deliveries over every link direction.
std::uint64_t total_hops(core::PortlandFabric& fabric) {
  std::uint64_t hops = 0;
  for (const auto& link : fabric.network().links()) {
    hops += link->tx_frames(0) + link->tx_frames(1);
  }
  return hops;
}

/// One timed sample: advances the sim by `measure` and fills the deltas.
struct Sample {
  double wall_s = 0;
  std::uint64_t probe = 0, hops = 0, nodes = 0, train = 0, pops = 0,
                repush = 0;
};

Sample measure_once(const Args& args, Workload& w) {
  sim::Simulator& sim = w.fabric->sim();
  auto delivered = [&] {
    std::uint64_t d = 0;
    for (const auto& fl : w.flows) d += fl->receiver->packets_received();
    return d;
  };
  Sample s;
  const std::uint64_t p0 = delivered();
  const std::uint64_t h0 = total_hops(*w.fabric);
  const std::uint64_t n0 = sim.nodes_pushed();
  const std::uint64_t t0 = sim.train_frames();
  const std::uint64_t tp0 = sim.trains_popped();
  const std::uint64_t tr0 = sim.train_repushes();
  const auto wall0 = std::chrono::steady_clock::now();
  sim.run_until(sim.now() + args.measure);
  const auto wall1 = std::chrono::steady_clock::now();
  s.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  s.probe = delivered() - p0;
  s.hops = total_hops(*w.fabric) - h0;
  s.nodes = sim.nodes_pushed() - n0;
  s.train = sim.train_frames() - t0;
  s.pops = sim.trains_popped() - tp0;
  s.repush = sim.train_repushes() - tr0;
  return s;
}

Row row_from(Workload& w, unsigned workers, double wall_s,
             const Sample& s) {
  Row row;
  row.k = w.fabric->options().k;
  row.workers = workers;
  row.wall_s = wall_s;
  row.probe_per_sec = static_cast<double>(s.probe) / wall_s;
  row.hops_per_sec = static_cast<double>(s.hops) / wall_s;
  row.events_per_hop =
      s.hops == 0 ? 0
                  : static_cast<double>(s.nodes) / static_cast<double>(s.hops);
  row.events_per_frame =
      s.probe == 0
          ? 0
          : static_cast<double>(s.nodes) / static_cast<double>(s.probe);
  row.train_share =
      s.hops == 0 ? 0
                  : static_cast<double>(s.train) / static_cast<double>(s.hops);
  row.train_len =
      s.pops == 0 ? 0
                  : static_cast<double>(s.train) / static_cast<double>(s.pops);
  row.repush_ratio =
      s.pops == 0
          ? 0
          : static_cast<double>(s.repush) / static_cast<double>(s.pops);
  return row;
}

/// Best-of-N wall clock: interference on a shared box only ever *adds*
/// time, so the minimum sample is the least-biased estimate of true
/// machine throughput and is far more stable run-to-run than the median.
double best_of(const std::vector<double>& walls) {
  return *std::min_element(walls.begin(), walls.end());
}

/// Measures workers=1 vs workers=4 on the same workload with the reps
/// interleaved (1,4,1,4,...), so slow wall-clock drift on a shared box
/// cannot systematically bias one side of the never-loses comparison.
std::pair<Row, Row> measure_worker_pair(const Args& args, Workload& w) {
  std::vector<double> wall1, wall4;
  Sample last1, last4;
  for (std::size_t rep = 0; rep < args.reps; ++rep) {
    w.fabric->sim().set_workers(1);
    last1 = measure_once(args, w);
    wall1.push_back(last1.wall_s);
    w.fabric->sim().set_workers(4);
    last4 = measure_once(args, w);
    wall4.push_back(last4.wall_s);
  }
  return {row_from(w, 1, best_of(wall1), last1),
          row_from(w, 4, best_of(wall4), last4)};
}

Row measure_row(const Args& args, Workload& w, unsigned workers) {
  std::vector<double> walls;
  Sample last;
  for (std::size_t rep = 0; rep < args.reps; ++rep) {
    last = measure_once(args, w);
    walls.push_back(last.wall_s);
  }
  return row_from(w, workers, best_of(walls), last);
}

void print_row(const Row& r) {
  std::printf("%4d %8u %10.3f %12.0f %12.0f %10.3f %8.2f %8.2f %8.2f  %s\n",
              r.k, r.workers, r.wall_s,
              r.probe_per_sec, r.hops_per_sec, r.events_per_hop,
              r.train_share, r.train_len, r.repush_ratio,
              r.workers == 0 ? "1 shard (workers=0)" : "k+1 shards");
}

void print_table_header() {
  std::printf("%4s %8s %10s %12s %12s %10s %8s %8s %8s  %s\n", "k",
              "workers", "wall_s", "probe/s", "hops/s", "ev/hop", "train",
              "len", "repush", "engine");
}

void run(const Args& args) {
  print_header("E18: burst/train execution (near-line-rate all-to-all UDP)");
  std::printf("burst %zu x %zu flows/host every %lld us, %.0f Gb/s links, "
              "measure %lld us x %zu reps\n",
              args.burst, args.flows_per_host,
              static_cast<long long>(args.interval / 1000),
              args.bandwidth_gbps,
              static_cast<long long>(args.measure / 1000), args.reps);
  print_table_header();

  std::vector<Row> rows;
  core::PortlandFabric::Options engine;

  // 1 shard (workers=0), then k+1 shards at 1 and 4 workers.
  {
    engine.workers = 0;
    Workload one_shard = make_workload(args, args.k, engine);
    rows.push_back(measure_row(args, one_shard, 0));
    print_row(rows.back());
  }
  {
    engine.workers = 1;
    Workload shard = make_workload(args, args.k, engine);
    auto [r1, r4] = measure_worker_pair(args, shard);
    rows.push_back(r1);
    print_row(r1);
    rows.push_back(r4);
    print_row(r4);
  }

  // Headline summary: the acceptance numbers, stated explicitly. The
  // acceptance row is the sharded engine at workers=1 — "single-worker"
  // in the roadmap's words: one execution thread, per-pod event queues,
  // trains at full length.
  const Row& one_shard = rows[0];
  const Row& w1_row = rows[1];
  const Row& w4_row = rows[2];
  const double shard_w1 = w1_row.probe_per_sec;
  const double shard_w4 = w4_row.probe_per_sec;
  std::printf("\nheadline (k=%d, workers=1): %.0f data frames/s, "
              "%.3f scheduler inserts per delivered frame\n",
              args.k, shard_w1, w1_row.events_per_frame);
  std::printf("workers 4 vs 1          : %.2fx %s\n",
              shard_w1 > 0 ? shard_w4 / shard_w1 : 0.0,
              shard_w4 + 1e-9 >= shard_w1 * 0.95 ? "(parallel never loses)"
                                                 : "(REGRESSION)");

  if (!args.json_path.empty()) {
    JsonReport report("e18_burst");
    report.add("k", args.k);
    report.add("reps", args.reps);
    report.add("measure_us",
               static_cast<std::uint64_t>(static_cast<std::uint64_t>(
                   args.measure) / 1000ull));
    report.add("interval_us",
               static_cast<std::uint64_t>(static_cast<std::uint64_t>(
                   args.interval) / 1000ull));
    report.add("flows_per_host", static_cast<std::uint64_t>(
                                     args.flows_per_host));
    // Acceptance headline: single-worker (sharded, workers=1).
    report.add("frames_per_sec", shard_w1);
    report.add("hop_frames_per_sec", w1_row.hops_per_sec);
    report.add("events_per_frame", w1_row.events_per_frame);
    report.add("events_per_hop", w1_row.events_per_hop);
    report.add("train_share", w1_row.train_share);
    // The 1 shard (workers=0) row; the key predates the relabel.
    report.add("serial_frames_per_sec", one_shard.probe_per_sec);
    report.add("w4_over_w1", shard_w1 > 0 ? shard_w4 / shard_w1 : 0.0);
    std::string arr = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "%s\n    {\"k\": %d, "
          "\"workers\": %u, \"wall_seconds\": %.6f, "
          "\"probe_frames_per_sec\": %.1f, "
          "\"hop_frames_per_sec\": %.1f, \"events_per_hop\": %.4f, "
          "\"events_per_frame\": %.4f, \"train_share\": %.4f}",
          i == 0 ? "" : ",", r.k, r.workers, r.wall_s,
          r.probe_per_sec, r.hops_per_sec, r.events_per_hop,
          r.events_per_frame, r.train_share);
      arr += buf;
    }
    arr += "\n  ]";
    report.add_raw("rows", arr);
    report.write(args.json_path);
  }
}

}  // namespace

int main(int argc, char** argv) { run(parse_args(argc, argv)); }
