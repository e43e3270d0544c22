// E20 — checkpoint/fork what-if serving.
//
// The question this bench answers: once a fabric is warm (discovery
// done, FM registry full, ARP caches and FIBs populated by real
// traffic), how much cheaper is answering a what-if query by forking
// the warm image than by re-building that state from cold?
//
// Scenario: converge, then run a random permutation of UDP flows for a
// warmup period so host ARP caches, switch FIBs, and the proxy
// path all hold live state. The snapshot captures the fabric *and* the
// flows mid-flight (apps ride along as snapshot extras). A what-if
// query kills 3 random fabric links and runs a short reaction window;
// the answer is the FM's fault/reroute activity plus how many warm-flow
// packets still got delivered.
//
// Per k it measures:
//   * cold cost: construct + converge + warmup traffic + one what-if
//     (the price every query pays without checkpointing),
//   * snapshot size (bytes, bytes/host) and save wall-clock,
//   * fork (in-memory restore) wall-clock, median over --queries runs,
//     and the median of each restore phase (fork_phase_ms.*),
//   * answer wall-clock: fork + fail 3 random fabric links + run the
//     reaction window + read the FM and flow counters, median over
//     --queries runs (each query kills a different random link set, as
//     a real study would),
//   * the headline ratio cold / (fork + answer) — the acceptance floor
//     is >= 50x at k=48,
//   * live heap peak over the row (bench/heap_hook.h).
//
// Both sides run with fast link detection (carrier loss reported
// immediately instead of after the 50 ms LDM timeout): a what-if server
// wants the post-reaction answer, not a 50 ms simulated wait, and the
// config is identical on the cold path so the comparison stays fair.
//
// Usage: bench_e20_snapshot [--ks N[,N...]] [--queries N]
//                           [--window-ms N] [--flows N] [--warm-ms N]
//                           [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/heap_hook.h"
#include "host/apps.h"

using namespace portland;
using namespace portland::bench;

namespace {

constexpr const char* kUsage =
    "bench_e20_snapshot [--ks N[,N...]] [--queries N] [--window-ms N] "
    "[--flows N] [--warm-ms N] [--json PATH]";

struct Args {
  std::vector<int> ks = {16, 32, 48};
  int queries = 5;
  SimDuration window = millis(1);  // reaction window per what-if
  int flows = 1024;                // warm-traffic flow cap
  SimDuration warm = millis(400);  // warmup traffic duration
  std::string json_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  FlagReader flags(argc, argv, kUsage);
  while (flags.next()) {
    if (flags.is("--ks")) {
      a.ks = flags.k_list();
    } else if (flags.is("--queries")) {
      a.queries = flags.integer(1, 100000);
    } else if (flags.is("--window-ms")) {
      a.window = millis(flags.integer(1, 1000000));
    } else if (flags.is("--flows")) {
      a.flows = flags.integer(1, 1000000);
    } else if (flags.is("--warm-ms")) {
      a.warm = millis(flags.integer(0, 1000000));
    } else if (flags.is("--json")) {
      a.json_path = flags.value();
    } else {
      flags.unknown();
    }
  }
  return a;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

core::PortlandFabric::Options fabric_options(int k) {
  core::PortlandFabric::Options options;
  options.k = k;
  options.seed = 20;
  options.config.fast_link_detection = true;
  return options;
}

/// Warm traffic: a random permutation of UDP flows, each host sending
/// to exactly one other host. Senders and receivers are Snapshotable,
/// so the same objects ride along with the image as extras and every
/// fork resumes them mid-flight.
struct WarmTraffic {
  std::vector<std::unique_ptr<host::UdpFlowReceiver>> receivers;
  std::vector<std::unique_ptr<host::UdpFlowSender>> senders;
  std::vector<sim::Snapshotable*> extras;

  WarmTraffic(core::PortlandFabric& fabric, int max_flows, Rng& rng) {
    const auto& hosts = fabric.hosts();
    const auto perm = host::permutation_pairing(hosts.size(), rng);
    const std::size_t n =
        std::min<std::size_t>(static_cast<std::size_t>(max_flows),
                              hosts.size());
    receivers.reserve(n);
    senders.reserve(n);
    extras.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      // record=false: counters only, no per-packet arrival trace (the
      // trace would bloat both the warmup and the snapshot).
      receivers.push_back(std::make_unique<host::UdpFlowReceiver>(
          *hosts[perm[i]], 9009, /*record=*/false));
      host::UdpFlowSender::Config cfg;
      cfg.dst = hosts[perm[i]]->ip();
      cfg.src_port = cfg.dst_port = 9009;
      cfg.interval = millis(2);
      cfg.payload_bytes = 64;
      // Stagger phases so n senders don't tick on the same nanosecond.
      cfg.phase = (millis(2) * static_cast<SimDuration>(i)) /
                  static_cast<SimDuration>(n);
      senders.push_back(
          std::make_unique<host::UdpFlowSender>(*hosts[i], cfg));
      senders.back()->start();
    }
    for (const auto& s : senders) extras.push_back(s.get());
    for (const auto& r : receivers) extras.push_back(r.get());
  }

  [[nodiscard]] std::uint64_t packets_received() const {
    std::uint64_t total = 0;
    for (const auto& r : receivers) total += r->packets_received();
    return total;
  }
};

struct WhatIfResult {
  core::PortlandFabric::LinkKillAnswer fm;
  std::uint64_t probe_rx = 0;  // warm-flow packets delivered in the window
};

/// The query itself: kill 3 random fabric links just after `now`, run
/// the reaction window, and read what the fabric manager did about it
/// and how the warm flows fared.
WhatIfResult run_what_if(core::PortlandFabric& fabric, WarmTraffic& traffic,
                         Rng& rng, SimDuration window) {
  const std::uint64_t rx0 = traffic.packets_received();
  const SimTime t0 = fabric.sim().now();
  WhatIfResult out;
  out.fm = fabric.kill_random_links(3, t0 + micros(100), t0 + window, rng);
  out.probe_rx = traffic.packets_received() - rx0;
  return out;
}

/// Median wall time of each restore phase over the forks of one row
/// (PortlandFabric::restore_phases): where a fork's time goes.
struct ForkPhases {
  double clear = 0;
  double engine = 0;
  double links = 0;
  double switches = 0;
  double hosts = 0;
  double fm = 0;
  double extras = 0;

  /// Medians of per-fork phase samples.
  static ForkPhases median_of(
      const std::vector<core::PortlandFabric::RestorePhases>& forks) {
    using Phases = core::PortlandFabric::RestorePhases;
    const auto ms = [&forks](std::uint64_t Phases::*phase) {
      std::vector<double> samples;
      samples.reserve(forks.size());
      for (const Phases& f : forks) samples.push_back(1e-6 * f.*phase);
      return bench::median_of(std::move(samples));
    };
    return ForkPhases{ms(&Phases::clear_ns),    ms(&Phases::engine_ns),
                      ms(&Phases::links_ns),    ms(&Phases::switches_ns),
                      ms(&Phases::hosts_ns),    ms(&Phases::fm_ns),
                      ms(&Phases::extras_ns)};
  }
};

struct Row {
  int k = 0;
  std::size_t hosts = 0;
  std::size_t flows = 0;
  double cold_ms = 0;       // construct + converge + warmup + one what-if
  double save_ms = 0;
  std::size_t snapshot_bytes = 0;
  double bytes_per_host = 0;
  double fork_ms = 0;       // median in-memory restore
  ForkPhases fork_phase_ms;  // median of each restore phase
  double answer_ms = 0;     // median fork + what-if
  double speedup = 0;       // cold_ms / answer_ms
  std::uint64_t faults = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t probe_rx = 0;
  double live_heap_peak_mb = 0;

  static void walk(auto&& fn) {
    fn("k", &Row::k);
    fn("hosts", &Row::hosts);
    fn("flows", &Row::flows);
    fn("snapshot_bytes", &Row::snapshot_bytes);
    fn("snapshot_bytes_per_host", &Row::bytes_per_host);
    fn("save_ms", &Row::save_ms);
    fn("fork_ms", &Row::fork_ms);
    fn("fork_phase_ms.clear", &Row::fork_phase_ms, &ForkPhases::clear);
    fn("fork_phase_ms.engine", &Row::fork_phase_ms, &ForkPhases::engine);
    fn("fork_phase_ms.links", &Row::fork_phase_ms, &ForkPhases::links);
    fn("fork_phase_ms.switches", &Row::fork_phase_ms, &ForkPhases::switches);
    fn("fork_phase_ms.hosts", &Row::fork_phase_ms, &ForkPhases::hosts);
    fn("fork_phase_ms.fm", &Row::fork_phase_ms, &ForkPhases::fm);
    fn("fork_phase_ms.extras", &Row::fork_phase_ms, &ForkPhases::extras);
    fn("answer_ms", &Row::answer_ms);
    fn("cold_ms", &Row::cold_ms);
    fn("speedup", &Row::speedup);
    fn("faults", &Row::faults);
    fn("reroutes", &Row::reroutes);
    fn("probe_rx", &Row::probe_rx);
    fn("live_heap_peak_mb", &Row::live_heap_peak_mb);
  }
};

/// The rows, then the headline floors (the largest k in the run) that the
/// CI regression gate reads as flat keys.
struct Report {
  std::vector<Row> rows;
  Row head;

  static void walk(auto&& fn) {
    fn("rows", &Report::rows);
    fn("headline_k", &Report::head, &Row::k);
    fn("snapshot_bytes_per_host", &Report::head, &Row::bytes_per_host);
    fn("fork_ms", &Report::head, &Row::fork_ms);
    fn("answer_ms", &Report::head, &Row::answer_ms);
    fn("cold_ms", &Report::head, &Row::cold_ms);
    fn("speedup_vs_cold", &Report::head, &Row::speedup);
  }
};

Row run_one(const Args& args, int k) {
  Row row;
  row.k = k;
  std::printf("\n--- k=%d ---\n", k);
  heap::reset_live_peak();

  // Cold baseline: what every query costs without the checkpoint —
  // including re-warming the caches the query's answer depends on.
  {
    Rng rng(71);
    const auto w0 = std::chrono::steady_clock::now();
    const auto cold = make_fabric(fabric_options(k), seconds(60));
    WarmTraffic traffic(*cold, args.flows, rng);
    cold->sim().run_until(cold->sim().now() + args.warm);
    const WhatIfResult r = run_what_if(*cold, traffic, rng, args.window);
    row.cold_ms = ms_since(w0);
    std::printf("cold converge+warm+answer : %.1f ms (%llu faults, %llu "
                "reroutes, %llu probe rx)\n",
                row.cold_ms, static_cast<unsigned long long>(r.fm.faults),
                static_cast<unsigned long long>(r.fm.reroutes),
                static_cast<unsigned long long>(r.probe_rx));
  }

  // Warm fabric + checkpoint. Same construction: converge, warm the
  // caches with traffic, snapshot once with the apps as extras.
  Rng rng(71);
  const auto fabric = make_fabric(fabric_options(k), seconds(60));
  row.hosts = fabric->hosts().size();
  WarmTraffic traffic(*fabric, args.flows, rng);
  row.flows = traffic.senders.size();
  fabric->sim().run_until(fabric->sim().now() + args.warm);

  std::vector<std::uint8_t> image;
  std::string err;
  {
    const auto w0 = std::chrono::steady_clock::now();
    if (!fabric->save_snapshot(image, traffic.extras, &err)) {
      std::fprintf(stderr, "FATAL: save failed: %s\n", err.c_str());
      std::exit(1);
    }
    row.save_ms = ms_since(w0);
  }
  row.snapshot_bytes = image.size();
  row.bytes_per_host =
      static_cast<double>(image.size()) / static_cast<double>(row.hosts);
  std::printf("snapshot              : %zu bytes (%.1f/host, %zu flows "
              "in-flight), saved in %.2f ms\n",
              row.snapshot_bytes, row.bytes_per_host, row.flows, row.save_ms);

  // Forked what-if queries, each with its own random victim set.
  std::vector<double> fork_samples;
  std::vector<double> answer_samples;
  std::vector<core::PortlandFabric::RestorePhases> phase_samples;
  for (int q = 0; q < args.queries; ++q) {
    const auto w0 = std::chrono::steady_clock::now();
    if (!fabric->restore_snapshot(image, traffic.extras, &err)) {
      std::fprintf(stderr, "FATAL: fork failed: %s\n", err.c_str());
      std::exit(1);
    }
    const double fork_ms = ms_since(w0);
    phase_samples.push_back(fabric->restore_phases());
    const WhatIfResult r = run_what_if(*fabric, traffic, rng, args.window);
    const double answer_ms = ms_since(w0);
    fork_samples.push_back(fork_ms);
    answer_samples.push_back(answer_ms);
    row.faults = r.fm.faults;
    row.reroutes = r.fm.reroutes;
    row.probe_rx = r.probe_rx;
    std::printf("  query %d             : fork %.2f ms, answer %.2f ms "
                "(%llu faults, %llu reroutes, %llu probe rx, %zu links "
                "down)\n",
                q, fork_ms, answer_ms,
                static_cast<unsigned long long>(r.fm.faults),
                static_cast<unsigned long long>(r.fm.reroutes),
                static_cast<unsigned long long>(r.probe_rx),
                r.fm.failed_links);
  }
  row.fork_ms = median_of(std::move(fork_samples));
  row.fork_phase_ms = ForkPhases::median_of(phase_samples);
  row.answer_ms = median_of(std::move(answer_samples));
  row.speedup = row.answer_ms > 0 ? row.cold_ms / row.answer_ms : 0;
  std::printf("fork median           : %.2f ms\n", row.fork_ms);
  const ForkPhases& ph = row.fork_phase_ms;
  std::printf("fork phases (median)  : clear %.2f, engine %.2f, links %.2f, "
              "switches %.2f, hosts %.2f, fm %.2f, extras %.2f ms\n",
              ph.clear, ph.engine, ph.links, ph.switches, ph.hosts, ph.fm,
              ph.extras);
  std::printf("fork+answer median    : %.2f ms\n", row.answer_ms);
  std::printf("speedup vs cold       : %.1fx\n", row.speedup);
  row.live_heap_peak_mb = heap::live_peak_mb();
  std::printf("live heap peak        : %.1f MiB\n", row.live_heap_peak_mb);
  return row;
}

void run(const Args& args) {
  print_header("E20: checkpoint/fork what-if serving");

  Report report;
  std::vector<Row>& rows = report.rows;
  for (const int k : args.ks) rows.push_back(run_one(args, k));
  std::printf("\n");
  print_table(rows);

  report.head = rows.back();
  if (!args.json_path.empty()) {
    write_json(args.json_path, "e20_snapshot", report);
  }

  // Every query must actually observe the fabric reacting: a what-if
  // answer with zero detected faults is not an answer.
  for (const Row& r : rows) {
    if (r.faults == 0) {
      std::fprintf(stderr, "FAIL: k=%d what-if saw no fault reaction\n", r.k);
      std::exit(1);
    }
    if (r.flows > 0 && r.probe_rx == 0) {
      std::fprintf(stderr, "FAIL: k=%d forked flows delivered nothing\n",
                   r.k);
      std::exit(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) { run(parse_args(argc, argv)); }
