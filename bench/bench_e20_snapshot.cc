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
//   * answer wall-clock: fork + fail 3 random fabric links + run the
//     reaction window + read the FM and flow counters, median over
//     --queries runs (each query kills a different random link set, as
//     a real study would),
//   * the headline ratio cold / (fork + answer) — the acceptance floor
//     is >= 50x at k=48.
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
  std::uint64_t faults = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t probe_rx = 0;  // warm-flow packets delivered in the window
  std::size_t failed_links = 0;
};

/// The query itself: kill 3 random fabric links just after `now`, run
/// the reaction window, and read what the fabric manager did about it
/// and how the warm flows fared.
WhatIfResult run_what_if(core::PortlandFabric& fabric, WarmTraffic& traffic,
                         Rng& rng, SimDuration window) {
  const auto& fm = fabric.fabric_manager();
  const std::uint64_t faults0 = fm.counters().get("fault_notifications");
  const std::uint64_t reroutes0 = fm.counters().get("prune_updates_sent");
  const std::uint64_t rx0 = traffic.packets_received();
  const SimTime t0 = fabric.sim().now();
  fabric.failures().fail_random_links_at(fabric.fabric_links(), 3,
                                         t0 + micros(100), rng);
  fabric.sim().run_until(t0 + window);
  WhatIfResult out;
  out.faults = fm.counters().get("fault_notifications") - faults0;
  out.reroutes = fm.counters().get("prune_updates_sent") - reroutes0;
  out.probe_rx = traffic.packets_received() - rx0;
  out.failed_links = fm.graph().failed_link_count();
  return out;
}

struct Row {
  int k = 0;
  std::size_t hosts = 0;
  std::size_t flows = 0;
  double cold_ms = 0;       // construct + converge + warmup + one what-if
  double save_ms = 0;
  std::size_t snapshot_bytes = 0;
  double bytes_per_host = 0;
  double fork_ms = 0;       // median in-memory restore
  double answer_ms = 0;     // median fork + what-if
  double speedup = 0;       // cold_ms / answer_ms
  std::uint64_t faults = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t probe_rx = 0;
};

Row run_one(const Args& args, int k) {
  Row row;
  row.k = k;
  std::printf("\n--- k=%d ---\n", k);

  // Cold baseline: what every query costs without the checkpoint —
  // including re-warming the caches the query's answer depends on.
  {
    Rng rng(71);
    const auto w0 = std::chrono::steady_clock::now();
    core::PortlandFabric cold(fabric_options(k));
    if (!cold.run_until_converged(seconds(60))) {
      std::fprintf(stderr, "FATAL: k=%d did not converge\n", k);
      std::exit(1);
    }
    WarmTraffic traffic(cold, args.flows, rng);
    cold.sim().run_until(cold.sim().now() + args.warm);
    const WhatIfResult r = run_what_if(cold, traffic, rng, args.window);
    row.cold_ms = ms_since(w0);
    std::printf("cold converge+warm+answer : %.1f ms (%llu faults, %llu "
                "reroutes, %llu probe rx)\n",
                row.cold_ms, static_cast<unsigned long long>(r.faults),
                static_cast<unsigned long long>(r.reroutes),
                static_cast<unsigned long long>(r.probe_rx));
  }

  // Warm fabric + checkpoint. Same construction: converge, warm the
  // caches with traffic, snapshot once with the apps as extras.
  Rng rng(71);
  core::PortlandFabric fabric(fabric_options(k));
  if (!fabric.run_until_converged(seconds(60))) {
    std::fprintf(stderr, "FATAL: k=%d did not converge\n", k);
    std::exit(1);
  }
  row.hosts = fabric.hosts().size();
  WarmTraffic traffic(fabric, args.flows, rng);
  row.flows = traffic.senders.size();
  fabric.sim().run_until(fabric.sim().now() + args.warm);

  std::vector<std::uint8_t> image;
  std::string err;
  {
    const auto w0 = std::chrono::steady_clock::now();
    if (!fabric.save_snapshot(image, traffic.extras, &err)) {
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
  for (int q = 0; q < args.queries; ++q) {
    const auto w0 = std::chrono::steady_clock::now();
    if (!fabric.restore_snapshot(image, traffic.extras, &err)) {
      std::fprintf(stderr, "FATAL: fork failed: %s\n", err.c_str());
      std::exit(1);
    }
    const double fork_ms = ms_since(w0);
    const WhatIfResult r = run_what_if(fabric, traffic, rng, args.window);
    const double answer_ms = ms_since(w0);
    fork_samples.push_back(fork_ms);
    answer_samples.push_back(answer_ms);
    row.faults = r.faults;
    row.reroutes = r.reroutes;
    row.probe_rx = r.probe_rx;
    std::printf("  query %d             : fork %.2f ms, answer %.2f ms "
                "(%llu faults, %llu reroutes, %llu probe rx, %zu links "
                "down)\n",
                q, fork_ms, answer_ms,
                static_cast<unsigned long long>(r.faults),
                static_cast<unsigned long long>(r.reroutes),
                static_cast<unsigned long long>(r.probe_rx),
                r.failed_links);
  }
  row.fork_ms = median_of(std::move(fork_samples));
  row.answer_ms = median_of(std::move(answer_samples));
  row.speedup = row.answer_ms > 0 ? row.cold_ms / row.answer_ms : 0;
  std::printf("fork median           : %.2f ms\n", row.fork_ms);
  std::printf("fork+answer median    : %.2f ms\n", row.answer_ms);
  std::printf("speedup vs cold       : %.1fx\n", row.speedup);
  return row;
}

void run(const Args& args) {
  print_header("E20: checkpoint/fork what-if serving");

  std::vector<Row> rows;
  for (const int k : args.ks) rows.push_back(run_one(args, k));

  std::printf("\n%-6s %10s %8s %12s %12s %10s %12s %10s\n", "k", "hosts",
              "flows", "snap bytes", "bytes/host", "fork ms", "answer ms",
              "speedup");
  for (const Row& r : rows) {
    std::printf("%-6d %10zu %8zu %12zu %12.1f %10.2f %12.2f %9.1fx\n", r.k,
                r.hosts, r.flows, r.snapshot_bytes, r.bytes_per_host,
                r.fork_ms, r.answer_ms, r.speedup);
  }

  if (!args.json_path.empty()) {
    JsonReport report("e20_snapshot");
    std::string arr = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      char buf[640];
      std::snprintf(
          buf, sizeof(buf),
          "%s\n    {\"k\": %d, \"hosts\": %zu, \"flows\": %zu, "
          "\"snapshot_bytes\": %zu, "
          "\"snapshot_bytes_per_host\": %.1f, \"save_ms\": %.3f, "
          "\"fork_ms\": %.3f, \"answer_ms\": %.3f, \"cold_ms\": %.1f, "
          "\"speedup\": %.1f, \"faults\": %llu, \"reroutes\": %llu, "
          "\"probe_rx\": %llu}",
          i == 0 ? "" : ",", r.k, r.hosts, r.flows, r.snapshot_bytes,
          r.bytes_per_host, r.save_ms, r.fork_ms, r.answer_ms, r.cold_ms,
          r.speedup, static_cast<unsigned long long>(r.faults),
          static_cast<unsigned long long>(r.reroutes),
          static_cast<unsigned long long>(r.probe_rx));
      arr += buf;
    }
    arr += "\n  ]";
    report.add_raw("rows", arr);
    // Headline floors (largest k in the run): the CI regression gate
    // reads these flat keys.
    const Row& head = rows.back();
    report.add("headline_k", head.k);
    report.add("snapshot_bytes_per_host", head.bytes_per_host);
    report.add("fork_ms", head.fork_ms);
    report.add("answer_ms", head.answer_ms);
    report.add("cold_ms", head.cold_ms);
    report.add("speedup_vs_cold", head.speedup);
    report.write(args.json_path);
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
