// E22 — the sharded proxy-ARP control plane under a million-host storm.
//
// Three fabrics per k, exercising the scale-out knobs one at a time:
//
//   single     fm_shards=1  coalescing on   replica off   (classic FM)
//   sharded    fm_shards=0  coalescing on   replica on    (the headline)
//   nocoalesce fm_shards=0  coalescing off  neg-cache off (ablation)
//
// Phases per row:
//   * boot storm — construction + LDP discovery + the gratuitous-ARP wave
//     that fills the registry (wall seconds),
//   * incast storm — every host resolves the same few "service" addresses
//     in one burst, plus a bounded absent-address burst; this is where
//     edge coalescing and the negative cache earn their keep (FM-bound
//     query delta),
//   * steady storm — rounds of all-hosts-resolve-a-fresh-target traffic
//     until ~`resolutions` distinct resolutions completed (~1M at k=48),
//   * failover mid-storm — the primary dies with queries in flight;
//     `single` rebuilds cold from refreshes, `sharded` restores from the
//     hot-standby delta stream (registry blackout in simulated ms).
//
// Reported headline metrics (largest k, `sharded` row unless noted):
//   * resolutions_per_sec — wall-clock, noisy on shared runners (the
//     `oversubscribed` flag marks a <2-core box),
//   * service_speedup — total ARP queries / max per-shard queries, the
//     deterministic measure of how much parallel service headroom the
//     sharded control plane exposes (1.0 by construction for `single`),
//   * coalesce_ratio — FM-bound incast queries, nocoalesce / sharded,
//   * arp_p99_us — end-to-end resolution latency p99 in simulated time,
//     from the hosts' log2 histograms (deterministic per seed),
//   * replica_blackout_ms / cold_blackout_ms — simulated time until the
//     registry is whole again after the mid-storm failover,
//   * storm_heap_delta_mb — live heap bytes after the steady storm minus
//     before it: the per-host ARP state the storm leaves behind
//     (reported, not gated). Counted by this binary's global operator
//     new/delete, with each row in its own child process, so a row reads
//     the same wherever it runs in the order.
//
// Usage: bench_e22_arp_storm [--ks N[,N...]] [--full] [--resolutions N]
//                            [--incast-targets N] [--absent-hosts N]
//                            [--round-gap-ms N] [--json PATH]
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench/bench_util.h"

// ---------------------------------------------------------------------------
// Live heap accounting (this binary only): each global new adds its
// block's usable size and each delete takes it back, so the count is
// what is live now, not what the allocator keeps in reserve.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::int64_t> g_live_heap_bytes{0};

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_heap_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_heap_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

using namespace portland;
using namespace portland::bench;

namespace {

constexpr const char* kUsage =
    "bench_e22_arp_storm [--ks N[,N...]] [--full] [--resolutions N] "
    "[--incast-targets N] [--absent-hosts N] [--round-gap-ms N] "
    "[--json PATH]";

struct Args {
  std::vector<int> ks = {48};
  bool full = false;                 // adds k=64
  std::uint64_t resolutions = 1'000'000;  // steady-storm target
  std::size_t incast_targets = 4;
  std::size_t absent_hosts = 16;     // absent-address burst senders
  SimDuration round_gap = millis(5);
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
    } else if (flags.is("--resolutions")) {
      a.resolutions = static_cast<std::uint64_t>(flags.integer(1, 1000000000));
    } else if (flags.is("--incast-targets")) {
      a.incast_targets = static_cast<std::size_t>(flags.integer(1, 100000));
    } else if (flags.is("--absent-hosts")) {
      a.absent_hosts = static_cast<std::size_t>(flags.integer(0, 1000000));
    } else if (flags.is("--round-gap-ms")) {
      a.round_gap = millis(flags.integer(1, 1000000));
    } else if (flags.is("--json")) {
      a.json_path = flags.value();
    } else {
      flags.unknown();
    }
  }
  if (a.full) a.ks.push_back(64);
  return a;
}

enum class Mode { kSingle, kSharded, kNoCoalesce };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kSingle: return "single";
    case Mode::kSharded: return "sharded";
    case Mode::kNoCoalesce: return "nocoalesce";
  }
  return "?";
}

/// Aggregated host-side resolution histogram (log2 µs buckets, E22).
struct LatencyHistogram {
  static constexpr int kBuckets = 16;  // le_1 .. le_32768
  std::uint64_t le[kBuckets] = {};
  std::uint64_t over = 0;
  std::uint64_t resolutions = 0;

  static LatencyHistogram capture(const core::PortlandFabric& fabric) {
    LatencyHistogram h;
    for (const host::Host* host : fabric.hosts()) {
      for (int b = 0; b < kBuckets; ++b) {
        h.le[b] += host->counters().get("arp_latency_us_le_" +
                                        std::to_string(1u << b));
      }
      h.over += host->counters().get("arp_latency_us_over");
      h.resolutions += host->counters().get("arp_resolutions");
    }
    return h;
  }

  LatencyHistogram operator-(const LatencyHistogram& o) const {
    LatencyHistogram d;
    for (int b = 0; b < kBuckets; ++b) d.le[b] = le[b] - o.le[b];
    d.over = over - o.over;
    d.resolutions = resolutions - o.resolutions;
    return d;
  }

  /// Upper bound (µs) of the bucket holding the pth percentile; the
  /// overflow bucket reports as 65536.
  [[nodiscard]] double percentile_us(double p) const {
    std::uint64_t total = over;
    for (const std::uint64_t n : le) total += n;
    if (total == 0) return 0;
    const double want = p * static_cast<double>(total);
    std::uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      cum += le[b];
      if (static_cast<double>(cum) >= want) return 1u << b;
    }
    return 65536;
  }
};

/// FM-bound ARP queries, summed across registry shards.
std::uint64_t total_fm_queries(const core::FabricManager& fm) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < fm.shard_count(); ++s) {
    total += fm.shard_counters(s).get("arp_queries");
  }
  return total;
}

struct Row {
  int k = 0;
  const char* mode = "";  // mode_name(), a literal: the row stays
                          // trivially copyable across the fork
  std::size_t hosts = 0;
  std::size_t shards = 0;
  double boot_s = 0;
  std::uint64_t incast_fm_queries = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t negative_hits = 0;
  std::uint64_t storm_resolutions = 0;
  double storm_wall_s = 0;
  double resolutions_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  double service_speedup = 1.0;
  double blackout_ms = -1;  // -1: no failover phase in this row
  /// Live heap after the steady storm minus before it: what the hosts'
  /// ARP state (cache entries, unresolved sends) holds.
  double storm_heap_delta_mb = 0;

  static void walk(auto&& fn) {
    fn("k", &Row::k);
    fn("mode", &Row::mode);
    fn("hosts", &Row::hosts);
    fn("fm_shards", &Row::shards);
    fn("boot_seconds", &Row::boot_s);
    fn("incast_fm_queries", &Row::incast_fm_queries);
    fn("arp_coalesced", &Row::coalesced);
    fn("arp_negative_hits", &Row::negative_hits);
    fn("storm_resolutions", &Row::storm_resolutions);
    fn("resolutions_per_sec", &Row::resolutions_per_sec);
    fn("arp_p50_us", &Row::p50_us);
    fn("arp_p99_us", &Row::p99_us);
    fn("service_speedup", &Row::service_speedup);
    fn("blackout_ms", &Row::blackout_ms);
    fn("storm_heap_delta_mb", &Row::storm_heap_delta_mb);
  }
};

/// The headline is the `sharded` row at the largest k, plus its
/// comparisons against `single` and `nocoalesce` there.
struct Report {
  unsigned hw_cores = 0;
  bool oversubscribed = false;
  Row single;
  Row sharded;
  double coalesce_ratio = 0;
  double throughput_ratio_wall = 0;
  std::vector<Row> rows;

  static void walk(auto&& fn) {
    fn("hw_cores", &Report::hw_cores);
    fn("oversubscribed", &Report::oversubscribed);
    fn("headline_k", &Report::sharded, &Row::k);
    fn("hosts", &Report::sharded, &Row::hosts);
    fn("fm_shards", &Report::sharded, &Row::shards);
    fn("storm_resolutions", &Report::sharded, &Row::storm_resolutions);
    fn("resolutions_per_sec", &Report::sharded, &Row::resolutions_per_sec);
    fn("arp_p50_us", &Report::sharded, &Row::p50_us);
    fn("arp_p99_us", &Report::sharded, &Row::p99_us);
    fn("service_speedup", &Report::sharded, &Row::service_speedup);
    fn("replica_blackout_ms", &Report::sharded, &Row::blackout_ms);
    fn("storm_heap_delta_mb", &Report::sharded, &Row::storm_heap_delta_mb);
    fn("cold_blackout_ms", &Report::single, &Row::blackout_ms);
    fn("single_resolutions_per_sec", &Report::single,
       &Row::resolutions_per_sec);
    fn("coalesce_ratio", &Report::coalesce_ratio);
    fn("throughput_ratio_wall", &Report::throughput_ratio_wall);
    fn("rows", &Report::rows);
  }
};

/// Steps the simulation in 1 ms increments until the registry holds
/// `expected` hosts again; returns the simulated blackout in ms.
double measure_blackout_ms(core::PortlandFabric& fabric,
                           std::size_t expected) {
  const SimTime t0 = fabric.sim().now();
  for (int step = 0; step < 3000; ++step) {
    if (fabric.fabric_manager().host_count() >= expected) break;
    fabric.sim().run_until(fabric.sim().now() + millis(1));
  }
  return to_millis(fabric.sim().now() - t0);
}

Row run_one(const Args& args, int k, Mode mode) {
  Row row;
  row.k = k;
  row.mode = mode_name(mode);
  std::printf("\n--- k=%d %s ---\n", k, mode_name(mode));

  core::PortlandFabric::Options options;
  options.k = k;
  options.seed = 22;
  options.config.fm_shards = mode == Mode::kSingle ? 1 : 0;  // 0: per-pod
  options.config.arp_coalescing = mode != Mode::kNoCoalesce;
  if (mode == Mode::kNoCoalesce) options.config.arp_negative_cache_entries = 0;
  options.config.fm_replica = mode == Mode::kSharded;
  // Bound the absent-address burst: two retries, then give up.
  options.host_config.arp_max_retries = 2;

  const auto t0 = std::chrono::steady_clock::now();
  const auto fabric = make_fabric(options, seconds(60));
  row.boot_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  core::FabricManager& fm = fabric->fabric_manager();
  sim::Simulator& sim = fabric->sim();
  const auto& hosts = fabric->hosts();
  const std::size_t n = hosts.size();
  row.hosts = n;
  row.shards = fm.shard_count();
  std::printf("boot (construct+converge): %.2f s, %zu hosts, %zu FM shards\n",
              row.boot_s, n, row.shards);

  // --- incast storm: everyone resolves the same few addresses at once ---
  const std::uint64_t q_before = total_fm_queries(fm);
  for (std::size_t t = 0; t < args.incast_targets; ++t) {
    host::Host* target = hosts[(t * n) / args.incast_targets + t % n];
    for (host::Host* h : hosts) {
      if (h == target) continue;
      h->send_udp(target->ip(), 7100, 7100, {1});
    }
    sim.run_until(sim.now() + args.round_gap);
  }
  // Absent-address burst from a bounded sender set (each unresolved
  // request floods the fabric, so all-hosts here would measure the
  // broadcast path, not the control plane).
  const Ipv4Address absent(10, 250, 0, 1);
  for (std::size_t i = 0; i < args.absent_hosts && i < n; ++i) {
    hosts[i]->send_udp(absent, 7101, 7101, {1});
  }
  sim.run_until(sim.now() + millis(700));  // 2 retries at 200 ms + settle
  row.incast_fm_queries = total_fm_queries(fm) - q_before;
  for (const core::PortlandSwitch* sw : fabric->switches()) {
    row.coalesced += sw->counters().get("arp_coalesced");
    row.negative_hits += sw->counters().get("arp_negative_hits");
  }
  std::printf("incast FM queries     : %" PRIu64 " (coalesced %" PRIu64
              ", negative hits %" PRIu64 ")\n",
              row.incast_fm_queries, row.coalesced, row.negative_hits);

  // --- steady storm: fresh (src, dst) pairs each round -------------------
  const std::size_t rounds =
      (args.resolutions + n - 1) / n;
  const LatencyHistogram h0 = LatencyHistogram::capture(*fabric);
  const std::uint64_t storm_q0 = total_fm_queries(fm);
  const std::int64_t storm_heap0 = g_live_heap_bytes.load();
  std::vector<std::size_t> offsets;
  for (std::size_t r = 0; offsets.size() < rounds; ++r) {
    std::size_t off = (static_cast<std::size_t>(r + 1) * 2654435761ull) % n;
    while (off == 0 ||
           std::find(offsets.begin(), offsets.end(), off) != offsets.end()) {
      off = (off + 1) % n;
    }
    offsets.push_back(off);
  }
  double storm_wall = 0;
  const std::size_t failover_round = rounds / 2;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto w0 = std::chrono::steady_clock::now();
    const std::uint16_t port = static_cast<std::uint16_t>(7200 + r);
    for (std::size_t i = 0; i < n; ++i) {
      hosts[i]->send_udp(hosts[(i + offsets[r]) % n]->ip(), port, port, {1});
    }
    if (r == failover_round && mode != Mode::kNoCoalesce) {
      // Primary dies with this round's queries in flight.
      sim.run_until(sim.now() + micros(20));
      storm_wall +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - w0)
              .count();
      if (mode == Mode::kSharded) {
        fm.failover_to_replica();
      } else {
        fm.simulate_failover();
      }
      row.blackout_ms = measure_blackout_ms(*fabric, n);
      std::printf("%s blackout          : %.1f ms (simulated)\n",
                  mode == Mode::kSharded ? "replica" : "cold   ",
                  row.blackout_ms);
      continue;
    }
    sim.run_until(sim.now() + args.round_gap);
    storm_wall +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - w0)
            .count();
  }
  // Drain stragglers (retried resolutions after the failover blackout).
  sim.run_until(sim.now() + millis(500));
  row.storm_heap_delta_mb =
      static_cast<double>(g_live_heap_bytes.load() - storm_heap0) /
      (1024.0 * 1024.0);

  const LatencyHistogram hist = LatencyHistogram::capture(*fabric) - h0;
  row.storm_resolutions = hist.resolutions;
  row.storm_wall_s = storm_wall;
  row.resolutions_per_sec =
      storm_wall > 0 ? static_cast<double>(hist.resolutions) / storm_wall : 0;
  row.p50_us = hist.percentile_us(0.50);
  row.p99_us = hist.percentile_us(0.99);

  // Deterministic parallel-service headroom: if every shard were its own
  // CPU, service time is bounded by the busiest shard.
  std::uint64_t max_shard = 0;
  for (std::size_t s = 0; s < fm.shard_count(); ++s) {
    max_shard = std::max(max_shard, fm.shard_counters(s).get("arp_queries"));
  }
  const std::uint64_t total = total_fm_queries(fm);
  row.service_speedup =
      max_shard > 0
          ? static_cast<double>(total) / static_cast<double>(max_shard)
          : 1.0;

  std::printf("storm resolutions     : %" PRIu64 " in %.2f s wall "
              "(%.0f/s, %" PRIu64 " FM queries)\n",
              row.storm_resolutions, row.storm_wall_s,
              row.resolutions_per_sec, total - storm_q0);
  std::printf("latency p50/p99       : %.0f / %.0f us (simulated)\n",
              row.p50_us, row.p99_us);
  std::printf("service speedup       : %.2fx across %zu shards\n",
              row.service_speedup, row.shards);
  std::printf("storm heap delta      : %.2f MiB\n", row.storm_heap_delta_mb);
  return row;
}

/// Runs one row in a child process, so every row starts from the same
/// heap: buffers an earlier row retired into the frame and ring pools
/// cannot serve this row's storm and hide its growth.
Row run_isolated(const Args& args, int k, Mode mode) {
  static_assert(std::is_trivially_copyable_v<Row>);
  std::fflush(stdout);
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    const Row row = run_one(args, k, mode);
    std::fflush(stdout);
    const bool sent = write(fds[1], &row, sizeof(row)) == sizeof(row);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  Row row;
  const bool got = read(fds[0], &row, sizeof(row)) == sizeof(row);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "FATAL: row k=%d %s did not finish\n", k,
                 mode_name(mode));
    std::exit(1);
  }
  return row;
}

void run(const Args& args) {
  print_header("E22: sharded proxy-ARP control plane under an ARP storm");
  Report report;
  report.hw_cores = std::thread::hardware_concurrency();
  report.oversubscribed = report.hw_cores < 2;

  std::vector<Row>& rows = report.rows;
  for (const int k : args.ks) {
    rows.push_back(run_isolated(args, k, Mode::kSingle));
    rows.push_back(run_isolated(args, k, Mode::kSharded));
    rows.push_back(run_isolated(args, k, Mode::kNoCoalesce));
  }

  // Headline comparisons at the largest k: its three rows come last.
  const Row& single = report.single = rows.end()[-3];
  const Row& sharded = report.sharded = rows.end()[-2];
  const Row& nocoalesce = rows.end()[-1];
  if (sharded.incast_fm_queries > 0) {
    report.coalesce_ratio = static_cast<double>(nocoalesce.incast_fm_queries) /
                            static_cast<double>(sharded.incast_fm_queries);
  }
  if (single.resolutions_per_sec > 0) {
    report.throughput_ratio_wall =
        sharded.resolutions_per_sec / single.resolutions_per_sec;
  }
  std::printf("\ncoalesce ratio        : %.1fx fewer FM-bound incast "
              "queries\n", report.coalesce_ratio);
  std::printf("service speedup       : %.2fx (sharded) vs 1.00x (single)\n",
              sharded.service_speedup);
  std::printf("wall throughput ratio : %.2fx sharded/single%s\n",
              report.throughput_ratio_wall,
              report.oversubscribed ? " (oversubscribed: 1 core)" : "");

  if (!args.json_path.empty()) {
    write_json(args.json_path, "e22_arp_storm", report);
  }
}

}  // namespace

int main(int argc, char** argv) { run(parse_args(argc, argv)); }
