// E14 — end-to-end data-plane throughput (frames/sec of wall-clock time).
//
// An 8-ary fat tree (128 hosts, 80 switches) carries an all-to-all-style
// UDP workload: every host runs `flows_per_host` constant-rate flows, each
// to a host in a different pod, so every level of the fabric forwards at
// steady state. After convergence and a cache-warming period the bench
// times one simulated second of traffic and reports:
//   * delivered data frames per wall-clock second (the headline number),
//   * wall ns and heap allocations per delivered frame,
//   * simulator events per delivered frame.
// Heap allocations are counted by overriding global operator new in this
// binary only — the steady-state unicast path is supposed to be nearly
// allocation-free.
//
// Usage: bench_e14_fastpath [--k N] [--flows-per-host N] [--json PATH]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "bench/bench_util.h"
#include "net/packet.h"

// ---------------------------------------------------------------------------
// Allocation counting (this binary only).
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace portland;
using namespace portland::bench;

namespace {

constexpr const char* kUsage =
    "bench_e14_fastpath [--k N] [--flows-per-host N] [--json PATH]";

struct Args {
  int k = 8;
  std::size_t flows_per_host = 2;
  SimDuration measure = seconds(1);
  std::string json_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  FlagReader flags(argc, argv, kUsage);
  while (flags.next()) {
    if (flags.is("--k")) {
      a.k = flags.k();
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

std::uint64_t switch_counter_sum(core::PortlandFabric& fabric,
                                 const char* name) {
  std::uint64_t sum = 0;
  for (const core::PortlandSwitch* sw : fabric.switches()) {
    sum += sw->counters().get(name);
  }
  return sum;
}

void run(const Args& args) {
  print_header("E14: end-to-end data-plane throughput (k=" +
               std::to_string(args.k) + " fat tree, all-to-all UDP)");

  auto fabric = make_fabric(args.k, /*seed=*/14);
  const auto& hosts = fabric->hosts();
  const std::size_t n = hosts.size();
  const std::size_t hosts_per_pod = n / static_cast<std::size_t>(args.k);

  // All-to-all style pairing: host i sends flow f to the host with the
  // same intra-pod index f+1 pods away, so every pod pair carries traffic
  // and every flow crosses the core.
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

  sim::Simulator& sim = fabric->sim();

  // Warm up: ARP resolution, flow pinning, cache fill.
  sim.run_until(sim.now() + millis(200));

  auto delivered = [&] {
    std::uint64_t d = 0;
    for (const auto& fl : flows) d += fl->receiver->packets_received();
    return d;
  };

  const std::uint64_t delivered0 = delivered();
  const std::uint64_t events0 = sim.executed_events();
  const std::uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t alloc_bytes0 =
      g_alloc_bytes.load(std::memory_order_relaxed);
  const std::uint64_t hop_rx0 = switch_counter_sum(*fabric, "rx_frames");
  const net::ParseStats parse0 = net::parse_stats();
  std::uint64_t fib_rebuilds0 = 0;
  for (const core::PortlandSwitch* sw : fabric->switches()) {
    fib_rebuilds0 += sw->fib_rebuilds();
  }
  const auto wall0 = std::chrono::steady_clock::now();

  sim.run_until(sim.now() + args.measure);

  const auto wall1 = std::chrono::steady_clock::now();
  const std::uint64_t frames = delivered() - delivered0;
  const std::uint64_t events = sim.executed_events() - events0;
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  const std::uint64_t alloc_bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - alloc_bytes0;
  const std::uint64_t hop_rx = switch_counter_sum(*fabric, "rx_frames") - hop_rx0;
  const net::ParseStats& parse1 = net::parse_stats();
  const std::uint64_t parses = parse1.parse_calls - parse0.parse_calls;
  const std::uint64_t meta_hits = parse1.meta_hits - parse0.meta_hits;
  std::uint64_t fib_rebuilds = 0;
  for (const core::PortlandSwitch* sw : fabric->switches()) {
    fib_rebuilds += sw->fib_rebuilds();
  }
  fib_rebuilds -= fib_rebuilds0;
  const double wall_s =
      std::chrono::duration<double>(wall1 - wall0).count();

  const double fps = static_cast<double>(frames) / wall_s;
  const double ns_per_frame = wall_s * 1e9 / static_cast<double>(frames);
  const double allocs_per_frame =
      static_cast<double>(allocs) / static_cast<double>(frames);
  const double events_per_frame =
      static_cast<double>(events) / static_cast<double>(frames);
  const double hops_per_frame =
      static_cast<double>(hop_rx) / static_cast<double>(frames);

  std::printf("hosts                 : %zu\n", n);
  std::printf("flows                 : %zu\n", flows.size());
  std::printf("delivered data frames : %llu (in %lld ms simulated)\n",
              static_cast<unsigned long long>(frames),
              static_cast<long long>(args.measure / 1000000));
  std::printf("wall time             : %.3f s\n", wall_s);
  std::printf("frames/sec (wall)     : %.0f\n", fps);
  std::printf("ns/frame (wall)       : %.0f\n", ns_per_frame);
  std::printf("allocs/frame          : %.2f (%.0f bytes)\n", allocs_per_frame,
              static_cast<double>(alloc_bytes) / static_cast<double>(frames));
  std::printf("events/frame          : %.2f\n", events_per_frame);
  std::printf("switch-hop rx/frame   : %.2f (includes LDP keepalives)\n",
              hops_per_frame);
  std::printf("parse calls/frame     : %.3f (meta hits/frame %.3f)\n",
              static_cast<double>(parses) / static_cast<double>(frames),
              static_cast<double>(meta_hits) / static_cast<double>(frames));
  std::printf("FIB rebuilds          : %llu (in measured window)\n",
              static_cast<unsigned long long>(fib_rebuilds));

  if (!args.json_path.empty()) {
    FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", args.json_path.c_str());
      std::exit(1);
    }
    const bench::MemoryReport mem = bench::MemoryReport::capture();
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"e14_fastpath\",\n"
                 "  \"k\": %d,\n"
                 "  \"hosts\": %zu,\n"
                 "  \"flows\": %zu,\n"
                 "  \"delivered_frames\": %llu,\n"
                 "  \"wall_seconds\": %.6f,\n"
                 "  \"frames_per_sec\": %.1f,\n"
                 "  \"ns_per_frame\": %.1f,\n"
                 "  \"allocs_per_frame\": %.3f,\n"
                 "  \"alloc_bytes_per_frame\": %.1f,\n"
                 "  \"events_per_frame\": %.3f,\n"
                 "  \"parse_calls_per_frame\": %.4f,\n"
                 "  \"meta_hits_per_frame\": %.4f,\n"
                 "  \"fib_rebuilds\": %llu,\n"
                 "  \"rss_bytes\": %zu,\n"
                 "  \"peak_rss_bytes\": %zu\n"
                 "}\n",
                 args.k, n, flows.size(),
                 static_cast<unsigned long long>(frames), wall_s, fps,
                 ns_per_frame, allocs_per_frame,
                 static_cast<double>(alloc_bytes) / static_cast<double>(frames),
                 events_per_frame,
                 static_cast<double>(parses) / static_cast<double>(frames),
                 static_cast<double>(meta_hits) / static_cast<double>(frames),
                 static_cast<unsigned long long>(fib_rebuilds),
                 mem.rss_bytes, mem.peak_rss_bytes);
    std::fclose(f);
    std::printf("json written          : %s\n", args.json_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) { run(parse_args(argc, argv)); }
