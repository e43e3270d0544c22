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
// Heap allocations are counted by this binary's global operator new
// (bench/heap_hook.h) — the steady-state unicast path is supposed to be
// nearly allocation-free.
//
// Usage: bench_e14_fastpath [--k N] [--flows-per-host N] [--json PATH]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "bench/heap_hook.h"
#include "net/packet.h"

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

struct Report {
  int k = 0;
  std::size_t hosts = 0;
  std::size_t flows = 0;
  std::uint64_t delivered_frames = 0;
  double wall_seconds = 0;
  double frames_per_sec = 0;
  double ns_per_frame = 0;
  double allocs_per_frame = 0;
  double alloc_bytes_per_frame = 0;
  double events_per_frame = 0;
  double parse_calls_per_frame = 0;
  double meta_hits_per_frame = 0;
  std::uint64_t fib_rebuilds = 0;

  static void walk(auto&& fn) {
    fn("k", &Report::k);
    fn("hosts", &Report::hosts);
    fn("flows", &Report::flows);
    fn("delivered_frames", &Report::delivered_frames);
    fn("wall_seconds", &Report::wall_seconds);
    fn("frames_per_sec", &Report::frames_per_sec);
    fn("ns_per_frame", &Report::ns_per_frame);
    fn("allocs_per_frame", &Report::allocs_per_frame);
    fn("alloc_bytes_per_frame", &Report::alloc_bytes_per_frame);
    fn("events_per_frame", &Report::events_per_frame);
    fn("parse_calls_per_frame", &Report::parse_calls_per_frame);
    fn("meta_hits_per_frame", &Report::meta_hits_per_frame);
    fn("fib_rebuilds", &Report::fib_rebuilds);
  }
};

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
  const Flows flows = all_to_all_flows(*fabric, args.flows_per_host);
  sim::Simulator& sim = fabric->sim();

  // Warm up: ARP resolution, flow pinning, cache fill.
  sim.run_until(sim.now() + millis(200));

  const std::uint64_t delivered0 = packets_received(flows);
  const std::uint64_t events0 = sim.executed_events();
  const std::uint64_t allocs0 = heap::allocs();
  const std::uint64_t alloc_bytes0 = heap::alloc_bytes();
  const std::uint64_t hop_rx0 = switch_counter_sum(*fabric, "rx_frames");
  const net::ParseStats parse0 = net::parse_stats();
  std::uint64_t fib_rebuilds0 = 0;
  for (const core::PortlandSwitch* sw : fabric->switches()) {
    fib_rebuilds0 += sw->fib_rebuilds();
  }
  const auto wall0 = std::chrono::steady_clock::now();

  sim.run_until(sim.now() + args.measure);

  const auto wall1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = heap::allocs() - allocs0;
  const std::uint64_t alloc_bytes = heap::alloc_bytes() - alloc_bytes0;
  Report r;
  r.k = args.k;
  r.hosts = fabric->hosts().size();
  r.flows = flows.size();
  r.delivered_frames = packets_received(flows) - delivered0;
  const auto frames = static_cast<double>(r.delivered_frames);
  const auto per_frame = [frames](std::uint64_t count) {
    return static_cast<double>(count) / frames;
  };
  const net::ParseStats& parse1 = net::parse_stats();
  for (const core::PortlandSwitch* sw : fabric->switches()) {
    r.fib_rebuilds += sw->fib_rebuilds();
  }
  r.fib_rebuilds -= fib_rebuilds0;
  r.wall_seconds = std::chrono::duration<double>(wall1 - wall0).count();
  r.frames_per_sec = frames / r.wall_seconds;
  r.ns_per_frame = r.wall_seconds * 1e9 / frames;
  r.allocs_per_frame = per_frame(allocs);
  r.alloc_bytes_per_frame = per_frame(alloc_bytes);
  r.events_per_frame = per_frame(sim.executed_events() - events0);
  r.parse_calls_per_frame = per_frame(parse1.parse_calls - parse0.parse_calls);
  r.meta_hits_per_frame = per_frame(parse1.meta_hits - parse0.meta_hits);
  const double hops_per_frame =
      per_frame(switch_counter_sum(*fabric, "rx_frames") - hop_rx0);

  std::printf("hosts                 : %zu\n", r.hosts);
  std::printf("flows                 : %zu\n", r.flows);
  std::printf("delivered data frames : %llu (in %lld ms simulated)\n",
              static_cast<unsigned long long>(r.delivered_frames),
              static_cast<long long>(args.measure / 1000000));
  std::printf("wall time             : %.3f s\n", r.wall_seconds);
  std::printf("frames/sec (wall)     : %.0f\n", r.frames_per_sec);
  std::printf("ns/frame (wall)       : %.0f\n", r.ns_per_frame);
  std::printf("allocs/frame          : %.2f (%.0f bytes)\n",
              r.allocs_per_frame, r.alloc_bytes_per_frame);
  std::printf("events/frame          : %.2f\n", r.events_per_frame);
  std::printf("switch-hop rx/frame   : %.2f (includes LDP keepalives)\n",
              hops_per_frame);
  std::printf("parse calls/frame     : %.3f (meta hits/frame %.3f)\n",
              r.parse_calls_per_frame, r.meta_hits_per_frame);
  std::printf("FIB rebuilds          : %llu (in measured window)\n",
              static_cast<unsigned long long>(r.fib_rebuilds));

  if (!args.json_path.empty()) write_json(args.json_path, "e14_fastpath", r);
}

}  // namespace

int main(int argc, char** argv) { run(parse_args(argc, argv)); }
