// E21 — Convergence observatory: measured failure-reaction timelines.
//
// Where E1 infers convergence from receiver gaps, E21 measures the
// reaction chain itself: the ConvergenceMonitor assembles one typed
// timeline per killed link — link_down → detect (LDP neighbor timeout)
// → notify (FM fault-matrix update) → reroute (prune install) →
// recovered (first post-repair delivery) — plus per-flow blackhole
// windows, under a mixed workload (UDP permutation probes + one TCP
// flow + one multicast group). The paper's testbed measured ~65 ms for
// a single failure, dominated by the 50 ms LDM timeout.
//
// The bench also proves the observatory is free when off: the same
// fault scenario runs with the monitor off and on (flight recorder on
// in both), and the executed-event counts must match exactly —
// `monitor_overhead_events` in the JSON is the absolute difference and
// regresses from 0 if the monitor ever perturbs the schedule.
//
// Usage: bench_e21_convergence [k_list] [flows] [fault_list] [--json P]
//        defaults: 16,32,48  24  1,3,6
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "obs/convergence_monitor.h"

using namespace portland;
using namespace portland::bench;

namespace {

constexpr const char* kUsage =
    "bench_e21_convergence [k_list] [flows] [fault_list] [--json PATH]";

std::unique_ptr<core::PortlandFabric> make_monitored_fabric(int k,
                                                            std::uint64_t seed,
                                                            bool monitor) {
  core::PortlandFabric::Options options;
  options.k = k;
  options.seed = seed;
  // The recorder is on in both arms of the overhead A/B, so the only
  // difference the variant run adds is the monitor itself.
  options.obs.flight_recorder = true;
  options.obs.convergence_monitor = monitor;
  return make_fabric(options);
}

/// Mixed workload: UDP permutation probes, one cross-pod TCP bulk flow,
/// one multicast group with receivers in three pods.
struct Workload {
  std::vector<std::unique_ptr<ProbeFlow>> probes;
  host::TcpConnection* tcp = nullptr;
  std::unique_ptr<sim::PeriodicTimer> mcast_stream;
  std::uint64_t mcast_delivered = 0;

  Workload(core::PortlandFabric& fabric, int flows, Rng& rng) {
    probes = random_interpod_flows(fabric, static_cast<std::size_t>(flows),
                                   rng);
    host::Host& tcp_dst = fabric.host_at(1, 0, 0);
    tcp_dst.tcp_listen(5001, [](host::TcpConnection&) {});
    host::Host& tcp_src = fabric.host_at(0, 0, 0);
    fabric.sim().after(millis(1), [this, &tcp_src, &tcp_dst] {
      tcp = tcp_src.tcp_connect(tcp_dst.ip(), 5001);
      tcp->send(1'000'000'000);  // effectively unbounded
    });
    const Ipv4Address group(224, 21, 0, 1);
    for (std::size_t pod : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      fabric.host_at(pod, 0, 1).join_group(
          group, [this](Ipv4Address, std::uint16_t, std::uint16_t,
                        std::span<const std::uint8_t>) { ++mcast_delivered; });
    }
    host::Host& mcast_src = fabric.host_at(0, 0, 1);
    mcast_stream = std::make_unique<sim::PeriodicTimer>(
        fabric.sim(), millis(1), [&mcast_src, group] {
          mcast_src.send_udp_multicast(group, 8000, 8001, {0});
        });
    mcast_stream->start();
  }
};

struct RoundStats {
  std::size_t timelines = 0;
  std::vector<double> convergence_ms;
  std::vector<double> detect_ms;
  std::vector<double> blackhole_ms;
};

/// One fault round: kill `faults` random fabric links, let the fabric
/// react, repair, settle, then collect the timelines the round added.
RoundStats run_round(core::PortlandFabric& fabric, std::size_t faults,
                     Rng& rng) {
  obs::ConvergenceMonitor& monitor = *fabric.convergence_monitor();
  const std::size_t base = monitor.completed().size();
  const SimTime t0 = fabric.sim().now();
  const auto victims = fabric.failures().fail_random_links_at(
      fabric.fabric_links(), faults, t0 + millis(1), rng);
  run_monitored(fabric, t0 + millis(300));
  for (sim::Link* l : victims) {
    fabric.failures().repair_link_at(*l, fabric.sim().now() + millis(1));
  }
  // Settle: repairs close the timelines, LDP rediscovers the links.
  run_monitored(fabric, fabric.sim().now() + millis(250));

  RoundStats stats;
  const auto& done = monitor.completed();
  stats.timelines = done.size() - base;
  for (std::size_t i = base; i < done.size(); ++i) {
    const obs::FailureTimeline& tl = done[i];
    if (tl.convergence() != 0) {
      stats.convergence_ms.push_back(
          static_cast<double>(tl.convergence()) / 1e6);
    }
    if (tl.detect != 0) {
      stats.detect_ms.push_back(
          static_cast<double>(tl.detect - tl.link_down) / 1e6);
    }
    for (const obs::BlackholeWindow& w : tl.blackholes) {
      if (w.closed()) {
        stats.blackhole_ms.push_back(static_cast<double>(w.duration()) / 1e6);
      }
    }
  }
  return stats;
}

/// Monitor-off vs monitor-on over an identical fault scenario: returns
/// the absolute executed-event difference (0 = provably invisible).
std::uint64_t monitor_overhead_events(int k, std::uint64_t seed) {
  std::array<std::uint64_t, 2> executed{};
  std::array<std::uint64_t, 2> delivered{};
  for (int m = 0; m < 2; ++m) {
    auto fabric = make_monitored_fabric(k, seed, m == 1);
    Rng rng(seed ^ 0xE21);
    auto probes = random_interpod_flows(*fabric, 8, rng);
    fabric->sim().run_until(fabric->sim().now() + millis(50));
    fabric->failures().fail_random_links_at(
        fabric->fabric_links(), 1, fabric->sim().now() + millis(1), rng);
    fabric->sim().run_until(fabric->sim().now() + millis(200));
    executed[m] = fabric->sim().executed_events();
    for (const auto& p : probes) {
      delivered[m] += p->receiver->packets_received();
    }
  }
  if (delivered[0] != delivered[1]) {
    std::fprintf(stderr,
                 "FATAL: monitor changed deliveries (%llu vs %llu)\n",
                 static_cast<unsigned long long>(delivered[0]),
                 static_cast<unsigned long long>(delivered[1]));
    std::abort();
  }
  return executed[0] > executed[1] ? executed[0] - executed[1]
                                   : executed[1] - executed[0];
}

}  // namespace

int main(int argc, char** argv) {
  const auto pos = positional_args(argc, argv);
  if (pos.size() > 3) usage_exit(kUsage, pos[3]);
  const std::vector<int> ks =
      int_list_or_exit(!pos.empty() ? pos[0] : "16,32,48", 4, 64, kUsage,
                       /*even=*/true);
  const int flows =
      pos.size() > 1 ? int_arg_or_exit(pos[1], 1, 100000, kUsage) : 24;
  const std::string fault_text = pos.size() > 2 ? pos[2] : "1,3,6";
  const std::vector<int> fault_counts =
      int_list_or_exit(fault_text, 1, 1000, kUsage);
  // A round fails that many distinct links; every k must have them.
  const int most_faults =
      *std::max_element(fault_counts.begin(), fault_counts.end());
  for (const int k : ks) {
    if (static_cast<std::size_t>(most_faults) >
        topo::FatTree::num_fabric_links(k)) {
      usage_exit(kUsage, fault_text);
    }
  }

  print_header(
      "E21 Convergence observatory: measured per-failure reaction "
      "timelines\n     (paper: ~65 ms at 1 fault — 50 ms LDM timeout + "
      "notify + reroute)");
  std::printf("mixed workload: %d UDP probe flows @1000 pkt/s + 1 TCP bulk "
              "flow + 1 multicast group\n\n",
              flows);
  std::printf("%5s %7s %10s %9s %9s %9s %9s %9s %11s %7s\n", "k", "faults",
              "timelines", "detect", "conv_p50", "conv_p95", "conv_max",
              "bh_max", "blackholes", "path_viol");

  std::string json_rows = "[";
  bool first_row = true;
  double convergence_ms_max = 0;
  std::uint64_t violations_total = 0;
  std::uint64_t overflowed_total = 0;
  for (const int k : ks) {
    auto fabric = make_monitored_fabric(k, 21, /*monitor=*/true);
    Rng rng(static_cast<std::uint64_t>(k) * 1000003 + 21);
    Workload workload(*fabric, flows, rng);
    // Warm up: ARP resolution, TCP ramp, multicast tree install.
    run_monitored(*fabric, fabric->sim().now() + millis(100));
    obs::ConvergenceMonitor& monitor = *fabric->convergence_monitor();
    for (const int faults : fault_counts) {
      const std::uint64_t before = monitor.path_violations();
      const RoundStats stats =
          run_round(*fabric, static_cast<std::size_t>(faults), rng);
      const std::uint64_t violations = monitor.path_violations() - before;
      const double conv_p50 = median_of(stats.convergence_ms);
      const double conv_p95 = percentile(stats.convergence_ms, 95);
      double conv_max = 0;
      for (const double c : stats.convergence_ms) {
        conv_max = std::max(conv_max, c);
      }
      convergence_ms_max = std::max(convergence_ms_max, conv_max);
      double bh_max = 0;
      for (const double b : stats.blackhole_ms) bh_max = std::max(bh_max, b);
      std::printf("%5d %7d %10zu %9.1f %9.1f %9.1f %9.1f %9.1f %11zu %7llu\n",
                  k, faults, stats.timelines, median_of(stats.detect_ms),
                  conv_p50, conv_p95, conv_max, bh_max,
                  stats.blackhole_ms.size(),
                  static_cast<unsigned long long>(violations));
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "%s\n    {\"k\": %d, \"faults\": %d, \"timelines\": %zu, "
          "\"detect_ms_p50\": %.2f, \"convergence_ms_p50\": %.2f, "
          "\"convergence_ms_p95\": %.2f, \"convergence_ms_max\": %.2f, "
          "\"blackhole_ms_max\": %.2f, \"blackholes_closed\": %zu, "
          "\"path_violations\": %llu}",
          first_row ? "" : ",", k, faults, stats.timelines,
          median_of(stats.detect_ms), conv_p50, conv_p95, conv_max, bh_max,
          stats.blackhole_ms.size(),
          static_cast<unsigned long long>(violations));
      json_rows += buf;
      first_row = false;
    }
    std::printf("      unresolved blackholes: %llu, TCP acked %.1f MB, "
                "multicast delivered %llu\n",
                static_cast<unsigned long long>(
                    monitor.unresolved_blackholes()),
                workload.tcp != nullptr
                    ? static_cast<double>(workload.tcp->bytes_acked()) / 1e6
                    : 0.0,
                static_cast<unsigned long long>(workload.mcast_delivered));
    workload.mcast_stream->stop();
    violations_total += monitor.path_violations();
    overflowed_total += monitor.events_overflowed();
  }

  std::printf("\nMonitor-off vs monitor-on A/B (k=%d, identical fault "
              "scenario)...\n", ks.front());
  const std::uint64_t overhead = monitor_overhead_events(ks.front(), 77);
  std::printf("monitor overhead: %llu events (must be 0 — the observatory "
              "is passive)\n",
              static_cast<unsigned long long>(overhead));

  json_rows += "\n  ]";
  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) {
    JsonReport report("e21_convergence");
    report.add("flows", flows);
    report.add_raw("rows", json_rows);
    report.add("convergence_ms_max", convergence_ms_max);
    report.add("path_violations", violations_total);
    report.add("events_overflowed", overflowed_total);
    report.add("monitor_overhead_events", overhead);
    report.write(json);
  }
  return 0;
}
