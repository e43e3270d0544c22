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
  Flows probes;
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

struct Row {
  int k = 0;
  int faults = 0;
  std::size_t timelines = 0;
  double detect_ms_p50 = 0;
  double convergence_ms_p50 = 0;
  double convergence_ms_p95 = 0;
  double convergence_ms_max = 0;
  double blackhole_ms_max = 0;
  std::size_t blackholes_closed = 0;
  std::uint64_t path_violations = 0;

  static void walk(auto&& fn) {
    fn("k", &Row::k);
    fn("faults", &Row::faults);
    fn("timelines", &Row::timelines);
    fn("detect_ms_p50", &Row::detect_ms_p50);
    fn("convergence_ms_p50", &Row::convergence_ms_p50);
    fn("convergence_ms_p95", &Row::convergence_ms_p95);
    fn("convergence_ms_max", &Row::convergence_ms_max);
    fn("blackhole_ms_max", &Row::blackhole_ms_max);
    fn("blackholes_closed", &Row::blackholes_closed);
    fn("path_violations", &Row::path_violations);
  }
};

/// One fault round: kill `faults` random fabric links, let the fabric
/// react, repair, settle, then summarize the timelines the round added.
Row run_round(core::PortlandFabric& fabric, int faults, Rng& rng) {
  obs::ConvergenceMonitor& monitor = *fabric.convergence_monitor();
  const std::size_t base = monitor.completed().size();
  const std::uint64_t violations = monitor.path_violations();
  const SimTime t0 = fabric.sim().now();
  const auto victims = fabric.failures().fail_random_links_at(
      fabric.fabric_links(), static_cast<std::size_t>(faults), t0 + millis(1),
      rng);
  run_monitored(fabric, t0 + millis(300));
  for (sim::Link* l : victims) {
    fabric.failures().repair_link_at(*l, fabric.sim().now() + millis(1));
  }
  // Settle: repairs close the timelines, LDP rediscovers the links.
  run_monitored(fabric, fabric.sim().now() + millis(250));

  std::vector<double> convergence_ms;
  std::vector<double> detect_ms;
  Row row;
  row.k = fabric.options().k;
  row.faults = faults;
  const auto& done = monitor.completed();
  row.timelines = done.size() - base;
  for (std::size_t i = base; i < done.size(); ++i) {
    const obs::FailureTimeline& tl = done[i];
    if (tl.convergence() != 0) {
      convergence_ms.push_back(static_cast<double>(tl.convergence()) / 1e6);
      row.convergence_ms_max =
          std::max(row.convergence_ms_max, convergence_ms.back());
    }
    if (tl.detect != 0) {
      detect_ms.push_back(static_cast<double>(tl.detect - tl.link_down) /
                          1e6);
    }
    for (const obs::BlackholeWindow& w : tl.blackholes) {
      if (w.closed()) {
        row.blackhole_ms_max = std::max(
            row.blackhole_ms_max, static_cast<double>(w.duration()) / 1e6);
        ++row.blackholes_closed;
      }
    }
  }
  row.detect_ms_p50 = median_of(detect_ms);
  row.convergence_ms_p50 = median_of(convergence_ms);
  row.convergence_ms_p95 = percentile(convergence_ms, 95);
  row.path_violations = monitor.path_violations() - violations;
  return row;
}

struct Report {
  int flows = 0;
  std::vector<Row> rows;
  double convergence_ms_max = 0;
  std::uint64_t path_violations = 0;  // summed over every fabric
  std::uint64_t events_overflowed = 0;
  std::uint64_t monitor_overhead_events = 0;

  static void walk(auto&& fn) {
    fn("flows", &Report::flows);
    fn("rows", &Report::rows);
    fn("convergence_ms_max", &Report::convergence_ms_max);
    fn("path_violations", &Report::path_violations);
    fn("events_overflowed", &Report::events_overflowed);
    fn("monitor_overhead_events", &Report::monitor_overhead_events);
  }
};

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
  Report report;
  report.flows =
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
              report.flows);

  for (const int k : ks) {
    auto fabric = make_monitored_fabric(k, 21, /*monitor=*/true);
    Rng rng(static_cast<std::uint64_t>(k) * 1000003 + 21);
    Workload workload(*fabric, report.flows, rng);
    // Warm up: ARP resolution, TCP ramp, multicast tree install.
    run_monitored(*fabric, fabric->sim().now() + millis(100));
    obs::ConvergenceMonitor& monitor = *fabric->convergence_monitor();
    for (const int faults : fault_counts) {
      report.rows.push_back(run_round(*fabric, faults, rng));
      report.convergence_ms_max = std::max(
          report.convergence_ms_max, report.rows.back().convergence_ms_max);
    }
    std::printf("k=%d: unresolved blackholes: %llu, TCP acked %.1f MB, "
                "multicast delivered %llu\n",
                k,
                static_cast<unsigned long long>(
                    monitor.unresolved_blackholes()),
                workload.tcp != nullptr
                    ? static_cast<double>(workload.tcp->bytes_acked()) / 1e6
                    : 0.0,
                static_cast<unsigned long long>(workload.mcast_delivered));
    workload.mcast_stream->stop();
    report.path_violations += monitor.path_violations();
    report.events_overflowed += monitor.events_overflowed();
  }
  std::printf("\n");
  print_table(report.rows);

  std::printf("\nMonitor-off vs monitor-on A/B (k=%d, identical fault "
              "scenario)...\n", ks.front());
  report.monitor_overhead_events = monitor_overhead_events(ks.front(), 77);
  std::printf("monitor overhead: %llu events (must be 0 — the observatory "
              "is passive)\n",
              static_cast<unsigned long long>(report.monitor_overhead_events));

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) write_json(json, "e21_convergence", report);
  return 0;
}
