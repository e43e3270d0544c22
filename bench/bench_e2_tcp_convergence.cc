// E2 — "TCP convergence" (paper Fig. ~10).
//
// One long-lived TCP flow crosses pods; an on-path link fails mid-flow.
// The paper's trace shows the flow stalling for detection (~65 ms of
// fabric convergence) plus the retransmission timer — RTO_min = 200 ms
// dominates, so TCP recovery lands around 200-270 ms after the failure.
//
// Output: a bytes-acked time series bracketing the failure (the paper's
// sequence plot) and the measured stall duration.
#include "bench/bench_util.h"

using namespace portland;
using namespace portland::bench;

namespace {

struct Report {
  double stall_ms = -1;
  std::uint64_t timeouts = 0;
  std::uint32_t cwnd_bytes = 0;
  std::uint64_t bytes_acked = 0;

  static void walk(auto&& fn) {
    fn("stall_ms", &Report::stall_ms);
    fn("timeouts", &Report::timeouts);
    fn("cwnd_bytes", &Report::cwnd_bytes);
    fn("bytes_acked", &Report::bytes_acked);
  }
};

}  // namespace

int main(int argc, char** argv) {
  print_header(
      "E2  TCP convergence across a link failure (paper Fig. 10: stall ~= "
      "fabric\n     convergence + RTO_min(200 ms); sub-300 ms total)");

  auto fabric = make_fabric(4, 42);
  host::Host& src = fabric->host_at(0, 0, 0);
  host::Host& dst = fabric->host_at(3, 1, 0);

  host::TcpConnection* accepted = nullptr;
  dst.tcp_listen(5001, [&](host::TcpConnection& c) { accepted = &c; });
  host::TcpConnection* conn = nullptr;
  fabric->sim().after(millis(1), [&] {
    conn = src.tcp_connect(dst.ip(), 5001);
    conn->send(1'000'000'000);  // effectively unbounded
  });
  fabric->sim().run_until(fabric->sim().now() + millis(100));

  // Find the edge uplink carrying the flow and schedule its failure.
  const auto& edge = fabric->edge_at(0, 0);
  sim::Link* victim = nullptr;
  std::uint64_t best = 0;
  for (const sim::PortId p : edge.ldp().up_ports()) {
    sim::Link* l = edge.port_link(p);
    const std::uint64_t tx = l->tx_frames(0) + l->tx_frames(1);
    if (tx > best) {
      best = tx;
      victim = l;
    }
  }
  const SimTime fail_at = fabric->sim().now() + millis(200);
  fabric->failures().fail_link_at(*victim, fail_at);

  // Sample bytes acked every 10 ms around the failure.
  std::printf("\n%12s %16s %12s\n", "t_ms", "acked_MB", "note");
  SimTime stall_start = -1, stall_end = -1;
  std::uint64_t last_acked = 0;
  for (SimTime t = fail_at - millis(100); t <= fail_at + millis(500);
       t += millis(10)) {
    fabric->sim().run_until(t);
    const std::uint64_t acked = conn->bytes_acked();
    const char* note = "";
    if (t == fail_at) note = "<- link fails";
    if (acked == last_acked && stall_start < 0 && t >= fail_at) {
      stall_start = t - millis(10);
    }
    if (acked > last_acked && stall_start >= 0 && stall_end < 0) {
      stall_end = t;
      note = "<- recovered";
    }
    std::printf("%12.0f %16.3f %12s\n", to_millis(t - fail_at),
                static_cast<double>(acked) / 1e6, note);
    last_acked = acked;
  }

  Report report;
  if (stall_end > 0) report.stall_ms = to_millis(stall_end - stall_start);
  report.timeouts = conn->timeouts();
  report.cwnd_bytes = conn->cwnd_bytes();
  report.bytes_acked = conn->bytes_acked();
  std::printf("\nMeasured TCP stall: ~%.0f ms (paper: ~200-270 ms; RTO_min "
              "dominates)\n", report.stall_ms);
  std::printf("Retransmission timeouts during episode: %llu, cwnd now %u B\n",
              static_cast<unsigned long long>(report.timeouts),
              report.cwnd_bytes);

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) write_json(json, "e2_tcp_convergence", report);
  return 0;
}
