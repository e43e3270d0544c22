// E11 — ablation: why PortLand hashes *flows* onto paths (paper §3.5).
//
// Compares flow-level ECMP against per-packet spraying on the same k=4
// fabric with a long TCP transfer. Spraying balances load perfectly but
// reorders segments; flow hashing keeps every flow in-order on one path.
// TCP survives both (dup-ACK machinery repairs the reordering) — the cost
// shows up as spurious retransmissions and completion time.
#include "bench/bench_util.h"

using namespace portland;
using namespace portland::bench;

namespace {

struct Result {
  double completion_s = 0;
  std::uint64_t ooo_segments = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t segments = 0;  // printed, not reported

  static void walk(auto&& fn) {
    fn("completion_s", &Result::completion_s);
    fn("ooo_segments", &Result::ooo_segments);
    fn("retransmissions", &Result::retransmissions);
  }
};

struct Report {
  Result hash;
  Result spray;

  static void walk(auto&& fn) {
    fn("hash_", &Report::hash);
    fn("spray_", &Report::spray);
  }
};

Result run(core::PortlandConfig::EcmpMode mode) {
  core::PortlandConfig config;
  config.ecmp_mode = mode;
  auto fabric = make_fabric(4, 21, config);
  host::Host& src = fabric->host_at(0, 0, 0);
  host::Host& dst = fabric->host_at(3, 1, 0);

  // Real fabrics have unequal path delays (cable lengths, queue depths).
  // Make the two core groups asymmetric by 40 us so path choice matters:
  // a sprayed flow straddles both delays and reorders; a hashed flow
  // rides one of them consistently.
  for (std::size_t pod = 0; pod < 4; ++pod) {
    sim::Link* l = fabric->network().find_link(fabric->agg_at(pod, 0),
                                               fabric->core_at(0, 0));
    if (l != nullptr) l->set_propagation(micros(41));
  }

  host::TcpConnection* accepted = nullptr;
  dst.tcp_listen(5001, [&](host::TcpConnection& c) { accepted = &c; });
  host::TcpConnection* conn = nullptr;
  const std::uint64_t kBytes = 100'000'000;
  const SimTime t0 = fabric->sim().now();
  fabric->sim().after(millis(1), [&] {
    conn = src.tcp_connect(dst.ip(), 5001);
    conn->send(kBytes);
  });

  // Run until delivery completes.
  while (accepted == nullptr || accepted->bytes_delivered() < kBytes) {
    fabric->sim().run_until(fabric->sim().now() + millis(100));
    if (fabric->sim().now() - t0 > seconds(120)) break;  // safety
  }
  Result r;
  r.completion_s = to_seconds(fabric->sim().now() - t0);
  r.ooo_segments = accepted->out_of_order_segments();
  r.retransmissions = conn->retransmissions();
  r.segments = conn->segments_sent();
  if (accepted->payload_corruption_seen()) {
    std::fprintf(stderr, "CORRUPTION DETECTED\n");
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  print_header(
      "E11 ECMP ablation: flow hashing (the paper's design) vs. per-packet\n"
      "     spraying — 100 MB TCP transfer across pods, k=4, one core group\n"
      "     40 us slower (heterogeneous path delays)");

  Report report;
  report.hash = run(core::PortlandConfig::EcmpMode::kFlowHash);
  report.spray = run(core::PortlandConfig::EcmpMode::kPacketSpray);

  std::printf("\n");
  print_table(std::vector<Result>{report.hash, report.spray}, "mode",
              {"flow hash (paper)", "packet spray"});
  std::printf("segments sent: %llu (flow hash), %llu (packet spray)\n",
              static_cast<unsigned long long>(report.hash.segments),
              static_cast<unsigned long long>(report.spray.segments));

  std::printf(
      "\nFlow hashing keeps the stream strictly in order (0 out-of-order\n"
      "segments); spraying reorders constantly and burns spurious fast\n"
      "retransmissions — the reason §3.5 pins flows to paths.\n");

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) write_json(json, "e11_ecmp_ablation", report);
  return 0;
}
