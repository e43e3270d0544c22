// E7 — control-plane overhead (paper §3.4/§3.6 analysis).
//
// Measures, per fabric size k:
//   * LDP wire overhead: LDM bytes/sec/link (the always-on discovery +
//     liveness cost — one small frame per port per 10 ms);
//   * steady-state fabric-manager traffic (hello keepalives);
//   * fault fan-out: how many switches receive reroute (PruneUpdate)
//     messages for one edge-agg link failure — the paper's "the fabric
//     manager informs affected switches" made concrete.
#include "bench/bench_util.h"

using namespace portland;
using namespace portland::bench;

namespace {

struct Row {
  int k = 0;
  std::size_t switches = 0;
  double ldm_bytes_per_link_s = 0;
  double fm_msgs_per_s = 0;
  double fm_bytes_per_s = 0;
  std::uint64_t fault_msgs = 0;

  static void walk(auto&& fn) {
    fn("k", &Row::k);
    fn("switches", &Row::switches);
    fn("ldm_bytes_per_link_s", &Row::ldm_bytes_per_link_s);
    fn("fm_msgs_per_s", &Row::fm_msgs_per_s);
    fn("fm_bytes_per_s", &Row::fm_bytes_per_s);
    fn("fault_msgs", &Row::fault_msgs);
  }
};

}  // namespace

int main(int argc, char** argv) {
  print_header(
      "E7  Control overhead: LDP wire cost, fabric-manager keepalives, and\n"
      "     per-fault reroute fan-out");

  RowsReport<Row> report;
  for (const int k : {4, 6, 8}) {
    auto fabric = make_fabric(k, 31);
    const SimTime t0 = fabric->sim().now();

    // --- steady state over 2 s ---
    const std::uint64_t msgs0 = fabric->control().messages_sent();
    const std::uint64_t bytes0 = fabric->control().bytes_sent();
    std::uint64_t ldm_bytes0 = 0;
    for (const core::PortlandSwitch* sw : fabric->switches()) {
      ldm_bytes0 += sw->ldp().ldm_bytes_sent();
    }
    fabric->sim().run_until(t0 + seconds(2));
    std::uint64_t ldm_bytes1 = 0;
    for (const core::PortlandSwitch* sw : fabric->switches()) {
      ldm_bytes1 += sw->ldp().ldm_bytes_sent();
    }
    Row row;
    row.k = k;
    row.switches = fabric->switches().size();
    row.fm_msgs_per_s =
        static_cast<double>(fabric->control().messages_sent() - msgs0) / 2.0;
    row.fm_bytes_per_s =
        static_cast<double>(fabric->control().bytes_sent() - bytes0) / 2.0;
    // Each fabric link sees LDMs from both sides; host links from one.
    const double total_ports = static_cast<double>(row.switches) * k;
    row.ldm_bytes_per_link_s =
        static_cast<double>(ldm_bytes1 - ldm_bytes0) / 2.0 / total_ports * 2.0;

    // --- one edge-agg fault ---
    const std::uint64_t prune_msgs0 =
        fabric->control().messages_of("prune_update");
    sim::Link* victim =
        fabric->network().find_link(fabric->edge_at(0, 0), fabric->agg_at(0, 0));
    const SimTime fail_at = fabric->sim().now();
    victim->set_up(false);
    fabric->sim().run_until(fail_at + millis(200));
    row.fault_msgs =
        fabric->control().messages_of("prune_update") - prune_msgs0;
    report.rows.push_back(row);
  }
  std::printf("\n");
  print_table(report.rows);

  std::printf(
      "\nNotes: LDM cost is constant per link (34 B frame / 10 ms / "
      "direction ~=\n6.8 kB/s) independent of fabric size — the protocol's "
      "key scaling property.\nFault fan-out (fault_msgs / switches) counts "
      "one PruneUpdate per affected\nswitch; an edge-agg failure touches "
      "all edges (they pick uplinks per\ndestination) but no cores.\n");

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) write_json(json, "e7_control_overhead", report);
  return 0;
}
