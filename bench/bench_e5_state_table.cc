// E5 — forwarding-state comparison (paper §1/§3.2 analysis).
//
// PortLand's hierarchical PMACs keep per-switch state O(k): an edge switch
// stores its k/2 local hosts plus its neighbor table; aggregation and core
// switches store only neighbors. Conventional L2 learning switches store a
// flat entry per communicating host — O(total hosts) on every switch of
// the spanning tree (the paper's motivating 100k-host scenario needs
// >100k TCAM entries per switch).
//
// Output: measured per-switch state for PortLand and the baseline across
// k, plus the paper's k=48 projection.
#include "bench/bench_util.h"
#include "l2/baseline_fabric.h"

using namespace portland;
using namespace portland::bench;

namespace {

struct Row {
  int k = 0;
  std::size_t hosts = 0;
  double portland_edge_avg = 0;
  std::size_t portland_max = 0;
  double baseline_avg = 0;
  std::size_t baseline_max = 0;

  static void walk(auto&& fn) {
    fn("k", &Row::k);
    fn("hosts", &Row::hosts);
    fn("portland_edge_avg", &Row::portland_edge_avg);
    fn("portland_max", &Row::portland_max);
    fn("baseline_avg", &Row::baseline_avg);
    fn("baseline_max", &Row::baseline_max);
  }
};

/// Warms `fabric` with permutation traffic (every host sends one datagram
/// to one peer) and lets it settle.
template <class Fabric>
void send_permutation(Fabric& fabric, SimDuration settle) {
  Rng rng(99);
  const auto& hosts = fabric.hosts();
  const auto perm = host::permutation_pairing(hosts.size(), rng);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    hosts[i]->send_udp(hosts[perm[i]]->ip(), 6000, 6000, {0});
  }
  fabric.sim().run_until(fabric.sim().now() + settle);
}

Row measure(int k) {
  Row row;
  row.k = k;

  // --- PortLand ---
  {
    auto fabric = make_fabric(k, 5);
    row.hosts = fabric->hosts().size();
    send_permutation(*fabric, millis(300));

    std::size_t edge_total = 0, edge_count = 0;
    for (const core::PortlandSwitch* sw : fabric->switches()) {
      row.portland_max =
          std::max(row.portland_max, sw->forwarding_state_size());
      if (sw->locator().level == core::Level::kEdge) {
        edge_total += sw->forwarding_state_size();
        ++edge_count;
      }
    }
    row.portland_edge_avg =
        static_cast<double>(edge_total) / static_cast<double>(edge_count);
  }

  // --- Baseline flat L2 ---
  {
    l2::BaselineFabric::Options options;
    options.k = k;
    options.seed = 5;
    options.switch_config.stp = l2::StpConfig::fast();
    l2::BaselineFabric fabric(options);
    fabric.run_until_stp_converged();
    send_permutation(fabric, millis(500));

    std::size_t total = 0;
    for (const l2::LearningSwitch* sw : fabric.switches()) {
      row.baseline_max = std::max(row.baseline_max, sw->mac_table_size());
      total += sw->mac_table_size();
    }
    row.baseline_avg =
        static_cast<double>(total) / static_cast<double>(fabric.switches().size());
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  print_header(
      "E5  Forwarding state per switch: PortLand O(k) vs. flat L2 O(hosts)\n"
      "     (permutation workload; 'state' = PMAC/host + neighbor + reroute\n"
      "     entries for PortLand, MAC-table entries for the baseline)");

  std::printf("\n");
  RowsReport<Row> report;
  for (const int k : {4, 6, 8, 12}) report.rows.push_back(measure(k));
  print_table(report.rows);

  std::printf(
      "\nProjection at the paper's target scale (k=48, 27,648 hosts):\n"
      "  PortLand edge switch: k/2 hosts + k neighbors = %d entries\n"
      "  Flat L2 switch (all hosts active):            27,648 entries\n"
      "  -> three orders of magnitude, the paper's motivating gap.\n",
      48 / 2 + 48);

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) write_json(json, "e5_state_table", report);
  return 0;
}
