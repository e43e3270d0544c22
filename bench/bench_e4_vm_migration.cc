// E4 — "VM migration" (paper Fig. ~13).
//
// A TCP flow targets a VM that live-migrates between pods mid-transfer.
// The paper's trace shows throughput dipping to zero during the migration
// blackout, then recovering within a second once the VM's gratuitous ARP
// triggers re-registration, old-edge invalidation, and sender-cache
// correction.
//
// Output: delivered-throughput time series (50 ms buckets) bracketing the
// migration, plus the measured blackout.
#include "bench/bench_util.h"
#include "core/migration.h"

using namespace portland;
using namespace portland::bench;

namespace {

struct Report {
  double blackout_ms = 0;
  double disruption_ms = -1;
  std::uint64_t migration_redirects = 0;
  std::uint64_t migration_garps_sent = 0;

  static void walk(auto&& fn) {
    fn("blackout_ms", &Report::blackout_ms);
    fn("disruption_ms", &Report::disruption_ms);
    fn("migration_redirects", &Report::migration_redirects);
    fn("migration_garps_sent", &Report::migration_garps_sent);
  }
};

}  // namespace

int main(int argc, char** argv) {
  print_header(
      "E4  TCP flow across a live VM migration (paper Fig. 13: throughput "
      "dips\n     during the blackout, recovers in well under a second)");

  topo::FatTree tree(4);
  const std::size_t target = tree.host_index(3, 1, 1);
  auto fabric = make_fabric(4, 23, {}, {target});
  core::MigrationController controller(*fabric);

  host::Host& sender = fabric->host_at(1, 0, 0);
  host::Host& vm = *fabric->host(tree.host_index(0, 0, 0));

  host::TcpConnection* accepted = nullptr;
  vm.tcp_listen(5001, [&](host::TcpConnection& c) { accepted = &c; });
  host::TcpConnection* conn = nullptr;
  fabric->sim().after(millis(1), [&] {
    conn = sender.tcp_connect(vm.ip(), 5001);
    conn->send(4'000'000'000ULL);
  });
  fabric->sim().run_until(fabric->sim().now() + millis(300));

  const SimTime migrate_at = fabric->sim().now() + millis(200);
  const SimDuration downtime = millis(200);
  core::MigrationController::Plan plan;
  plan.vm_host_index = tree.host_index(0, 0, 0);
  plan.to_pod = 3;
  plan.to_edge = 1;
  plan.to_port = 1;
  plan.start = migrate_at;
  plan.downtime = downtime;
  controller.schedule(plan);

  std::printf("\nMigration at t=0 (blackout %.0f ms); throughput in 50 ms "
              "buckets:\n\n", to_millis(downtime));
  std::printf("%10s %16s %12s\n", "t_ms", "goodput_Mbps", "note");
  std::uint64_t last = 0;
  SimTime blackout_start = -1, blackout_end = -1;
  for (SimTime t = migrate_at - millis(300); t <= migrate_at + millis(1200);
       t += millis(50)) {
    fabric->sim().run_until(t);
    const std::uint64_t delivered = accepted->bytes_delivered();
    const double mbps =
        static_cast<double>(delivered - last) * 8.0 / 50e3;  // per 50 ms
    const char* note = "";
    if (t == migrate_at) note = "<- migration starts";
    if (t == migrate_at + downtime) note = "<- VM re-attaches + GARP";
    if (mbps < 1.0 && t > migrate_at && blackout_start < 0) {
      blackout_start = t - millis(50);
    }
    if (mbps > 1.0 && blackout_start >= 0 && blackout_end < 0 &&
        t > migrate_at) {
      blackout_end = t;
      note = "<- recovered";
    }
    std::printf("%10.0f %16.1f %12s\n", to_millis(t - migrate_at), mbps, note);
    last = delivered;
  }

  Report report;
  report.blackout_ms = to_millis(downtime);
  if (blackout_end > 0) {
    report.disruption_ms = to_millis(blackout_end - blackout_start);
  }
  const CounterSet& old_edge = fabric->edge_at(0, 0).counters();
  report.migration_redirects = old_edge.get("migration_redirects");
  report.migration_garps_sent = old_edge.get("migration_garps_sent");
  std::printf("\nMeasured disruption: ~%.0f ms for a %.0f ms blackout "
              "(paper: total sub-second).\n",
              report.disruption_ms, report.blackout_ms);
  std::printf("Old edge redirected %llu frames and sent %llu corrective "
              "gratuitous ARPs.\n",
              static_cast<unsigned long long>(report.migration_redirects),
              static_cast<unsigned long long>(report.migration_garps_sent));
  std::printf("IP preserved: %s still reachable at %s (R1).\n",
              vm.name().c_str(), vm.ip().to_string().c_str());

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) write_json(json, "e4_vm_migration", report);
  return 0;
}
