#include "l2/baseline_fabric.h"

#include <cassert>

namespace portland::l2 {
namespace {
/// Same locally-administered AMAC plan as the PortLand fabric.
MacAddress make_amac(std::uint32_t host_index) {
  return MacAddress::from_u64(0x0200'0000'0000ULL | (host_index & 0xFFFFFF));
}
}  // namespace

Ipv4Address BaselineFabric::ip_at(std::size_t pod, std::size_t edge,
                                  std::size_t port) {
  assert(pod < 256 && edge < 256 && port < 255);
  return Ipv4Address(10, static_cast<std::uint8_t>(pod),
                     static_cast<std::uint8_t>(edge),
                     static_cast<std::uint8_t>(port + 1));
}

BaselineFabric::BaselineFabric(Options options)
    : options_(std::move(options)), tree_(options_.k), net_(options_.seed),
      injector_(net_) {
  std::uint32_t host_counter = 0;
  // Bridge ids: cores get the lowest ids so one of them wins root election
  // (best case for STP on a multi-rooted tree).
  std::uint64_t next_core_id = 0x100;
  std::uint64_t next_other_id = 0x10000;

  auto make_host = [&](const topo::NodeSpec& spec) -> sim::Device& {
    ++host_counter;
    host::Host& h = net_.add_device<host::Host>(
        spec.name, make_amac(host_counter),
        ip_at(spec.pod, spec.position, spec.port), options_.host_config);
    hosts_.push_back(&h);
    return h;
  };
  auto make_switch = [&](const topo::NodeSpec& spec) -> sim::Device& {
    const std::uint64_t id = spec.kind == topo::NodeKind::kCore
                                 ? next_core_id++
                                 : next_other_id++;
    LearningSwitch& sw = net_.add_device<LearningSwitch>(
        spec.name, static_cast<std::size_t>(options_.k), id,
        options_.switch_config);
    switches_.push_back(&sw);
    return sw;
  };

  const topo::BuiltFatTree built =
      topo::instantiate(tree_, net_, make_host, make_switch,
                        options_.host_link, options_.fabric_link);
  fabric_links_ = built.fabric_links;
  net_.start_all();
}

host::Host& BaselineFabric::host_at(std::size_t pod, std::size_t edge,
                                    std::size_t port) const {
  return *hosts_[tree_.host_index(pod, edge, port)];
}

void BaselineFabric::run_until_stp_converged() {
  const StpConfig& stp = options_.switch_config.stp;
  const SimDuration settle =
      stp.max_age + 2 * stp.forward_delay + 4 * stp.hello_interval;
  sim().run_until(sim().now() + settle);
}

bool BaselineFabric::stp_stable() const {
  std::size_t roots = 0;
  for (const LearningSwitch* sw : switches_) {
    if (sw->believes_root()) ++roots;
    for (sim::PortId p = 0; p < sw->port_count(); ++p) {
      const PortState st = sw->port_state(p);
      if (st == PortState::kListening || st == PortState::kLearning) {
        return false;
      }
    }
  }
  return roots == 1;
}

std::size_t BaselineFabric::total_mac_entries() const {
  std::size_t n = 0;
  for (const LearningSwitch* sw : switches_) n += sw->mac_table_size();
  return n;
}

std::uint64_t BaselineFabric::total_floods() const {
  std::uint64_t n = 0;
  for (const LearningSwitch* sw : switches_) {
    n += sw->counters().get(Counter::floods);
  }
  return n;
}

}  // namespace portland::l2
