#include "sim/network.h"

namespace portland::sim {

Link& Network::connect(Device& a, PortId pa, Device& b, PortId pb,
                       Link::Config config) {
  links_.push_back(arena_.create<Link>(sim_, a, pa, b, pb, config, &frame_tap_));
  return *links_.back();
}

void Network::disconnect(Link& link) {
  link.set_up(false);
  link.device(0).detach_link(link.port(0));
  link.device(1).detach_link(link.port(1));
}

void Network::start_all() {
  for (Device* dev : devices_) {
    // Each device starts "on" its own shard so its initial timers land in
    // the right event queue (shard 0 on a one-shard engine).
    ShardGuard guard(sim_, dev->shard());
    dev->start();
  }
}

Device* Network::find_device(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

Link* Network::find_link(const Device& a, const Device& b) const {
  for (Link* link : links_) {
    Device* d0 = &link->device(0);
    Device* d1 = &link->device(1);
    if ((d0 == &a && d1 == &b) || (d0 == &b && d1 == &a)) return link;
  }
  return nullptr;
}

}  // namespace portland::sim
