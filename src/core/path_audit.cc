#include "core/path_audit.h"

#include <algorithm>

#include "common/byte_io.h"
#include "common/strings.h"
#include "host/host.h"
#include "net/packet.h"

namespace portland::core {

PathAuditor::PathAuditor(PortlandFabric& fabric) : fabric_(&fabric) {
  fabric_->network().set_frame_tap(
      [this](const sim::Link& link, int rx_side, const sim::FramePtr& frame) {
        on_delivery(link, rx_side, frame);
      });
}

PathAuditor::~PathAuditor() { fabric_->network().set_frame_tap({}); }

void PathAuditor::on_delivery(const sim::Link& link, int rx_side,
                              const sim::FramePtr& frame) {
  // LDP frames dominate tap deliveries; skip them on a raw EtherType peek
  // so the audit never forces parse metadata onto control traffic.
  const auto bytes = sim::frame_span(frame);
  if (bytes.size() >= net::EthernetHeader::kSize &&
      (static_cast<std::uint16_t>(bytes[12]) << 8 | bytes[13]) ==
          net::to_u16(net::EtherType::kLdp)) {
    return;
  }
  // Data frames already carry their parse from the first switch hop.
  const net::ParsedFrame& parsed = net::parsed_of(frame);
  // Audit unicast UDP data packets only (probe flows carry a u64 sequence
  // number as the first payload bytes).
  if (!parsed.valid || !parsed.udp.has_value() || parsed.payload.size() < 8 ||
      parsed.eth.dst.is_multicast()) {
    return;
  }
  ByteReader r(parsed.payload);
  PacketKey key;
  key.src_ip = parsed.ipv4->src.value();
  key.dst_ip = parsed.ipv4->dst.value();
  key.src_port = parsed.udp->src_port;
  key.dst_port = parsed.udp->dst_port;
  key.seq = r.u64();

  const sim::Device& receiver = link.device(rx_side);
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto* sw = dynamic_cast<const PortlandSwitch*>(&receiver)) {
    in_flight_[key].push_back(sw);
    return;
  }
  if (dynamic_cast<const host::Host*>(&receiver) != nullptr) {
    const auto it = in_flight_.find(key);
    if (it == in_flight_.end()) {
      // Delivered without crossing any PortLand switch (e.g. a hypervisor
      // vswitch kept it local): a zero-hop path.
      finish(key, {});
      return;
    }
    std::vector<const PortlandSwitch*> path = std::move(it->second);
    in_flight_.erase(it);
    finish(key, std::move(path));
  }
}

void PathAuditor::finish(const PacketKey& key,
                         std::vector<const PortlandSwitch*> path) {
  ++completed_;
  hops_[path.size()] += 1;

  auto violate = [&](const char* what) {
    std::string trail;
    for (const PortlandSwitch* sw : path) {
      trail += sw->name();
      trail += ' ';
    }
    violations_.push_back(str_format(
        "packet %08x->%08x seq %llu: %s (path: %s)", key.src_ip, key.dst_ip,
        static_cast<unsigned long long>(key.seq), what, trail.c_str()));
  };

  // Invariant 1: no switch visited twice.
  std::vector<const PortlandSwitch*> sorted = path;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    violate("switch visited twice (loop!)");
  }

  // Invariant 2: at most 5 switch hops (fat-tree diameter).
  if (path.size() > 5) violate("more than 5 switch hops");

  // Invariant 3: levels rise then fall, never rise again (§3.5).
  bool descending = false;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const int prev = static_cast<int>(path[i - 1]->locator().level);
    const int cur = static_cast<int>(path[i]->locator().level);
    if (cur < prev) {
      descending = true;
    } else if (descending && cur > prev) {
      violate("packet went up after going down (valley)");
      break;
    } else if (cur == prev) {
      violate("lateral hop between same-level switches");
      break;
    }
  }
}

}  // namespace portland::core
