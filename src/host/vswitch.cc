#include "host/vswitch.h"

#include "common/byte_io.h"
#include "net/ethernet.h"

namespace portland::host {

VSwitch::VSwitch(sim::Simulator& sim, std::string name, std::size_t vm_slots)
    : Device(sim, std::move(name)) {
  add_ports(1 + vm_slots);
}

void VSwitch::handle_frame(sim::PortId in_port, const sim::FramePtr& frame) {
  ByteReader r(sim::frame_span(frame));
  const net::EthernetHeader eth = net::EthernetHeader::deserialize(r);
  if (!r.ok()) {
    counters().add(Counter::rx_malformed);
    return;
  }

  // Learn local VMs only (never remap a VM to the uplink from reflected
  // frames).
  if (in_port != kUplink && !eth.src.is_multicast() && !eth.src.is_zero()) {
    macs_[eth.src] = in_port;
  }

  if (!eth.dst.is_multicast()) {
    const auto it = macs_.find(eth.dst);
    if (it != macs_.end()) {
      if (it->second != in_port) send(it->second, frame);
      return;  // local delivery (VM-to-VM stays inside the hypervisor)
    }
    // Unknown unicast: give it to the fabric; never reflect uplink frames
    // back up.
    if (in_port != kUplink) {
      send(kUplink, frame);
    } else {
      counters().add(Counter::drop_unknown_vm);
    }
    return;
  }

  // Broadcast/multicast: flood to everyone except the ingress.
  for (sim::PortId p = 0; p < port_count(); ++p) {
    if (p != in_port && port_connected(p)) send(p, frame);
  }
}

}  // namespace portland::host
