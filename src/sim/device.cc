#include "sim/device.h"

#include <cassert>

#include "obs/convergence_monitor.h"
#include "obs/flight_recorder.h"
#include "sim/link.h"

namespace portland::sim {

PortId Device::add_port() {
  ports_.emplace_back();
  return ports_.size() - 1;
}

PortId Device::add_ports(std::size_t n) {
  const PortId first = ports_.size();
  for (std::size_t i = 0; i < n; ++i) ports_.emplace_back();
  return first;
}

bool Device::port_connected(PortId port) const {
  return port < ports_.size() && ports_[port].link != nullptr;
}

bool Device::port_up(PortId port) const {
  if (!port_connected(port)) return false;
  return ports_[port].link->is_up();
}

Link* Device::port_link(PortId port) const {
  return port < ports_.size() ? ports_[port].link : nullptr;
}

void Device::send(PortId port, const FramePtr& frame) {
  assert(port < ports_.size());
  counters_.add(Counter::tx_frames);
  counters_.add(Counter::tx_bytes, frame->size());
  if (recorder_ != nullptr) trace_on_send(frame);
  Link* link = ports_[port].link;
  if (link == nullptr) {
    counters_.add(Counter::tx_drop_unconnected);
    if (recorder_ != nullptr) {
      record_drop(obs::DropReason::kUnconnectedPort, frame, port);
    }
    return;
  }
  link->transmit(ports_[port].side, frame);
}

void Device::trace_on_send(const FramePtr& frame) {
  if (frame->trace_id() != 0) return;  // already traced upstream
  // Raw EtherType peek (no parse) so the recorder can filter LDP
  // keepalives without the sim layer knowing the net layer's types.
  std::uint16_t ethertype = 0;
  if (frame->size() >= 14) {
    ethertype = static_cast<std::uint16_t>(frame->data()[12] << 8 |
                                           frame->data()[13]);
  }
  const std::uint64_t id = recorder_->begin_trace(
      static_cast<std::uint32_t>(shard_), ethertype);
  if (id != 0) frame->adopt_trace_id(id);
}

void Device::record_hop(obs::HopEvent event, const FramePtr& frame,
                        PortId port, std::uint64_t detail,
                        std::uint8_t level) const {
  if (recorder_ == nullptr) return;
  const std::uint64_t id = frame->trace_id();
  if (id == 0) return;
  obs::HopRecord r;
  r.time = sim_->now();
  r.trace_id = id;
  r.device = name_.c_str();
  r.port = static_cast<std::uint32_t>(port);
  r.event = event;
  r.detail = detail;
  recorder_->record(static_cast<std::uint32_t>(shard_), r);
  if (monitor_ != nullptr) {
    monitor_->on_hop(static_cast<std::uint32_t>(shard_), r.time,
                     name_.c_str(), event, id, frame->data(), frame->size(),
                     level);
  }
}

void Device::record_drop(obs::DropReason reason, const FramePtr& frame,
                         PortId port) const {
  if (recorder_ == nullptr) return;
  obs::HopRecord r;
  r.time = sim_->now();
  r.trace_id = frame != nullptr ? frame->trace_id() : 0;
  r.device = name_.c_str();
  r.port = static_cast<std::uint32_t>(port);
  r.event = obs::HopEvent::kDrop;
  r.reason = reason;
  r.detail = frame != nullptr ? frame->size() : 0;
  recorder_->record_drop(static_cast<std::uint32_t>(shard_), r);
  if (monitor_ != nullptr && frame != nullptr) {
    monitor_->on_drop(static_cast<std::uint32_t>(shard_), r.time,
                      r.trace_id, frame->data(), frame->size());
  }
}

void Device::attach_link(PortId port, Link* link, int side) {
  assert(port < ports_.size());
  assert(ports_[port].link == nullptr && "port already wired");
  ports_[port].link = link;
  ports_[port].side = side;
}

void Device::detach_link(PortId port) {
  assert(port < ports_.size());
  ports_[port].link = nullptr;
  ports_[port].side = 0;
}

}  // namespace portland::sim
