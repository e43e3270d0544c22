#include "core/control_plane.h"

#include "common/logging.h"
#include "sim/snapshot.h"

namespace portland::core {

void ControlPlane::send(SwitchId to, const ControlMessage& msg,
                        SimDuration extra_delay) {
  std::vector<std::uint8_t> bytes = serialize_control(msg);
  {
    std::lock_guard<std::mutex> lk(mutex_);
    ++type_messages_[msg.body.index()];
    type_bytes_[msg.body.index()] += bytes.size();
  }

  // Deliver on the destination endpoint's shard: with the 500µs control
  // latency far above the engine lookahead, the arrival always lands in a
  // later window, so the handler runs race-free on its own shard. The
  // delivery is a data event (bytes carry the wire message, arg the
  // address), so in-flight control traffic serializes into a snapshot.
  const auto hint = shard_hints_.find(to);
  const sim::ShardId dst =
      hint == shard_hints_.end() ? sim::kNoShard : hint->second;
  sim_->post(dst, sim_->now() + latency_ + extra_delay,
             sim::Delivery{this, /*kind=*/0, /*arg=*/to, nullptr,
                           std::move(bytes)});
}

void ControlPlane::execute_data_event(std::uint32_t kind, std::uint64_t arg,
                                      const sim::FramePtr& frame,
                                      const sim::FrameBytes& bytes) {
  (void)kind;
  (void)frame;
  const auto to = static_cast<SwitchId>(arg);
  const auto it = endpoints_.find(to);
  if (it == endpoints_.end()) {
    std::lock_guard<std::mutex> lk(mutex_);
    ++undeliverable_;
    return;
  }
  const auto parsed = parse_control(bytes);
  if (!parsed.has_value()) {
    std::lock_guard<std::mutex> lk(mutex_);
    ++parse_errors_;
    return;
  }
  it->second(*parsed);
}

void ControlPlane::snapshot(sim::SnapshotIo& io) {
  std::lock_guard<std::mutex> lk(mutex_);
  io.counters(type_messages_);
  io.counters(type_bytes_);
  io.field(undeliverable_);
  io.field(parse_errors_);
}

std::uint64_t ControlPlane::read(const TypeCounts& counts,
                                 std::string_view type) const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kControlTypeCount; ++i) {
    if (type.empty() || type == control_type_name(i)) n += counts[i];
  }
  return n;
}

}  // namespace portland::core
