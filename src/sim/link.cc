#include "sim/link.h"

#include <algorithm>
#include <cassert>

#include "obs/convergence_monitor.h"
#include "obs/flight_recorder.h"
#include "sim/snapshot.h"

namespace portland::sim {

Link::Link(Simulator& sim, Device& a, PortId port_a, Device& b, PortId port_b,
           Config config, const FrameTap* tap)
    : sim_(&sim), config_(config), tap_(tap),
      end_{Endpoint{&a, port_a}, Endpoint{&b, port_b}} {
  assert(config_.bandwidth_bps > 0);
  a.attach_link(port_a, this, 0);
  b.attach_link(port_b, this, 1);
  for (int side = 0; side < 2; ++side) {
    train_[side].owner = this;
    train_[side].from_side = side;
  }
  // Deterministic registration: links are constructed in the same order
  // in any process building the same fabric, so the id this assigns
  // resolves serialized in-flight deliveries across a snapshot restore.
  sim_->register_data_owner(this);
}

std::size_t Link::side_index(int side) {
  assert(side == 0 || side == 1);
  return static_cast<std::size_t>(side);
}

SimDuration Link::serialization_time(std::size_t bytes) const {
  const double ns =
      static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps * 1e9;
  return std::max<SimDuration>(1, static_cast<SimDuration>(ns));
}

void Link::transmit(int from_side, const FramePtr& frame) {
  Direction& dir = dir_[side_index(from_side)];
  dir.snap_clean = false;  // counters/queue/train all move below
  // transmit() always runs on the sender's shard, so the sender's
  // recorder log is safe to write here.
  Device* sender = end_[side_index(from_side)].device;
  if (!dir.up) {
    ++dir.dropped;
    if (sender->flight_recorder() != nullptr) {
      sender->record_drop(obs::DropReason::kLinkDown, frame,
                          end_[side_index(from_side)].port);
    }
    return;
  }
  const SimTime now = sim_->now();
  dir.settle(now);  // lazily credit frames whose serialization finished
  if (dir.queued_bytes + frame->size() > config_.queue_capacity_bytes) {
    ++dir.dropped;  // drop-tail
    if (sender->flight_recorder() != nullptr) {
      sender->record_drop(obs::DropReason::kQueueFull, frame,
                          end_[side_index(from_side)].port);
    }
    return;
  }

  const SimTime start = std::max(now, dir.busy_until);
  const SimTime tx_done = start + serialization_time(frame->size());
  const SimTime arrival = tx_done + config_.propagation;
  dir.busy_until = tx_done;
  dir.queued_bytes += frame->size();
  dir.drains.push_back(Direction::PendingDrain{
      tx_done, static_cast<std::uint32_t>(frame->size())});
  ++dir.tx_frames;
  dir.tx_bytes += frame->size();
  if (sender->flight_recorder() != nullptr) {
    sender->record_hop(obs::HopEvent::kLinkTx, frame,
                       end_[side_index(from_side)].port, dir.queued_bytes);
  }

  // Delivery runs on the receiver's shard. The engine joins the arrival
  // to this direction's train — one scheduler node per run of
  // back-to-back frames — or, when the train declines it, schedules it as
  // a serializable data event (execute_data_event). In the parallel
  // engine a cross-shard arrival parks in the (src,dst) mailbox until the
  // window barrier; deliver()'s reads of the *sending* direction (up,
  // epoch) are race-free because those fields only change in barrier
  // tasks.
  sim_->post(end_[side_index(1 - from_side)].device->shard(), arrival,
             Delivery{this, static_cast<std::uint32_t>(from_side), dir.epoch,
                      frame, FrameBytes{}, &train_[side_index(from_side)]});
}

void Link::deliver(int from_side, std::uint64_t epoch,
                   const FramePtr& frame) {
  // No snap_clean reset here: every train entry was appended by a
  // transmit() (which already reset it) or restored into a non-empty
  // train (which never sets it), so this receiver-shard path writes no
  // link state.
  const Direction& d = dir_[side_index(from_side)];
  // Frames in flight when the direction failed are lost.
  if (!d.up || d.epoch != epoch) return;
  Device* receiver = end_[side_index(1 - from_side)].device;
  receiver->counters().add(Counter::rx_frames);
  receiver->counters().add(Counter::rx_bytes, frame->size());
  if (tap_ != nullptr && *tap_) (*tap_)(*this, 1 - from_side, frame);
  receiver->handle_frame(end_[side_index(1 - from_side)].port, frame);
}

void Link::execute_data_event(std::uint32_t kind, std::uint64_t arg,
                              const FramePtr& frame,
                              const FrameBytes& bytes) {
  (void)bytes;
  deliver(static_cast<int>(kind), arg, frame);
}

void Link::snapshot(SnapshotIo& io) {
  const auto walk = [this](SnapshotIo& body) {
    for (int side = 0; side < 2; ++side) {
      Direction& d = dir_[side_index(side)];
      // Settling on save is idempotent: queued_bytes is only ever read
      // post-settle, so the saved state equals what the next transmit()
      // would have observed anyway.
      if (!body.loading()) d.settle(sim_->now());
      body.field(d.up);
      body.field(d.busy_until);
      body.field<std::uint64_t>(d.queued_bytes);
      body.field(d.tx_frames);
      body.field(d.tx_bytes);
      body.field(d.dropped);
      body.field(d.epoch);
      const std::uint32_t n_drains = body.count(d.drains.size());
      if (body.loading()) d.drains.clear();
      for (std::uint32_t i = 0; i < n_drains && body.ok(); ++i) {
        Direction::PendingDrain drain{};
        if (!body.loading()) drain = d.drains[i];
        body.field(drain.done);
        body.field(drain.bytes);
        if (body.loading()) d.drains.push_back(drain);
      }
      Train& tr = train_[side_index(side)];
      const std::uint32_t n_entries = body.count(tr.entries.size());
      if (body.loading()) {
        tr.entries.clear();
        tr.scheduled = false;
      }
      for (std::uint32_t i = 0; i < n_entries && body.ok(); ++i) {
        TrainEntry loaded;
        TrainEntry& e = body.loading() ? loaded : tr.entries[i];
        body.field(e.time);
        body.field(e.seq);
        body.field(e.epoch);
        body.frame(e.frame);
        if (!body.loading()) continue;
        // A train's arrivals are strictly time-ordered; a corrupt image
        // that breaks the order is refused.
        if (!tr.entries.empty() && e.time <= tr.entries.back().time) {
          body.fail();
        }
        tr.entries.push_back(std::move(loaded));
      }
      if (!body.loading()) continue;
      if (!body.ok()) {
        tr.entries.clear();
        return;
      }
      if (!tr.entries.empty()) {
        // Re-anchor the train node in the *receiver's* shard queue at the
        // front entry's exact saved (time, seq).
        Device* receiver = end_[side_index(1 - side)].device;
        sim_->restore_train_anchor(receiver->shard(), tr);
      }
    }
  };

  const bool clean = dir_[0].snap_clean && dir_[1].snap_clean;
  const SnapshotIo::Hashed s = io.hashed(
      clean ? std::optional(snap_hash_) : std::nullopt,
      [&walk](SnapshotWriter& w) {
        SnapshotIo body(w);
        walk(body);
      });
  // A save's settle may have drifted the drain bookkeeping off the section
  // this link last restored, and a load rewrites it: either way the link
  // no longer claims cleanliness. A held section is unchanged since that
  // restore (and, by the clean invariant, the trains are empty, so there
  // is nothing to re-anchor): it is skipped wholesale.
  if (s.state == SnapshotIo::Hashed::kHeld ||
      s.state == SnapshotIo::Hashed::kCorrupt) {
    return;
  }
  dir_[0].snap_clean = false;
  dir_[1].snap_clean = false;
  if (s.state == SnapshotIo::Hashed::kSaved) return;
  SnapshotReader r(s.payload);
  SnapshotIo body(r);
  walk(body);
  if (!body.ok()) {
    io.fail();
    return;
  }
  // Only an empty-train link may claim cleanliness: snapshot_clear wipes
  // anchored trains without going through this object.
  const bool empty = train_[0].entries.empty() && train_[1].entries.empty();
  snap_hash_ = s.hash;
  dir_[0].snap_clean = empty;
  dir_[1].snap_clean = empty;
}

void Link::set_up(bool up) {
  const bool was_up = is_up();
  set_direction_up(0, up);
  set_direction_up(1, up);
  if (was_up != up) {
    // set_up runs in barrier context (main thread between windows), so
    // writing the endpoint shard's monitor buffer is ordered by the
    // window protocol; side 0 keeps the shard choice deterministic.
    if (obs::ConvergenceMonitor* monitor =
            end_[0].device->convergence_monitor()) {
      monitor->on_link_event(
          static_cast<std::uint32_t>(end_[0].device->shard()), sim_->now(),
          end_[0].device->name().c_str(), end_[1].device->name().c_str(),
          up);
    }
    for (int side = 0; side < 2; ++side) {
      // Run each notification "as" the endpoint's shard so any timers or
      // frames it triggers land on the owning shard's queue.
      ShardGuard guard(*sim_, end_[side].device->shard());
      end_[side].device->handle_link_status(end_[side].port, up);
    }
  }
}

void Link::set_direction_up(int from_side, bool up) {
  Direction& dir = dir_[side_index(from_side)];
  if (dir.up == up) return;
  dir.snap_clean = false;
  dir.up = up;
  if (!up) {
    ++dir.epoch;  // voids all in-flight frames in this direction
    dir.queued_bytes = 0;
    dir.drains.clear();
    dir.busy_until = sim_->now();
  }
}

}  // namespace portland::sim
