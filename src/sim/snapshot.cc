// Engine-level checkpoint: serialize, clear, and rebuild the event queues.
//
// The save reads each shard's timing wheel without touching it: it walks
// the live nodes, classifies every payload, and writes the data events in
// (time, seq) order, so saving is invisible to the running engine. The
// image stores timer shots and train anchors as per-shard census counts
// only: their contents are owned (and serialized) by the Timer and Link
// that will re-insert them on restore, and finish_restore() validates that
// every counted event actually came back. The image's scalars (header,
// engine-wide counters, each shard's clock, counters, wheel stats and
// census) are one SnapshotIo walk that save and restore share; only the
// event records are written and read by hand, because a save reads them
// off the wheel and a load rebuilds it.
#include "sim/snapshot.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/simulator.h"
#include "sim/train.h"

namespace portland::sim {

namespace {
constexpr std::uint32_t kEngineMagic = 0x534E4150u;  // "SNAP"
}  // namespace

void SnapshotIo::counters(std::span<std::uint64_t> cells) {
  assert(cells.size() <= 0xFFFF);
  std::uint16_t n = 0;
  if (!loading()) {
    n = static_cast<std::uint16_t>(std::count_if(
        cells.begin(), cells.end(), [](std::uint64_t v) { return v != 0; }));
  }
  field(n);
  if (loading()) {
    std::fill(cells.begin(), cells.end(), 0);
    if (n > cells.size()) {
      fail();
      return;
    }
  }
  std::size_t next = 0;  // save: where the scan for a nonzero cell resumes
  for (std::uint16_t i = 0; i < n; ++i) {
    std::uint16_t id = 0;
    std::uint64_t value = 0;
    if (!loading()) {
      while (cells[next] == 0) ++next;
      id = static_cast<std::uint16_t>(next);
      value = cells[next++];
    }
    field(id);
    field(value);
    if (!loading()) continue;
    if (!ok() || id >= cells.size()) {
      std::fill(cells.begin(), cells.end(), 0);
      fail();
      return;
    }
    cells[id] = value;
  }
}

std::vector<std::uint8_t>& SnapshotIo::hashed_scratch() {
  thread_local std::vector<std::uint8_t> scratch;
  return scratch;
}

SnapshotIo::Hashed SnapshotIo::load_hashed(std::optional<std::uint64_t> held) {
  Hashed s;
  s.hash = r_->u64();
  const std::uint32_t len = r_->u32();
  s.payload = r_->bytes_view(len);
  if (!r_->ok()) {
    s.state = Hashed::kCorrupt;
  } else if (held == s.hash) {
    s.state = Hashed::kHeld;
  } else if (content_hash(s.payload) == s.hash) {
    s.state = Hashed::kFresh;
  } else {
    r_->fail();
    s.state = Hashed::kCorrupt;
  }
  return s;
}

const char* Simulator::snapshot_scalars(SnapshotIo& io) {
  if (!io.expect(kEngineMagic)) return "bad engine section magic";
  if (!io.expect(static_cast<std::uint32_t>(shards_.size()))) {
    return "shard count mismatch";
  }
  io.field(global_now_);
  io.field(barrier_executed_);
  io.field(barrier_seq_);
  io.field(windows_executed_);
  io.field(mail_merged_);
  io.field(windows_inline_);
  io.field(windows_widened_);
  io.field(window_width_min_);
  io.field(window_width_max_);
  io.field(window_events_ema_);
  io.field(last_total_executed_);
  return nullptr;
}

void Simulator::ShardImage::walk(SnapshotIo& io) {
  io.field(now);
  io.field(next_seq);
  ShardCounters::walk(
      [&](const char*, auto field) { io.field(counters.*field); });
  io.field(live);
  TimingWheel::Stats::walk(
      [&](const char*, auto field) { io.field(wheel.*field); });
  io.field(timers);
  io.field(trains);
}

bool Simulator::save_engine(SnapshotWriter& w, std::string* error) {
  const auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  {
    std::lock_guard<std::mutex> lk(barrier_mutex_);
    if (!barrier_heap_.empty()) {
      return fail("pending barrier task (opaque closure) cannot serialize");
    }
  }
  for (const auto& sh : shards_) {
    for (const auto& box : sh->outbox) {
      if (!box.empty()) return fail("unmerged mailbox entries at save");
    }
  }

  SnapshotIo io(w);
  (void)snapshot_scalars(io);

  struct Rec {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  std::vector<Rec> recs;
  const char* bad = nullptr;
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    ShardImage img{sh.now, sh.next_seq, sh, sh.live, sh.wheel.stats()};

    // Classify the live population. Timer shots and train anchors
    // serialize through their owners; only counts go here. A tombstoned
    // timer shot (generation mismatch after an unsafe cross-shard cancel)
    // decays invisibly — no clock advance, no executed count — so the
    // image drops it, census included. Data events are written in
    // (time, seq) order.
    recs.clear();
    sh.wheel.for_each_live(
        [&](SimTime time, std::uint64_t seq, std::uint32_t slot) {
          const EventPayload& p = sh.slots[slot];
          if (p.train != nullptr) {
            ++img.trains;
          } else if (p.timer != nullptr) {
            if (p.timer->generation == p.timer_gen) {
              ++img.timers;
            } else {
              --img.live;
            }
          } else if (p.data_owner != nullptr) {
            if (data_owner_ids_.find(p.data_owner) == data_owner_ids_.end()) {
              bad = "data event with unregistered owner";
            }
            recs.push_back(Rec{time, seq, slot});
          } else {
            bad = "opaque closure event in queue (not checkpointable)";
          }
        });
    std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    });
    img.walk(io);
    w.u32(static_cast<std::uint32_t>(recs.size()));
    for (const Rec& rec : recs) {
      const EventPayload& p = sh.slots[rec.slot];
      w.i64(rec.time);
      w.u64(rec.seq);
      const auto it = data_owner_ids_.find(p.data_owner);
      w.u32(it != data_owner_ids_.end() ? it->second : 0xFFFFFFFFu);
      w.u32(p.data_kind);
      w.u64(p.data_arg);
      w.frame(p.data_frame);
      w.blob(p.data_bytes);
    }
  }
  if (bad != nullptr) return fail(bad);
  return true;
}

void Simulator::snapshot_clear() {
  {
    std::lock_guard<std::mutex> lk(barrier_mutex_);
    barrier_heap_.clear();
  }
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    for (auto& box : sh.outbox) box.clear();
    const auto clear_slot = [this, &sh](std::uint32_t slot_idx) {
      EventPayload& p = sh.slots[slot_idx];
      if (p.timer != nullptr) {
        // Neutralize the core: the owning Timer survives the clear and
        // its restore will call cancel_timer, which must not chase a
        // stale handle into the rebuilt queue.
        TimerCore& core = *p.timer;
        core.handle = TimerCore::kNilHandle;
        core.shard = kNoShard;
        core.pending = false;
        ++core.generation;
        p.timer.reset();
        p.timer_gen = 0;
      }
      if (p.train != nullptr) {
        p.train->scheduled = false;
        p.train->entries.clear();
        p.train = nullptr;
      }
      p.data_owner = nullptr;
      p.data_frame.reset();
      p.data_bytes.clear();
      p.fn = SmallFn{};
      release_slot(sh, slot_idx);
    };
    // Visit the live nodes where they sit instead of popping them in
    // (time, seq) order: a pop would cascade each one down the levels
    // first. A node erased while staged already released its slot and is
    // not visited.
    sh.wheel.for_each_live(
        [&clear_slot](SimTime, std::uint64_t, std::uint32_t slot) {
          clear_slot(slot);
        });
    sh.wheel.reset(sh.now);
    sh.live = 0;
  }
}

bool Simulator::restore_engine(SnapshotReader& r, std::string* error) {
  const auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  SnapshotIo io(r);
  if (const char* bad = snapshot_scalars(io)) return fail(bad);

  const std::size_t count = shards_.size();
  restore_pending_ = RestorePending{};
  restore_pending_.active = true;
  restore_pending_.shards.assign(count, ShardImage{});
  restore_pending_.got_timers.assign(count, 0);
  restore_pending_.got_trains.assign(count, 0);

  for (std::size_t s = 0; s < count; ++s) {
    Shard& sh = *shards_[s];
    // The shard's counters and wheel stats apply in finish_restore, after
    // every component's re-insertions (which would otherwise perturb them).
    ShardImage& img = restore_pending_.shards[s];
    img.walk(io);
    sh.now = img.now;
    sh.next_seq = img.next_seq;
    // Re-anchor at the restored clock so every saved event (all > the
    // saved now) is insertable regardless of where the cleared fresh
    // engine's cursor had advanced to.
    sh.wheel.reset(sh.now);
    sh.live = 0;

    const std::uint32_t n_data = r.count();
    for (std::uint32_t i = 0; i < n_data; ++i) {
      const SimTime t = r.i64();
      const std::uint64_t seq = r.u64();
      const std::uint32_t owner_id = r.u32();
      const std::uint32_t kind = r.u32();
      const std::uint64_t arg = r.u64();
      FramePtr frame = r.frame();
      FrameBytes bytes = r.blob();
      if (!r.ok()) return fail("truncated engine image");
      if (owner_id >= data_owners_.size()) {
        return fail("unknown data-event owner id");
      }
      if (t < sh.now) return fail("data event before its shard's clock");
      const std::uint32_t slot = acquire_slot(sh);
      EventPayload& p = sh.slots[slot];
      p.data_owner = data_owners_[owner_id];
      p.data_kind = kind;
      p.data_arg = arg;
      p.data_frame = std::move(frame);
      p.data_bytes = std::move(bytes);
      sh.wheel.insert(t, seq, slot);
      ++sh.live;
    }
  }
  if (!r.ok()) return fail("truncated engine image");
  return true;
}

void Simulator::restore_timer_at(ShardId shard, SimTime t, std::uint64_t seq,
                                 std::shared_ptr<TimerCore> core,
                                 std::uint64_t generation) {
  // A one-shard engine runs everything on shard 0 regardless of the
  // owner's nominal shard id — mirror the schedule-path fold.
  if (shard >= shards_.size()) shard = 0;
  Shard& sh = *shards_[shard];
  TimerCore* raw = core.get();
  if (t < sh.now) {
    // A corrupt image: the wheel cannot hold a shot behind its cursor.
    // Leaving it out fails finish_restore's census.
    raw->pending = false;
    return;
  }
  const std::uint32_t slot = acquire_slot(sh);
  sh.slots[slot].timer = std::move(core);
  sh.slots[slot].timer_gen = generation;
  ++sh.live;
  raw->shard = shard;
  raw->handle = sh.wheel.insert(t, seq, slot);
  raw->seq = seq;
  if (restore_pending_.active) ++restore_pending_.got_timers[shard];
}

void Simulator::restore_train_anchor(ShardId shard, Train& tr) {
  if (shard >= shards_.size()) shard = 0;  // one-shard fold
  assert(!tr.entries.empty());
  Shard& sh = *shards_[shard];
  if (tr.entries.front().time < sh.now) {
    tr.entries.clear();  // corrupt image; the census mismatch reports it
    return;
  }
  const std::uint32_t slot = acquire_slot(sh);
  sh.slots[slot].train = &tr;
  const TrainEntry& front = tr.entries.front();
  sh.wheel.insert(front.time, front.seq, slot);
  tr.scheduled = true;
  // Every pending train entry counts as one live event, exactly like the
  // per-frame deliveries it stands for.
  sh.live += tr.entries.size();
  if (restore_pending_.active) ++restore_pending_.got_trains[shard];
}

bool Simulator::finish_restore(std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (!restore_pending_.active) {
    return fail("finish_restore without a preceding restore_engine");
  }
  std::string mismatch;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    const ShardImage& img = restore_pending_.shards[s];
    if (restore_pending_.got_timers[s] != img.timers) {
      mismatch = "shard " + std::to_string(s) + ": restored " +
                 std::to_string(restore_pending_.got_timers[s]) +
                 " timer shots, image counted " + std::to_string(img.timers);
    }
    if (restore_pending_.got_trains[s] != img.trains) {
      mismatch = "shard " + std::to_string(s) + ": restored " +
                 std::to_string(restore_pending_.got_trains[s]) +
                 " train anchors, image counted " + std::to_string(img.trains);
    }
    if (sh.live != img.live) {
      mismatch = "shard " + std::to_string(s) + ": " +
                 std::to_string(sh.live) + " live events after restore, " +
                 "image counted " + std::to_string(img.live);
    }
    static_cast<ShardCounters&>(sh) = img.counters;
    sh.wheel.restore_stats(img.wheel);
  }
  restore_pending_ = RestorePending{};
  if (!mismatch.empty()) return fail("event census mismatch: " + mismatch);
  return true;
}

void Timer::snapshot(SnapshotIo& io, std::function<void()> fn) {
  bool had_fn = state_->fn != nullptr;
  bool pending = state_->pending;
  // An idle timer's shard and seq are leftovers of its last shot, which a
  // load never reads: save fixed values so that saving a restored fabric
  // reproduces the image byte for byte.
  ShardId shard = pending ? state_->shard : kNoShard;
  SimTime deadline = deadline_;
  std::uint64_t seq = pending ? state_->seq : 0;
  io.field(had_fn);
  io.field(pending);
  io.field(shard);
  io.field(deadline);
  io.field(seq);
  if (!io.loading() || !io.ok()) return;
  // Safe no-op after snapshot_clear (the core was neutralized), and the
  // correct cleanup when restoring in place over a still-armed timer.
  sim_->cancel_timer(*state_);
  state_->fn = had_fn ? std::move(fn) : std::function<void()>{};
  deadline_ = deadline;
  if (!pending) return;
  const std::uint64_t gen = ++state_->generation;
  state_->pending = true;
  sim_->restore_timer_at(shard == kNoShard ? 0 : shard, deadline, seq,
                         state_, gen);
}

void PeriodicTimer::save_state(SnapshotWriter& w) const {
  SnapshotIo io(w);
  const_cast<PeriodicTimer*>(this)->snapshot(io);  // a save only reads
}

void PeriodicTimer::restore_state(SnapshotReader& r) {
  SnapshotIo io(r);
  snapshot(io);
}

}  // namespace portland::sim
