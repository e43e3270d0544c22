// Engine-level checkpoint: serialize, clear, and rebuild the event queues.
//
// The save walk drains each shard's timing wheel into a record list,
// classifies every live payload, and re-inserts the drained population
// exactly as it was — so saving is invisible to the running engine (wheel
// stats are captured before the walk and restored after; re-insertion
// bypasses push_node so nodes_pushed never drifts). The image stores timer
// shots and train anchors as per-shard census counts only: their contents
// are owned (and serialized) by the Timer and Link that will re-insert them
// on restore, and finish_restore() validates that every counted event
// actually came back.
#include "sim/snapshot.h"

#include <array>
#include <cassert>
#include <utility>

#include "sim/simulator.h"
#include "sim/train.h"

namespace portland::sim {

namespace {
constexpr std::uint32_t kEngineMagic = 0x534E4150u;  // "SNAP"
}  // namespace

void save_counters(SnapshotWriter& w, const CounterSet& c) {
  // Layout: count, key-set fingerprint, byte length of the names block,
  // the names (sorted), then all values in the same order. Splitting
  // names from values lets restore skip the names block wholesale when
  // the live set already holds exactly these keys — the common case for
  // in-memory forks, where the restoring fabric ran the same code paths
  // that created the counters in the first place.
  const auto& all = c.all();
  w.u32(static_cast<std::uint32_t>(all.size()));
  w.u64(c.key_fingerprint());
  std::size_t names_bytes = 0;
  for (const auto& [name, value] : all) names_bytes += 2 + name.size();
  w.u32(static_cast<std::uint32_t>(names_bytes));
  for (const auto& [name, value] : all) w.str(name);
  for (const auto& [name, value] : all) w.u64(value);
}

void restore_counters(SnapshotReader& r, CounterSet& c) {
  const std::uint32_t n = r.u32();
  const std::uint64_t fingerprint = r.u64();
  const std::uint32_t names_bytes = r.u32();
  if (!r.ok()) return;
  if (n == c.size() && fingerprint == c.key_fingerprint()) {
    // Same size + same set fingerprint: the live (sorted) keys are the
    // saved keys, so values map positionally. No name parsing, no reset
    // pass (every cell is assigned below), no map walk — one flat sweep
    // over the cached cell pointers.
    r.skip(names_bytes);
    const auto raw = r.bytes_view(sizeof(std::uint64_t) * n);
    if (!r.ok()) return;
    const auto& cells = c.cells_in_order();
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t v = 0;
      std::memcpy(&v, raw.data() + sizeof(std::uint64_t) * i, sizeof(v));
      *cells[i] = portland::detail::to_net(v);
    }
    return;
  }
  // Divergent key sets (fresh fabric, version drift): reset() zeroes
  // values but keeps keys, so handles cached by hot paths stay valid;
  // counters absent from the image simply stay zero. Then lockstep-merge
  // by name. Views into the image stay valid for the whole call.
  c.reset();
  CounterSet::RestoreCursor cursor(c);
  std::vector<std::string_view> names(n);
  for (std::uint32_t i = 0; i < n; ++i) names[i] = r.str_view();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t value = r.u64();
    if (!r.ok()) return;
    cursor.set(names[i], value);
  }
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

  w.u32(kEngineMagic);
  w.u32(static_cast<std::uint32_t>(shards_.size()));
  w.u8(configured_ ? 1 : 0);
  w.i64(global_now_);
  w.u64(barrier_executed_);
  w.u64(barrier_seq_);
  w.u64(windows_executed_);
  w.u64(mail_merged_);
  w.u64(windows_inline_);
  w.u64(windows_widened_);
  w.i64(window_width_min_);
  w.i64(window_width_max_);
  w.f64(window_events_ema_);
  w.u64(last_total_executed_);

  struct Rec {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  std::vector<Rec> recs;
  const char* bad = nullptr;
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    w.i64(sh.now);
    w.u64(sh.next_seq);
    w.u64(sh.executed);
    w.u64(sh.trains_popped);
    w.u64(sh.train_frames);
    w.u64(sh.train_repushes);
    w.u64(sh.nodes_pushed);
    w.u64(sh.live);
    for (const std::uint64_t x : sh.rng.state()) w.u64(x);
    // Capture stats before the drain below perturbs them.
    const TimingWheel::Stats ws = sh.wheel.stats();
    w.u64(ws.inserts);
    w.u64(ws.erases);
    w.u64(ws.pops);
    w.u64(ws.cascaded_nodes);
    w.u64(ws.overflow_rehomed);

    // Drain the wheel in (time, seq) order. Erase is true removal, so the
    // only dead residue is staged nodes, which pop() discards with
    // live == false.
    recs.clear();
    while (sh.wheel.has_events()) {
      const TimingWheel::PopResult r = sh.wheel.pop();
      if (!r.live) continue;
      recs.push_back(Rec{r.time, r.seq, r.payload});
    }

    // Classify. Timer shots and train anchors serialize through their
    // owners; only counts go here. A tombstoned timer shot (generation
    // mismatch after an unsafe cross-shard cancel) decays invisibly —
    // no clock advance, no executed count — so it is re-inserted in the
    // live engine but dropped from the image.
    std::uint32_t n_timers = 0;
    std::uint32_t n_trains = 0;
    std::vector<const Rec*> data_recs;
    for (const Rec& rec : recs) {
      const EventPayload& p = sh.slots[rec.slot];
      if (p.train != nullptr) {
        ++n_trains;
      } else if (p.timer != nullptr) {
        if (p.timer->generation == p.timer_gen) ++n_timers;
      } else if (p.data_owner != nullptr) {
        if (data_owner_ids_.find(p.data_owner) == data_owner_ids_.end()) {
          bad = "data event with unregistered owner";
        }
        data_recs.push_back(&rec);
      } else {
        bad = "opaque closure event in queue (not checkpointable)";
      }
    }
    w.u32(n_timers);
    w.u32(n_trains);
    w.u32(static_cast<std::uint32_t>(data_recs.size()));
    for (const Rec* rp : data_recs) {
      const EventPayload& p = sh.slots[rp->slot];
      w.i64(rp->time);
      w.u64(rp->seq);
      const auto it = data_owner_ids_.find(p.data_owner);
      w.u32(it != data_owner_ids_.end() ? it->second : 0xFFFFFFFFu);
      w.u32(p.data_kind);
      w.u64(p.data_arg);
      w.frame(p.data_frame);
      w.blob(p.data_bytes);
    }

    // Rebuild the wheel exactly as drained. Direct inserts bypass
    // push_node, so nodes_pushed is untouched; wheel stats are restored
    // below, so the whole walk is invisible to metrics. Wheel node
    // indexes change across the rebuild, so live timer handles are
    // re-recorded.
    sh.wheel.reset(sh.now);
    for (const Rec& rec : recs) {
      const std::uint32_t handle = sh.wheel.insert(rec.time, rec.seq, rec.slot);
      EventPayload& p = sh.slots[rec.slot];
      if (p.timer != nullptr && p.timer->generation == p.timer_gen &&
          p.timer->pending) {
        p.timer->handle = handle;
      }
    }
    sh.wheel.restore_stats(ws);
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
    while (sh.wheel.has_events()) {
      const TimingWheel::PopResult r = sh.wheel.pop();
      if (!r.live) continue;
      clear_slot(r.payload);
    }
    sh.wheel.reset(sh.now);
    sh.live = 0;
  }
}

bool Simulator::restore_engine(SnapshotReader& r, std::string* error) {
  const auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (r.u32() != kEngineMagic) return fail("bad engine section magic");
  const std::uint32_t count = r.u32();
  if (count != shards_.size()) return fail("shard count mismatch");
  if ((r.u8() != 0) != configured_) return fail("sharded-mode mismatch");
  global_now_ = r.i64();
  barrier_executed_ = r.u64();
  barrier_seq_ = r.u64();
  windows_executed_ = r.u64();
  mail_merged_ = r.u64();
  windows_inline_ = r.u64();
  windows_widened_ = r.u64();
  window_width_min_ = r.i64();
  window_width_max_ = r.i64();
  window_events_ema_ = r.f64();
  last_total_executed_ = r.u64();

  restore_pending_ = RestorePending{};
  restore_pending_.active = true;
  restore_pending_.expect_timers.assign(count, 0);
  restore_pending_.expect_trains.assign(count, 0);
  restore_pending_.got_timers.assign(count, 0);
  restore_pending_.got_trains.assign(count, 0);
  restore_pending_.expect_live.assign(count, 0);
  restore_pending_.nodes_pushed.assign(count, 0);
  restore_pending_.wheel_stats.assign(count, TimingWheel::Stats{});

  for (std::size_t s = 0; s < count; ++s) {
    Shard& sh = *shards_[s];
    sh.now = r.i64();
    sh.next_seq = r.u64();
    sh.executed = r.u64();
    sh.trains_popped = r.u64();
    sh.train_frames = r.u64();
    sh.train_repushes = r.u64();
    // nodes_pushed and wheel stats apply in finish_restore, after every
    // component's re-insertions (which would otherwise perturb them).
    restore_pending_.nodes_pushed[s] = r.u64();
    restore_pending_.expect_live[s] = r.u64();
    std::array<std::uint64_t, 4> rng_state{};
    for (auto& x : rng_state) x = r.u64();
    sh.rng.set_state(rng_state);
    TimingWheel::Stats ws;
    ws.inserts = r.u64();
    ws.erases = r.u64();
    ws.pops = r.u64();
    ws.cascaded_nodes = r.u64();
    ws.overflow_rehomed = r.u64();
    restore_pending_.wheel_stats[s] = ws;
    // Re-anchor at the restored clock so every saved event (all > the
    // saved now) is insertable regardless of where the cleared fresh
    // engine's cursor had advanced to.
    sh.wheel.reset(sh.now);
    sh.live = 0;

    restore_pending_.expect_timers[s] = r.u32();
    restore_pending_.expect_trains[s] = r.u32();
    const std::uint32_t n_data = r.u32();
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
  // Classic (unsharded) mode runs everything on shard 0 regardless of the
  // owner's nominal shard id — mirror the schedule-path normalization.
  if (shard >= shards_.size()) shard = 0;
  Shard& sh = *shards_[shard];
  TimerCore* raw = core.get();
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
  if (shard >= shards_.size()) shard = 0;  // classic-mode normalization
  assert(!tr.entries.empty());
  Shard& sh = *shards_[shard];
  const std::uint32_t slot = acquire_slot(sh);
  sh.slots[slot].train = &tr;
  const TrainEntry& front = tr.entries.front();
  sh.wheel.insert(front.time, front.seq, slot);
  tr.scheduled = true;
  // Every pending train entry counts as one live event, exactly like the
  // classic per-frame deliveries it stands for.
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
    if (restore_pending_.got_timers[s] != restore_pending_.expect_timers[s]) {
      mismatch = "shard " + std::to_string(s) + ": restored " +
                 std::to_string(restore_pending_.got_timers[s]) +
                 " timer shots, image counted " +
                 std::to_string(restore_pending_.expect_timers[s]);
    }
    if (restore_pending_.got_trains[s] != restore_pending_.expect_trains[s]) {
      mismatch = "shard " + std::to_string(s) + ": restored " +
                 std::to_string(restore_pending_.got_trains[s]) +
                 " train anchors, image counted " +
                 std::to_string(restore_pending_.expect_trains[s]);
    }
    if (sh.live != restore_pending_.expect_live[s]) {
      mismatch = "shard " + std::to_string(s) + ": " +
                 std::to_string(sh.live) + " live events after restore, " +
                 "image counted " +
                 std::to_string(restore_pending_.expect_live[s]);
    }
    sh.nodes_pushed = restore_pending_.nodes_pushed[s];
    sh.wheel.restore_stats(restore_pending_.wheel_stats[s]);
  }
  restore_pending_ = RestorePending{};
  if (!mismatch.empty()) return fail("event census mismatch: " + mismatch);
  return true;
}

void Timer::save_state(SnapshotWriter& w) const {
  w.u8(state_->fn != nullptr ? 1 : 0);
  w.u8(state_->pending ? 1 : 0);
  w.u32(state_->shard);
  w.i64(deadline_);
  w.u64(state_->seq);
}

void Timer::restore_at(SnapshotReader& r, std::function<void()> fn) {
  const bool had_fn = r.u8() != 0;
  const bool pending = r.u8() != 0;
  const ShardId shard = r.u32();
  const SimTime deadline = r.i64();
  const std::uint64_t seq = r.u64();
  if (!r.ok()) return;
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

}  // namespace portland::sim
