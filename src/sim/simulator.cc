#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/stats.h"
#include "obs/trace_export.h"
#include "sim/link.h"
#include "sim/train.h"

namespace portland::sim {

namespace {
/// Default queue capacity: covers a k=8 fabric's steady-state event
/// population without reallocation; larger fabrics grow once, early.
constexpr std::size_t kDefaultEventCapacity = 4096;

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// Which (simulator, shard) the calling thread is currently executing
/// for. Set around every shard window and ShardGuard scope; everything
/// else (the main thread between runs, barrier tasks) sees kNoShard,
/// which context_shard() reads as shard 0 on a one-shard engine.
struct ExecCtx {
  const Simulator* sim = nullptr;
  ShardId shard = kNoShard;
};
thread_local ExecCtx g_ctx;
}  // namespace

Simulator::Simulator() : Simulator(Options{}) {}

Simulator::Simulator(Options options)
    : parallel_min_events_(options.parallel_min_events),
      hw_cores_(std::max(1u, std::thread::hardware_concurrency())) {
  // Each shard reserves kDefaultEventCapacity slots up front, so the slot
  // and mail sizes are what an added shard costs in memory.
  static_assert(sizeof(EventSlot) <= 96, "event slot grew past 96 B");
  static_assert(sizeof(Mail) <= 96, "mail record grew past 96 B");
  shards_.push_back(std::make_unique<Shard>());
  Shard& sh = *shards_[0];
  sh.wheel.reserve(kDefaultEventCapacity);
  sh.slots.reserve(kDefaultEventCapacity);
  sh.free_slots.reserve(kDefaultEventCapacity);
  sh.outbox.resize(1);
}

Simulator::~Simulator() { join_workers(); }

ShardId Simulator::context_shard() const {
  if (shards_.size() == 1) return 0;
  return g_ctx.sim == this ? g_ctx.shard : kNoShard;
}

SimTime Simulator::now() const {
  const ShardId ctx = context_shard();
  if (ctx != kNoShard) return shards_[ctx]->now;
  return global_now_;
}

std::uint32_t Simulator::acquire_slot(Shard& sh) {
  if (sh.free_slots.empty()) {
    sh.slots.emplace_back();
    return static_cast<std::uint32_t>(sh.slots.size() - 1);
  }
  const std::uint32_t slot = sh.free_slots.back();
  sh.free_slots.pop_back();
  return slot;
}

void Simulator::release_slot(Shard& sh, std::uint32_t slot) {
  sh.slots[slot].emplace<std::monostate>();
  sh.free_slots.push_back(slot);
}

std::uint32_t Simulator::push_node(Shard& sh, SimTime t, std::uint32_t slot) {
  ++sh.nodes_pushed;
  return sh.wheel.insert(t, sh.next_seq++, slot);
}

std::uint32_t Simulator::push_node_at(Shard& sh, SimTime t, std::uint64_t seq,
                                      std::uint32_t slot) {
  ++sh.nodes_pushed;
  return sh.wheel.insert(t, seq, slot);
}

void Simulator::schedule_local(Shard& sh, SimTime t, SmallFn fn) {
  assert(t >= sh.now);
  const std::uint32_t slot = acquire_slot(sh);
  sh.slots[slot].emplace<SmallFn>(std::move(fn));
  push_node(sh, t, slot);
  ++sh.live;
}

void Simulator::schedule_timer_local(Shard& sh, ShardId id, SimTime t,
                                     std::shared_ptr<TimerCore> core,
                                     std::uint64_t generation) {
  assert(t >= sh.now);
  TimerCore* raw = core.get();
  const std::uint32_t slot = acquire_slot(sh);
  sh.slots[slot].emplace<TimerShot>(TimerShot{std::move(core), generation});
  const std::uint64_t seq = sh.next_seq;
  const std::uint32_t handle = push_node(sh, t, slot);
  ++sh.live;
  // Record where the live shot sits so cancel/rearm can erase it in O(1).
  // A stale generation (the core was re-armed or cancelled since this
  // record was built, e.g. through a mailbox) must not clobber the
  // current shot's handle; the stale shot decays at its deadline.
  if (raw->generation == generation && raw->pending) {
    raw->shard = id;
    raw->handle = handle;
    raw->seq = seq;
  }
}

std::uint32_t Simulator::register_data_owner(DataEventOwner* owner) {
  const auto id = static_cast<std::uint32_t>(data_owners_.size());
  data_owners_.push_back(owner);
  data_owner_ids_.emplace(owner, id);
  return id;
}

void Simulator::post(ShardId dst, SimTime t, Delivery d) {
  dst = home(dst);
  if (dst == kNoShard) {
    // Unhinted destination: globally-serialized barrier execution. The
    // closure wrapper is not serializable — a snapshot with one pending
    // refuses, which is fine because hinted fabrics never take this path.
    at_barrier(t, [d = std::move(d)] {
      d.owner->execute_data_event(d.kind, d.arg, d.frame, d.bytes);
    });
    return;
  }
  assert(dst < shards_.size());
  const ShardId ctx = context_shard();
  if (ctx != dst && in_window_ && ctx != kNoShard) {
    // Mid-window cross-shard post: the destination worker owns its queue
    // and trains right now, so even *peeking* at a train would race. Park
    // it in the (src,dst) mailbox; the barrier delivers it in canonical
    // order, so the destination sequence is independent of thread
    // interleaving.
    Shard& src = *shards_[ctx];
    src.outbox[dst].push_back(Mail{t, std::move(d)});
    if (t + lookahead_ < src.send_cap) src.send_cap = t + lookahead_;
    return;
  }
  // Same-shard or quiescent: this thread owns the destination queue.
  deliver_local(*shards_[dst], t, std::move(d));
}

void Simulator::deliver_local(Shard& sh, SimTime t, Delivery&& d) {
  assert(t >= sh.now);
  Train* tr = d.train;
  if (tr != nullptr &&
      (tr->entries.empty() || t > tr->entries.back().time)) {
    // The entry consumes the shard's next sequence number here — the exact
    // point a data event would have consumed it — so batching keeps the
    // (time, seq) stream of one event per frame.
    tr->entries.push_back(TrainEntry{t, sh.next_seq++, d.arg,
                                     std::move(d.frame)});
    ++sh.live;
    ++sh.train_frames;
    if (!tr->scheduled) {
      // An unscheduled train is empty by invariant, so the entry just
      // appended is the front: anchor the node at its (time, seq).
      const std::uint32_t slot = acquire_slot(sh);
      sh.slots[slot].emplace<Train*>(tr);
      push_node_at(sh, t, tr->entries.back().seq, slot);
      tr->scheduled = true;
    }
    return;
  }
  // No train, or an arrival that would break the train's time order (see
  // train.h): the delivery is a data event of its own.
  d.train = nullptr;
  const std::uint32_t slot = acquire_slot(sh);
  sh.slots[slot].emplace<Delivery>(std::move(d));
  push_node(sh, t, slot);
  ++sh.live;
}

void Simulator::at(SimTime t, SmallFn fn) {
  const ShardId ctx = context_shard();
  if (ctx == kNoShard) {
    at_barrier(t, std::move(fn));
    return;
  }
  schedule_local(*shards_[ctx], t, std::move(fn));
}

void Simulator::after(SimDuration delay, SmallFn fn) {
  assert(delay >= 0);
  at(now() + delay, std::move(fn));
}

void Simulator::at_timer(SimTime t, std::shared_ptr<TimerCore> core,
                         std::uint64_t generation) {
  const ShardId ctx = context_shard();
  if (ctx != kNoShard) {
    schedule_timer_local(*shards_[ctx], ctx, t, std::move(core), generation);
    return;
  }
  // No shard context: fire through the barrier queue. The wrapper
  // re-checks generation/pending exactly like the slot-pool path.
  at_barrier(t, [core = std::move(core), generation] {
    fire_timer(*core, generation);
  });
}

void Simulator::cancel_timer(TimerCore& core) {
  ++core.generation;
  core.pending = false;
  if (core.handle == TimerCore::kNilHandle) return;
  const ShardId owner = core.shard;
  const ShardId ctx = context_shard();
  // Erasing requires exclusive access to the owning shard's queue: true
  // from the owner shard itself (always, on a one-shard engine) and from
  // the main thread while no window is executing. The only unsafe case — a
  // cross-shard cancel from inside a foreign worker's window, which no
  // device performs — falls back to the generation tombstone: the stale
  // shot decays as a silent, uncounted no-op at its deadline.
  if (ctx != owner && (ctx != kNoShard || in_window_)) return;
  Shard& sh = *shards_[owner];
  release_slot(sh, sh.wheel.erase(core.handle));
  --sh.live;
  core.handle = TimerCore::kNilHandle;
  core.shard = kNoShard;
}

void Simulator::at_barrier(SimTime t, SmallFn fn) {
  std::lock_guard<std::mutex> lk(barrier_mutex_);
  barrier_heap_.push_back(BarrierTask{t, barrier_seq_++, std::move(fn)});
  std::push_heap(barrier_heap_.begin(), barrier_heap_.end(), TaskLater{});
}

void Simulator::configure_shards(std::size_t count, SimDuration lookahead) {
  assert(shards_.size() == 1 && "configure_shards may run once");
  assert(count >= 1);
  lookahead_ = std::max<SimDuration>(SimDuration{1}, lookahead);
  shards_.reserve(count);
  while (shards_.size() < count) {
    auto sh = std::make_unique<Shard>();
    sh->wheel.reserve(kDefaultEventCapacity);
    sh->slots.reserve(kDefaultEventCapacity);
    sh->free_slots.reserve(kDefaultEventCapacity);
    sh->now = shards_[0]->now;
    shards_.push_back(std::move(sh));
  }
  for (auto& sh : shards_) sh->outbox.resize(shards_.size());
  global_now_ = shards_[0]->now;
  if (workers_ > 1 && count > 1) spawn_workers();
}

void Simulator::set_workers(unsigned n) {
  n = std::max(1u, n);
  if (n == workers_) return;
  join_workers();
  workers_ = n;
  if (workers_ > 1 && shards_.size() > 1) spawn_workers();
}

void Simulator::spawn_workers() {
  assert(threads_.empty());
  quit_ = false;
  threads_.reserve(workers_ - 1);
  // A new worker starts at the current window generation: windows an
  // earlier pool ran are not its to run.
  for (unsigned w = 1; w < workers_; ++w) {
    threads_.emplace_back(
        [this, w, gen = window_gen_] { worker_loop(w, gen); });
  }
}

void Simulator::join_workers() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(pool_mutex_);
    quit_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
  quit_ = false;
}

void Simulator::fire_timer(TimerCore& core, std::uint64_t generation) {
  if (core.generation != generation || !core.pending) return;
  core.pending = false;
  // Run the callback from a local so a schedule_after() inside it (which
  // replaces core.fn) cannot destroy the closure mid-execution; restore
  // it afterwards unless it was replaced, keeping rearm() working.
  std::function<void()> fn = std::move(core.fn);
  fn();
  if (!core.fn && fn) core.fn = std::move(fn);
}

void Simulator::dispatch_one(Shard& sh, SimTime bound) {
  const TimingWheel::PopResult r = sh.wheel.pop();
  if (!r.live) return;  // cancelled while staged; slot already released
  const SimTime time = r.time;
  // The payload must be moved out and its slot released before running:
  // the callback may schedule new events, reusing (or growing) the pool.
  EventSlot& slot = sh.slots[r.payload];
  if (Train* const* anchor = std::get_if<Train*>(&slot)) {
    // Train dispatch: the node stands for the train's front entry, which
    // carries this pop's exact (time, seq). Deliver it, then keep
    // draining entries that are strictly earlier than both the bound and
    // every other queued event; the first entry that ties or trails
    // hands the train back to the scheduler at its own (time, seq), so
    // the global dispatch order is that of one event per frame.
    Train* tr = *anchor;
    release_slot(sh, r.payload);
    ++sh.trains_popped;
    for (;;) {
      assert(!tr->entries.empty());
      TrainEntry e = std::move(tr->entries.front());
      tr->entries.pop_front();
      --sh.live;
      sh.now = e.time;
      ++sh.executed;
      tr->owner->deliver(tr->from_side, e.epoch, e.frame);
      if (tr->entries.empty()) {
        tr->scheduled = false;
        return;
      }
      const TrainEntry& nx = tr->entries.front();
      // A delivery above may have parked cross-shard mail, shrinking the
      // shard's echo cap below the bound this drain started with.
      SimTime eff = bound;
      if (sh.send_cap < eff) eff = std::max(window_floor_, sh.send_cap);
      if (nx.time >= eff || nx.time >= peek_time(sh)) {
        const std::uint32_t s2 = acquire_slot(sh);
        sh.slots[s2].emplace<Train*>(tr);
        push_node_at(sh, nx.time, nx.seq, s2);
        ++sh.train_repushes;
        return;  // tr->scheduled stays true
      }
    }
  }
  if (Delivery* data = std::get_if<Delivery>(&slot)) {
    const Delivery d = std::move(*data);
    release_slot(sh, r.payload);
    --sh.live;
    sh.now = time;
    ++sh.executed;
    d.owner->execute_data_event(d.kind, d.arg, d.frame, d.bytes);
    return;
  }
  if (TimerShot* shot = std::get_if<TimerShot>(&slot)) {
    const TimerShot timer = std::move(*shot);
    release_slot(sh, r.payload);
    --sh.live;
    if (timer.core->generation != timer.generation) {
      // Tombstone from an unsafe (cross-shard) cancel: decays silently —
      // no clock advance, no executed count.
      return;
    }
    // This is the core's current shot: its wheel node died with this
    // pop. Clear the handle before firing so a rearm inside the callback
    // installs a fresh handle we do not clobber.
    timer.core->handle = TimerCore::kNilHandle;
    timer.core->shard = kNoShard;
    sh.now = time;
    ++sh.executed;
    fire_timer(*timer.core, timer.generation);
    return;
  }
  SmallFn fn = std::move(std::get<SmallFn>(slot));
  release_slot(sh, r.payload);
  --sh.live;
  sh.now = time;
  ++sh.executed;
  fn();
}

SimTime Simulator::earliest_shard_event() {
  SimTime t = kNever;
  for (auto& sh : shards_) t = std::min(t, peek_time(*sh));
  return t;
}

SimTime Simulator::earliest_barrier_task() const {
  std::lock_guard<std::mutex> lk(barrier_mutex_);
  return barrier_heap_.empty() ? kNever : barrier_heap_.front().time;
}

void Simulator::run_due_barrier_tasks(SimTime bound) {
  // Tasks run strictly in (time, seq) order, but never past a shard event
  // an earlier task may have scheduled: re-check the shard horizon after
  // every task. Ties (task time == event time) go to the task.
  for (;;) {
    BarrierTask task;
    {
      std::lock_guard<std::mutex> lk(barrier_mutex_);
      if (barrier_heap_.empty()) return;
      const SimTime t = barrier_heap_.front().time;
      if (t > bound || t > earliest_shard_event()) return;
      std::pop_heap(barrier_heap_.begin(), barrier_heap_.end(), TaskLater{});
      task = std::move(barrier_heap_.back());
      barrier_heap_.pop_back();
    }
    global_now_ = std::max(global_now_, task.time);
    for (auto& sh : shards_) sh->now = std::max(sh->now, global_now_);
    ++barrier_executed_;
    task.fn();
  }
}

void Simulator::run_shard_window(Shard& sh, ShardId id, SimTime end) {
  const ExecCtx saved = g_ctx;
  g_ctx = ExecCtx{this, id};
  // The shard's own cross-shard sends tighten the bound while the window
  // runs (Shard::send_cap): a reply chain seeded by a send parked at
  // arrival time `a` can re-enter this shard as early as a + lookahead,
  // so a widened window must stop there. The fixed window end stays a
  // floor — it is causally safe regardless of what anyone sends.
  const auto bound = [&]() -> SimTime {
    if (sh.send_cap >= end) return end;
    return std::max(window_floor_, sh.send_cap);
  };
  obs::EngineTracer* const tracer = tracer_;
  const std::uint64_t exec0 = sh.executed;
  const double wall0 = tracer != nullptr ? tracer->now_us() : 0.0;
  for (SimTime b = bound(); peek_time(sh) < b; b = bound()) {
    dispatch_one(sh, b);
  }
  // Lane 1+id belongs to this thread until the window barrier, so the
  // span push is single-writer by construction.
  if (tracer != nullptr && sh.executed != exec0) {
    tracer->shard_span(id, sh.now, sh.executed - exec0, wall0,
                       tracer->now_us());
  }
  g_ctx = saved;
}

void Simulator::worker_loop(unsigned worker_index, std::uint64_t seen_gen) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(pool_mutex_);
      cv_start_.wait(lk, [&] { return quit_ || window_gen_ != seen_gen; });
      if (quit_) return;
      seen_gen = window_gen_;
      // window_ends_ was fully written before the generation bump; the
      // mutex handshake makes it visible here.
    }
    for (ShardId s = worker_index; s < shards_.size(); s += workers_) {
      run_shard_window(*shards_[s], s, window_ends_[s]);
    }
    {
      std::lock_guard<std::mutex> lk(pool_mutex_);
      if (--active_workers_ == 0) cv_done_.notify_one();
    }
  }
}

void Simulator::execute_window() {
  // Hand the window to the pool only when it is worth waking: the recent
  // events-per-window average must clear the threshold, and the box must
  // actually have a second core. Sparse windows (control-plane chatter,
  // convergence tails) run inline on this thread, skipping two condvar
  // round-trips per window — this is what keeps workers=4 from losing to
  // workers=1 on light workloads or small machines. Inline and pooled
  // execution dispatch the identical schedule.
  const bool pooled =
      !threads_.empty() &&
      (parallel_min_events_ == 0 ||
       (hw_cores_ > 1 &&
        window_events_ema_ >= static_cast<double>(parallel_min_events_)));
  if (!pooled) {
    if (!threads_.empty()) ++windows_inline_;
    in_window_ = true;
    for (ShardId s = 0; s < shards_.size(); ++s) {
      run_shard_window(*shards_[s], s, window_ends_[s]);
    }
    in_window_ = false;
    return;
  }
  {
    std::lock_guard<std::mutex> lk(pool_mutex_);
    in_window_ = true;
    active_workers_ = static_cast<unsigned>(threads_.size());
    ++window_gen_;
  }
  cv_start_.notify_all();
  for (ShardId s = 0; s < shards_.size(); s += workers_) {
    run_shard_window(*shards_[s], s, window_ends_[s]);
  }
  std::unique_lock<std::mutex> lk(pool_mutex_);
  cv_done_.wait(lk, [&] { return active_workers_ == 0; });
  in_window_ = false;
}

void Simulator::merge_mailboxes() {
  const std::size_t count = shards_.size();
  for (std::size_t dst = 0; dst < count; ++dst) {
    merge_refs_.clear();
    for (std::size_t src = 0; src < count; ++src) {
      const auto& box = shards_[src]->outbox[dst];
      for (std::size_t i = 0; i < box.size(); ++i) {
        merge_refs_.push_back(MailRef{box[i].time,
                                      static_cast<std::uint32_t>(src),
                                      static_cast<std::uint32_t>(i)});
      }
    }
    if (merge_refs_.empty()) continue;
    mail_merged_ += merge_refs_.size();
    // Canonical order: (time, source shard, push index). This — not
    // thread completion order — assigns the destination sequence numbers.
    // The key is total, so an unstable (allocation-free) sort suffices.
    std::sort(merge_refs_.begin(), merge_refs_.end(),
              [](const MailRef& a, const MailRef& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.src != b.src) return a.src < b.src;
                return a.idx < b.idx;
              });
    Shard& d = *shards_[dst];
    for (const MailRef& r : merge_refs_) {
      Mail& m = shards_[r.src]->outbox[dst][r.idx];
      deliver_local(d, m.time, std::move(m.delivery));
    }
    for (std::size_t src = 0; src < count; ++src) {
      shards_[src]->outbox[dst].clear();
    }
  }
}

void Simulator::parallel_run(SimTime limit) {
  const std::size_t count = shards_.size();
  window_ends_.resize(count);
  for (;;) {
    // One pass gives the two earliest shard peeks: min1 bounds everyone
    // (the fixed window), min2 bounds the min1 shard itself —
    // no *currently queued* foreign event can mail it anything earlier
    // than min2 + lookahead. Mail the widened shard sends during its own
    // run can echo back sooner than that; the per-shard send_cap
    // (maintained at the outbox push sites, enforced in
    // run_shard_window) closes that hole.
    SimTime min1 = kNever;
    SimTime min2 = kNever;
    std::size_t argmin = 0;
    for (std::size_t s = 0; s < count; ++s) {
      const SimTime p = peek_time(*shards_[s]);
      if (p < min1) {
        min2 = min1;
        min1 = p;
        argmin = s;
      } else if (p < min2) {
        min2 = p;
      }
    }
    const SimTime t_ev = min1;
    const SimTime t_task = earliest_barrier_task();
    const SimTime t = std::min(t_ev, t_task);
    if (t == kNever || t > limit) break;
    if (t_task <= t_ev) {
      run_due_barrier_tasks(std::min(t_ev, limit));
      continue;
    }
    const auto clamp_end = [&](SimTime base) {
      SimTime end = base > kNever - lookahead_ ? kNever : base + lookahead_;
      if (t_task < end) end = t_task;
      if (limit != kNever && end > limit) end = limit + 1;  // events at limit
      return end;
    };
    const SimTime fixed_end = clamp_end(t_ev);
    // Adaptive lookahead (conservative, Chandy–Misra–Bryant): the
    // earliest shard runs to the second-earliest foreign peek plus
    // lookahead — a pure function of queue state, so every worker count
    // computes the same window ends. The widened shard's *own*
    // cross-shard sends additionally cap its run at first-send-arrival +
    // lookahead (send_cap), since a reply chain they seed may return
    // earlier than min2. A single-shard engine has no cross-shard
    // constraint at all. Dense cross-shard phases make min2 == min1 and
    // the window collapses to the fixed bound — the width never drops
    // *below* the configured lookahead.
    const SimTime lead_end =
        count > 1 ? clamp_end(min2)
                  : std::min(t_task, limit == kNever ? kNever : limit + 1);
    if (lead_end > fixed_end) ++windows_widened_;
    if (lead_end != t_task && !(limit != kNever && lead_end == limit + 1) &&
        lead_end != kNever) {
      const SimDuration width = lead_end - t_ev;
      if (window_width_min_ == 0 || width < window_width_min_) {
        window_width_min_ = width;
      }
      if (width > window_width_max_) window_width_max_ = width;
    }
    window_floor_ = fixed_end;
    for (std::size_t s = 0; s < count; ++s) {
      window_ends_[s] = s == argmin ? lead_end : fixed_end;
      shards_[s]->send_cap = kNever;
    }
    ++windows_executed_;
    const double wall0 = tracer_ != nullptr ? tracer_->now_us() : 0.0;
    const std::uint64_t merged0 = mail_merged_;
    execute_window();
    merge_mailboxes();
    if (tracer_ != nullptr) {
      tracer_->window_span(windows_executed_, t_ev, lead_end, wall0,
                           tracer_->now_us(), mail_merged_ - merged0);
    }
    // The global clock (read between windows, and the floor barrier
    // tasks lift lagging shards to) advances to the window-start
    // minimum: every post-window peek provably exceeds it. Shard clocks
    // are *not* force-advanced — with per-shard ends a lagging shard may
    // legitimately still have events below a leading shard's now.
    global_now_ = std::max(global_now_, t);
    std::uint64_t total = barrier_executed_;
    for (const auto& sh : shards_) total += sh->executed;
    const double in_window =
        static_cast<double>(total - last_total_executed_);
    last_total_executed_ = total;
    window_events_ema_ = window_events_ema_ == 0.0
                             ? in_window
                             : 0.8 * window_events_ema_ + 0.2 * in_window;
  }
  if (limit != kNever && global_now_ < limit) {
    global_now_ = limit;
    for (auto& sh : shards_) sh->now = std::max(sh->now, limit);
  }
}

void Simulator::run() { parallel_run(kNever); }

void Simulator::run_until(SimTime t) { parallel_run(t); }

std::size_t Simulator::pending_events() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    n += sh->live;
    for (const auto& box : sh->outbox) n += box.size();
  }
  std::lock_guard<std::mutex> lk(barrier_mutex_);
  return n + barrier_heap_.size();
}

Simulator::ShardCounters Simulator::shard_sums() const {
  ShardCounters total;
  for (const auto& sh : shards_) add_counters(total, *sh);
  return total;
}

unsigned Simulator::resolve_auto_workers(unsigned hw_cores,
                                         std::size_t shard_count) {
  if (hw_cores < 2 || shard_count < 2) return 0;
  return static_cast<unsigned>(
      std::min<std::size_t>(hw_cores, shard_count));
}

TimingWheel::Stats Simulator::wheel_stats() const {
  TimingWheel::Stats total;
  for (const auto& sh : shards_) add_counters(total, sh->wheel.stats());
  return total;
}

ShardGuard::ShardGuard(Simulator& sim, ShardId shard)
    : prev_sim_(const_cast<Simulator*>(g_ctx.sim)), prev_shard_(g_ctx.shard) {
  shard = sim.home(shard);
  if (shard < sim.shard_count()) g_ctx = ExecCtx{&sim, shard};
}

ShardGuard::~ShardGuard() { g_ctx = ExecCtx{prev_sim_, prev_shard_}; }

void Timer::schedule_after(SimDuration delay, std::function<void()> fn) {
  sim_->cancel_timer(*state_);
  const std::uint64_t gen = ++state_->generation;
  state_->pending = true;
  state_->fn = std::move(fn);
  deadline_ = sim_->now() + delay;
  sim_->at_timer(deadline_, state_, gen);
}

void Timer::rearm(SimDuration delay) {
  assert(state_->fn && "rearm() requires a prior schedule_after()");
  sim_->cancel_timer(*state_);
  const std::uint64_t gen = ++state_->generation;
  state_->pending = true;
  deadline_ = sim_->now() + delay;
  sim_->at_timer(deadline_, state_, gen);
}

void Timer::cancel() { sim_->cancel_timer(*state_); }

void PeriodicTimer::start(SimDuration initial_delay) {
  timer_.schedule_after(initial_delay >= 0 ? initial_delay : period_,
                        [this] { tick(); });
}

void PeriodicTimer::tick() {
  // Re-arm first: fn_ may call stop(), which must win over the re-arm.
  // The rearm reuses the stored [this]{tick();} closure — no allocation.
  timer_.rearm(period_);
  fn_();
}

}  // namespace portland::sim
