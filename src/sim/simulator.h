// Deterministic discrete-event simulation engine — one windowed loop.
//
// A `Simulator` owns the virtual clock and a time-ordered event queue.
// Events scheduled for the same instant fire in insertion order, which —
// together with seeded RNG — makes every run exactly reproducible.
//
// The queue is a hierarchical timing wheel (see timing_wheel.h). Four
// cascading 256-bucket levels index times by successive 8-bit digits (ns
// pages of 256 ns / ~65 us / ~16.8 ms / ~4.29 s spans); far-future events
// park in a sorted-on-demand overflow. Schedule, timer re-arm, and true
// cancellation are all O(1) intrusive-list splices. Determinism rules:
// same-instant events fire in exact (time, seq) order — the due bucket is
// staged and sorted by seq before dispatch — and cascading relocates nodes
// without touching times or seqs, so `run_until` boundaries and the full
// dispatch sequence are those of a (time, seq)-ordered priority queue.
//
// The callback payloads live in a stable, free-listed slot pool beside the
// wheel — cascading never moves a closure. A slot is a tagged union of the
// four things the queue holds: a `SmallFn` closure (a move-only callable
// with inline storage sized for the fabric's event lambdas, so scheduling
// one performs no heap allocation at steady state), a timer shot, a train
// anchor, or a `Delivery`.
//
// The engine is a conservative parallel discrete-event simulator with one
// run loop. It is constructed with one shard; `configure_shards` splits it
// once (fat-tree pods; cores + fabric manager share a shard), and each
// shard owns its own event queue, slot pool and seq counter. Shards
// advance in conservative windows: every shard may run to the earliest
// queued event plus the minimum cross-shard link latency (the lookahead),
// and the shard holding that earliest event may run further, to the
// second-earliest shard's event plus the lookahead (adaptive lookahead,
// see parallel_run). Within a window shards run independently on a worker
// pool (`set_workers`).
//
// Work crosses shards one way only: `post` a `Delivery` — a link frame or
// a control message — to the destination shard. Closures (`at`) and timer
// shots land on the calling shard (from outside any shard, in the barrier
// queue). A delivery posted mid-window to
// another shard parks as one `Mail` record in the per-(src,dst) mailbox;
// the barrier merges mailboxes in a canonical (time, src-shard,
// push-order) order and hands each record to the same local delivery a
// same-shard post takes. Because mailbox merge order — not thread
// completion order — assigns sequence numbers, an N-worker run schedules
// exactly the same event sequence as a 1-worker run. That local delivery
// is also the one place a frame joins its link direction's train or, when
// the train declines it, becomes a data event of its own.
//
// A one-shard engine (the default) follows two rules. The calling thread
// outside a window executes as shard 0, so `at()` calls and timer arms
// made between runs are ordinary shard-0 events rather than barrier
// tasks; and every device shard id folds to shard 0. Its windows run from one barrier task
// (or run_until limit) to the next, so it dispatches exactly the
// (time, seq) stream of a plain serial event loop.
//
// `Timer` and `PeriodicTimer` are cancellable wrappers used throughout the
// protocol implementations (LDP keepalives, ARP retries, TCP RTO, ...).
// Timers store their callback once in shared `TimerCore` state; re-arming
// an already-programmed timer (`Timer::rearm`, used by every periodic
// tick) enqueues a plain {state, generation} record and performs no
// closure allocation — at scale, LDP keepalives dominate the event count,
// so the rearm path is the event queue's hot path. Cancelling (or
// re-arming) a pending shot erases it from the queue immediately and
// releases its payload slot and `TimerCore` reference, so a cancelled
// long-deadline timer pins no memory until its dead deadline. (Only a
// cross-shard cancel from inside a foreign worker's window — which no
// device does — falls back to generation tombstoning, and such a stale
// shot decays as a silent, uncounted no-op at its deadline.)
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/units.h"
#include "sim/frame.h"
#include "sim/timing_wheel.h"

namespace portland::obs {
class EngineTracer;
}  // namespace portland::obs

namespace portland::sim {

struct Train;
class SnapshotWriter;
class SnapshotReader;
class SnapshotIo;

/// Identifies an event shard. Devices created before `configure_shards`
/// live on shard 0; on a one-shard engine every id folds to shard 0.
using ShardId = std::uint32_t;

/// "Not executing on any shard" — scheduling from this context on a
/// multi-shard engine lands in the globally-serialized barrier task queue.
constexpr ShardId kNoShard = 0xFFFFFFFFu;

/// Move-only type-erased callable with inline storage. Captures up to
/// kInlineSize bytes live inside the object (no allocation); larger
/// closures fall back to the heap transparently. This is what the event
/// queue stores, so `sim.at(...)` with an ordinary forwarding-path lambda
/// never allocates.
class SmallFn {
 public:
  /// Sized to fit the largest per-frame lambda (link delivery: link,
  /// side, epoch, receiver, port, and a shared frame pointer).
  static constexpr std::size_t kInlineSize = 64;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cv_t<std::remove_reference_t<F>>,
                                SmallFn> &&
                std::is_invocable_v<std::remove_reference_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cv_t<std::remove_reference_t<F>>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      new (buf_) Fn(std::forward<F>(f));
      vtable_ = &kInlineVTable<Fn>;
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      vtable_ = &kBoxedVTable<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  explicit operator bool() const { return vtable_ != nullptr; }
  void operator()() { vtable_->call(buf_); }

 private:
  struct VTable {
    void (*call)(void*);
    void (*destroy)(void*);
    /// Move-construct the payload at `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src);
  };

  template <typename Fn>
  static constexpr VTable kInlineVTable{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
  };
  template <typename Fn>
  static constexpr VTable kBoxedVTable{
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* p) { delete *static_cast<Fn**>(p); },
      [](void* dst, void* src) {
        *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
      },
  };

  void move_from(SmallFn& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(buf_, other.buf_);
      other.vtable_ = nullptr;
    }
  }
  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(buf_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize]{};
  const VTable* vtable_ = nullptr;
};

/// Implemented by components whose scheduled deliveries must survive
/// checkpointing. A *data event* is the serializable alternative to a
/// SmallFn closure: the queue stores (owner, kind, arg, frame, bytes) and
/// dispatch calls `execute_data_event` — so a snapshot can write the
/// event as plain data and a restore can rebuild it, provided the owner
/// was registered (register_data_owner) in the same deterministic
/// construction order in both processes. `kind` and `arg` are
/// owner-defined (Link: side + epoch; ControlPlane: destination id).
struct DataEventOwner {
  virtual ~DataEventOwner() = default;
  virtual void execute_data_event(std::uint32_t kind, std::uint64_t arg,
                                  const FramePtr& frame,
                                  const FrameBytes& bytes) = 0;
};

/// One frame or control message on its way to a shard (Simulator::post).
/// It becomes a data event: at its time the engine calls
/// `owner->execute_data_event(kind, arg, frame, bytes)`. A link sets
/// `train` to its direction's train (whose Link is `owner`, `kind` the
/// sending side and `arg` the epoch); the engine then appends the frame
/// to the train instead, unless the arrival is not strictly later than
/// the train's last entry.
struct Delivery {
  DataEventOwner* owner = nullptr;
  std::uint32_t kind = 0;
  std::uint64_t arg = 0;
  FramePtr frame{};
  FrameBytes bytes{};
  Train* train = nullptr;
};

/// Shared state behind a Timer. Events reference the core, never the
/// Timer object, so destroying an armed Timer is safe. The callback lives
/// here so a rearm does not rebuild it. `shard`/`handle` locate the
/// pending shot inside the scheduler (its wheel node) so cancel/rearm can
/// erase it in O(1); handle != kNilHandle if and only if that exact shot
/// is still queued.
struct TimerCore {
  static constexpr std::uint32_t kNilHandle = 0xFFFFFFFFu;

  std::uint64_t generation = 0;
  bool pending = false;
  ShardId shard = kNoShard;
  std::uint32_t handle = kNilHandle;
  /// Sequence number of the pending shot (recorded alongside `handle`).
  /// A checkpoint saves it so a restore can re-insert the shot at the
  /// exact (time, seq) rank it held, preserving same-instant tie order.
  std::uint64_t seq = 0;
  std::function<void()> fn;
};

class Simulator {
 public:
  struct Options {
    /// Pooled-window threshold for the worker pool: a window is handed
    /// to the pool only when the recent events-per-window average
    /// reaches this value *and* the machine has >1 hardware core;
    /// otherwise the calling thread runs it inline, skipping two
    /// condvar round-trips. 0 = always use the pool (TSan suites use
    /// this to keep exercising the cross-thread path). Inline and
    /// pooled windows execute the identical schedule.
    std::uint32_t parallel_min_events = 128;
  };

  Simulator();
  explicit Simulator(Options options);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. From inside an event this is the executing
  /// shard's clock; between windows it is the global clock (shard 0's
  /// clock on a one-shard engine).
  [[nodiscard]] SimTime now() const;

  /// Schedules `fn` at absolute time `t` (>= now). The event lands on the
  /// calling context's shard; on a multi-shard engine, calls from outside
  /// any shard (the main thread between runs, cross-cutting controllers)
  /// land in the barrier task queue, which runs globally serialized
  /// between windows.
  void at(SimTime t, SmallFn fn);

  /// Schedules `fn` after `delay` (>= 0).
  void after(SimDuration delay, SmallFn fn);

  /// Schedules a timer shot: at `t`, run `core->fn` if the core is still
  /// pending at `generation`. Allocation-free except for queue growth.
  void at_timer(SimTime t, std::shared_ptr<TimerCore> core,
                std::uint64_t generation);

  /// Erases `core`'s pending shot from the queue (O(1)), releasing its
  /// payload slot and TimerCore reference immediately, and bumps the
  /// generation so any unreachable stale shot decays as a no-op. Safe to
  /// call with nothing pending. Used by Timer::cancel/rearm/schedule_after.
  void cancel_timer(TimerCore& core);

  /// Schedules `fn` in the globally-serialized barrier task queue (runs
  /// between windows, before shard events at the same instant). Used for
  /// cross-cutting mutations. A task ties ahead of every shard event at
  /// the same instant, at every shard count.
  void at_barrier(SimTime t, SmallFn fn);

  /// Registers a data-event owner and returns its stable id. Ids are
  /// assigned by call order, so two processes that construct the same
  /// fabric register the same owners under the same ids — the property
  /// snapshot restore relies on to resolve serialized events.
  std::uint32_t register_data_owner(DataEventOwner* owner);

  /// Delivers `d` on shard `dst` at `t` — the one way work crosses
  /// shards. A same-shard or quiescent post is delivered at once; a
  /// mid-window cross-shard post parks in the (src,dst) mailbox and is
  /// delivered at the barrier, in canonical order. Delivering joins
  /// `d.train` when the arrival is strictly later than its last entry
  /// (the entry consumes the exact seq the data event would have) and
  /// otherwise schedules `d` as a serializable data event. An unhinted
  /// destination (dst == kNoShard on a multi-shard engine) runs `d` as a
  /// barrier task instead, which is NOT serializable.
  void post(ShardId dst, SimTime t, Delivery d);

  // --- checkpoint/restore (implemented in sim/snapshot.cc) ---------------

  /// Serializes the engine: global clocks/counters, per-shard scalars,
  /// and every pending event. Must be called at quiescence (between
  /// run_until calls, no window executing). Timer shots and
  /// train anchors are written as per-shard census counts only — their
  /// contents are saved by their owning Timer / Link — while data events
  /// are written in full. Returns false (with `error`) if the queue holds
  /// unserializable state: a pending barrier task, unmerged mailbox
  /// entries, or an opaque SmallFn event. The walk only reads each
  /// shard's wheel, so the running engine is untouched.
  bool save_engine(SnapshotWriter& w, std::string* error);

  /// Empties every shard queue in preparation for a restore, visiting
  /// each live wheel node where it sits (no pops, no cascades): timer
  /// shots are neutralized on their cores (so later cancels cannot touch
  /// freed nodes), trains are unscheduled and emptied, all payload slots
  /// are released, and the barrier queue is cleared. Clocks and counters
  /// are left for restore_engine and finish_restore to overwrite.
  void snapshot_clear();

  /// Restores engine scalars and data events from `r` (the scalars by the
  /// same walk save_engine writes them with, the data events by hand).
  /// Must run on a snapshot_clear'ed engine whose shard count matches the
  /// image. Timer shots and train anchors are re-inserted afterwards by
  /// component restores via restore_timer_at / restore_train_anchor;
  /// finish_restore then validates the census.
  bool restore_engine(SnapshotReader& r, std::string* error);

  /// Re-inserts a pending timer shot at its exact saved (time, seq) and
  /// records the new scheduler handle on `core`. Counted against the
  /// image's per-shard timer census.
  void restore_timer_at(ShardId shard, SimTime t, std::uint64_t seq,
                        std::shared_ptr<TimerCore> core,
                        std::uint64_t generation);

  /// Re-anchors a restored (non-empty) train in shard `shard`'s scheduler
  /// at its front entry's (time, seq). Counted against the image's
  /// per-shard train census.
  void restore_train_anchor(ShardId shard, Train& tr);

  /// Validates the restore against the image's census (timer/train/live
  /// counts per shard) and applies the image's shard counters and wheel
  /// stats, which the re-insertions would otherwise perturb.
  bool finish_restore(std::string* error);

  /// `workers = auto` policy, kept pure and static so tests can pin it:
  /// a box with fewer than two hardware cores — or a fabric with fewer
  /// than two shards — gains nothing from windowed execution, so resolve
  /// to 0 (one shard, run on the calling thread); otherwise one worker
  /// per shard, capped at the core count. On a multicore box the engine
  /// still guards the downside at runtime: sparse windows run inline on
  /// the calling thread (Options::parallel_min_events), so parallel never
  /// loses to serial by more than the window bookkeeping.
  [[nodiscard]] static unsigned resolve_auto_workers(unsigned hw_cores,
                                                     std::size_t shard_count);

  /// Splits the one-shard engine, once, into `count` shards with the
  /// given conservative lookahead (must be >= 1 ns: the minimum
  /// cross-shard link latency). Must be called while the queue holds no
  /// cross-shard state; existing events stay on shard 0.
  void configure_shards(std::size_t count, SimDuration lookahead);

  /// Number of worker threads (>= 1). 1 executes all shards on the calling
  /// thread — still windowed, still bit-identical to any other worker
  /// count. A one-shard engine never starts a pool.
  void set_workers(unsigned n);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] unsigned workers() const { return workers_; }
  [[nodiscard]] SimDuration lookahead() const { return lookahead_; }

  /// Runs until the queue is empty.
  void run();

  /// Runs all events with time <= `t`, then sets the clock to `t`.
  void run_until(SimTime t);

  /// Live (non-cancelled) scheduled events. A cancelled timer's shot
  /// leaves this count the moment it is cancelled, not at its deadline,
  /// unless it was cancelled from inside another shard's window: that
  /// tombstone stays counted until it decays at its deadline (a snapshot
  /// image leaves it out).
  [[nodiscard]] std::size_t pending_events() const;
  [[nodiscard]] std::uint64_t executed_events() const {
    return barrier_executed_ + shard_sums().executed;
  }

  // --- observability (passive; never alters the event schedule) ----------

  /// Attaches a wall-clock profiling tracer (nullptr detaches) between
  /// runs. The tracer receives a window span per window and a dispatch
  /// span per shard slice of it; the loop reads the wall clock only while
  /// one is attached, and never changes what it dispatches.
  void set_tracer(obs::EngineTracer* tracer) { tracer_ = tracer; }

  /// Lookahead windows completed by parallel_run.
  [[nodiscard]] std::uint64_t windows_executed() const {
    return windows_executed_;
  }
  /// Cross-shard mailbox entries merged at window barriers.
  [[nodiscard]] std::uint64_t mail_merged() const { return mail_merged_; }
  /// Globally-serialized barrier tasks run.
  [[nodiscard]] std::uint64_t barrier_tasks_executed() const {
    return barrier_executed_;
  }
  /// Events dispatched by one shard.
  [[nodiscard]] std::uint64_t shard_executed(ShardId shard) const {
    return shards_[shard]->executed;
  }
  /// Timing-wheel activity aggregated over all shards.
  [[nodiscard]] TimingWheel::Stats wheel_stats() const;

  // Per-shard counters summed over shards (see ShardCounters).
  [[nodiscard]] std::uint64_t trains_popped() const {
    return shard_sums().trains_popped;
  }
  [[nodiscard]] std::uint64_t train_frames() const {
    return shard_sums().train_frames;
  }
  [[nodiscard]] std::uint64_t train_repushes() const {
    return shard_sums().train_repushes;
  }
  [[nodiscard]] std::uint64_t nodes_pushed() const {
    return shard_sums().nodes_pushed;
  }
  /// Windows the calling thread ran inline while a worker pool existed
  /// (the sparse-window fallback that keeps parallel >= serial).
  [[nodiscard]] std::uint64_t windows_inline() const {
    return windows_inline_;
  }
  /// Windows in which adaptive lookahead widened the earliest shard's
  /// end past the fixed-lookahead bound.
  [[nodiscard]] std::uint64_t windows_widened() const {
    return windows_widened_;
  }
  /// Narrowest / widest adaptive window observed (end of the earliest
  /// shard's window minus the window-start minimum event time). The
  /// minimum never drops below the configured lookahead: a sudden
  /// cross-shard burst shrinks windows *to* the conservative bound, not
  /// through it.
  [[nodiscard]] SimDuration window_width_min() const {
    return window_width_min_;
  }
  [[nodiscard]] SimDuration window_width_max() const {
    return window_width_max_;
  }

  /// Every engine counter as fn(metric name, value), in the order metrics
  /// render them: the engine-wide counters, the per-shard ones summed
  /// over shards (`executed` also counts barrier tasks) and the timing
  /// wheel's.
  template <typename Fn>
  void counters(Fn&& fn) const {
    const ShardCounters sums = shard_sums();
    fn("executed", executed_events());
    fn("windows", windows_executed_);
    fn("mail_merged", mail_merged_);
    fn("barrier_tasks", barrier_executed_);
    fn("pending", std::uint64_t{pending_events()});
    ShardCounters::walk([&](const char* name, auto field) {
      if (field != &ShardCounters::executed) fn(name, sums.*field);
    });
    fn("windows_inline", windows_inline_);
    fn("windows_widened", windows_widened_);
    const TimingWheel::Stats wheel = wheel_stats();
    TimingWheel::Stats::walk(
        [&](const char* name, auto field) { fn(name, wheel.*field); });
  }

 private:
  friend class ShardGuard;

  /// The counters each shard's worker bumps for its own shard. `walk`
  /// lists each once, in engine-image order: fn(metric name, member).
  struct ShardCounters {
    /// Events dispatched by this shard.
    std::uint64_t executed = 0;
    /// Train nodes popped from the scheduler (each covers >= 1 frame).
    std::uint64_t trains_popped = 0;
    /// Frames delivered through trains.
    std::uint64_t train_frames = 0;
    /// Train nodes re-pushed mid-batch (tie with another event or window
    /// boundary).
    std::uint64_t train_repushes = 0;
    /// Scheduler node insertions — the denominator of the E18 events/frame
    /// metric. Trains push one node per run of frames instead of one per
    /// frame, so this divided by delivered frames drops below 1 when
    /// trains form.
    std::uint64_t nodes_pushed = 0;

    template <typename Fn>
    static void walk(Fn&& fn) {
      fn("executed", &ShardCounters::executed);
      fn("trains_popped", &ShardCounters::trains_popped);
      fn("train_frames", &ShardCounters::train_frames);
      fn("train_repushes", &ShardCounters::train_repushes);
      fn("nodes_pushed", &ShardCounters::nodes_pushed);
    }
  };
  [[nodiscard]] ShardCounters shard_sums() const;

  /// A timer shot: fires `core` at dispatch if it is still at
  /// `generation`.
  struct TimerShot {
    std::shared_ptr<TimerCore> core;
    std::uint64_t generation = 0;
  };

  /// One queued event: a closure, a timer shot, a train anchor (the slot
  /// holds the train's scheduler presence; its frames live in the train's
  /// own ring) or a data event. A free slot is empty (monostate), so it
  /// pins no closure, timer core or frame.
  using EventSlot =
      std::variant<std::monostate, SmallFn, TimerShot, Train*, Delivery>;

  /// A cross-shard delivery parked until the next window barrier.
  struct Mail {
    SimTime time;
    Delivery delivery;
  };

  /// Everything one shard touches while executing a window, padded so
  /// neighboring shards never share a cache line.
  struct alignas(64) Shard : ShardCounters {
    TimingWheel wheel;
    std::vector<EventSlot> slots;
    std::vector<std::uint32_t> free_slots;
    std::uint64_t next_seq = 0;
    /// Live (non-cancelled) events currently queued here. Each pending
    /// train entry counts as one, exactly like a single-frame event.
    std::size_t live = 0;
    SimTime now = 0;
    /// outbox[dst]: mail pushed during the current window, merged at the
    /// barrier in (time, src, push-order) order.
    std::vector<std::vector<Mail>> outbox;
    /// Echo cap — earliest cross-shard mail arrival this shard has pushed
    /// during the current window, plus the configured lookahead. Any reply
    /// chain seeded by that mail needs at least one more link hop to come
    /// back, so it cannot re-enter this shard before the cap; a widened
    /// (adaptive-lookahead) window must therefore never execute past it.
    /// Reset to "never" at every window start; updated only by this
    /// shard's own worker, so it is unsynchronized by construction.
    SimTime send_cap = std::numeric_limits<SimTime>::max();
  };

  /// Globally-serialized task run between windows (link failures,
  /// migration rewiring, test harness pokes).
  struct BarrierTask {
    SimTime time;
    std::uint64_t seq;
    SmallFn fn;
  };
  /// Heap comparator: std::push_heap builds a max-heap, so "later first"
  /// puts the earliest (time, seq) task at the front.
  struct TaskLater {
    bool operator()(const BarrierTask& a, const BarrierTask& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Scratch record for the barrier merge sort: identifies one Mail by
  /// (source shard, push index) so the sort never moves payloads.
  struct MailRef {
    SimTime time;
    std::uint32_t src;
    std::uint32_t idx;
  };

  [[nodiscard]] static std::uint32_t acquire_slot(Shard& sh);
  /// Empties slot `slot` and returns it to the free list.
  static void release_slot(Shard& sh, std::uint32_t slot);
  /// Pushes payload slot `slot` at (t, next seq) into the shard's wheel;
  /// returns the cancellation handle (the wheel node index).
  std::uint32_t push_node(Shard& sh, SimTime t, std::uint32_t slot);
  /// Same, but at an explicit already-consumed sequence number (train
  /// nodes re-entering the queue keep their front entry's seq).
  std::uint32_t push_node_at(Shard& sh, SimTime t, std::uint64_t seq,
                             std::uint32_t slot);
  void schedule_local(Shard& sh, SimTime t, SmallFn fn);
  void schedule_timer_local(Shard& sh, ShardId id, SimTime t,
                            std::shared_ptr<TimerCore> core,
                            std::uint64_t generation);
  /// Delivers `d` on shard `sh` (see post): appends it to its train,
  /// anchoring the train in the scheduler if it is not already, or
  /// schedules it as a data event. Either way it consumes the next seq.
  void deliver_local(Shard& sh, SimTime t, Delivery&& d);
  /// The shard the calling thread is executing for *this* simulator; a
  /// one-shard engine always answers shard 0.
  [[nodiscard]] ShardId context_shard() const;
  /// Device shard ids fold to shard 0 on a one-shard engine.
  [[nodiscard]] ShardId home(ShardId shard) const {
    return shards_.size() == 1 ? 0 : shard;
  }
  static void fire_timer(TimerCore& core, std::uint64_t generation);
  /// Earliest live event time in this shard, or kNoEvent.
  [[nodiscard]] SimTime peek_time(Shard& sh) { return sh.wheel.peek(); }
  /// Dispatches the earliest event. `bound` is the exclusive horizon for
  /// *additional* train deliveries piggybacking on this dispatch (the
  /// window end); the first delivery of a popped node is always due by
  /// construction.
  void dispatch_one(Shard& sh, SimTime bound);

  void parallel_run(SimTime limit);
  void run_shard_window(Shard& sh, ShardId id, SimTime end);
  /// Runs one window with per-shard ends in `window_ends_`, either on
  /// the worker pool or inline on the calling thread (see
  /// Options::parallel_min_events).
  void execute_window();
  void merge_mailboxes();
  void run_due_barrier_tasks(SimTime bound);
  /// Runs windows until quit_; `seen_gen` is the window generation the
  /// worker was spawned at.
  void worker_loop(unsigned worker_index, std::uint64_t seen_gen);
  void spawn_workers();
  void join_workers();

  [[nodiscard]] SimTime earliest_shard_event();
  [[nodiscard]] SimTime earliest_barrier_task() const;

  /// One shard's scalars as the engine image lays them out, walked by
  /// save and load alike (sim/snapshot.cc). A save fills it from the
  /// live shard; a load parks it until finish_restore.
  struct ShardImage {
    SimTime now = 0;
    std::uint64_t next_seq = 0;
    ShardCounters counters;
    std::uint64_t live = 0;
    TimingWheel::Stats wheel;
    std::uint32_t timers = 0;  // census: live timer shots
    std::uint32_t trains = 0;  // census: anchored trains
    void walk(SnapshotIo& io);
  };

  /// The engine image's header and global scalars, one walk for save and
  /// load. Returns the reason a load refuses the header, else nullptr.
  const char* snapshot_scalars(SnapshotIo& io);

  /// Bookkeeping alive between restore_engine and finish_restore: each
  /// shard's image scalars (census, counters and wheel stats, applied only
  /// after every component has re-inserted its events) and the counts
  /// actually re-inserted.
  struct RestorePending {
    bool active = false;
    std::vector<ShardImage> shards;
    std::vector<std::uint32_t> got_timers;
    std::vector<std::uint32_t> got_trains;
  };

  // --- Shards (one until configure_shards). -----------------------------
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint32_t parallel_min_events_ = 128;
  /// Hardware cores, cached once (hardware_concurrency may syscall).
  unsigned hw_cores_ = 1;
  SimDuration lookahead_ = 1;
  /// Global clock, meaningful when no shard context is active.
  SimTime global_now_ = 0;
  std::uint64_t barrier_executed_ = 0;
  std::uint64_t windows_executed_ = 0;
  std::uint64_t mail_merged_ = 0;
  std::uint64_t windows_inline_ = 0;
  std::uint64_t windows_widened_ = 0;
  SimDuration window_width_min_ = 0;
  SimDuration window_width_max_ = 0;
  /// Exponential moving average of events executed per window — the
  /// inline-vs-pooled predictor. Affects only *where* a window runs,
  /// never what it executes, so it is free to be a float.
  double window_events_ema_ = 0.0;
  std::uint64_t last_total_executed_ = 0;
  obs::EngineTracer* tracer_ = nullptr;

  // --- Data-event owner registry (construction-order ids). ---------------
  std::vector<DataEventOwner*> data_owners_;
  std::unordered_map<const DataEventOwner*, std::uint32_t> data_owner_ids_;
  RestorePending restore_pending_;

  // --- Barrier task queue (mutex-protected: any thread may schedule). ----
  mutable std::mutex barrier_mutex_;
  std::vector<BarrierTask> barrier_heap_;
  std::uint64_t barrier_seq_ = 0;
  std::vector<MailRef> merge_refs_;  // scratch, reused every barrier

  // --- Worker pool. ------------------------------------------------------
  unsigned workers_ = 1;
  std::vector<std::thread> threads_;
  std::mutex pool_mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t window_gen_ = 0;
  /// Per-shard window ends for the current window (adaptive lookahead
  /// gives the earliest shard a wider end than the rest). Written by the
  /// coordinating thread before the window starts; workers read it after
  /// the pool_mutex_ handshake.
  std::vector<SimTime> window_ends_;
  /// The window's fixed (non-widened) end — min1 + lookahead, clamped.
  /// Always causally safe, so per-shard echo caps never bind below it.
  SimTime window_floor_ = 0;
  unsigned active_workers_ = 0;
  bool in_window_ = false;
  bool quit_ = false;
};

/// RAII: runs the enclosed scope "as shard `shard` of `sim`" so that
/// device-scoped scheduling (timer arms in start(), gratuitous ARPs fired
/// from test code) lands on the owning shard instead of the barrier queue.
/// Nests; restores the previous context on destruction. On a one-shard
/// engine every id folds to shard 0.
class ShardGuard {
 public:
  ShardGuard(Simulator& sim, ShardId shard);
  ~ShardGuard();
  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

 private:
  Simulator* prev_sim_;
  ShardId prev_shard_;
};

/// One-shot cancellable timer. Re-scheduling cancels the previous shot.
/// Destroying an armed Timer cancels it safely and releases its queued
/// state immediately: the scheduled event holds the shared TimerCore,
/// never the Timer itself.
class Timer {
 public:
  explicit Timer(Simulator& sim)
      : sim_(&sim), state_(std::make_shared<TimerCore>()) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Schedules `fn` to run after `delay`, cancelling any pending shot.
  /// The callback is retained after it fires, so a later `rearm` reuses it.
  void schedule_after(SimDuration delay, std::function<void()> fn);

  /// Re-schedules the retained callback after `delay` without rebuilding
  /// it (no allocation). Any pending shot is erased in O(1) first.
  /// Requires a prior schedule_after on this timer.
  void rearm(SimDuration delay);

  /// Cancels the pending shot, if any, erasing it from the queue.
  void cancel();

  [[nodiscard]] bool pending() const { return state_->pending; }

  /// Absolute time of the pending shot (meaningful only when pending()).
  [[nodiscard]] SimTime deadline() const { return deadline_; }

  /// Checkpoint support (sim/snapshot.cc): walks the shot's {armed,
  /// shard, deadline, seq}. A load re-installs `fn` as the retained
  /// callback (closures do not serialize — the owner rebuilds its own;
  /// a save ignores it) and, if the image had a pending shot, re-inserts
  /// it at its exact saved rank via Simulator::restore_timer_at.
  void snapshot(SnapshotIo& io, std::function<void()> fn);

 private:
  Simulator* sim_;
  std::shared_ptr<TimerCore> state_;
  SimTime deadline_ = 0;
};

/// Fixed-period repeating timer. The callback runs every `period` from
/// `start()` until `stop()`; an optional initial delay offsets the phase.
/// Steady-state ticks re-arm through the allocation-free timer path.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, SimDuration period, std::function<void()> fn)
      : sim_(&sim), period_(period), fn_(std::move(fn)), timer_(sim) {}

  /// Starts ticking; first tick after `initial_delay` (default: one period).
  void start(SimDuration initial_delay = -1);
  void stop() { timer_.cancel(); }
  [[nodiscard]] bool running() const { return timer_.pending(); }
  [[nodiscard]] SimDuration period() const { return period_; }

  /// Checkpoint support: the periodic callback itself is owner state (it
  /// was supplied at construction in both processes), so only the inner
  /// timer's shot is walked. save_state/restore_state run the same walk
  /// for Snapshotable extras.
  void snapshot(SnapshotIo& io) {
    timer_.snapshot(io, [this] { tick(); });
  }
  void save_state(SnapshotWriter& w) const;
  void restore_state(SnapshotReader& r);

 private:
  void tick();

  Simulator* sim_;
  SimDuration period_;
  std::function<void()> fn_;
  Timer timer_;
};

}  // namespace portland::sim
