// Deterministic discrete-event simulation engine — classic and sharded.
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
// wheel — cascading never moves a closure. Callbacks are stored in
// `SmallFn`, a move-only callable with inline storage sized for the fabric's
// event lambdas, so scheduling an event performs no heap allocation at
// steady state.
//
// Sharded mode (`configure_shards` + `set_workers`) turns the engine into a
// conservative parallel discrete-event simulator: every device belongs to
// one shard (fat-tree pods; cores + fabric manager share a shard), each
// shard owns its own event queue, slot pool, seq counter, and RNG stream,
// and shards advance in conservative windows: every shard may run to the
// earliest queued event plus the minimum cross-shard link latency (the
// lookahead), and the shard holding that earliest event may run further, to
// the second-earliest shard's event plus the lookahead (adaptive lookahead,
// see parallel_run). Within a window shards run independently on a worker
// pool; cross-shard deliveries buffer into per-(src,dst) mailboxes that are
// merged at the window barrier in a canonical (time, src-shard, push-order)
// order. Because mailbox merge order — not thread completion order — assigns
// sequence numbers, an N-worker run schedules exactly the same event
// sequence as a 1-worker run. Classic (unsharded) mode is the default.
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

#include <atomic>
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
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "sim/frame.h"
#include "sim/timing_wheel.h"

namespace portland::obs {
class EngineTracer;
}  // namespace portland::obs

namespace portland::sim {

struct Train;
struct TrainEntry;
class SnapshotWriter;
class SnapshotReader;

/// Identifies an event shard. Devices created before `configure_shards`
/// (and everything in classic mode) live on shard 0.
using ShardId = std::uint32_t;

/// "Not executing on any shard" — scheduling from this context in sharded
/// mode lands in the globally-serialized barrier task queue.
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
    /// Burst/train execution: back-to-back frames on one link direction
    /// batch into a single scheduler node (see train.h). Bit-identical
    /// to per-frame scheduling — every entry carries the exact (time,
    /// seq) the classic path would have assigned — so this is on by
    /// default; off exists for A/B proofs and the E18 ablation.
    bool burst = true;
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

  /// Current virtual time. In sharded mode, from inside an event this is
  /// the executing shard's clock; between windows it is the global clock.
  [[nodiscard]] SimTime now() const;

  /// Schedules `fn` at absolute time `t` (>= now). In sharded mode the
  /// event lands on the calling context's shard; calls from outside any
  /// shard (the main thread between runs, cross-cutting controllers) land
  /// in the barrier task queue, which runs globally serialized between
  /// windows.
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

  /// Schedules `fn` at `t` on shard `dst`. During a parallel window a
  /// cross-shard send buffers into the (src,dst) mailbox and is merged at
  /// the barrier in canonical order; when quiescent it goes straight into
  /// the destination shard's queue. Same-shard calls behave like at().
  void at_shard(ShardId dst, SimTime t, SmallFn fn);

  /// Schedules `fn` in the globally-serialized barrier task queue (runs
  /// between windows, before shard events at the same instant). Used for
  /// cross-cutting mutations: link up/down, migration rewiring. In classic
  /// mode this is plain at().
  void at_barrier(SimTime t, SmallFn fn);

  /// Registers a data-event owner and returns its stable id. Ids are
  /// assigned by call order, so two processes that construct the same
  /// fabric register the same owners under the same ids — the property
  /// snapshot restore relies on to resolve serialized events.
  std::uint32_t register_data_owner(DataEventOwner* owner);

  /// Schedules a serializable *data event* on shard `dst` at `t`: at
  /// dispatch the engine calls `owner->execute_data_event(kind, arg,
  /// frame, bytes)`. Routing (same-shard direct / mid-window mailbox /
  /// quiescent direct / unhinted barrier) mirrors at_shard exactly, so a
  /// component can switch a closure-based delivery to this path without
  /// perturbing the schedule. Events scheduled via the unhinted barrier
  /// fallback (dst == kNoShard in sharded mode) are NOT serializable.
  void at_shard_data(ShardId dst, SimTime t, DataEventOwner* owner,
                     std::uint32_t kind, std::uint64_t arg, FramePtr frame,
                     FrameBytes bytes);

  // --- checkpoint/restore (implemented in sim/snapshot.cc) ---------------

  /// Serializes the engine: global clocks/counters, per-shard scalars and
  /// RNG streams, and every pending event. Must be called at quiescence
  /// (between run_until calls, no window executing). Timer shots and
  /// train anchors are written as per-shard census counts only — their
  /// contents are saved by their owning Timer / Link — while data events
  /// are written in full. Returns false (with `error`) if the queue holds
  /// unserializable state: a pending barrier task, unmerged mailbox
  /// entries, or an opaque SmallFn event. The walk drains and rebuilds
  /// each shard's wheel but leaves the running engine bit-identical.
  bool save_engine(SnapshotWriter& w, std::string* error);

  /// Drains every shard queue in preparation for a restore: timer shots
  /// are neutralized on their cores (so later cancels cannot touch freed
  /// nodes), trains are unscheduled and emptied, all payload slots are
  /// released, and the barrier queue is cleared. Clocks and counters are
  /// left for restore_engine to overwrite.
  void snapshot_clear();

  /// Restores engine scalars and data events from `r` (inverse of
  /// save_engine's direct writes). Must run on a snapshot_clear'ed engine
  /// whose shard count matches the image. Timer shots and train anchors
  /// are re-inserted afterwards by component restores via
  /// restore_timer_at / restore_train_anchor; finish_restore then
  /// validates the census.
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
  /// counts per shard) and applies the deferred scalar fixups
  /// (nodes_pushed, wheel stats) that the re-insertions perturbed.
  bool finish_restore(std::string* error);

  /// Burst path for link deliveries: appends one frame arrival to `tr`
  /// (a per-link-direction train) on shard `dst` at time `t`, consuming
  /// the exact sequence number a classic at_shard of the delivery would
  /// have consumed. Mid-window cross-shard appends park in the mailbox
  /// and join the train at the barrier, interleaved with plain mail in
  /// the same canonical (time, src, push-order) stream. Returns false
  /// when the append is declined (burst disabled or a non-monotonic
  /// arrival) — the caller must then schedule the delivery classically.
  bool train_append(ShardId dst, SimTime t, std::uint64_t epoch,
                    const FramePtr& frame, Train& tr);

  [[nodiscard]] bool burst_enabled() const { return burst_; }

  /// Re-tunes the pooled-window threshold (see Options::parallel_min_events)
  /// after construction. 0 forces every window through the worker pool.
  void set_parallel_threshold(std::uint32_t min_events) {
    parallel_min_events_ = min_events;
  }

  /// `workers = auto` policy, kept pure and static so tests can pin it:
  /// a box with fewer than two hardware cores — or a fabric with fewer
  /// than two shards — gains nothing from windowed execution, so resolve
  /// to 0 (the classic serial engine); otherwise one worker per shard,
  /// capped at the core count. On a multicore box the engine still
  /// guards the downside at runtime: sparse windows run inline on the
  /// calling thread (Options::parallel_min_events), so parallel never
  /// loses to serial by more than the window bookkeeping.
  [[nodiscard]] static unsigned resolve_auto_workers(unsigned hw_cores,
                                                     std::size_t shard_count);

  /// Splits the engine into `count` shards with the given conservative
  /// lookahead (must be >= 1 ns: the minimum cross-shard link latency) and
  /// per-shard RNG streams derived from `seed`. Must be called while the
  /// queue holds no cross-shard state; existing events stay on shard 0.
  void configure_shards(std::size_t count, SimDuration lookahead,
                        std::uint64_t seed);

  /// Number of worker threads for sharded runs (>= 1). 1 executes all
  /// shards on the calling thread — still windowed, still bit-identical
  /// to any other worker count. No-op in classic mode.
  void set_workers(unsigned n);

  [[nodiscard]] bool sharded() const { return configured_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] unsigned workers() const { return workers_; }
  [[nodiscard]] SimDuration lookahead() const { return lookahead_; }

  /// The shard the calling thread is currently executing on, or kNoShard.
  [[nodiscard]] static ShardId current_shard();

  /// Deterministic per-shard RNG stream (valid after configure_shards).
  [[nodiscard]] Rng& shard_rng(ShardId shard);

  /// Pre-sizes the event queue (amortizes growth for large fabrics).
  void reserve_events(std::size_t capacity);

  /// Runs until the queue is empty or `stop()` is called.
  void run();

  /// Runs all events with time <= `t`, then sets the clock to `t`.
  void run_until(SimTime t);

  /// Makes run()/run_until() return after the current event (classic) or
  /// at the next window boundary (sharded).
  void stop() { stopped_.store(true, std::memory_order_relaxed); }

  /// Live (non-cancelled) scheduled events. A cancelled timer's shot
  /// leaves this count the moment it is cancelled, not at its deadline.
  [[nodiscard]] std::size_t pending_events() const;
  [[nodiscard]] std::uint64_t executed_events() const;

  // --- observability (passive; never alters the event schedule) ----------

  /// Attaches a wall-clock profiling tracer (nullptr detaches). The
  /// tracer receives window/dispatch/shard spans; with it detached the
  /// dispatch loops are byte-for-byte the untraced originals.
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

  /// Train nodes popped from the schedulers (each covers >= 1 frame).
  [[nodiscard]] std::uint64_t trains_popped() const;
  /// Frames delivered through trains (burst path).
  [[nodiscard]] std::uint64_t train_frames() const;
  /// Train nodes re-pushed mid-batch (tie with another event, window
  /// boundary, or stop()).
  [[nodiscard]] std::uint64_t train_repushes() const;
  /// Scheduler node insertions across all shards — the denominator of
  /// the E18 events/frame metric. Burst mode pushes one node per train
  /// instead of one per frame, so this divided by delivered frames drops
  /// below 1 when trains form.
  [[nodiscard]] std::uint64_t nodes_pushed() const;
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

 private:
  friend class ShardGuard;

  /// One of four is set: a plain callback, a timer shot, a train node
  /// (the slot anchors the train's scheduler presence; the frames live in
  /// the train's own deque), or a data event (owner + kind/arg/frame/
  /// bytes — the serializable closure replacement).
  struct EventPayload {
    SmallFn fn;
    std::shared_ptr<TimerCore> timer;
    std::uint64_t timer_gen = 0;
    Train* train = nullptr;
    DataEventOwner* data_owner = nullptr;
    std::uint32_t data_kind = 0;
    std::uint64_t data_arg = 0;
    FramePtr data_frame;
    FrameBytes data_bytes;
  };

  /// A cross-shard event parked until the next window barrier: either a
  /// plain payload, or (train != nullptr) one frame arrival destined for
  /// a train on the receiving shard. Both kinds ride the same per-(src,
  /// dst) vector, so the canonical merge order interleaves them exactly
  /// as the classic per-frame path would have.
  struct Mail {
    SimTime time;
    EventPayload payload;
    Train* train = nullptr;
    std::uint64_t epoch = 0;
    FramePtr frame;
  };

  /// Everything one shard touches while executing a window, padded so
  /// neighboring shards never share a cache line.
  struct alignas(64) Shard {
    TimingWheel wheel;
    std::vector<EventPayload> slots;
    std::vector<std::uint32_t> free_slots;
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;
    /// Live (non-cancelled) events currently queued here. Each pending
    /// train entry counts as one, exactly like its classic equivalent.
    std::size_t live = 0;
    std::uint64_t trains_popped = 0;
    std::uint64_t train_frames = 0;
    std::uint64_t train_repushes = 0;
    std::uint64_t nodes_pushed = 0;
    SimTime now = 0;
    Rng rng{0};
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
  void release_slot(Shard& sh, std::uint32_t slot);
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
  void schedule_data_local(Shard& sh, SimTime t, DataEventOwner* owner,
                           std::uint32_t kind, std::uint64_t arg,
                           FramePtr frame, FrameBytes bytes);
  /// Appends one arrival to `tr` on shard `sh`, consuming the next seq,
  /// and anchors the train in the scheduler if it is not already.
  void train_append_local(Shard& sh, Train& tr, SimTime t,
                          std::uint64_t epoch, const FramePtr& frame);
  /// The shard the calling thread is executing for *this* simulator.
  [[nodiscard]] ShardId context_shard() const;
  static void fire_timer(TimerCore& core, std::uint64_t generation);
  /// Earliest live event time in this shard, or kNoEvent.
  [[nodiscard]] SimTime peek_time(Shard& sh) { return sh.wheel.peek(); }
  /// Dispatches the earliest event. `bound` is the exclusive horizon for
  /// *additional* train deliveries piggybacking on this dispatch (the
  /// window end, or limit + 1 in classic mode); the first delivery of a
  /// popped node is always due by construction.
  void dispatch_one(Shard& sh, SimTime bound);

  void classic_run(SimTime limit);
  void classic_run_traced(SimTime limit);
  void parallel_run(SimTime limit);
  void run_shard_window(Shard& sh, ShardId id, SimTime end);
  /// Runs one window with per-shard ends in `window_ends_`, either on
  /// the worker pool or inline on the calling thread (see
  /// Options::parallel_min_events).
  void execute_window();
  void merge_mailboxes();
  void run_due_barrier_tasks(SimTime bound);
  void worker_loop(unsigned worker_index);
  void spawn_workers();
  void join_workers();

  [[nodiscard]] SimTime earliest_shard_event();
  [[nodiscard]] SimTime earliest_barrier_task() const;

  /// Bookkeeping alive between restore_engine and finish_restore: the
  /// image's per-shard census, the counts actually re-inserted, and the
  /// scalar values (nodes_pushed, wheel stats) whose final application is
  /// deferred until every component has re-inserted its events.
  struct RestorePending {
    bool active = false;
    std::vector<std::uint32_t> expect_timers;
    std::vector<std::uint32_t> expect_trains;
    std::vector<std::uint32_t> got_timers;
    std::vector<std::uint32_t> got_trains;
    std::vector<std::uint64_t> expect_live;
    std::vector<std::uint64_t> nodes_pushed;
    std::vector<TimingWheel::Stats> wheel_stats;
  };

  // --- Shards. Classic mode is exactly shards_[0]. -----------------------
  std::vector<std::unique_ptr<Shard>> shards_;
  bool configured_ = false;
  bool burst_ = true;
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
  std::atomic<bool> stopped_{false};

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
/// Nests; restores the previous context on destruction. Cheap no-op wrapper
/// in classic mode.
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

  /// Checkpoint support (sim/snapshot.cc). save_state writes the shot's
  /// {armed, shard, deadline, seq}; restore_at re-installs `fn` as the
  /// retained callback (closures do not serialize — the owner rebuilds
  /// its own) and, if the image had a pending shot, re-inserts it at its
  /// exact saved rank via Simulator::restore_timer_at.
  void save_state(SnapshotWriter& w) const;
  void restore_at(SnapshotReader& r, std::function<void()> fn);

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
  /// timer's shot needs saving.
  void save_state(SnapshotWriter& w) const { timer_.save_state(w); }
  void restore_state(SnapshotReader& r) {
    timer_.restore_at(r, [this] { tick(); });
  }

 private:
  void tick();

  Simulator* sim_;
  SimDuration period_;
  std::function<void()> fn_;
  Timer timer_;
};

}  // namespace portland::sim
