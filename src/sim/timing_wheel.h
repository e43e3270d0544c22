// Hierarchical timing wheel: the simulator's O(1) event queue (Varghese &
// Lauck, SOSP '87).
//
// Four cascading levels of 256 buckets index absolute nanosecond times by
// successive 8-bit digits: level 0 resolves single nanoseconds across a
// 256 ns page, level 1 spans ~65 us, level 2 ~16.8 ms, level 3 ~4.29 s.
// An event lives at the lowest level whose page (the time's digits above
// that level) matches the wheel cursor; anything farther than the level-3
// horizon parks in an overflow vector until the cursor catches up.
//
// Buckets are intrusive doubly-linked lists over a free-listed node pool,
// so insert, true cancel (`erase`), and re-arm are all O(1) pointer
// splices — no sifting, no tombstones riding the queue to their deadline.
// Occupancy bitmaps (one bit per bucket) make "find the next non-empty
// bucket" a handful of word scans, so a sparse wheel never ticks through
// empty slots.
//
// Determinism contract: events fire in exact (time, seq) order, as from a
// priority queue. A level-0 bucket holds exactly one
// timestamp, but its list order is arbitrary (cascades push-front), so the
// due bucket is staged and sorted by seq before dispatch — events
// scheduled for the staged instant while it drains append behind the
// staged ones, which is correct because their seq is larger than anything
// already staged. Cascading relocates nodes without touching times or
// seqs, so a wheel run dispatches the identical sequence a (time, seq)
// priority queue would.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.h"

namespace portland::sim {

class TimingWheel {
 public:
  /// Sentinel for node handles and payload slots.
  static constexpr std::uint32_t kNilIndex = 0xFFFFFFFFu;
  /// Returned by peek() when the wheel holds nothing.
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  struct PopResult {
    SimTime time = 0;
    std::uint32_t payload = kNilIndex;
    /// The node's tie-break rank, echoed back so a checkpoint's
    /// drain-and-rebuild walk can re-insert at the identical (time, seq).
    std::uint64_t seq = 0;
    /// False for a node cancelled while staged: its payload was already
    /// released by erase(); the caller just discards it.
    bool live = false;
  };

  /// Lifetime activity counters (monotonic; metrics snapshots read them).
  struct Stats {
    std::uint64_t inserts = 0;
    std::uint64_t erases = 0;
    std::uint64_t pops = 0;
    /// Nodes relocated to a lower level when the cursor crossed a digit.
    std::uint64_t cascaded_nodes = 0;
    /// Overflow-parked nodes re-placed onto the wheel.
    std::uint64_t overflow_rehomed = 0;

    /// Each counter once, in engine-image order: fn(metric name, member).
    template <typename Fn>
    static void walk(Fn&& fn) {
      fn("wheel_inserts", &Stats::inserts);
      fn("wheel_erases", &Stats::erases);
      fn("wheel_pops", &Stats::pops);
      fn("wheel_cascaded", &Stats::cascaded_nodes);
      fn("wheel_overflow_rehomed", &Stats::overflow_rehomed);
    }
  };

  TimingWheel();

  /// Schedules payload slot `payload` at time `t` (>= the wheel cursor,
  /// i.e. the last popped instant) with tie-break rank `seq`. Returns an
  /// opaque node handle usable with erase() until the node pops.
  std::uint32_t insert(SimTime t, std::uint64_t seq, std::uint32_t payload);

  /// True cancellation: unlinks the node in O(1) and returns its payload
  /// slot for the caller to release. The handle must be live (insert()ed
  /// and neither popped nor erased). A node that is mid-dispatch (staged)
  /// is marked dead instead; its later pop reports live == false.
  std::uint32_t erase(std::uint32_t handle);

  /// Earliest pending event time, or kNoEvent. Never advances the cursor,
  /// so events may still be scheduled between now and the returned time.
  [[nodiscard]] SimTime peek();

  /// Removes and returns the earliest node in (time, seq) order.
  /// Requires has_events().
  PopResult pop();

  /// Pre-sizes the node pool.
  void reserve(std::size_t capacity);

  /// Empties the wheel (all nodes freed, payloads abandoned) and re-anchors
  /// the cursor at `cursor`: afterwards any time >= `cursor` is insertable.
  /// Used by checkpoint restore, which rebuilds the event population from
  /// an image; counters in stats() are preserved.
  void reset(SimTime cursor);

  /// Overwrites the lifetime counters (checkpoint restore: a save's
  /// drain-and-rebuild walk must not look like real scheduler activity).
  void restore_stats(const Stats& s) { stats_ = s; }

  /// True while any node (including cancelled-while-staged residue that
  /// pop() has not yet discarded) remains.
  [[nodiscard]] bool has_events() const { return size_ != 0; }
  [[nodiscard]] std::size_t node_count() const { return size_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kWords = kSlots / 64;

  /// Node location tags beyond the wheel levels 0..3.
  enum : std::uint8_t {
    kOverflow = 4,    // parked past the level-3 horizon
    kStaged = 5,      // in the sorted due-bucket awaiting dispatch
    kDeadStaged = 6,  // erased while staged; pop() discards it
    kFree = 7,
  };

  struct Node {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t payload = kNilIndex;
    /// Previous node in the bucket list; doubles as the position in
    /// `overflow_` while parked there.
    std::uint32_t prev = kNilIndex;
    /// Next node in the bucket list; doubles as the free-list link.
    std::uint32_t next = kNilIndex;
    std::uint8_t where = kFree;  // level 0..3 or a tag above
    std::uint8_t slot = 0;       // bucket index while on a level
  };

  /// Lowest level whose page contains `t` given the cursor, or kOverflow.
  [[nodiscard]] int level_for(SimTime t) const {
    const std::uint64_t x =
        static_cast<std::uint64_t>(t) ^ static_cast<std::uint64_t>(cursor_);
    if ((x >> kSlotBits) == 0) return 0;
    if ((x >> (2 * kSlotBits)) == 0) return 1;
    if ((x >> (3 * kSlotBits)) == 0) return 2;
    if ((x >> (4 * kSlotBits)) == 0) return 3;
    return kOverflow;
  }

  std::uint32_t alloc_node();
  void free_node(std::uint32_t n);
  void place(std::uint32_t n);
  void link(std::uint32_t n, int level, int slot);
  void unlink(std::uint32_t n);
  void remove_from_overflow(std::uint32_t n);
  [[nodiscard]] int find_occupied(int level, int from) const;
  [[nodiscard]] SimTime scan_earliest() const;
  void advance_to(SimTime t);
  void cascade(int level, int slot);
  void rehome_overflow();
  void stage_due_bucket(SimTime t);

  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kNilIndex;
  std::array<std::array<std::uint32_t, kSlots>, kLevels> heads_;
  std::array<std::array<std::uint64_t, kWords>, kLevels> occ_{};
  std::vector<std::uint32_t> overflow_;
  /// The due bucket, sorted by seq; drained from due_pos_.
  std::vector<std::uint32_t> staging_;
  std::size_t due_pos_ = 0;
  SimTime due_time_ = 0;
  /// Last popped instant: nothing earlier can still be scheduled, and all
  /// level pages are anchored to it.
  SimTime cursor_ = 0;
  std::size_t size_ = 0;
  SimTime cached_earliest_ = 0;
  bool cache_valid_ = false;
  Stats stats_;
};

}  // namespace portland::sim
