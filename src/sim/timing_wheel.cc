#include "sim/timing_wheel.h"

#include <algorithm>
#include <bit>

namespace portland::sim {

TimingWheel::TimingWheel() {
  for (auto& level : heads_) level.fill(kNilIndex);
}

void TimingWheel::reserve(std::size_t capacity) { nodes_.reserve(capacity); }

void TimingWheel::reset(SimTime cursor) {
  nodes_.clear();
  free_head_ = kNilIndex;
  for (auto& level : heads_) level.fill(kNilIndex);
  for (auto& level : occ_) level.fill(0);
  overflow_.clear();
  staging_.clear();
  due_pos_ = 0;
  due_time_ = 0;
  cursor_ = cursor;
  size_ = 0;
  cache_valid_ = false;
}

std::uint32_t TimingWheel::alloc_node() {
  if (free_head_ != kNilIndex) {
    const std::uint32_t n = free_head_;
    free_head_ = nodes_[n].next;
    return n;
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void TimingWheel::free_node(std::uint32_t n) {
  Node& node = nodes_[n];
  node.where = kFree;
  node.payload = kNilIndex;
  node.next = free_head_;
  free_head_ = n;
}

void TimingWheel::link(std::uint32_t n, int level, int slot) {
  Node& node = nodes_[n];
  node.where = static_cast<std::uint8_t>(level);
  node.slot = static_cast<std::uint8_t>(slot);
  node.prev = kNilIndex;
  node.next = heads_[level][slot];
  if (node.next != kNilIndex) nodes_[node.next].prev = n;
  heads_[level][slot] = n;
  occ_[level][slot >> 6] |= 1ull << (slot & 63);
}

void TimingWheel::unlink(std::uint32_t n) {
  const Node& node = nodes_[n];
  const int level = node.where;
  const int slot = node.slot;
  if (node.prev != kNilIndex) {
    nodes_[node.prev].next = node.next;
  } else {
    heads_[level][slot] = node.next;
  }
  if (node.next != kNilIndex) nodes_[node.next].prev = node.prev;
  if (heads_[level][slot] == kNilIndex) {
    occ_[level][slot >> 6] &= ~(1ull << (slot & 63));
  }
}

void TimingWheel::remove_from_overflow(std::uint32_t n) {
  const std::uint32_t pos = nodes_[n].prev;
  const std::uint32_t last = overflow_.back();
  overflow_[pos] = last;
  nodes_[last].prev = pos;
  overflow_.pop_back();
}

void TimingWheel::place(std::uint32_t n) {
  Node& node = nodes_[n];
  const int level = level_for(node.time);
  if (level == kOverflow) {
    node.where = kOverflow;
    node.prev = static_cast<std::uint32_t>(overflow_.size());
    overflow_.push_back(n);
    return;
  }
  const int slot = static_cast<int>(
      (static_cast<std::uint64_t>(node.time) >> (kSlotBits * level)) &
      (kSlots - 1));
  link(n, level, slot);
}

std::uint32_t TimingWheel::insert(SimTime t, std::uint64_t seq,
                                  std::uint32_t payload) {
  assert(t >= cursor_);
  const std::uint32_t n = alloc_node();
  Node& node = nodes_[n];
  node.time = t;
  node.seq = seq;
  node.payload = payload;
  place(n);
  ++size_;
  ++stats_.inserts;
  if (cache_valid_ && t < cached_earliest_) cached_earliest_ = t;
  return n;
}

std::uint32_t TimingWheel::erase(std::uint32_t handle) {
  Node& node = nodes_[handle];
  assert(node.where != kFree && node.where != kDeadStaged);
  ++stats_.erases;
  const std::uint32_t payload = node.payload;
  if (node.where == kStaged) {
    // Mid-dispatch: the staging vector still references the node, so it
    // is only marked; pop() frees it without executing anything.
    node.where = kDeadStaged;
    node.payload = kNilIndex;
    return payload;
  }
  if (node.where == kOverflow) {
    remove_from_overflow(handle);
  } else {
    unlink(handle);
  }
  if (cache_valid_ && node.time == cached_earliest_) cache_valid_ = false;
  free_node(handle);
  --size_;
  return payload;
}

int TimingWheel::find_occupied(int level, int from) const {
  int word = from >> 6;
  std::uint64_t bits = occ_[level][word] & (~0ull << (from & 63));
  for (;;) {
    if (bits != 0) return (word << 6) + std::countr_zero(bits);
    if (++word >= kWords) return -1;
    bits = occ_[level][word];
  }
}

SimTime TimingWheel::scan_earliest() const {
  // Invariant: at every level, buckets strictly below the cursor's digit
  // are empty (their events were dispatched or cascaded), so the first
  // occupied bucket from the cursor's digit onward holds the level's
  // earliest events — and lower levels always precede higher ones.
  for (int level = 0; level < kLevels; ++level) {
    const int from = static_cast<int>(
        (static_cast<std::uint64_t>(cursor_) >> (kSlotBits * level)) &
        (kSlots - 1));
    const int slot = find_occupied(level, from);
    if (slot < 0) continue;
    if (level == 0) {
      // A level-0 bucket holds exactly one timestamp: page base | slot.
      return (cursor_ & ~static_cast<SimTime>(kSlots - 1)) | slot;
    }
    SimTime best = kNoEvent;
    for (std::uint32_t i = heads_[level][slot]; i != kNilIndex;
         i = nodes_[i].next) {
      best = std::min(best, nodes_[i].time);
    }
    return best;
  }
  SimTime best = kNoEvent;
  for (const std::uint32_t i : overflow_) {
    best = std::min(best, nodes_[i].time);
  }
  return best;
}

SimTime TimingWheel::peek() {
  if (due_pos_ < staging_.size()) return due_time_;
  if (size_ == 0) return kNoEvent;
  if (!cache_valid_) {
    cached_earliest_ = scan_earliest();
    cache_valid_ = true;
  }
  return cached_earliest_;
}

void TimingWheel::cascade(int level, int slot) {
  std::uint32_t i = heads_[level][slot];
  if (i == kNilIndex) return;
  heads_[level][slot] = kNilIndex;
  occ_[level][slot >> 6] &= ~(1ull << (slot & 63));
  while (i != kNilIndex) {
    const std::uint32_t next = nodes_[i].next;
    place(i);  // relative to the new cursor: always lands on a lower level
    ++stats_.cascaded_nodes;
    i = next;
  }
}

void TimingWheel::rehome_overflow() {
  std::size_t i = 0;
  while (i < overflow_.size()) {
    const std::uint32_t n = overflow_[i];
    if (level_for(nodes_[n].time) == kOverflow) {
      ++i;
      continue;
    }
    remove_from_overflow(n);  // swap-pop: re-examine index i
    place(n);
    ++stats_.overflow_rehomed;
  }
}

void TimingWheel::advance_to(SimTime t) {
  // `t` is the earliest pending time, so every bucket the cursor skips
  // over is empty; only t's own bucket at each level that changed digit
  // needs cascading, top-down so nodes trickle to their final level.
  const std::uint64_t diff =
      static_cast<std::uint64_t>(t) ^ static_cast<std::uint64_t>(cursor_);
  cursor_ = t;
  if ((diff >> (4 * kSlotBits)) != 0) rehome_overflow();
  for (int level = kLevels - 1; level >= 1; --level) {
    if ((diff >> (kSlotBits * level)) != 0) {
      cascade(level, static_cast<int>(
                         (static_cast<std::uint64_t>(t) >>
                          (kSlotBits * level)) &
                         (kSlots - 1)));
    }
  }
}

void TimingWheel::stage_due_bucket(SimTime t) {
  const int slot = static_cast<int>(static_cast<std::uint64_t>(t) &
                                    (kSlots - 1));
  std::uint32_t i = heads_[0][slot];
  assert(i != kNilIndex);
  heads_[0][slot] = kNilIndex;
  occ_[0][slot >> 6] &= ~(1ull << (slot & 63));
  staging_.clear();
  due_pos_ = 0;
  due_time_ = t;
  while (i != kNilIndex) {
    nodes_[i].where = kStaged;
    staging_.push_back(i);
    i = nodes_[i].next;
  }
  // Same-instant events must fire in schedule order; bucket list order is
  // cascade-scrambled, so rank by seq (unique, monotone with insertion).
  if (staging_.size() > 1) {
    std::sort(staging_.begin(), staging_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return nodes_[a].seq < nodes_[b].seq;
              });
  }
  cache_valid_ = false;
}

TimingWheel::PopResult TimingWheel::pop() {
  assert(size_ != 0);
  ++stats_.pops;
  if (due_pos_ >= staging_.size()) {
    const SimTime t = peek();
    assert(t != kNoEvent);
    advance_to(t);
    // Fast path: in steady state most level-0 buckets hold exactly one
    // event, so take it straight off the slot — no staging, no sort.
    const int slot =
        static_cast<int>(static_cast<std::uint64_t>(t) & (kSlots - 1));
    const std::uint32_t head = heads_[0][slot];
    assert(head != kNilIndex);
    if (nodes_[head].next == kNilIndex) {
      heads_[0][slot] = kNilIndex;
      occ_[0][slot >> 6] &= ~(1ull << (slot & 63));
      cache_valid_ = false;
      const Node& node = nodes_[head];
      const PopResult result{node.time, node.payload, true};
      free_node(head);
      --size_;
      return result;
    }
    stage_due_bucket(t);
  }
  const std::uint32_t n = staging_[due_pos_++];
  if (due_pos_ == staging_.size()) {
    staging_.clear();
    due_pos_ = 0;
  }
  const Node& node = nodes_[n];
  const PopResult result{node.time, node.payload, node.where == kStaged};
  free_node(n);
  --size_;
  return result;
}

}  // namespace portland::sim
