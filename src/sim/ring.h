// Ring: the FIFO behind every per-link-direction queue (a train's pending
// deliveries, a transmitter's pending drains).
//
// A fabric has two link directions per cable and most of them are idle or
// carry one frame at a time, so the queue's footprint at rest decides the
// fabric's memory, while a backlogged direction must not keep what it
// grew. The ring's capacity is a power of two indexed by (head + i) & mask.
// It allocates nothing until its first push and doubles when full; when it
// drains empty, a buffer larger than kKeepCapacity is handed to a
// thread-local free list for its size class and the ring owns nothing
// again. Growth takes its next buffer from the same free list, so a bursty
// direction cycles through pooled buffers instead of the heap (the
// RecycleAllocator idiom of frame.h). Capacity is thus bounded by peak
// occupancy, never by throughput.
//
// Buffers may retire on a different thread than they were taken from;
// each thread's pool absorbs what dies on it, bounded in bytes.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace portland::sim {

template <typename T>
class Ring {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  /// An emptied ring keeps a buffer of at most this many slots: a
  /// direction carrying one frame at a time reuses it with no pool trip.
  static constexpr std::uint32_t kKeepCapacity = 4;
  /// Bytes of retired buffers one thread's pool holds, over all sizes.
  static constexpr std::size_t kMaxPooledBytes = std::size_t{4} << 20;

  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    destroy_all();
    if (buf_ != nullptr) ::operator delete(buf_);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  /// True when the entries run past the end of the buffer into its start.
  [[nodiscard]] bool wraps() const { return head_ + size_ > cap_; }

  /// The i-th entry from the front.
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  [[nodiscard]] T& front() { return (*this)[0]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == cap_) grow();
    ::new (buf_ + ((head_ + size_) & (cap_ - 1))) T(std::move(value));
    ++size_;
  }

  /// Destroys the front entry (releasing whatever it owns at once).
  void pop_front() {
    assert(size_ > 0);
    buf_[head_].~T();
    head_ = (head_ + 1) & (cap_ - 1);
    if (--size_ == 0) on_empty();
  }

  void clear() {
    destroy_all();
    on_empty();
  }

 private:
  /// Retired buffers by size class (log2 of the capacity).
  struct Pool {
    std::array<std::vector<T*>, 32> free;
    std::size_t bytes = 0;
    ~Pool() {
      for (auto& list : free) {
        for (T* b : list) ::operator delete(b);
      }
    }
  };
  static Pool& pool() {
    thread_local Pool p;
    return p;
  }

  static T* take(std::uint32_t cap) {
    Pool& p = pool();
    auto& list = p.free[std::countr_zero(cap)];
    if (list.empty()) {
      return static_cast<T*>(::operator new(std::size_t{cap} * sizeof(T)));
    }
    T* b = list.back();
    list.pop_back();
    p.bytes -= std::size_t{cap} * sizeof(T);
    return b;
  }

  static void give(T* b, std::uint32_t cap) {
    Pool& p = pool();
    const std::size_t bytes = std::size_t{cap} * sizeof(T);
    if (p.bytes + bytes > kMaxPooledBytes) {
      ::operator delete(b);
      return;
    }
    p.free[std::countr_zero(cap)].push_back(b);
    p.bytes += bytes;
  }

  void grow() {
    assert(cap_ < (std::uint32_t{1} << 31));
    const std::uint32_t cap = cap_ == 0 ? 1 : cap_ * 2;
    T* next = take(cap);
    for (std::uint32_t i = 0; i < size_; ++i) {
      T& e = buf_[(head_ + i) & (cap_ - 1)];
      ::new (next + i) T(std::move(e));
      e.~T();
    }
    if (buf_ != nullptr) give(buf_, cap_);
    buf_ = next;
    cap_ = cap;
    head_ = 0;
  }

  void destroy_all() {
    for (; size_ > 0; --size_) {
      buf_[head_].~T();
      head_ = (head_ + 1) & (cap_ - 1);
    }
  }

  void on_empty() {
    head_ = 0;
    if (cap_ > kKeepCapacity) {
      give(buf_, cap_);
      buf_ = nullptr;
      cap_ = 0;
    }
  }

  T* buf_ = nullptr;
  std::uint32_t cap_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace portland::sim
