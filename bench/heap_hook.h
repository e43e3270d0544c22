// Heap accounting for the benches that report allocations or live heap.
//
// Including this header *defines* the replaceable global operator
// new/delete, so a bench binary includes it from exactly one translation
// unit (its own .cc); a second inclusion in the same binary is a
// duplicate-definition link error. The replaced pair mallocs and frees in
// the including translation unit, which GCC's inliner misreads as a
// mismatch: such a bench builds with -Wno-mismatched-new-delete.
//
// Every global new counts one allocation and its requested bytes, and adds
// its block's usable size (malloc_usable_size) to the live count; every
// delete takes that back. So the live count is what is live now, not what
// the allocator keeps in reserve, and unlike peak RSS it follows the memory
// held rather than the allocation pattern.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace portland::bench::heap {

namespace detail {
inline std::atomic<std::uint64_t> allocs{0};
inline std::atomic<std::uint64_t> alloc_bytes{0};
inline std::atomic<std::int64_t> live_bytes{0};
inline std::atomic<std::int64_t> live_peak_bytes{0};

inline void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  allocs.fetch_add(1, std::memory_order_relaxed);
  alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = live_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !live_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

inline void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                       std::memory_order_relaxed);
  std::free(p);
}
}  // namespace detail

/// Global allocations since the process started, and the bytes they asked
/// for.
inline std::uint64_t allocs() {
  return detail::allocs.load(std::memory_order_relaxed);
}
inline std::uint64_t alloc_bytes() {
  return detail::alloc_bytes.load(std::memory_order_relaxed);
}

/// Usable bytes of the blocks live now.
inline std::int64_t live_bytes() {
  return detail::live_bytes.load(std::memory_order_relaxed);
}

/// Starts a new peak window at the current live count.
inline void reset_live_peak() {
  detail::live_peak_bytes.store(live_bytes(), std::memory_order_relaxed);
}

/// The highest live count since the last reset_live_peak(), in MiB.
inline double live_peak_mb() {
  return static_cast<double>(
             detail::live_peak_bytes.load(std::memory_order_relaxed)) /
         (1024.0 * 1024.0);
}

}  // namespace portland::bench::heap

void* operator new(std::size_t n) {
  return portland::bench::heap::detail::counted_alloc(n);
}
void* operator new[](std::size_t n) {
  return portland::bench::heap::detail::counted_alloc(n);
}
void operator delete(void* p) noexcept {
  portland::bench::heap::detail::counted_free(p);
}
void operator delete[](void* p) noexcept {
  portland::bench::heap::detail::counted_free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  portland::bench::heap::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  portland::bench::heap::detail::counted_free(p);
}
