// Arena: chunked bump allocator for topology-lifetime objects.
//
// A fat-tree fabric at k=64 holds ~70k devices and ~200k links; allocating
// each with make_unique costs one malloc per object plus pointer-chasing
// destruction at teardown. The arena bulk-reserves large chunks, bumps a
// pointer per allocation, and records a typed destructor per object so the
// whole topology tears down in reverse creation order (links before the
// devices they reference, devices while the simulator is still alive).
//
// Not thread-safe: construction happens single-threaded during fabric
// wiring, before any shard workers exist.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace portland::sim {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 1u << 20;  // 1 MiB

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() { clear(); }

  /// Constructs a T inside the arena. The object is destroyed by the
  /// arena, in reverse creation order, when the arena dies (or clear()).
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* mem = allocate(sizeof(T), alignof(T));
    T* obj = new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      dtors_.push_back(Registered{
          obj, [](void* p) { static_cast<T*>(p)->~T(); }});
    }
    ++objects_;
    return obj;
  }

  /// Ensures at least `bytes` of contiguous headroom so the following
  /// create() calls don't split across chunks (bulk reservation before
  /// topology construction). Also pre-sizes the destructor list.
  void reserve(std::size_t bytes, std::size_t expected_objects = 0) {
    if (expected_objects > 0) dtors_.reserve(dtors_.size() + expected_objects);
    if (bytes == 0) return;
    if (chunks_.empty() || chunks_.back().cap - chunks_.back().used < bytes) {
      add_chunk(bytes);
    }
  }

  /// Destroys every object (reverse creation order) and releases chunks.
  void clear() {
    for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it) {
      it->destroy(it->obj);
    }
    dtors_.clear();
    chunks_.clear();
    objects_ = 0;
    bytes_used_ = 0;
  }

  /// Bytes handed out to objects (excluding alignment padding waste).
  [[nodiscard]] std::size_t bytes_used() const { return bytes_used_; }

  /// Bytes owned by the arena's chunks (the RSS-relevant figure).
  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.cap;
    return total;
  }

  [[nodiscard]] std::size_t objects() const { return objects_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    std::size_t cap = 0;
    std::size_t used = 0;
  };
  struct Registered {
    void* obj;
    void (*destroy)(void*);
  };

  void add_chunk(std::size_t min_bytes) {
    const std::size_t cap = min_bytes > chunk_bytes_ ? min_bytes : chunk_bytes_;
    Chunk c;
    // Every object is placement-constructed, so the bytes need no
    // zeroing: an untouched tail of a bulk reservation stays unbacked.
    c.data = std::make_unique_for_overwrite<unsigned char[]>(cap);
    c.cap = cap;
    chunks_.push_back(std::move(c));
  }

  void* allocate(std::size_t size, std::size_t align) {
    if (chunks_.empty()) add_chunk(size + align);
    Chunk* c = &chunks_.back();
    std::size_t offset = (c->used + align - 1) & ~(align - 1);
    if (offset + size > c->cap) {
      add_chunk(size + align);
      c = &chunks_.back();
      offset = 0;
    }
    c->used = offset + size;
    bytes_used_ += size;
    return c->data.get() + offset;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::vector<Registered> dtors_;
  std::size_t objects_ = 0;
  std::size_t bytes_used_ = 0;
};

}  // namespace portland::sim
