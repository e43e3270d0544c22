// Checkpoint/fork serving: whole-simulation snapshots.
//
// The engine guarantees bit-identical replay across worker counts —
// which makes whole-state checkpointing
// both feasible and verifiable: `restore(save(S))` followed by run must
// produce the exact frame trace running S uninterrupted would. This
// header provides the typed byte streams every component serializes
// through, plus the `Snapshotable` hook for app-level objects (traffic
// generators, test timers) that ride along with a fabric image.
//
// Layering: a snapshot is assembled by PortlandFabric (core/fabric.h),
// which walks engine → links → devices → control plane → observability
// in deterministic construction order. Each layer writes a
// self-delimiting section; the reader consumes sections in the same
// order. Closures never serialize — restorable events are either timer
// shots (the owning Timer re-arms its retained callback), train entries
// (the owning Link re-anchors its train), or *data events*
// (sim::DataEventOwner), and anything else makes save refuse rather than
// silently drop state. Counter arrays (a CounterSet's cells, the control
// plane's per-type counts) go through save_counters/restore_counters:
// the nonzero cells as (id, value) pairs, bounds-checked on restore.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/byte_io.h"
#include "sim/frame.h"

namespace portland::sim {

/// FNV-1a over a byte span, folded eight bytes per step. Used to
/// content-address snapshot sections: a component that remembers the hash
/// of the section it last restored, and knows it hasn't mutated since, can
/// skip an identical incoming section wholesale. Only ever compared
/// against a value computed by this same function at save time, so chunk
/// endianness is irrelevant.
inline std::uint64_t content_hash(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, bytes.data() + i, 8);
    h ^= chunk;
    h *= 1099511628211ull;
  }
  for (; i < bytes.size(); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Typed append-only stream for snapshot sections. Thin layer over
/// ByteWriter adding doubles (bit-pattern), length-prefixed blobs, and
/// in-flight frame images.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::vector<std::uint8_t>& out) : w_(out) {}

  void u8(std::uint8_t v) { w_.u8(v); }
  void u16(std::uint16_t v) { w_.u16(v); }
  void u32(std::uint32_t v) { w_.u32(v); }
  void u64(std::uint64_t v) { w_.u64(v); }
  void i64(std::int64_t v) { w_.i64(v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    w_.u64(bits);
  }
  void str(const std::string& s) { w_.str(s); }

  /// u32 length + raw bytes.
  void blob(std::span<const std::uint8_t> data) {
    w_.u32(static_cast<std::uint32_t>(data.size()));
    w_.bytes(data);
  }

  /// An optional in-flight frame: presence flag, bytes, trace id. The
  /// parse-once meta cache is deliberately dropped (it re-fills lazily
  /// and never affects behavior, only ParseStats).
  void frame(const FramePtr& f) {
    if (f == nullptr) {
      w_.u8(0);
      return;
    }
    w_.u8(1);
    blob(frame_span(f));
    w_.u64(f->trace_id());
  }

  [[nodiscard]] std::size_t size() const { return w_.size(); }

 private:
  ByteWriter w_;
};

/// Checked reader over a snapshot image. Mirrors SnapshotWriter; all
/// reads are bounds-checked and the reader latches failed on the first
/// overrun — callers check ok() per section instead of per field.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::span<const std::uint8_t> data) : r_(data) {}

  [[nodiscard]] std::uint8_t u8() { return r_.u8(); }
  [[nodiscard]] std::uint16_t u16() { return r_.u16(); }
  [[nodiscard]] std::uint32_t u32() { return r_.u32(); }
  [[nodiscard]] std::uint64_t u64() { return r_.u64(); }
  [[nodiscard]] std::int64_t i64() { return r_.i64(); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = r_.u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  [[nodiscard]] std::string str() { return r_.str(); }
  [[nodiscard]] std::string_view str_view() { return r_.str_view(); }

  [[nodiscard]] std::vector<std::uint8_t> blob() {
    const std::uint32_t n = r_.u32();
    if (n > r_.remaining_size()) {
      r_.skip(n);  // latches the failed state without allocating
      return {};
    }
    std::vector<std::uint8_t> out(n);
    r_.bytes(out);
    return out;
  }

  /// Rebuilds an in-flight frame written by SnapshotWriter::frame. The
  /// restored copy owns fresh (pool-recycled) bytes — never aliasing the
  /// image — and re-adopts the saved trace id (a fresh frame's id is 0,
  /// so the CAS installs it unconditionally).
  [[nodiscard]] FramePtr frame() {
    if (u8() == 0) return nullptr;
    const std::uint32_t n = r_.u32();
    if (n > r_.remaining_size()) {
      r_.skip(n);  // latches the failed state without allocating
      return nullptr;
    }
    FrameBytes bytes = acquire_frame_bytes();
    bytes.resize(n);
    r_.bytes(bytes);
    const std::uint64_t trace_id = r_.u64();
    if (!r_.ok()) return nullptr;
    FramePtr f = make_frame(std::move(bytes));
    if (trace_id != 0) (void)f->adopt_trace_id(trace_id);
    return f;
  }

  /// An element count (u32) for a list whose elements take at least
  /// `min_bytes` each in the image. A count the remaining bytes cannot
  /// hold fails the reader and reads as 0, so a corrupt count never sizes
  /// an allocation or a loop beyond the image itself.
  [[nodiscard]] std::uint32_t count(std::size_t min_bytes = 1) {
    const std::uint32_t n = r_.u32();
    if (n > r_.remaining_size() / std::max<std::size_t>(1, min_bytes)) {
      r_.fail();
      return 0;
    }
    return n;
  }

  void skip(std::size_t n) { r_.skip(n); }

  /// Latches the failed state (a section rejected by its own checks).
  void fail() { r_.fail(); }

  /// Consumes `n` bytes, returning them as a view for out-of-line
  /// (sub-reader / random-access) parsing. Empty + failed on underflow.
  [[nodiscard]] std::span<const std::uint8_t> bytes_view(std::size_t n) {
    return r_.view(n);
  }

  [[nodiscard]] std::size_t remaining_size() const {
    return r_.remaining_size();
  }
  [[nodiscard]] bool ok() const { return r_.ok(); }

 private:
  ByteReader r_;
};

/// Implemented by app-level objects (traffic generators, scenario
/// timers) checkpointed alongside a fabric as "extras". Save and restore
/// are invoked in the exact span order the caller supplies to
/// PortlandFabric::save_snapshot / restore_snapshot, which must match
/// between processes.
struct Snapshotable {
  virtual ~Snapshotable() = default;
  virtual void save_state(SnapshotWriter& w) const = 0;
  virtual void restore_state(SnapshotReader& r) = 0;
};

/// Writes a dense counter array (a CounterSet's cells, or any per-id
/// count array) sparsely: u16 count, then (u16 id, u64 value) for each
/// nonzero cell.
void save_counters(SnapshotWriter& w, std::span<const std::uint64_t> cells);

/// Zeroes `cells` and assigns the saved ones. A count or id beyond
/// `cells` fails the reader and leaves every cell zero.
void restore_counters(SnapshotReader& r, std::span<std::uint64_t> cells);

}  // namespace portland::sim
