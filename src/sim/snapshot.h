// Checkpoint/fork serving: whole-simulation snapshots.
//
// The engine guarantees bit-identical replay across worker counts —
// which makes whole-state checkpointing
// both feasible and verifiable: `restore(save(S))` followed by run must
// produce the exact frame trace running S uninterrupted would. This
// header provides the typed byte streams every component serializes
// through, the SnapshotIo walk that drives them, and the `Snapshotable`
// hook for app-level objects (traffic generators, test timers) that ride
// along with a fabric image.
//
// Layering: a snapshot is assembled by PortlandFabric (core/fabric.h),
// which walks engine → links → devices → control plane → observability
// in deterministic construction order. Each layer writes a
// self-delimiting section; the reader consumes sections in the same
// order. A component describes its section once, in a
// `snapshot(SnapshotIo&)` that names every field by reference: over a
// SnapshotWriter the walk saves, over a SnapshotReader it loads, so the
// two layouts cannot drift. Only the walks that are not mirror images
// keep separate save and restore code: the engine's event records (a save
// reads them off the wheel, a load rebuilds it; the engine's scalars are
// one walk), FabricGraph's content-addressed blocks (a load merges the
// dirty records or rebuilds the graph) and the Snapshotable extras. The
// content-addressed sections (Link's and FabricGraph's) share one framing
// and its hash check, SnapshotIo::hashed. Closures never serialize —
// restorable events are either timer shots (the owning Timer re-arms its
// retained callback), train entries (the owning Link re-anchors its
// train), or *data events* (sim::DataEventOwner), and anything else makes
// save refuse rather than silently drop state. A load never trusts the
// image: counts are bounded by the bytes left, port ids by the device's
// port count, and the reader latches failed on the first bad value.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/byte_io.h"
#include "common/ipv4_address.h"
#include "common/mac_address.h"
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

/// One walk for both directions. A component's `snapshot(SnapshotIo&)`
/// names each field once, by reference: built over a SnapshotWriter the
/// walk writes the fields, built over a SnapshotReader it assigns them.
/// Steps that only a load needs (rebuilding a derived index, re-homing
/// entries) sit in `if (io.loading())` blocks. A load never trusts the
/// image: every count is bounded by the bytes left, every port id by its
/// limit, and the reader latches failed on the first bad value — callers
/// check ok() per section, not per field.
class SnapshotIo {
 public:
  explicit SnapshotIo(SnapshotWriter& w) : w_(&w) {}
  explicit SnapshotIo(SnapshotReader& r) : r_(&r) {}

  [[nodiscard]] bool loading() const { return r_ != nullptr; }
  [[nodiscard]] bool ok() const { return r_ == nullptr || r_->ok(); }
  /// Fails a load (a section rejected by its own checks); a save ignores it.
  void fail() {
    if (r_ != nullptr) r_->fail();
  }

  /// The underlying streams, for the walks that are not mirror images.
  [[nodiscard]] SnapshotWriter& writer() { return *w_; }
  [[nodiscard]] SnapshotReader& reader() { return *r_; }

  /// One content-addressed section as hashed() saw it.
  struct Hashed {
    enum State : std::uint8_t {
      kSaved,    // a save framed the payload
      kHeld,     // a load found the payload the component holds
      kFresh,    // a load found a payload that matches its hash
      kCorrupt,  // a load found no payload, or one its hash does not match
    };
    State state = kSaved;
    std::uint64_t hash = 0;
    /// A load's payload bytes, a view into the image.
    std::span<const std::uint8_t> payload;
  };

  /// A content-addressed section: u64 hash | u32 length | payload, where
  /// the hash is content_hash(payload). A save fills the payload through
  /// `fill(SnapshotWriter&)` and frames it. A load reads the frame. When
  /// its hash equals `held` — the hash of the payload the component last
  /// loaded, passed only while the component still holds that payload or
  /// knows every change it made since — the result is kHeld, and the
  /// component skips the payload or reverts its own changes from it
  /// without a full parse. Otherwise a payload that does not match its own
  /// hash fails the reader (kCorrupt), because a later load trusts that
  /// hash to skip it; one that matches is kFresh, to be loaded in full.
  template <typename Fill>
  Hashed hashed(std::optional<std::uint64_t> held, Fill&& fill) {
    if (loading()) return load_hashed(held);
    std::vector<std::uint8_t>& payload = hashed_scratch();
    payload.clear();
    SnapshotWriter pw(payload);
    fill(pw);
    const std::uint64_t hash = content_hash(payload);
    w_->u64(hash);
    w_->blob(payload);
    return Hashed{Hashed::kSaved, hash, {}};
  }

  // Scalars at their natural wire width.
  void field(std::uint8_t& v) {
    w_ != nullptr ? w_->u8(v) : void(v = r_->u8());
  }
  void field(std::uint16_t& v) {
    w_ != nullptr ? w_->u16(v) : void(v = r_->u16());
  }
  void field(std::uint32_t& v) {
    w_ != nullptr ? w_->u32(v) : void(v = r_->u32());
  }
  void field(std::uint64_t& v) {
    w_ != nullptr ? w_->u64(v) : void(v = r_->u64());
  }
  void field(std::int64_t& v) {
    w_ != nullptr ? w_->i64(v) : void(v = r_->i64());
  }
  void field(double& v) { w_ != nullptr ? w_->f64(v) : void(v = r_->f64()); }
  void field(bool& v) { field<std::uint8_t>(v); }
  void field(MacAddress& v) {
    std::uint64_t wire = v.to_u64();
    field(wire);
    if (loading()) v = MacAddress::from_u64(wire);
  }
  void field(Ipv4Address& v) {
    std::uint32_t wire = v.value();
    field(wire);
    if (loading()) v = Ipv4Address(wire);
  }

  /// A scalar stored as `Wire` (an int count as u32, an enum as u8).
  template <typename Wire, typename T>
  void field(T& v) {
    Wire wire = static_cast<Wire>(v);
    field(wire);
    if (loading()) v = static_cast<T>(wire);
  }

  /// A port id stored as `Wire`. A load of an id at or past `limit` fails
  /// the reader; a negative id (the FIB's -1, "no port") names no port and
  /// passes.
  template <typename Wire = std::uint64_t, typename T>
  void port(T& p, std::size_t limit) {
    field<Wire>(p);
    bool bad = false;
    if constexpr (std::is_signed_v<T>) {
      bad = p >= 0 && static_cast<std::size_t>(p) >= limit;
    } else {
      bad = p >= limit;
    }
    if (loading() && bad) fail();
  }

  void blob(std::vector<std::uint8_t>& v) {
    w_ != nullptr ? w_->blob(v) : void(v = r_->blob());
  }
  void frame(FramePtr& f) {
    w_ != nullptr ? w_->frame(f) : void(f = r_->frame());
  }

  /// An element count: `n` on save. A load returns the stored count, or 0
  /// and fails when the bytes left cannot hold that many elements.
  std::uint32_t count(std::size_t n) {
    if (w_ != nullptr) {
      w_->u32(static_cast<std::uint32_t>(n));
      return static_cast<std::uint32_t>(n);
    }
    return r_->count();
  }

  /// A value both sides must agree on (a header word, a fixed table
  /// size): written on save. A load of any other value fails the reader.
  /// Returns ok().
  template <typename T>
  bool expect(T value) {
    T v = value;
    field(v);
    if (v != value) fail();
    return ok();
  }

  /// A container: its size, then `fn` on each element — `fn(elem&)` for
  /// sequences and sets, `fn(key&, value&)` for maps. Set elements and map
  /// keys are walked through a copy, and unordered maps in key order so
  /// the image is deterministic. A load clears the container, bounds the
  /// count by the bytes left and stops at the first failure.
  template <typename C, typename Fn>
  void list(C& c, Fn&& fn) {
    constexpr bool kMap = requires { typename C::mapped_type; };
    constexpr bool kSet = !kMap && requires { typename C::key_type; };
    constexpr bool kOrdered = requires { typename C::key_compare; };
    if (w_ != nullptr) {
      w_->u32(static_cast<std::uint32_t>(c.size()));
      if constexpr (kMap && !kOrdered) {
        std::vector<std::pair<typename C::key_type, typename C::mapped_type*>>
            sorted;
        sorted.reserve(c.size());
        for (auto& [k, v] : c) sorted.emplace_back(k, &v);
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto& a, const auto& b) {
                    return a.first < b.first;
                  });
        for (auto& [k, v] : sorted) fn(k, *v);
      } else if constexpr (kMap) {
        for (auto& [k, v] : c) {
          typename C::key_type key = k;
          fn(key, v);
        }
      } else if constexpr (kSet) {
        for (typename C::key_type key : c) fn(key);
      } else {
        for (auto& e : c) fn(e);
      }
      return;
    }
    c.clear();
    const std::uint32_t n = r_->count();
    if constexpr (!kMap && !kSet && requires { c.reserve(n); }) c.reserve(n);
    for (std::uint32_t i = 0; i < n && r_->ok(); ++i) {
      if constexpr (kMap) {
        typename C::key_type k{};
        typename C::mapped_type v{};
        fn(k, v);
        if constexpr (kOrdered) {
          c.emplace_hint(c.end(), std::move(k), std::move(v));
        } else {
          c.emplace(std::move(k), std::move(v));
        }
      } else if constexpr (kSet) {
        typename C::key_type k{};
        fn(k);
        c.insert(c.end(), std::move(k));
      } else {
        fn(c.emplace_back());
      }
    }
  }

  /// A container of scalars (or a map of scalar to scalar).
  template <typename C>
  void list(C& c) {
    list(c, [this](auto&... e) { (field(e), ...); });
  }

  /// A dense counter array (a CounterSet's cells, or any per-id count
  /// array), stored sparsely: u16 count, then (u16 id, u64 value) for each
  /// nonzero cell. A load zeroes the cells first; a count or id beyond
  /// them fails the reader and leaves every cell zero.
  void counters(std::span<std::uint64_t> cells);

 private:
  /// The save-side payload buffer of hashed(), reused per thread: a
  /// save frames thousands of small Link sections.
  static std::vector<std::uint8_t>& hashed_scratch();
  Hashed load_hashed(std::optional<std::uint64_t> held);

  SnapshotWriter* w_ = nullptr;
  SnapshotReader* r_ = nullptr;
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

}  // namespace portland::sim
