// Frame flight recorder: bounded per-shard ring buffers of per-hop
// records, keyed by a frame trace id.
//
// Devices call record()/record_drop() from the shard that owns them, so
// with the parallel engine each ShardLog has exactly one writer thread
// per window — no locks, no atomics on the hot path, TSan-clean by the
// same ownership argument as the event queues themselves. Between
// windows (barrier tasks, test harness pokes) the main thread may write
// any shard's log; the window cv/mutex protocol orders those accesses.
//
// The recorder is strictly passive: it schedules no events, consumes no
// RNG, and never touches frame bytes, so enabling it cannot perturb the
// simulation — the bit-identical replay guarantee holds with tracing on
// or off (Soak.FlightRecorderIsInvisibleToExecution pins this).
//
// Trace ids are assigned per shard ((shard+1) << 40 | counter), so an
// id names one frame deterministically regardless of worker count. The
// per-hop ring overwrites oldest records when full; drops additionally
// land in a bounded append-only drop log that eviction never touches,
// so "why did my frame die" survives arbitrarily long runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "obs/drop_reason.h"

namespace portland::sim {
class SnapshotWriter;
class SnapshotReader;
}  // namespace portland::sim

namespace portland::obs {

/// What happened to a frame at one hop.
enum class HopEvent : std::uint8_t {
  kIngress = 0,     // frame entered a switch's data plane
  kIngressRewrite,  // edge AMAC->PMAC rewrite (§3.2)
  kEgressRewrite,   // edge PMAC->AMAC rewrite back toward the host
  kFibLookup,       // down-path FIB index load chose a port
  kEcmpChoice,      // up-path hashed (or sprayed) across ECMP candidates
  kLinkTx,          // admitted to a link queue (detail = queued bytes)
  kDeliver,         // reached a host's protocol stack
  kDrop,            // discarded; reason says why
};

[[nodiscard]] constexpr const char* hop_event_name(HopEvent e) {
  constexpr std::array<const char*, 8> kNames{
      "ingress",     "ingress_rewrite", "egress_rewrite", "fib_lookup",
      "ecmp_choice", "link_tx",         "deliver",        "drop",
  };
  return kNames[static_cast<std::size_t>(e)];
}

struct HopRecord {
  SimTime time = 0;
  std::uint64_t trace_id = 0;
  /// Recording device's name; points at the device's own string, which
  /// outlives the recorder in every fabric.
  const char* device = nullptr;
  std::uint32_t port = 0;
  std::uint32_t shard = 0;  // filled by the recorder
  HopEvent event = HopEvent::kIngress;
  DropReason reason = DropReason::kNone;
  /// Event-specific payload: queued bytes (kLinkTx), candidate count
  /// (kEcmpChoice), chosen port generation, frame size, ...
  std::uint64_t detail = 0;
};

class FlightRecorder {
 public:
  struct Options {
    /// Per-shard hop ring capacity (oldest records overwritten).
    std::size_t ring_capacity = 4096;
    /// Per-shard drop-log capacity (append-only, never overwritten;
    /// overflow still counts in totals).
    std::size_t drop_log_capacity = 4096;
    /// Per-shard cap on distinct traced frames; 0 = unlimited.
    std::uint64_t max_traced_frames = 0;
    /// Frames whose raw EtherType equals this never receive trace ids
    /// (the fabric passes LDP here so keepalives stay out of traces).
    /// 0 disables the filter.
    std::uint16_t skip_ethertype = 0;
  };

  FlightRecorder(std::size_t shard_count, Options options);

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] std::size_t shard_count() const { return logs_.size(); }

  // --- hot path (one writer per shard; see file comment) -----------------

  /// Returns a fresh deterministic trace id for a frame first transmitted
  /// on `shard`, or 0 when the shard's trace budget is exhausted or the
  /// ethertype is filtered.
  [[nodiscard]] std::uint64_t begin_trace(std::uint32_t shard,
                                          std::uint16_t ethertype);

  /// Appends a hop record to `shard`'s ring (overwrites oldest when full).
  void record(std::uint32_t shard, const HopRecord& r);

  /// Counts a drop by reason and appends it to both the ring and the
  /// bounded drop log. Untraced frames (trace_id 0) are recorded too —
  /// drops matter even when the frame was never sampled.
  void record_drop(std::uint32_t shard, const HopRecord& r);

  // --- quiescent-only inspection (no window executing) -------------------

  /// All live hop records across shards in canonical
  /// (time, shard, capture-order) order — identical for any worker count.
  [[nodiscard]] std::vector<HopRecord> merged() const;

  /// All retained drop records, canonically ordered.
  [[nodiscard]] std::vector<HopRecord> merged_drops() const;

  [[nodiscard]] std::uint64_t traced_frames() const;
  [[nodiscard]] std::uint64_t records_captured() const;
  [[nodiscard]] std::uint64_t records_evicted() const;
  [[nodiscard]] std::uint64_t drops_recorded() const;
  [[nodiscard]] std::array<std::uint64_t, kDropReasonCount> drops_by_reason()
      const;

  void clear();

  /// Checkpoint: per-shard counter state — most importantly the trace-id
  /// allocators, so a restored fabric keeps handing out fresh ids that
  /// never collide with ids already burned before the save. Hop records
  /// hold `const char*` device names owned by the *saving* process, so
  /// rings and drop logs are not serialized; restore clears them and
  /// restarts capture/drop counting at zero (the same state clear()
  /// leaves behind, so a saver that clear()s at the checkpoint and a
  /// restorer retain bit-identical rings from then on).
  void save_state(sim::SnapshotWriter& w) const;
  void restore_state(sim::SnapshotReader& r);

 private:
  struct Stamped {
    HopRecord rec;
    /// Per-shard capture index: the canonical within-shard order.
    std::uint64_t seq = 0;
  };
  /// Padded so neighboring shards' logs never share a cache line.
  struct alignas(64) ShardLog {
    std::vector<Stamped> ring;     // wraps at ring_capacity
    std::uint64_t captured = 0;    // total record() calls == next seq
    std::uint64_t trace_ids = 0;   // ids handed out by begin_trace
    std::vector<Stamped> drops;    // bounded, append-only
    std::uint64_t drop_total = 0;  // includes overflow past the log cap
    std::array<std::uint64_t, kDropReasonCount> by_reason{};
  };

  [[nodiscard]] ShardLog& log_for(std::uint32_t shard) {
    return logs_[shard < logs_.size() ? shard : 0];
  }
  static void merge_sorted(
      const std::vector<std::vector<Stamped>>& per_shard_sorted,
      std::vector<HopRecord>* out);

  Options options_;
  std::vector<ShardLog> logs_;
};

}  // namespace portland::obs
