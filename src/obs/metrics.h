// Metrics snapshotting: periodic, timestamped captures of engine,
// parser, device, and link state, exportable as JSONL (one snapshot per
// line, for offline analysis) and Prometheus text exposition (last
// snapshot, for scraping).
//
// The registry is filled by PortlandFabric::snapshot_metrics() between
// simulation events — typically from a chunked run_until() loop in the
// driver — so sampling never injects events into the schedule and the
// replay guarantee is untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"

namespace portland::obs {

/// One engine-wide sample: scheduler and parallel-window progress.
struct EngineSample {
  std::uint64_t executed = 0;        // events dispatched (all shards)
  std::uint64_t windows = 0;         // lookahead windows completed
  std::uint64_t mail_merged = 0;     // cross-shard mailbox merges
  std::uint64_t barrier_tasks = 0;   // window-barrier tasks run
  std::size_t pending = 0;           // events still queued
  // Burst/train execution (see sim/train.h).
  std::uint64_t trains_popped = 0;   // train nodes dispatched
  std::uint64_t train_frames = 0;    // frames delivered via trains
  std::uint64_t train_repushes = 0;  // trains handed back mid-batch
  std::uint64_t nodes_pushed = 0;    // scheduler inserts (all kinds)
  // Adaptive windows / pooled-vs-inline execution.
  std::uint64_t windows_inline = 0;  // windows run inline despite a pool
  std::uint64_t windows_widened = 0; // windows widened past the lookahead
  std::vector<std::uint64_t> per_shard_executed;
  // Aggregated timing-wheel activity.
  std::uint64_t wheel_inserts = 0;
  std::uint64_t wheel_erases = 0;
  std::uint64_t wheel_cascaded = 0;
  std::uint64_t wheel_overflow_rehomed = 0;
};

/// net-layer parse/rewrite activity (from net::parse_stats()).
struct ParseSample {
  std::uint64_t parse_calls = 0;
  std::uint64_t meta_hits = 0;
  std::uint64_t meta_attaches = 0;
  std::uint64_t rewrite_copies = 0;
};

/// One device's nonzero counters, in name order.
struct DeviceSample {
  std::string name;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Fabric memory footprint at the snapshot instant: counted
/// forwarding-table bytes by component (summed over all switches), the
/// device/link arena, and the process RSS (0 where procfs is absent).
struct MemorySample {
  std::uint64_t switch_table_bytes = 0;  // total of the components below
  std::uint64_t host_table_bytes = 0;
  std::uint64_t fib_bytes = 0;
  std::uint64_t arena_bytes = 0;  // Network arena reservation
  std::uint64_t rss_bytes = 0;    // VmRSS
};

/// One link direction ("a->b").
struct LinkSample {
  std::string name;
  bool up = true;
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t queue_bytes = 0;  // settled to the snapshot instant
};

struct MetricsSnapshot {
  SimTime t = 0;  // simulated time of the capture
  EngineSample engine;
  ParseSample parse;
  MemorySample memory;
  std::vector<DeviceSample> devices;
  std::vector<LinkSample> links;
};

class MetricsRegistry {
 public:
  /// Starts a new snapshot at simulated time `t` and returns it for the
  /// fabric to fill in place.
  MetricsSnapshot& begin_snapshot(SimTime t);

  [[nodiscard]] const std::vector<MetricsSnapshot>& snapshots() const {
    return snapshots_;
  }

  /// One JSON object per line, one line per snapshot.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

  /// Prometheus text exposition of the most recent snapshot (empty
  /// string when no snapshot exists). This is what the HTTP exporter
  /// serves at /metrics.
  [[nodiscard]] std::string render_prometheus() const;

  /// Prometheus text exposition format, rendered from the most recent
  /// snapshot. No-op (returns true) when no snapshot exists.
  [[nodiscard]] bool write_prometheus(const std::string& path) const;

 private:
  std::vector<MetricsSnapshot> snapshots_;
};

}  // namespace portland::obs
