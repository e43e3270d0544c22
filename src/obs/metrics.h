// Metrics snapshotting: periodic, timestamped captures of engine,
// parser, memory, device, and link state, exportable as JSONL (one
// snapshot per line, for offline analysis) and Prometheus text exposition
// (last snapshot, for scraping).
//
// The registry is filled by PortlandFabric::snapshot_metrics() between
// simulation events — typically from a chunked run_until() loop in the
// driver — so sampling never injects events into the schedule and the
// replay guarantee is untouched. The engine, timing-wheel, parser and
// memory values arrive as one list of named rows, filled by running each
// counter family's walk (sim::Simulator::counters, net::ParseStats::walk),
// so a new counter needs no line here: both renderers loop over the rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"

namespace portland::obs {

/// One scalar series. JSONL puts consecutive rows of a section in one
/// object ("engine", "parse", "memory"), keyed by `key`. Prometheus names
/// a row portland_<section>_<key>, or portland_<key> when the key already
/// leads with a family name (wheel_inserts, parse_calls).
struct ScalarSample {
  const char* section = "";
  const char* key = "";
  std::uint64_t value = 0;
};

/// One device's nonzero counters, in name order.
struct DeviceSample {
  std::string name;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
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
  /// Engine, timing-wheel, parser and memory values, in render order.
  std::vector<ScalarSample> scalars;
  /// Events dispatched by each shard; JSONL ends the "engine" object with
  /// them, Prometheus labels them portland_shard_executed{shard="i"}.
  std::vector<std::uint64_t> per_shard_executed;
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
