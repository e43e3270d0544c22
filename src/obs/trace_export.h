// Engine profiling spans + Chrome trace-event ("Perfetto") JSON export.
//
// EngineTracer collects wall-clock spans the Simulator emits while it
// runs: one span per lookahead window (with its mailbox merge) and one
// dispatch span per shard slice of a window. Lane 0 belongs to the coordinating thread; lane 1+s
// to whichever thread executes shard s during a window — exactly one
// writer at a time under the engine's window barrier, so the tracer
// needs no locks and stays TSan-clean. The tracer only *reads* the wall
// clock; it feeds nothing back into the simulation, so attaching it
// cannot change the event schedule.
//
// write_perfetto_trace() renders the spans — plus, optionally, a
// FlightRecorder's per-hop records as instant events on a second
// process — into the Chrome trace-event JSON format, loadable in
// https://ui.perfetto.dev or chrome://tracing. Engine lanes use real
// microseconds; frame hops use simulated time (ns scaled to us), kept on
// a separate pid so the two time domains never visually collide.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/flight_recorder.h"

namespace portland::obs {

class EngineTracer {
 public:
  struct Span {
    enum class Kind : std::uint8_t {
      kWindow,    // one lookahead window (a/b = index/mail merged)
      kDispatch,  // one shard's slice of a window (a = events)
    };
    Kind kind = Kind::kWindow;
    std::uint32_t shard = 0;
    double wall_begin_us = 0.0;
    double wall_end_us = 0.0;
    SimTime sim_start = 0;
    SimTime sim_end = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };

  explicit EngineTracer(std::size_t shard_count);

  /// Wall-clock microseconds since this tracer was constructed.
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  // --- Simulator hooks (lane ownership per file comment) -----------------
  void window_span(std::uint64_t index, SimTime sim_start, SimTime sim_end,
                   double wall_begin_us, double wall_end_us,
                   std::uint64_t mail_merged);
  /// A kDispatch span on lane 1+shard. Only the thread currently
  /// executing `shard`'s window may call this.
  void shard_span(std::uint32_t shard, SimTime sim_end, std::uint64_t events,
                  double wall_begin_us, double wall_end_us);

  // --- quiescent-only inspection -----------------------------------------
  /// All spans, ordered by wall-clock begin time.
  [[nodiscard]] std::vector<Span> merged() const;
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::uint64_t spans_dropped() const;
  [[nodiscard]] std::size_t shard_count() const { return lanes_.size() - 1; }

 private:
  /// Generous per-lane bound; beyond it spans are counted, not stored.
  static constexpr std::size_t kMaxSpansPerLane = 1u << 20;

  struct alignas(64) Lane {
    std::vector<Span> spans;
    std::uint64_t dropped = 0;
  };
  void push(std::size_t lane, const Span& span);

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Lane> lanes_;  // [0] = coordinator, [1+s] = shard s
};

/// Writes a Chrome trace-event JSON file combining an EngineTracer's
/// spans (pid 1, wall clock) and a FlightRecorder's hop records (pid 2,
/// sim time) — either may be null. Returns false on I/O failure.
bool write_perfetto_trace(const std::string& path, const EngineTracer* engine,
                          const FlightRecorder* frames);

}  // namespace portland::obs
