#include "obs/flight_recorder.h"

#include <algorithm>

#include "sim/snapshot.h"

namespace portland::obs {

FlightRecorder::FlightRecorder(std::size_t shard_count, Options options)
    : options_(options), logs_(shard_count == 0 ? 1 : shard_count) {
  // Rings grow lazily up to capacity, so an idle shard costs nothing.
  for (ShardLog& log : logs_) {
    log.ring.reserve(std::min<std::size_t>(options_.ring_capacity, 256));
  }
}

std::uint64_t FlightRecorder::begin_trace(std::uint32_t shard,
                                          std::uint16_t ethertype) {
  if (options_.skip_ethertype != 0 && ethertype == options_.skip_ethertype) {
    return 0;
  }
  ShardLog& log = log_for(shard);
  if (options_.max_traced_frames != 0 &&
      log.trace_ids >= options_.max_traced_frames) {
    return 0;
  }
  // (shard+1) in the high bits keeps ids unique and readable across
  // shards; the low counter makes them deterministic per shard.
  return (static_cast<std::uint64_t>(shard + 1) << 40) | ++log.trace_ids;
}

void FlightRecorder::record(std::uint32_t shard, const HopRecord& r) {
  ShardLog& log = log_for(shard);
  const std::uint64_t seq = log.captured++;
  Stamped stamped{r, seq};
  stamped.rec.shard = shard;
  if (log.ring.size() < options_.ring_capacity) {
    log.ring.push_back(stamped);
  } else if (!log.ring.empty()) {
    log.ring[seq % log.ring.size()] = stamped;
  }
}

void FlightRecorder::record_drop(std::uint32_t shard, const HopRecord& r) {
  ShardLog& log = log_for(shard);
  ++log.drop_total;
  ++log.by_reason[static_cast<std::size_t>(r.reason)];
  if (log.drops.size() < options_.drop_log_capacity) {
    Stamped stamped{r, log.captured};
    stamped.rec.shard = shard;
    stamped.rec.event = HopEvent::kDrop;
    log.drops.push_back(stamped);
  }
  record(shard, r);
}

void FlightRecorder::merge_sorted(
    const std::vector<std::vector<Stamped>>& per_shard_sorted,
    std::vector<HopRecord>* out) {
  struct Tagged {
    const Stamped* s;
    std::uint32_t shard;
  };
  std::vector<Tagged> all;
  std::size_t total = 0;
  for (const auto& v : per_shard_sorted) total += v.size();
  all.reserve(total);
  for (std::uint32_t shard = 0; shard < per_shard_sorted.size(); ++shard) {
    for (const Stamped& s : per_shard_sorted[shard]) {
      all.push_back(Tagged{&s, shard});
    }
  }
  // Canonical order: (time, shard, within-shard capture order). Thread
  // interleaving never reaches this key, so any worker count exports the
  // identical sequence.
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    if (a.s->rec.time != b.s->rec.time) return a.s->rec.time < b.s->rec.time;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.s->seq < b.s->seq;
  });
  out->clear();
  out->reserve(all.size());
  for (const Tagged& t : all) out->push_back(t.s->rec);
}

std::vector<HopRecord> FlightRecorder::merged() const {
  std::vector<std::vector<Stamped>> per_shard(logs_.size());
  for (std::size_t i = 0; i < logs_.size(); ++i) {
    per_shard[i] = logs_[i].ring;
  }
  std::vector<HopRecord> out;
  merge_sorted(per_shard, &out);
  return out;
}

std::vector<HopRecord> FlightRecorder::merged_drops() const {
  std::vector<std::vector<Stamped>> per_shard(logs_.size());
  for (std::size_t i = 0; i < logs_.size(); ++i) {
    per_shard[i] = logs_[i].drops;
  }
  std::vector<HopRecord> out;
  merge_sorted(per_shard, &out);
  return out;
}

std::uint64_t FlightRecorder::traced_frames() const {
  std::uint64_t n = 0;
  for (const ShardLog& log : logs_) n += log.trace_ids;
  return n;
}

std::uint64_t FlightRecorder::records_captured() const {
  std::uint64_t n = 0;
  for (const ShardLog& log : logs_) n += log.captured;
  return n;
}

std::uint64_t FlightRecorder::records_evicted() const {
  std::uint64_t n = 0;
  for (const ShardLog& log : logs_) n += log.captured - log.ring.size();
  return n;
}

std::uint64_t FlightRecorder::drops_recorded() const {
  std::uint64_t n = 0;
  for (const ShardLog& log : logs_) n += log.drop_total;
  return n;
}

std::array<std::uint64_t, kDropReasonCount> FlightRecorder::drops_by_reason()
    const {
  std::array<std::uint64_t, kDropReasonCount> out{};
  for (const ShardLog& log : logs_) {
    for (std::size_t i = 0; i < kDropReasonCount; ++i) {
      out[i] += log.by_reason[i];
    }
  }
  return out;
}

void FlightRecorder::clear() {
  for (ShardLog& log : logs_) {
    log.ring.clear();
    log.drops.clear();
    log.captured = 0;
    log.drop_total = 0;
    log.by_reason.fill(0);
    // trace_ids is intentionally preserved: ids stay unique run-wide.
  }
}

void FlightRecorder::save_state(sim::SnapshotWriter& w) const {
  w.u32(static_cast<std::uint32_t>(logs_.size()));
  for (const ShardLog& log : logs_) {
    w.u64(log.captured);
    w.u64(log.trace_ids);
    w.u64(log.drop_total);
    for (const std::uint64_t n : log.by_reason) w.u64(n);
  }
}

void FlightRecorder::restore_state(sim::SnapshotReader& r) {
  const std::uint32_t n = r.count();
  if (n != logs_.size()) return;  // shard-count mismatch; caller validates
  for (ShardLog& log : logs_) {
    log.ring.clear();
    log.drops.clear();
    // Only the trace-id allocators carry over: fresh ids must never
    // collide with ids burned before the save. Capture/drop counting
    // restarts at zero, exactly like clear() — the ring's lazy-growth
    // placement keys off `captured`, so a restored recorder and a
    // save-side clear()ed recorder must agree on it or their rings
    // retain different records once a shard wraps.
    (void)r.u64();  // captured at save time; reporting only, not restored
    log.captured = 0;
    log.trace_ids = r.u64();
    (void)r.u64();  // drop_total at save time
    log.drop_total = 0;
    log.by_reason.fill(0);
    for (std::size_t i = 0; i < log.by_reason.size(); ++i) (void)r.u64();
  }
}

}  // namespace portland::obs
