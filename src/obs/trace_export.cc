#include "obs/trace_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace portland::obs {

EngineTracer::EngineTracer(std::size_t shard_count)
    : epoch_(std::chrono::steady_clock::now()),
      lanes_(1 + (shard_count == 0 ? 1 : shard_count)) {}

void EngineTracer::push(std::size_t lane, const Span& span) {
  Lane& l = lanes_[lane];
  if (l.spans.size() >= kMaxSpansPerLane) {
    ++l.dropped;
    return;
  }
  l.spans.push_back(span);
}

void EngineTracer::window_span(std::uint64_t index, SimTime sim_start,
                               SimTime sim_end, double wall_begin_us,
                               double wall_end_us, std::uint64_t mail_merged) {
  Span s;
  s.kind = Span::Kind::kWindow;
  s.wall_begin_us = wall_begin_us;
  s.wall_end_us = wall_end_us;
  s.sim_start = sim_start;
  s.sim_end = sim_end;
  s.a = index;
  s.b = mail_merged;
  push(0, s);
}

void EngineTracer::shard_span(std::uint32_t shard, SimTime sim_end,
                              std::uint64_t events, double wall_begin_us,
                              double wall_end_us) {
  Span s;
  s.kind = Span::Kind::kDispatch;
  s.shard = shard;
  s.wall_begin_us = wall_begin_us;
  s.wall_end_us = wall_end_us;
  s.sim_end = sim_end;
  s.a = events;
  const std::size_t lane = 1 + shard;
  push(lane < lanes_.size() ? lane : lanes_.size() - 1, s);
}

std::vector<EngineTracer::Span> EngineTracer::merged() const {
  std::vector<Span> out;
  out.reserve(span_count());
  for (const Lane& lane : lanes_) {
    out.insert(out.end(), lane.spans.begin(), lane.spans.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.wall_begin_us < b.wall_begin_us;
  });
  return out;
}

std::size_t EngineTracer::span_count() const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) n += lane.spans.size();
  return n;
}

std::uint64_t EngineTracer::spans_dropped() const {
  std::uint64_t n = 0;
  for (const Lane& lane : lanes_) n += lane.dropped;
  return n;
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

namespace {

/// Device/span names here are plain ASCII identifiers, but escape
/// defensively so the output is always valid JSON.
void append_escaped(std::string* out, const char* s) {
  for (; s != nullptr && *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

void append_meta(std::string* out, int pid, int tid, const char* what,
                 const char* name) {
  char buf[64];
  out->append("{\"ph\":\"M\",\"pid\":");
  std::snprintf(buf, sizeof(buf), "%d", pid);
  out->append(buf);
  if (tid >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"tid\":%d", tid);
    out->append(buf);
  }
  out->append(",\"name\":\"");
  out->append(what);
  out->append("\",\"args\":{\"name\":\"");
  append_escaped(out, name);
  out->append("\"}},\n");
}

constexpr int kEnginePid = 1;
constexpr int kFramePid = 2;

void append_engine_span(std::string* out, const EngineTracer::Span& s) {
  char buf[256];
  const double dur = s.wall_end_us > s.wall_begin_us
                         ? s.wall_end_us - s.wall_begin_us
                         : 0.0;
  // Windows belong to the coordinator's lane 0, dispatch spans to lane
  // 1+shard.
  if (s.kind == EngineTracer::Span::Kind::kWindow) {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"sim_start_ns\":"
                  "%" PRId64 ",\"sim_end_ns\":%" PRId64 ",\"window\":%" PRIu64
                  ",\"mail\":%" PRIu64 "}},\n",
                  kEnginePid, 0, s.wall_begin_us, dur, "window",
                  static_cast<std::int64_t>(s.sim_start),
                  static_cast<std::int64_t>(s.sim_end), s.a, s.b);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"sim_start_ns\":"
                  "%" PRId64 ",\"sim_end_ns\":%" PRId64 ",\"events\":%" PRIu64
                  "}},\n",
                  kEnginePid, 1 + static_cast<int>(s.shard), s.wall_begin_us,
                  dur, "dispatch", static_cast<std::int64_t>(s.sim_start),
                  static_cast<std::int64_t>(s.sim_end), s.a);
  }
  out->append(buf);
}

void append_hop_instant(std::string* out, const HopRecord& r) {
  char buf[192];
  out->append("{\"ph\":\"i\",\"pid\":2,\"s\":\"t\",");
  std::snprintf(buf, sizeof(buf), "\"tid\":%d,\"ts\":%.3f,\"name\":\"",
                1 + static_cast<int>(r.shard),
                static_cast<double>(r.time) / 1000.0);
  out->append(buf);
  if (r.event == HopEvent::kDrop) {
    out->append("drop:");
    out->append(drop_reason_name(r.reason));
  } else {
    out->append("hop:");
    out->append(hop_event_name(r.event));
  }
  out->append("\",\"args\":{\"frame\":");
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ",\"device\":\"", r.trace_id);
  out->append(buf);
  append_escaped(out, r.device);
  std::snprintf(buf, sizeof(buf), "\",\"port\":%u,\"detail\":%" PRIu64 "}},\n",
                r.port, r.detail);
  out->append(buf);
}

}  // namespace

bool write_perfetto_trace(const std::string& path, const EngineTracer* engine,
                          const FlightRecorder* frames) {
  std::string out;
  out.reserve(1 << 16);
  out.append("{\"traceEvents\":[\n");

  if (engine != nullptr) {
    append_meta(&out, kEnginePid, -1, "process_name",
                "sim engine (wall-clock us)");
    append_meta(&out, kEnginePid, 0, "thread_name", "coordinator");
    for (std::size_t s = 0; s < engine->shard_count(); ++s) {
      char name[32];
      std::snprintf(name, sizeof(name), "shard %zu", s);
      append_meta(&out, kEnginePid, 1 + static_cast<int>(s), "thread_name",
                  name);
    }
    for (const EngineTracer::Span& s : engine->merged()) {
      append_engine_span(&out, s);
    }
  }
  if (frames != nullptr) {
    append_meta(&out, kFramePid, -1, "process_name",
                "frame hops (sim time, ns as us)");
    for (std::size_t s = 0; s < frames->shard_count(); ++s) {
      char name[32];
      std::snprintf(name, sizeof(name), "shard %zu", s);
      append_meta(&out, kFramePid, 1 + static_cast<int>(s), "thread_name",
                  name);
    }
    for (const HopRecord& r : frames->merged()) append_hop_instant(&out, r);
  }

  // The trace-event format tolerates a trailing comma before ']', but
  // strict JSON validators (python3 -m json.tool in CI) do not.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out.append("]}\n");

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace portland::obs
