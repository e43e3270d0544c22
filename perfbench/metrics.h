// Helpers the fabric benchmark reports through: percentile rules, the
// log2 ARP-latency bucket read-out, metric-name validation, a streaming
// span tracer and a minimal JSON writer. Kept free of simulator types so
// selftest.cc can pin each rule on plain inputs.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Samples that lie beyond the p-th percentile of n samples, counted as
/// floor(n * (100 - p) / 100) in integer per-mille so 99.9 is exact.
[[nodiscard]] inline std::uint64_t samples_beyond(std::uint64_t n, double p) {
  const auto p_milli = static_cast<std::uint64_t>(std::llround(p * 10.0));
  if (p_milli >= 1000) return 0;
  return n * (1000 - p_milli) / 1000;
}

/// A percentile is reportable only when at least ten samples lie beyond
/// it; otherwise its value is set by fewer than ten outliers.
[[nodiscard]] inline bool percentile_supported(std::uint64_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

/// Linear-interpolated percentile (the "type 7" rule numpy and Python's
/// statistics.quantiles(method='inclusive') use). 0 for no samples.
[[nodiscard]] inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// A timing summary: median, the named tail percentile, and the sample
/// count that says whether the tail is supported.
struct Summary {
  double p50 = 0;
  double tail = 0;
  std::uint64_t count = 0;
  bool tail_supported = false;
};

[[nodiscard]] inline Summary summarize(const std::vector<double>& samples,
                                       double tail_p) {
  Summary s;
  s.count = samples.size();
  s.p50 = median(samples);
  s.tail = percentile(samples, tail_p);
  s.tail_supported = percentile_supported(s.count, tail_p);
  return s;
}

// ---------------------------------------------------------------------------
// Log2 latency buckets (hosts count ARP resolution latency this way)
// ---------------------------------------------------------------------------

/// Bucket b counts latencies in (2^(b-1), 2^b] microseconds (bucket 0:
/// [0, 1]); `over` counts everything above 2^(kBuckets-1).
struct Log2Histogram {
  static constexpr int kBuckets = 16;
  std::uint64_t le[kBuckets] = {};
  std::uint64_t over = 0;

  /// Counts one latency of `us` whole microseconds into the bucket the
  /// hosts use: the first b with 2^b >= us, else `over`.
  void add_us(std::uint64_t us) {
    int b = 0;
    while (b < kBuckets && (1ull << b) < us) ++b;
    if (b < kBuckets) {
      ++le[b];
    } else {
      ++over;
    }
  }

  [[nodiscard]] bool operator==(const Log2Histogram& o) const {
    return std::equal(std::begin(le), std::end(le), std::begin(o.le)) &&
           over == o.over;
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t n = over;
    for (const std::uint64_t c : le) n += c;
    return n;
  }

  /// The p-th percentile, interpolated linearly inside the bucket that
  /// holds it (the within-bucket position is the only information the
  /// counts carry). A percentile landing in `over` reads as the
  /// overflow bound 2^kBuckets; `saturated` then says so.
  [[nodiscard]] double percentile_us(double p, bool* saturated = nullptr) const {
    if (saturated != nullptr) *saturated = false;
    const std::uint64_t n = total();
    if (n == 0) return 0.0;
    const double want = p / 100.0 * static_cast<double>(n);
    double cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const auto count = static_cast<double>(le[b]);
      if (count > 0 && cum + count >= want) {
        const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
        const double hi = std::ldexp(1.0, b);
        return lo + (hi - lo) * std::clamp((want - cum) / count, 0.0, 1.0);
      }
      cum += count;
    }
    if (saturated != nullptr) *saturated = true;
    return std::ldexp(1.0, kBuckets);
  }
};

// ---------------------------------------------------------------------------
// Metric names and JSON
// ---------------------------------------------------------------------------

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit, so every consumer can use them as keys unquoted.
[[nodiscard]] inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Shortest decimal that reads back as the same double; non-finite
/// values (which JSON cannot carry) render as null.
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

[[nodiscard]] inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// One reported metric: value, unit, and (for timings) its sample count.
struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// {"name": {"value": v, "unit": u[, "samples": n]}, ...} in name order.
[[nodiscard]] inline std::string metrics_json(
    const std::map<std::string, Metric>& metrics, bool with_samples) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (with_samples && m.samples > 0) {
      out += ", \"samples\": " + std::to_string(m.samples);
    }
    out += "}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Streaming span tracer for the benchmark's own calls into each layer.
/// Spans nest on one thread; closing a span charges its duration to its
/// parent, so self time (duration minus covered children) is exact
/// without storing every span. Spans of names with fewer than
/// `kKeepPerName` occurrences are also kept for the trace file. While
/// disabled, open() and close() do nothing.
class SpanTracer {
 public:
  static constexpr std::size_t kKeepPerName = 4096;

  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0;
    double child_us = 0;  // covered by direct children
  };
  struct Kept {
    std::string name;
    std::string parent;
    double begin_us = 0;
    double end_us = 0;
  };

  SpanTracer() : epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Starts or stops recording; the time spent enabled is the traced
  /// wall that self times and the unexplained share are taken against.
  void set_enabled(bool on) {
    if (on == enabled_) return;
    const double t = now_us();
    if (on) {
      enabled_since_ = t;
    } else {
      traced_wall_us_ += t - enabled_since_;
    }
    enabled_ = on;
  }

  void open(const char* name) {
    if (!enabled_) return;
    stack_.push_back(Open{name, now_us(), 0});
  }

  /// Closes the innermost span; returns its duration in microseconds.
  double close() {
    if (!enabled_ || stack_.empty()) return 0;
    const Open o = stack_.back();
    stack_.pop_back();
    const double end = now_us();
    const double dur = end - o.begin_us;
    Totals& t = totals_[o.name];
    ++t.count;
    t.total_us += dur;
    t.child_us += o.child_us;
    const char* parent = stack_.empty() ? "" : stack_.back().name;
    if (stack_.empty()) {
      top_level_us_ += dur;
    } else {
      stack_.back().child_us += dur;
      child_of_[o.name][parent] += dur;
    }
    if (t.count <= kKeepPerName) kept_.push_back({o.name, parent, o.begin_us, end});
    return dur;
  }

  /// Wall time spent enabled, including a still-open enabled period.
  [[nodiscard]] double traced_wall_us() const {
    return traced_wall_us_ + (enabled_ ? now_us() - enabled_since_ : 0.0);
  }
  [[nodiscard]] double top_level_us() const { return top_level_us_; }
  [[nodiscard]] const std::map<std::string, Totals>& totals() const {
    return totals_;
  }
  /// Time each span name spent directly inside each parent name.
  [[nodiscard]] const std::map<std::string, std::map<std::string, double>>&
  child_of() const {
    return child_of_;
  }
  [[nodiscard]] const std::vector<Kept>& kept() const { return kept_; }

 private:
  struct Open {
    const char* name;
    double begin_us;
    double child_us;
  };
  std::chrono::steady_clock::time_point epoch_;
  bool enabled_ = false;
  double enabled_since_ = 0;
  double traced_wall_us_ = 0;
  double top_level_us_ = 0;
  std::vector<Open> stack_;
  std::map<std::string, Totals> totals_;
  std::map<std::string, std::map<std::string, double>> child_of_;
  std::vector<Kept> kept_;
};

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  Span(SpanTracer& tracer, const char* name)
      : tracer_(&tracer), opened_(tracer.enabled()) {
    tracer_->open(name);
  }
  ~Span() {
    if (opened_) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer* tracer_;
  bool opened_;
};

}  // namespace perfbench
