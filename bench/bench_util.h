// Shared helpers for the experiment benches: fabric construction, flow
// wiring, and table printing. Each bench binary regenerates one table or
// figure of the paper (see DESIGN.md §4 and EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rss.h"
#include "core/fabric.h"
#include "host/apps.h"
#include "obs/convergence_monitor.h"

namespace portland::bench {

// ---------------------------------------------------------------------------
// Memory accounting: every bench report carries the process RSS next to
// its throughput numbers, so memory regressions show up in the same
// trajectory (E19). Counted per-component table bytes come from
// PortlandFabric::total_table_bytes() where a fabric is at hand.
// ---------------------------------------------------------------------------

struct MemoryReport {
  std::size_t rss_bytes = 0;       // VmRSS at capture
  std::size_t peak_rss_bytes = 0;  // VmHWM (process lifetime peak)

  [[nodiscard]] static MemoryReport capture() {
    return MemoryReport{current_rss_bytes(), portland::peak_rss_bytes()};
  }
  static void walk(auto&& fn) {
    fn("rss_bytes", &MemoryReport::rss_bytes);
    fn("peak_rss_bytes", &MemoryReport::peak_rss_bytes);
  }
};

/// Builds a fabric and runs it until LDP converges; exits 1 if it has not
/// within `limit` of simulated time.
inline std::unique_ptr<core::PortlandFabric> make_fabric(
    const core::PortlandFabric::Options& options,
    SimDuration limit = seconds(5)) {
  auto fabric = std::make_unique<core::PortlandFabric>(options);
  if (!fabric->run_until_converged(limit)) {
    std::fprintf(stderr, "FATAL: LDP did not converge (k=%d seed=%llu)\n",
                 options.k, static_cast<unsigned long long>(options.seed));
    std::exit(1);
  }
  return fabric;
}

inline std::unique_ptr<core::PortlandFabric> make_fabric(
    int k, std::uint64_t seed, core::PortlandConfig config = {},
    std::set<std::size_t> skip = {}) {
  core::PortlandFabric::Options options;
  options.k = k;
  options.seed = seed;
  options.config = config;
  options.skip_host_indices = std::move(skip);
  return make_fabric(options);
}

/// Runs a fabric with the convergence monitor on to `until`, draining
/// the monitor every 10 ms of simulated time: its stream buffers every
/// switch hop of every unicast frame, so frequent drains keep it small.
inline void run_monitored(core::PortlandFabric& fabric, SimTime until) {
  obs::ConvergenceMonitor& monitor = *fabric.convergence_monitor();
  while (fabric.sim().now() < until) {
    fabric.sim().run_until(std::min(until, fabric.sim().now() + millis(10)));
    monitor.advance();
  }
}

/// One measured UDP probe flow (sender + receiver + gap bookkeeping).
struct ProbeFlow {
  host::Host* src = nullptr;
  host::Host* dst = nullptr;
  std::unique_ptr<host::UdpFlowReceiver> receiver;
  std::unique_ptr<host::UdpFlowSender> sender;

  ProbeFlow(host::Host& from, host::Host& to, std::uint16_t port,
            SimDuration interval = millis(1), std::size_t payload_bytes = 64,
            std::size_t burst = 1, SimDuration phase = 0, bool record = true) {
    src = &from;
    dst = &to;
    receiver = std::make_unique<host::UdpFlowReceiver>(to, port, record);
    host::UdpFlowSender::Config cfg;
    cfg.dst = to.ip();
    cfg.src_port = port;
    cfg.dst_port = port;
    cfg.interval = interval;
    cfg.payload_bytes = payload_bytes;
    cfg.burst = burst;
    cfg.phase = phase;
    sender = std::make_unique<host::UdpFlowSender>(from, cfg);
    // The first transmission must be scheduled on the sender's shard; at
    // 1 shard (workers=0) every shard id folds to shard 0.
    sim::ShardGuard guard(from.sim(), from.shard());
    sender->start();
  }
};

using Flows = std::vector<std::unique_ptr<ProbeFlow>>;

/// Data frames the flows' receivers have counted so far.
[[nodiscard]] inline std::uint64_t packets_received(const Flows& flows) {
  std::uint64_t total = 0;
  for (const auto& flow : flows) total += flow->receiver->packets_received();
  return total;
}

/// All-to-all 64 B probe flows, `per_host` per host: host i sends flow f
/// to the host with the same intra-pod index f+1 pods away, so every pod
/// pair carries traffic and every flow crosses the core. With `staggered`
/// the flows' phases spread evenly over `interval`, so bursts from
/// different senders rarely collide on the same instant.
inline Flows all_to_all_flows(core::PortlandFabric& fabric,
                              std::size_t per_host,
                              SimDuration interval = millis(1),
                              std::size_t burst = 1, bool staggered = false,
                              bool record = true) {
  const auto& hosts = fabric.hosts();
  const std::size_t n = hosts.size();
  const std::size_t hosts_per_pod =
      n / static_cast<std::size_t>(fabric.options().k);
  Flows flows;
  std::uint16_t port = 9000;
  for (std::size_t f = 0; f < per_host; ++f) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t dst = (i + (f + 1) * hosts_per_pod) % n;
      const SimDuration phase =
          staggered ? static_cast<SimDuration>(
                          static_cast<std::uint64_t>(interval) * flows.size() /
                          (per_host * n))
                    : 0;
      flows.push_back(std::make_unique<ProbeFlow>(*hosts[i], *hosts[dst],
                                                  port++, interval, 64, burst,
                                                  phase, record));
    }
  }
  return flows;
}

/// Creates `count` probe flows between random hosts in distinct pods.
inline Flows random_interpod_flows(
    core::PortlandFabric& fabric, std::size_t count, Rng& rng,
    SimDuration interval = millis(1)) {
  Flows flows;
  const auto& hosts = fabric.hosts();
  std::uint16_t port = 7100;
  while (flows.size() < count) {
    host::Host* a = hosts[rng.next_below(hosts.size())];
    host::Host* b = hosts[rng.next_below(hosts.size())];
    if (a == b) continue;
    // Distinct pods (IP plan: 10.pod.edge.host).
    if (((a->ip().value() >> 16) & 0xFF) == ((b->ip().value() >> 16) & 0xFF)) {
      continue;
    }
    flows.push_back(std::make_unique<ProbeFlow>(*a, *b, port++, interval));
  }
  return flows;
}

inline void print_header(const std::string& title) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==================================================================\n");
}

// ---------------------------------------------------------------------------
// Repetition helpers: wall-clock numbers from a simulator bench are noisy,
// so benches run each configuration N times and report the median.
// ---------------------------------------------------------------------------

[[nodiscard]] inline double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

/// Runs `run_once` (returning one double sample) `repetitions` times and
/// returns the median sample.
template <typename Fn>
[[nodiscard]] double repeat_median(std::size_t repetitions, Fn&& run_once) {
  std::vector<double> samples;
  samples.reserve(repetitions);
  for (std::size_t i = 0; i < repetitions; ++i) {
    samples.push_back(run_once());
  }
  return median_of(std::move(samples));
}

// ---------------------------------------------------------------------------
// Reports: a bench names each field of its report, and of every row
// struct in it, once, in a static walk:
//
//   struct Row {
//     int k = 0;
//     double mean_ms = 0;
//     static void walk(auto&& fn) {
//       fn("k", &Row::k);
//       fn("mean_ms", &Row::mean_ms);
//     }
//   };
//
// write_json renders the report as one JSON object and print_table renders
// rows as a stdout table, both from that walk. A field is a number, a bool,
// a string, a std::map (a JSON object), a std::vector of walked rows (a
// JSON array, one row per line), or a walked struct, whose fields are
// spliced in with its key as their prefix. A headline that reports a field
// of one row names the path to it: fn("fork_ms", &Report::head, &Row::fork_ms).
// ---------------------------------------------------------------------------

template <class T>
concept Walked = requires { T::walk([](std::string_view, auto...) {}); };

namespace report_detail {

/// A table cell or JSON object key: integers exact, doubles to four
/// significant digits (whole numbers from 1000 up), never in exponent form.
template <class T>
std::string cell(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_arithmetic_v<T>) {
    char buf[400];  // a fixed-format double needs up to 309 digits
    char* end = buf;
    if constexpr (std::is_floating_point_v<T>) {
      const double a = std::fabs(static_cast<double>(v));
      const int magnitude =
          a > 0 && std::isfinite(a) ? static_cast<int>(std::floor(std::log10(a)))
                                    : 0;
      end = std::to_chars(buf, buf + sizeof(buf), static_cast<double>(v),
                          std::chars_format::fixed,
                          std::clamp(3 - magnitude, 0, 9))
                .ptr;
    } else {
      end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    }
    return std::string(buf, end);
  } else {
    return std::string(std::string_view(v));
  }
}

inline void append_string(std::string& out, std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      out += "\\u00";
      out += kHex[u >> 4];
      out += kHex[u & 0xF];
    } else {
      out += c;
    }
  }
  out += '"';
}

template <class T>
void append_fields(std::string& out, const T& obj, const std::string& prefix,
                   std::string_view sep, bool& first);

/// Integers exactly; doubles in their shortest round-trip form, always with
/// a '.' or an exponent so they read back as floats (null if not finite).
template <class T>
void append_value(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    out += v ? "true" : "false";
  } else if constexpr (std::is_arithmetic_v<T>) {
    if (!std::isfinite(static_cast<double>(v))) {
      out += "null";
      return;
    }
    char buf[32];
    const std::string_view text(buf, std::to_chars(buf, buf + 32, v).ptr);
    out += text;
    if (std::is_floating_point_v<T> && text.find_first_of(".e") == text.npos) {
      out += ".0";
    }
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    append_string(out, v);
  } else if constexpr (requires { typename T::mapped_type; }) {
    const char* sep = "{";
    for (const auto& [key, value] : v) {
      out += std::exchange(sep, ", ");
      append_string(out, cell(key));
      out += ": ";
      append_value(out, value);
    }
    out += v.empty() ? "{}" : "}";
  } else if constexpr (requires { typename T::value_type; }) {
    out += '[';
    for (const auto& row : v) {
      out += &row == &v.front() ? "\n    " : ",\n    ";
      append_value(out, row);
    }
    out += "\n  ]";
  } else {
    bool first = true;
    out += '{';
    append_fields(out, v, {}, ", ", first);
    out += '}';
  }
}

/// Every field of `obj` as `"prefix+key": value`, separated by `sep`.
template <class T>
void append_fields(std::string& out, const T& obj, const std::string& prefix,
                   std::string_view sep, bool& first) {
  T::walk([&](std::string_view key, auto... path) {
    const auto& v = (obj .* ... .* path);
    if constexpr (Walked<std::remove_cvref_t<decltype(v)>>) {
      append_fields(out, v, prefix + std::string(key), sep, first);
    } else {
      if (!std::exchange(first, false)) out += sep;
      append_string(out, prefix + std::string(key));
      out += ": ";
      append_value(out, v);
    }
  });
}

}  // namespace report_detail

/// The report of a bench whose rows are all it reports.
template <Walked Row>
struct RowsReport {
  std::vector<Row> rows;
  static void walk(auto&& fn) { fn("rows", &RowsReport::rows); }
};

/// Writes `{"bench": bench, <report's fields>, "rss_bytes": ...,
/// "peak_rss_bytes": ...}` to `path` and says so on stdout. Exits on I/O
/// failure: a bench whose output vanished should not look green.
template <Walked Report>
void write_json(const std::string& path, std::string_view bench,
                const Report& report) {
  std::string out = "{\n  \"bench\": ";
  report_detail::append_string(out, bench);
  bool first = false;
  report_detail::append_fields(out, report, {}, ",\n  ", first);
  report_detail::append_fields(out, MemoryReport::capture(), {}, ",\n  ",
                               first);
  out += "\n}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fwrite(out.data(), 1, out.size(), f) != out.size()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fclose(f);
  std::printf("json written          : %s\n", path.c_str());
}

/// Prints `rows` as a right-aligned table under their walk's keys, each
/// column as wide as its widest cell. With `labels` (one per row), a
/// left-aligned first column headed `label_heading` names each row.
template <Walked Row>
void print_table(const std::vector<Row>& rows,
                 std::string_view label_heading = {},
                 const std::vector<std::string>& labels = {}) {
  std::vector<std::vector<std::string>> columns;  // heading, then the cells
  if (!labels.empty()) {
    columns.push_back({std::string(label_heading)});
    columns.back().insert(columns.back().end(), labels.begin(), labels.end());
  }
  Row::walk([&](std::string_view key, auto... path) {
    auto& column = columns.emplace_back(1, std::string(key));
    for (const Row& row : rows) {
      column.push_back(report_detail::cell((row .* ... .* path)));
    }
  });
  for (std::size_t r = 0; r <= rows.size(); ++r) {
    std::string line;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      std::size_t width = 0;
      for (const std::string& text : columns[c]) {
        width = std::max(width, text.size());
      }
      const std::string pad(width - columns[c][r].size(), ' ');
      if (c > 0) line += "  ";
      line += c == 0 && !labels.empty() ? columns[c][r] + pad
                                        : pad + columns[c][r];
    }
    std::printf("%s\n", line.c_str());
  }
}

/// Standard `--json PATH` handling for the simple benches: returns the
/// path following a `--json` flag anywhere in argv, or empty.
[[nodiscard]] inline std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return {};
}

/// The remaining (positional) arguments with any `--json <path>` pair
/// removed, for benches that also take positional parameters.
[[nodiscard]] inline std::vector<std::string> positional_args(int argc,
                                                              char** argv) {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      ++i;  // skip the path operand too
      continue;
    }
    out.emplace_back(argv[i]);
  }
  return out;
}

/// Prints `usage` on stderr, after naming `bad` unless it asked for help,
/// and exits 2: what every bench does with an argument it cannot read.
[[noreturn]] inline void usage_exit(const char* usage, std::string_view bad) {
  if (bad != "--help" && bad != "-h") {
    std::fprintf(stderr, "bad argument: %.*s\n", static_cast<int>(bad.size()),
                 bad.data());
  }
  std::fprintf(stderr, "usage: %s\n", usage);
  std::exit(2);
}

/// A positional argument that must be a base-10 integer in [lo, hi] (and
/// even, if asked). Anything else (`--help`, an empty token, junk around
/// the digits, a value out of range) is a usage_exit.
[[nodiscard]] inline int int_arg_or_exit(std::string_view text, long long lo,
                                         long long hi, const char* usage,
                                         bool even = false) {
  long long v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || v < lo || v > hi ||
      (even && v % 2 != 0)) {
    usage_exit(usage, text);
  }
  return static_cast<int>(v);
}

/// A fat-tree k the benches can build: even, 4..64.
[[nodiscard]] inline int fat_tree_k_or_exit(std::string_view text,
                                            const char* usage) {
  return int_arg_or_exit(text, 4, 64, usage, /*even=*/true);
}

/// A comma-separated list of integers, each as int_arg_or_exit reads it;
/// an empty entry is a usage_exit too.
[[nodiscard]] inline std::vector<int> int_list_or_exit(std::string_view text,
                                                       long long lo,
                                                       long long hi,
                                                       const char* usage,
                                                       bool even = false) {
  std::vector<int> out;
  while (true) {
    const std::size_t comma = text.find(',');
    out.push_back(int_arg_or_exit(text.substr(0, comma), lo, hi, usage, even));
    if (comma == std::string_view::npos) return out;
    text.remove_prefix(comma + 1);
  }
}

/// A finite decimal number in [lo, hi]; anything else is a usage_exit.
[[nodiscard]] inline double real_arg_or_exit(std::string_view text, double lo,
                                             double hi, const char* usage) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || !(v >= lo) ||
      !(v <= hi)) {
    usage_exit(usage, text);
  }
  return v;
}

/// Walks the `--flag [value]` arguments of a flag bench. Every value goes
/// through the checked parsers above, so a missing or unreadable value,
/// an unknown flag and `--help` all exit 2 with the bench's usage line:
///
///   FlagReader flags(argc, argv, kUsage);
///   while (flags.next()) {
///     if (flags.is("--k")) {
///       a.k = flags.k();
///     } else if (flags.is("--json")) {
///       a.json_path = flags.value();
///     } else {
///       flags.unknown();
///     }
///   }
class FlagReader {
 public:
  FlagReader(int argc, char** argv, const char* usage)
      : argc_(argc), argv_(argv), usage_(usage) {}

  /// Steps to the next flag; false past the last argument.
  [[nodiscard]] bool next() {
    if (++i_ >= argc_) return false;
    flag_ = argv_[i_];
    return true;
  }
  [[nodiscard]] bool is(std::string_view name) const { return flag_ == name; }

  /// The current flag's operand, as given.
  [[nodiscard]] std::string value() {
    if (i_ + 1 >= argc_) usage_exit(usage_, flag_);
    return argv_[++i_];
  }
  [[nodiscard]] int integer(long long lo, long long hi) {
    return int_arg_or_exit(value(), lo, hi, usage_);
  }
  [[nodiscard]] double real(double lo, double hi) {
    return real_arg_or_exit(value(), lo, hi, usage_);
  }
  [[nodiscard]] int k() { return fat_tree_k_or_exit(value(), usage_); }
  /// A comma-separated list of fat-tree ks.
  [[nodiscard]] std::vector<int> k_list() {
    return int_list_or_exit(value(), 4, 64, usage_, /*even=*/true);
  }

  /// The current flag is not one the bench knows (or is `--help`).
  [[noreturn]] void unknown() const { usage_exit(usage_, flag_); }

 private:
  int argc_;
  char** argv_;
  const char* usage_;
  int i_ = 0;
  std::string_view flag_;
};

}  // namespace portland::bench
