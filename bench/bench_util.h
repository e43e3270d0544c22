// Shared helpers for the experiment benches: fabric construction, flow
// wiring, and table printing. Each bench binary regenerates one table or
// figure of the paper (see DESIGN.md §4 and EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
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
};

inline std::unique_ptr<core::PortlandFabric> make_fabric(
    const core::PortlandFabric::Options& options) {
  auto fabric = std::make_unique<core::PortlandFabric>(options);
  if (!fabric->run_until_converged()) {
    std::fprintf(stderr, "FATAL: LDP did not converge (k=%d seed=%llu)\n",
                 options.k, static_cast<unsigned long long>(options.seed));
    std::abort();
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

/// Creates `count` probe flows between random hosts in distinct pods.
inline std::vector<std::unique_ptr<ProbeFlow>> random_interpod_flows(
    core::PortlandFabric& fabric, std::size_t count, Rng& rng,
    SimDuration interval = millis(1)) {
  std::vector<std::unique_ptr<ProbeFlow>> flows;
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
// Machine-readable output: every bench emits one flat JSON object so
// scripts/run_all_benches.sh can collect BENCH_<name>.json files.
// ---------------------------------------------------------------------------

class JsonReport {
 public:
  explicit JsonReport(const std::string& bench) { add("bench", bench); }

  void add(const std::string& key, const std::string& value) {
    entries_.push_back("\"" + key + "\": \"" + value + "\"");
  }
  void add(const std::string& key, const char* value) {
    add(key, std::string(value));
  }
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    entries_.push_back("\"" + key + "\": " + buf);
  }
  void add(const std::string& key, std::uint64_t value) {
    entries_.push_back("\"" + key + "\": " + std::to_string(value));
  }
  void add(const std::string& key, int value) {
    entries_.push_back("\"" + key + "\": " + std::to_string(value));
  }
  /// Pre-rendered JSON (an array or nested object) under `key`.
  void add_raw(const std::string& key, const std::string& json) {
    entries_.push_back("\"" + key + "\": " + json);
  }

  /// Writes the object to `path` and reports on stdout. Exits on I/O
  /// failure — a bench whose output vanished should not look green.
  /// Every report gains an RSS snapshot at write time (rss_bytes /
  /// peak_rss_bytes), so memory rides along in all BENCH_e*.json files.
  void write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      std::exit(1);
    }
    const MemoryReport mem = MemoryReport::capture();
    std::fprintf(f, "{\n");
    for (const std::string& e : entries_) {
      std::fprintf(f, "  %s,\n", e.c_str());
    }
    std::fprintf(f, "  \"rss_bytes\": %zu,\n", mem.rss_bytes);
    std::fprintf(f, "  \"peak_rss_bytes\": %zu\n", mem.peak_rss_bytes);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json written          : %s\n", path.c_str());
  }

 private:
  std::vector<std::string> entries_;
};

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
