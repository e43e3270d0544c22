// Fabric benchmark: one binary that runs one named workload on the
// library's default engine and tables, measures it from outside through
// the public API, checks the simulated outcome, and prints one RESULT
// line of JSON for run.py. See README.md for the workloads and metrics.
//
// Usage: fabric_bench --workload NAME --seed N --seconds S --trace 0|1
//                     [--trace-out PATH]
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rss.h"
#include "core/fabric.h"
#include "host/apps.h"
#include "metrics.h"
#include "net/packet.h"
#include "obs/drop_reason.h"
#include "obs/trace_export.h"
#include "totals.h"
#include "traffic.h"

// Heap allocations are counted by replacing global operator new in this
// binary only (as E14 does), so mem.allocs_per_frame sees every
// allocation the library makes on the benchmark's behalf.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace portland;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "fabric_bench: %s\n", why.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

enum class Workload { kShuffleBurst, kPacedMtu, kControlChurn, kWhatIfFork };

struct Args {
  Workload workload = Workload::kShuffleBurst;
  std::string workload_name;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) die("missing value for " + arg);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload_name = val;
      if (val == "shuffle_burst") {
        a.workload = Workload::kShuffleBurst;
      } else if (val == "paced_mtu") {
        a.workload = Workload::kPacedMtu;
      } else if (val == "control_churn") {
        a.workload = Workload::kControlChurn;
      } else if (val == "whatif_fork") {
        a.workload = Workload::kWhatIfFork;
      } else {
        die("unknown workload " + val);
      }
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') die("bad --seed " + val);
      have_seed = true;
    } else if (arg == "--seconds") {
      const long s = std::strtol(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || s < 1 || s > 60) {
        die("bad --seconds " + val + " (1..60)");
      }
      a.seconds = static_cast<int>(s);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") die("bad --trace " + val);
      a.trace = val == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      a.trace_out = val;
    } else {
      die("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    die("usage: fabric_bench --workload NAME --seed N --seconds S "
        "--trace 0|1 [--trace-out PATH]");
  }
  return a;
}

// ---------------------------------------------------------------------------
// Machine stamp
// ---------------------------------------------------------------------------

/// Spins `iters` dependent multiply-adds; the result is returned so the
/// loop cannot be folded away.
std::uint64_t spin(std::uint64_t iters) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ull + i;
  return x;
}

/// Cores that really run in parallel: the wall time of one spinning
/// thread against `threads` spinning at once, each doing the same work.
/// A box whose vCPUs share one core reads about 1.
double effective_cores(unsigned threads) {
  constexpr std::uint64_t kIters = 40'000'000;
  std::atomic<std::uint64_t> sink{0};
  const auto t0 = Clock::now();
  sink += spin(kIters);
  const double one = seconds_since(t0);
  const auto t1 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back([&sink] { sink += spin(kIters); });
  }
  for (std::thread& t : pool) t.join();
  const double all = seconds_since(t1);
  return all > 0 ? static_cast<double>(threads) * one / all : 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string machine_json() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned hw = std::thread::hardware_concurrency();
  const double eff = effective_cores(nproc > 0 ? static_cast<unsigned>(nproc)
                                               : 1u);
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"hardware_concurrency\": " + std::to_string(hw) +
         ", \"effective_cores\": " + json_number(eff) +
         ", \"cpu_model\": " + json_string(cpu_model()) +
         ", \"compiler\": " + json_string("gcc " __VERSION__) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) + "}";
}

// ---------------------------------------------------------------------------
// Digest of the simulated outcome
// ---------------------------------------------------------------------------

/// FNV-1a over a stream of 64-bit values.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// ---------------------------------------------------------------------------
// Workload parameters. Simulated work is a pure function of (workload,
// seed, seconds): `seconds` scales the number of chunks, rounds or
// queries by the constants below, tuned so `--seconds 10` measures about
// 10-15 wall seconds on a 4-vCPU Xeon VM.
// ---------------------------------------------------------------------------

constexpr int kSetups = 3;  // setup_s is the median of this many set-ups

// shuffle_burst
constexpr int kShuffleK = 16;
constexpr SimDuration kShuffleInterval = millis(8);
constexpr std::size_t kShuffleBurst = 128;
constexpr double kShuffleChunksPerSecond = 7.0;  // one chunk = one interval
// paced_mtu
constexpr int kPacedK = 16;
constexpr std::size_t kPacedFlowsPerHost = 2;
constexpr std::size_t kPacedPayload = 1400;
constexpr SimDuration kPacedChunk = millis(10);
constexpr double kPacedChunksPerSecond = 11.0;
// control_churn
constexpr int kChurnK = 32;
constexpr std::size_t kChurnProbes = 512;
constexpr std::size_t kChurnTcpFlows = 4;
constexpr SimDuration kChurnRoundGap = millis(25);
constexpr int kChurnRoundsPerCycle = 8;
constexpr SimDuration kChurnRepairAfter = millis(100);
constexpr std::size_t kChurnLinksPerEpisode = 3;
constexpr double kChurnCyclesPerSecond = 0.3;
// whatif_fork
constexpr int kWhatIfK = 32;
constexpr std::size_t kWhatIfFlows = 1024;
constexpr SimDuration kWhatIfWarm = millis(100);
constexpr SimDuration kWhatIfReaction = millis(1);
constexpr std::size_t kWhatIfLinks = 3;
constexpr double kWhatIfQueriesPerSecond = 40.0;
constexpr int kWhatIfQueriesPerChunk = 8;

constexpr std::uint16_t kDataPortBase = 9000;
constexpr std::uint16_t kProbePortBase = 20000;
constexpr std::uint16_t kChurnPort = 7000;
constexpr std::uint16_t kTcpPort = 5001;

int scaled(double per_second, int seconds, int minimum) {
  return std::max(minimum,
                  static_cast<int>(per_second * seconds + 0.5));
}

/// One timed slice of the measured phase.
struct Chunk {
  double wall_s = 0;
  std::uint64_t delivered = 0;
  std::uint64_t resolutions = 0;
  bool traced = false;
};

struct SetupTimes {
  double setup_s = 0, construct_ms = 0, converge_ms = 0, save_ms = 0;
  double wave_wall_s = 0;
  std::uint64_t wave_resolutions = 0;
  std::uint64_t digest = 0;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args) {}

  int run();

 private:
  // --- set-up ------------------------------------------------------------
  core::PortlandFabric::Options fabric_options() const;
  void teardown();
  SetupTimes setup_once();
  void install_traffic();
  void warm_up(SetupTimes& st);
  void harvest_engine_spans();

  // --- measured phase -----------------------------------------------------
  void measure_data();
  void measure_churn();
  void measure_whatif();
  double run_until(SimTime t);
  void set_traced(bool on);
  std::uint64_t delivered() const;
  void collect_arp_latencies();
  void verify_arp_against_fm();

  // --- reporting -----------------------------------------------------------
  void put(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0, bool applies = true);
  void check(const std::string& name, bool ok, const std::string& detail);
  void report_metrics();
  void report_trace();
  void write_trace_file() const;
  std::string result_json() const;

  [[nodiscard]] bool data_workload() const {
    return args_.workload == Workload::kShuffleBurst ||
           args_.workload == Workload::kPacedMtu;
  }

  Args args_;
  SpanTracer tracer_;
  std::unique_ptr<core::PortlandFabric> fabric_;
  std::unique_ptr<Generator> gen_;
  std::vector<std::unique_ptr<host::UdpFlowReceiver>> receivers_;
  std::vector<std::unique_ptr<host::UdpFlowReceiver>> probes_;
  std::vector<host::TcpConnection*> tcp_;
  std::uint64_t churn_rx_ = 0;  // churn datagrams delivered
  std::vector<sim::Link*> rack_uplinks_;
  std::vector<std::uint8_t> image_;
  std::vector<sim::Snapshotable*> extras_;
  double engine_offset_us_ = 0;  // tracer_ time minus engine tracer time
  double conv_begin_engine_us_ = 0, conv_end_engine_us_ = 0;
  double engine_conv_us_ = 0, engine_run_us_ = 0;
  std::uint64_t engine_spans_ = 0;
  bool engine_harvested_ = false;
  std::vector<SpanTracer::Kept> engine_kept_;

  // Measured-phase results.
  std::vector<SetupTimes> setups_;
  std::vector<Chunk> chunks_;
  Totals layer_;               // per-layer deltas over the measured phase
  Log2Histogram arp_hist_;     // the hosts' own ARP latency buckets
  std::uint64_t frames_ = 0;   // delivered data frames in the measured phase
  double sim_seconds_ = 0;     // simulated time of the measured phase
  double run_until_wall_s_ = 0;
  std::uint64_t run_until_events_ = 0;
  std::vector<double> convergence_ms_;
  std::vector<double> fork_ms_, answer_ms_, react_ms_;
  std::vector<double> lookup_ns_;
  std::uint64_t tcp_retransmits_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::uint64_t churn_lost_ = 0;
  Digest outcome_;
  std::vector<std::pair<std::string, std::string>> outcome_fields_;

  std::map<std::string, Metric> metrics_;
  std::set<std::string> not_applicable_;
  std::vector<Check> checks_;
  std::string machine_;
  bool measuring_ = false;
  Totals arp_scope_;  // the deltas ARP metrics are read from
  std::vector<double> churn_send_ns_;
  std::vector<std::pair<host::Host*, Ipv4Address>> resolved_pairs_;
  std::vector<SimTime> round_starts_;
  std::vector<std::size_t> round_offsets_;
  std::vector<double> arp_us_;  // exact resolution latencies
  Log2Histogram arp_exact_hist_;
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

std::size_t pod_of(const host::Host& h) {
  return (h.ip().value() >> 16) & 0xFF;
}

core::PortlandFabric::Options Bench::fabric_options() const {
  core::PortlandFabric::Options o;
  o.seed = args_.seed;
  o.obs.engine_trace = args_.trace;
  switch (args_.workload) {
    case Workload::kShuffleBurst:
      // Fast links, wide propagation: serialization shrinks to ns while
      // the 5 us flight keeps each burst's hops apart, so bursts travel
      // as trains (E18's regime).
      o.k = kShuffleK;
      o.host_link.bandwidth_bps = o.fabric_link.bandwidth_bps = 100e9;
      o.host_link.propagation = o.fabric_link.propagation = micros(5);
      break;
    case Workload::kPacedMtu:
      o.k = kPacedK;
      break;
    case Workload::kControlChurn:
      o.k = kChurnK;
      o.config.fm_shards = 0;  // one registry shard per pod
      o.config.fm_replica = true;
      break;
    case Workload::kWhatIfFork:
      // Carrier loss is reported at once, so a 1 ms reaction window sees
      // the fault matrix react (as scenario_cli --serve and E20 do).
      o.k = kWhatIfK;
      o.config.fast_link_detection = true;
      break;
  }
  return o;
}

void Bench::harvest_engine_spans() {
  if (!fabric_ || fabric_->engine_tracer() == nullptr || engine_harvested_) {
    return;
  }
  engine_harvested_ = true;
  for (const auto& sp : fabric_->engine_tracer()->merged()) {
    if (sp.kind != obs::EngineTracer::Span::Kind::kDispatch) continue;
    const double dur = sp.wall_end_us - sp.wall_begin_us;
    const bool in_converge = sp.wall_begin_us >= conv_begin_engine_us_ &&
                             sp.wall_end_us <= conv_end_engine_us_;
    (in_converge ? engine_conv_us_ : engine_run_us_) += dur;
    if (engine_spans_++ < SpanTracer::kKeepPerName) {
      engine_kept_.push_back({"sim.engine.dispatch",
                              in_converge ? "core.ldp.converge"
                                          : "sim.run_until",
                              sp.wall_begin_us + engine_offset_us_,
                              sp.wall_end_us + engine_offset_us_});
    }
  }
}

void Bench::teardown() {
  // Teardown is not a measured layer: keep it out of the traced wall.
  const bool was = tracer_.enabled();
  tracer_.set_enabled(false);
  harvest_engine_spans();
  gen_.reset();
  receivers_.clear();
  probes_.clear();
  tcp_.clear();
  extras_.clear();
  image_.clear();
  rack_uplinks_.clear();
  resolved_pairs_.clear();
  fabric_.reset();
  churn_rx_ = 0;
  tracer_.set_enabled(was);
}

double Bench::run_until(SimTime t) {
  sim::Simulator& sim = fabric_->sim();
  const std::uint64_t e0 = sim.executed_events();
  const auto w0 = Clock::now();
  {
    Span span(tracer_, "sim.run_until");
    sim.run_until(t);
  }
  const double wall = seconds_since(w0);
  if (measuring_ && !tracer_.enabled()) {
    run_until_wall_s_ += wall;
    run_until_events_ += sim.executed_events() - e0;
  }
  return wall;
}

void Bench::set_traced(bool on) {
  tracer_.set_enabled(on);
  if (fabric_) fabric_->sim().set_tracer(on ? fabric_->engine_tracer() : nullptr);
}

std::uint64_t Bench::delivered() const {
  std::uint64_t n = churn_rx_;
  for (const auto& r : receivers_) n += r->packets_received();
  for (const auto& r : probes_) n += r->packets_received();
  return n;
}

void Bench::install_traffic() {
  // Inputs come from the seed alone, so every set-up builds the same ones.
  Rng rng(args_.seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  core::PortlandFabric& f = *fabric_;
  const auto& hosts = f.hosts();
  const std::size_t n = hosts.size();
  const std::size_t k = static_cast<std::size_t>(f.options().k);
  const std::size_t per_pod = n / k;
  // A uniformly random host in another pod than `src`.
  const auto other_pod = [&](const host::Host& src) -> host::Host* {
    const std::size_t pod = (pod_of(src) + 1 + rng.next_below(k - 1)) % k;
    return hosts[pod * per_pod + rng.next_below(per_pod)];
  };
  std::vector<Generator::Flow> flows;
  const auto add_flow = [&](host::Host* src, host::Host* dst,
                            std::uint16_t port, SimDuration interval,
                            std::size_t payload, std::size_t burst,
                            SimDuration phase, bool record) {
    flows.push_back({src, dst->ip(), port, interval, payload, burst, phase});
    auto rx = std::make_unique<host::UdpFlowReceiver>(*dst, port, record);
    (record ? probes_ : receivers_).push_back(std::move(rx));
    resolved_pairs_.emplace_back(src, dst->ip());
  };

  switch (args_.workload) {
    case Workload::kShuffleBurst:
      for (std::size_t i = 0; i < n; ++i) {
        add_flow(hosts[i], other_pod(*hosts[i]),
                 static_cast<std::uint16_t>(kDataPortBase + i),
                 kShuffleInterval, 64, kShuffleBurst,
                 static_cast<SimDuration>(kShuffleInterval * i / n), false);
      }
      break;
    case Workload::kPacedMtu:
      for (std::size_t fl = 0; fl < kPacedFlowsPerHost; ++fl) {
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t idx = fl * n + i;
          add_flow(hosts[i], other_pod(*hosts[i]),
                   static_cast<std::uint16_t>(kDataPortBase + idx), millis(1),
                   kPacedPayload, 1,
                   static_cast<SimDuration>(millis(1) * idx /
                                            (kPacedFlowsPerHost * n)),
                   false);
        }
      }
      break;
    case Workload::kControlChurn: {
      // Probe sinks share one rack, so every uplink of that rack's edge
      // switch carries about probes/(k/2) probe flows: failing a few of
      // them gives each episode dozens of convergence samples.
      const std::size_t pod = rng.next_below(k);
      const std::size_t edge = rng.next_below(k / 2);
      const sim::Device* rack = &f.edge_at(pod, edge);
      for (sim::Link* l : f.fabric_links()) {
        if (&l->device(0) == rack || &l->device(1) == rack) {
          rack_uplinks_.push_back(l);
        }
      }
      for (std::size_t j = 0; j < kChurnProbes; ++j) {
        host::Host* sink = &f.host_at(pod, edge, j % (k / 2));
        host::Host* src = other_pod(*sink);
        add_flow(src, sink, static_cast<std::uint16_t>(kProbePortBase + j),
                 millis(1), 64, 1,
                 static_cast<SimDuration>(millis(1) * j / kChurnProbes), true);
      }
      for (std::size_t j = 0; j < kChurnTcpFlows; ++j) {
        host::Host* src = hosts[rng.next_below(n)];
        host::Host* dst = other_pod(*src);
        const auto port = static_cast<std::uint16_t>(kTcpPort + j);
        dst->tcp_listen(port, [](host::TcpConnection&) {});
        host::TcpConnection* c = src->tcp_connect(dst->ip(), port);
        c->send(1'000'000'000'000ull);  // longer than any run
        tcp_.push_back(c);
      }
      for (host::Host* h : hosts) {
        h->bind_udp(kChurnPort,
                    [this](Ipv4Address, std::uint16_t, std::uint16_t,
                           std::span<const std::uint8_t>) { ++churn_rx_; });
      }
      break;
    }
    case Workload::kWhatIfFork: {
      const auto perm = host::permutation_pairing(n, rng);
      const std::size_t count = std::min(kWhatIfFlows, n);
      for (std::size_t i = 0; i < count; ++i) {
        add_flow(hosts[i], hosts[perm[i]],
                 static_cast<std::uint16_t>(kDataPortBase + i), millis(2), 64,
                 1, static_cast<SimDuration>(millis(2) * i / count), false);
      }
      break;
    }
  }
  gen_ = std::make_unique<Generator>(f.sim(), tracer_, std::move(flows));
  extras_ = {gen_.get()};
  gen_->start();
}

void Bench::warm_up(SetupTimes& st) {
  core::PortlandFabric& f = *fabric_;
  const SimTime start = f.sim().now();
  if (args_.workload != Workload::kControlChurn) {
    // The first-contact ARP wave: step until every flow has delivered
    // a frame, i.e. every sender resolved its destination.
    const std::uint64_t res0 = host_resolutions(f);
    const auto all_flowing = [&] {
      for (const auto& r : receivers_) {
        if (r->packets_received() == 0) return false;
      }
      return true;
    };
    for (int step = 0; step < 500 && !all_flowing(); ++step) {
      st.wave_wall_s += run_until(f.sim().now() + millis(1));
    }
    if (!all_flowing()) die("first-contact ARP wave did not complete");
    st.wave_resolutions = host_resolutions(f) - res0;
  }
  SimDuration warm = 0;
  switch (args_.workload) {
    case Workload::kShuffleBurst: warm = 4 * kShuffleInterval; break;
    case Workload::kPacedMtu: warm = millis(20); break;
    case Workload::kControlChurn: warm = millis(60); break;
    case Workload::kWhatIfFork: warm = kWhatIfWarm; break;
  }
  if (f.sim().now() < start + warm) run_until(start + warm);
}

SetupTimes Bench::setup_once() {
  teardown();
  SetupTimes st;
  const auto t0 = Clock::now();
  {
    Span span(tracer_, "core.fabric.construct");
    fabric_ = std::make_unique<core::PortlandFabric>(fabric_options());
  }
  engine_harvested_ = false;
  st.construct_ms = seconds_since(t0) * 1e3;
  obs::EngineTracer* et = fabric_->engine_tracer();
  if (et != nullptr) engine_offset_us_ = tracer_.now_us() - et->now_us();
  bool converged = false;
  {
    const auto c0 = Clock::now();
    Span span(tracer_, "core.ldp.converge");
    conv_begin_engine_us_ = et != nullptr ? et->now_us() : 0;
    converged = fabric_->run_until_converged(seconds(30));
    conv_end_engine_us_ = et != nullptr ? et->now_us() : 0;
    st.converge_ms = seconds_since(c0) * 1e3;
  }
  if (!converged) die("LDP did not converge");
  install_traffic();
  warm_up(st);
  if (args_.workload == Workload::kWhatIfFork) {
    std::string err;
    const auto s0 = Clock::now();
    bool saved = false;
    {
      Span span(tracer_, "sim.snapshot.save");
      saved = fabric_->save_snapshot(image_, extras_, &err);
    }
    st.save_ms = seconds_since(s0) * 1e3;
    if (!saved) die("save_snapshot failed: " + err);
  }
  st.setup_s = seconds_since(t0);

  Digest d;
  d.add(fabric_->sim().executed_events());
  d.add(static_cast<std::uint64_t>(fabric_->sim().now()));
  d.add(fabric_->fabric_manager().host_count());
  d.add(host_resolutions(*fabric_));
  d.add(delivered());
  d.add(gen_->sent());
  d.add(image_.size());
  st.digest = d.value();
  return st;
}

// ---------------------------------------------------------------------------
// Measured phases
// ---------------------------------------------------------------------------

void Bench::measure_data() {
  core::PortlandFabric& f = *fabric_;
  const bool shuffle = args_.workload == Workload::kShuffleBurst;
  const int n = shuffle ? scaled(kShuffleChunksPerSecond, args_.seconds, 4)
                        : scaled(kPacedChunksPerSecond, args_.seconds, 4);
  const SimDuration chunk = shuffle ? kShuffleInterval : kPacedChunk;
  measuring_ = true;
  const Totals t0 = capture(f, g_allocs, g_alloc_bytes, false);
  const std::uint64_t d0 = delivered();
  const SimTime sim0 = f.sim().now();
  for (int i = 0; i < n; ++i) {
    Chunk c;
    c.traced = args_.trace && i % 2 == 0;
    set_traced(c.traced);
    const std::uint64_t before = delivered();
    c.wall_s = run_until(f.sim().now() + chunk);
    c.delivered = delivered() - before;
    chunks_.push_back(c);
  }
  set_traced(args_.trace);
  layer_ = delta(capture(f, g_allocs, g_alloc_bytes, false), t0);
  frames_ = delivered() - d0;
  sim_seconds_ = to_seconds(f.sim().now() - sim0);
  measuring_ = false;

  // Loss gate: stop the senders, let the fabric drain, then every
  // datagram ever sent must have arrived.
  gen_->stop();
  run_until(f.sim().now() + millis(5));
  attempted_ = gen_->sent();
  failed_ = attempted_ - std::min(attempted_, delivered());
  outcome_.add(frames_);
  outcome_fields_.emplace_back("delivered_frames", std::to_string(frames_));
}

void Bench::measure_churn() {
  core::PortlandFabric& f = *fabric_;
  sim::Simulator& sim = f.sim();
  const auto& hosts = f.hosts();
  const std::size_t n = hosts.size();
  const int cycles = scaled(kChurnCyclesPerSecond, args_.seconds, 2);
  const int rounds = cycles * kChurnRoundsPerCycle;
  const int failover_round = (cycles / 2) * kChurnRoundsPerCycle;

  // Distinct target offsets: every round hands each host a target it
  // has never resolved.
  Rng rng(args_.seed * 0xD1B54A32D192ED03ull + 0xC4A9);
  std::vector<std::size_t> offsets;
  std::set<std::size_t> used;
  while (offsets.size() < static_cast<std::size_t>(rounds)) {
    const std::size_t off = 1 + rng.next_below(n - 1);
    if (used.insert(off).second) offsets.push_back(off);
  }

  measuring_ = true;
  const Totals t0 = capture(f, g_allocs, g_alloc_bytes, true);
  const std::uint64_t d0 = delivered();
  const std::uint64_t rx0 = churn_rx_;
  std::uint64_t retx0 = 0;
  for (const host::TcpConnection* c : tcp_) retx0 += c->retransmissions();
  const SimTime sim0 = sim.now();
  round_offsets_ = offsets;
  std::vector<SimTime> episodes;
  std::uint64_t traced_sends = 0;
  for (int c = 0; c < cycles; ++c) {
    for (int r = 0; r < kChurnRoundsPerCycle; ++r) {
      const int round = c * kChurnRoundsPerCycle + r;
      Chunk chunk;
      chunk.traced = args_.trace && round % 2 == 0;
      set_traced(chunk.traced);
      const std::uint64_t del0 = delivered();
      const std::uint64_t res0 = host_resolutions(f);
      const auto w0 = Clock::now();
      const SimTime start = sim.now();
      round_starts_.push_back(start);
      const std::size_t off = offsets[static_cast<std::size_t>(round)];
      for (std::size_t i = 0; i < n; ++i) {
        const Ipv4Address dst = hosts[(i + off) % n]->ip();
        if (!chunk.traced) {
          hosts[i]->send_udp(dst, kChurnPort, kChurnPort, {1});
          continue;
        }
        tracer_.open("host.send_udp");
        hosts[i]->send_udp(dst, kChurnPort, kChurnPort, {1});
        const double us = tracer_.close();
        if (++traced_sends % Generator::kSampleEvery == 0) {
          churn_send_ns_.push_back(us * 1e3);
        }
      }
      if (r == 0) {
        // A fault episode: a few uplinks of the probe rack fail just
        // after the round goes out and are repaired mid-cycle.
        std::vector<sim::Link*> pool = rack_uplinks_;
        const SimTime fail_at = start + millis(1);
        for (std::size_t v = 0; v < kChurnLinksPerEpisode && !pool.empty();
             ++v) {
          const std::size_t pick = rng.next_below(pool.size());
          f.failures().fail_link_at(*pool[pick], fail_at);
          f.failures().repair_link_at(*pool[pick], fail_at + kChurnRepairAfter);
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        episodes.push_back(fail_at);
      }
      if (round == failover_round) {
        // The primary dies with this round's queries in flight.
        run_until(start + micros(20));
        f.fabric_manager().failover_to_replica();
      }
      run_until(start + kChurnRoundGap);
      chunk.wall_s = seconds_since(w0);
      chunk.delivered = delivered() - del0;
      chunk.resolutions = host_resolutions(f) - res0;
      chunks_.push_back(chunk);
    }
  }
  set_traced(args_.trace);
  layer_ = delta(capture(f, g_allocs, g_alloc_bytes, true), t0);
  arp_scope_ = layer_;
  frames_ = delivered() - d0;
  sim_seconds_ = to_seconds(sim.now() - sim0);
  measuring_ = false;
  for (const host::TcpConnection* c : tcp_) {
    tcp_retransmits_ += c->retransmissions();
  }
  tcp_retransmits_ -= retx0;

  // The paper's method: the gap each probe flow saw across a failure.
  for (const SimTime at : episodes) {
    for (const auto& p : probes_) {
      const SimDuration gap = p->max_gap(at - millis(2), at + kChurnRepairAfter);
      if (gap > millis(3)) convergence_ms_.push_back(to_millis(gap));
    }
  }
  const std::uint64_t sent = static_cast<std::uint64_t>(rounds) * n;
  churn_lost_ = sent - std::min(sent, churn_rx_ - rx0);
  attempted_ = sent;
  failed_ = layer_.arp_failed;
  resolved_pairs_.clear();
  const std::size_t last = offsets.back();
  for (std::size_t i = 0; i < n; ++i) {
    resolved_pairs_.emplace_back(hosts[i], hosts[(i + last) % n]->ip());
  }
  Digest gaps;
  for (const double g : convergence_ms_) gaps.add_double(g);
  outcome_.add(frames_);
  outcome_.add(layer_.resolutions);
  outcome_.add(layer_.fm_query_total());
  outcome_.add(gaps.value());
  outcome_.add(churn_lost_);
  outcome_fields_.emplace_back("delivered_frames", std::to_string(frames_));
  outcome_fields_.emplace_back("resolutions",
                               std::to_string(layer_.resolutions));
  outcome_fields_.emplace_back("fm_queries",
                               std::to_string(layer_.fm_query_total()));
  outcome_fields_.emplace_back("convergence_gaps",
                               std::to_string(convergence_ms_.size()) + " " +
                                   gaps.hex());
  outcome_fields_.emplace_back("churn_lost_in_faults",
                               std::to_string(churn_lost_));
}

void Bench::measure_whatif() {
  core::PortlandFabric& f = *fabric_;
  const int queries = scaled(kWhatIfQueriesPerSecond, args_.seconds,
                             2 * kWhatIfQueriesPerChunk);
  const auto received = [&] {
    std::uint64_t n = 0;
    for (const auto& r : receivers_) n += r->packets_received();
    return n;
  };
  struct Answer {
    bool ok = false;
    std::uint64_t faults = 0, prunes = 0, rx = 0;
    std::size_t failed_links = 0;
    double fork_ms = 0, react_ms = 0;
    bool operator==(const Answer& o) const {
      return ok == o.ok && faults == o.faults && prunes == o.prunes &&
             rx == o.rx && failed_links == o.failed_links;
    }
  };
  // One closed-loop what-if: fork the warm image, fail links, react,
  // read the answer. Counter captures sit outside the timed parts.
  const auto query = [&](int q) {
    Answer a;
    Rng rng(args_.seed ^ (static_cast<std::uint64_t>(q) * 0x9E3779B97F4A7C15ull +
                          0xF0F0));
    std::string err;
    const auto w0 = Clock::now();
    {
      Span span(tracer_, "sim.snapshot.restore");
      a.ok = f.restore_snapshot(image_, extras_, &err);
    }
    a.fork_ms = seconds_since(w0) * 1e3;
    if (!a.ok) {
      std::fprintf(stderr, "fork %d failed: %s\n", q, err.c_str());
      return a;
    }
    const Totals before = capture(f, g_allocs, g_alloc_bytes, false);
    const std::uint64_t rx0 = received();
    const auto r0 = Clock::now();
    {
      Span span(tracer_, "sim.snapshot.react");
      const SimTime t = f.sim().now();
      f.failures().fail_random_links_at(f.fabric_links(), kWhatIfLinks,
                                        t + micros(100), rng);
      run_until(t + kWhatIfReaction);
      a.rx = received() - rx0;
      a.failed_links = f.fabric_manager().graph().failed_link_count();
    }
    a.react_ms = seconds_since(r0) * 1e3;
    const Totals d = delta(capture(f, g_allocs, g_alloc_bytes, false), before);
    a.faults = d.faults;
    a.prunes = d.prunes;
    accumulate(layer_, d);
    return a;
  };

  measuring_ = true;
  Answer first;
  Digest receipts;
  std::uint64_t fork_failures = 0;
  for (int q = 0; q < queries; ++q) {
    if (q % kWhatIfQueriesPerChunk == 0) {
      Chunk c;
      c.traced = args_.trace && (q / kWhatIfQueriesPerChunk) % 2 == 0;
      set_traced(c.traced);
      chunks_.push_back(c);
    }
    const Answer a = query(q);
    if (q == 0) first = a;
    if (!a.ok || a.faults == 0 || a.rx == 0) ++fork_failures;
    Chunk& c = chunks_.back();
    c.wall_s += (a.fork_ms + a.react_ms) / 1e3;
    c.delivered += a.rx;
    frames_ += a.rx;
    sim_seconds_ += to_seconds(kWhatIfReaction);
    fork_ms_.push_back(a.fork_ms);
    react_ms_.push_back(a.react_ms);
    answer_ms_.push_back(a.fork_ms + a.react_ms);
    receipts.add(a.rx);
    receipts.add(a.faults);
    receipts.add(a.prunes);
  }
  set_traced(args_.trace);
  measuring_ = false;
  // A fork must answer the same query the same way every time.
  const Answer again = query(0);
  const bool repeatable = again == first;
  if (!repeatable) ++fork_failures;
  check("forks_repeatable", repeatable,
        "query 0 re-run: rx " + std::to_string(again.rx) + " vs " +
            std::to_string(first.rx) + ", faults " +
            std::to_string(again.faults) + " vs " +
            std::to_string(first.faults));
  check("forks_ok", fork_failures == 0,
        std::to_string(fork_failures) + " failed, empty or wrong forks of " +
            std::to_string(queries));
  attempted_ = static_cast<std::uint64_t>(queries);
  failed_ = fork_failures;
  outcome_.add(frames_);
  outcome_.add(receipts.value());
  outcome_.add(image_.size());
  outcome_fields_.emplace_back("delivered_frames", std::to_string(frames_));
  outcome_fields_.emplace_back("query_receipts", receipts.hex());
  outcome_fields_.emplace_back("snapshot_bytes", std::to_string(image_.size()));
}

/// When `h` learned `ip`, if it did so within [lo, hi]; -1 otherwise.
/// The cache answers a lookup at t while t - learned <= lifetime, so the
/// last instant it still answers, minus the lifetime, is the learning
/// time: a binary search over lookups reads it exactly, from outside.
SimTime learned_at(host::Host& h, Ipv4Address ip, SimTime lo, SimTime hi) {
  const host::ArpCache& cache = h.arp_cache();
  const SimDuration life = cache.lifetime();
  const auto valid = [&](SimTime t) { return cache.lookup(ip, t).has_value(); };
  SimTime a = lo + life;
  SimTime b = hi + life + 1;
  if (!valid(a) || valid(b)) return -1;
  while (b - a > 1) {
    const SimTime m = a + (b - a) / 2;
    (valid(m) ? a : b) = m;
  }
  return a - life;
}

/// Exact ARP resolution latencies: from a pair's first send (the moment
/// the host issued its first request) to the moment the answer landed
/// in its cache. The hosts' own log2 counters must bucket them the same.
void Bench::collect_arp_latencies() {
  const SimTime now = fabric_->sim().now();
  const auto sample = [&](host::Host* h, Ipv4Address ip, SimTime first) {
    const SimTime at = learned_at(*h, ip, first, now);
    if (at < 0) return;
    arp_us_.push_back(static_cast<double>(at - first) / 1e3);
    arp_exact_hist_.add_us(static_cast<std::uint64_t>((at - first) /
                                                      kMicrosecond));
  };
  if (args_.workload == Workload::kControlChurn) {
    const auto& hosts = fabric_->hosts();
    const std::size_t n = hosts.size();
    for (std::size_t r = 0; r < round_starts_.size(); ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        sample(hosts[i], hosts[(i + round_offsets_[r]) % n]->ip(),
               round_starts_[r]);
      }
    }
    return;
  }
  std::map<std::pair<host::Host*, std::uint32_t>, SimTime> first;
  for (std::size_t i = 0; i < gen_->flow_count(); ++i) {
    const Generator::Flow& f = gen_->flow(i);
    const auto key = std::make_pair(f.src, f.dst.value());
    const auto it = first.find(key);
    if (it == first.end() || gen_->first_send(i) < it->second) {
      first[key] = gen_->first_send(i);
    }
  }
  for (const auto& [key, t] : first) sample(key.first, Ipv4Address(key.second), t);
}

/// Every resolved pair must map to the PMAC the fabric manager holds;
/// the FM lookups double as the core.fm.lookup_ns sample.
void Bench::verify_arp_against_fm() {
  constexpr std::size_t kBatch = 256;
  const core::FabricManager& fm = fabric_->fabric_manager();
  const SimTime now = fabric_->sim().now();
  std::vector<std::optional<MacAddress>> from_fm(resolved_pairs_.size());
  for (std::size_t b = 0; b < resolved_pairs_.size(); b += kBatch) {
    const std::size_t e = std::min(resolved_pairs_.size(), b + kBatch);
    const auto w0 = Clock::now();
    {
      Span span(tracer_, "core.fm.lookup_pmac");
      for (std::size_t i = b; i < e; ++i) {
        from_fm[i] = fm.lookup_pmac(resolved_pairs_[i].second);
      }
    }
    lookup_ns_.push_back(seconds_since(w0) * 1e9 / static_cast<double>(e - b));
  }
  // Only an unresolved pair is a fault here. A registry gap (a host the
  // FM lost in a fail-over's dirty window and has not been refreshed
  // yet) is soft state doing its job, and an entry whose PMAC the edge
  // has since replaced is a stale cache the data path redirects; both
  // are counted in the outcome instead.
  std::size_t unresolved = 0, stale = 0, fm_gaps = 0;
  for (std::size_t i = 0; i < resolved_pairs_.size(); ++i) {
    const auto& [h, ip] = resolved_pairs_[i];
    const auto cached = h->arp_cache().lookup(ip, now);
    if (!cached) {
      ++unresolved;
    } else if (!from_fm[i]) {
      ++fm_gaps;
    } else if (*cached != *from_fm[i]) {
      ++stale;
    }
  }
  outcome_.add(stale);
  outcome_.add(fm_gaps);
  outcome_fields_.emplace_back("arp_stale_pmacs", std::to_string(stale));
  outcome_fields_.emplace_back("fm_registry_gaps", std::to_string(fm_gaps));
  check("arp_resolved_pairs", unresolved == 0,
        std::to_string(unresolved) + " of " +
            std::to_string(resolved_pairs_.size()) +
            " resolved pairs missing from the host ARP cache");
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void Bench::put(const std::string& name, double value, const std::string& unit,
                std::uint64_t samples, bool applies) {
  if (!valid_metric_name(name)) die("invalid metric name " + name);
  metrics_[name] = Metric{applies ? value : 0.0, unit, samples};
  if (!applies) not_applicable_.insert(name);
}

void Bench::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Bench::report_metrics() {
  const Workload w = args_.workload;
  const bool churn = w == Workload::kControlChurn;
  const bool whatif = w == Workload::kWhatIfFork;
  const auto hosts = static_cast<double>(fabric_->hosts().size());

  // --- end to end --------------------------------------------------------
  std::vector<double> fps, fps_traced, res_rate, setup, construct, converge,
      save;
  for (const Chunk& c : chunks_) {
    (c.traced ? fps_traced : fps).push_back(ratio(c.delivered, c.wall_s));
    if (churn && !c.traced) res_rate.push_back(ratio(c.resolutions, c.wall_s));
  }
  for (const SetupTimes& st : setups_) {
    setup.push_back(st.setup_s);
    construct.push_back(st.construct_ms);
    converge.push_back(st.converge_ms);
    save.push_back(st.save_ms);
    if (!churn) res_rate.push_back(ratio(st.wave_resolutions, st.wave_wall_s));
  }
  // A rate is the 10th percentile over the run's like work units
  // (chunks, rounds, set-up waves): the rate 90% of units meet or beat,
  // i.e. the work per unit over the 90th-percentile unit time. On a
  // shared host a run's units swing between two speeds as neighbours
  // come and go; the share of time spent fast varies from run to run,
  // which moves the median and the best unit by tens of percent, while
  // the slow floor every run visits moves by a few.
  const auto rate = [](const std::vector<double>& v) {
    return percentile(v, 10);
  };
  put("delivered_fps", rate(fps), "1/s", fps.size());
  put("setup_s", median(setup), "s", setup.size());
  put("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / (1 << 20), "MiB");
  put("resolutions_per_s", rate(res_rate), "1/s", res_rate.size());
  const Summary arp = summarize(arp_us_, 99);
  put("arp_p50_us", arp.p50, "us", arp.count);
  put("arp_p99_us", arp.tail, "us", arp.count);
  check("arp_p99_supported", arp.tail_supported,
        std::to_string(arp.count) + " resolutions");
  check("arp_matches_host_buckets", arp_exact_hist_ == arp_hist_,
        std::to_string(arp_exact_hist_.total()) + " exact vs " +
            std::to_string(arp_hist_.total()) + " counted by hosts");

  // --- workload-specific end-to-end (unbounded: not on every workload) ---
  put("failed_ratio", ratio(failed_, attempted_), "ratio", attempted_);
  const Summary conv50 = summarize(convergence_ms_, 50);
  const Summary conv90 = summarize(convergence_ms_, 90);
  put("convergence_ms_p50", conv50.p50, "ms", conv50.count, churn);
  put("convergence_ms_p90", conv90.tail, "ms", conv90.count, churn);
  const Summary fork = summarize(fork_ms_, 95);
  const Summary answer = summarize(answer_ms_, 95);
  put("fork_ms_p50", fork.p50, "ms", fork.count, whatif);
  put("fork_ms_p95", fork.tail, "ms", fork.count, whatif);
  put("answer_ms_p50", answer.p50, "ms", answer.count, whatif);
  put("answer_ms_p95", answer.tail, "ms", answer.count, whatif);
  put("snapshot_bytes_per_host", ratio(image_.size(), hosts), "B/host", 0,
      whatif);
  if (churn) {
    check("convergence_p90_supported", conv90.tail_supported,
          std::to_string(conv90.count) + " probe gaps");
  }
  if (whatif) {
    check("fork_p95_supported", fork.tail_supported,
          std::to_string(fork.count) + " forks");
  }

  // --- per layer ----------------------------------------------------------
  const Totals& L = layer_;
  const Totals& A = arp_scope_;
  const auto F = static_cast<double>(frames_);
  put("core.fabric.construct_ms", median(construct), "ms", construct.size());
  put("core.ldp.converge_ms", median(converge), "ms", converge.size());
  put("core.ldp.ldm_per_sim_s", ratio(L.ldms, sim_seconds_), "1/s");
  std::vector<double> send_ns = churn ? churn_send_ns_ : gen_->send_ns_samples();
  put("host.send_udp_ns", median(send_ns), "ns", send_ns.size());
  bool saturated = false;
  put("host.arp_p99_bucket_us", arp_hist_.percentile_us(99, &saturated), "us",
      arp_hist_.total(), !saturated);
  put("host.arp_requests_per_resolution",
      ratio(A.arp_requests, A.resolutions), "ratio", A.resolutions);
  put("host.tcp_retransmits", tcp_retransmits_, "count", 0, churn);
  put("net.parse_calls_per_frame", ratio(L.parse_calls, F), "1/frame");
  put("net.meta_hits_per_frame", ratio(L.meta_hits, F), "1/frame");
  put("core.switch.flow_cache_hit_ratio",
      ratio(L.fc_hits, L.fc_hits + L.fc_misses), "ratio");
  put("core.switch.fib_rebuilds", L.fib_rebuilds, "count");
  put("core.fm.prune_updates", L.prunes, "count");
  put("core.fm.faults", L.faults, "count");
  put("core.switch.arp_coalesced", A.arp_coalesced, "count");
  put("core.switch.arp_negative_hits", A.arp_negative_hits, "count");
  const std::uint64_t queries = A.fm_query_total();
  std::uint64_t busiest = 0;
  for (const std::uint64_t q : A.fm_queries) busiest = std::max(busiest, q);
  put("core.fm.queries_per_resolution", ratio(queries, A.resolutions), "ratio");
  put("core.fm.busiest_shard_share", ratio(busiest, queries), "ratio");
  put("core.fm.lookup_ns", median(lookup_ns_), "ns", lookup_ns_.size());
  put("core.switch.drops", L.switch_drops, "count");
  put("sim.link.drops", L.link_drops, "count");
  put("sim.sched.inserts_per_frame", ratio(L.nodes_pushed, F), "1/frame");
  put("sim.sched.train_share", ratio(L.train_frames, L.hops), "ratio");
  put("sim.sched.train_len", ratio(L.train_frames, L.trains_popped), "frames");
  put("sim.sched.repushes_per_train", ratio(L.train_repushes, L.trains_popped),
      "ratio");
  put("sim.sched.events_per_frame", ratio(L.executed, F), "1/frame");
  put("sim.sched.wheel_cascades_per_event", ratio(L.cascaded, L.executed),
      "ratio");
  put("sim.run_until_ns_per_event",
      ratio(run_until_wall_s_ * 1e9, run_until_events_), "ns");
  put("sim.link.hops_per_frame", ratio(L.hops, F), "1/frame");
  put("sim.pdes.windows", L.windows, "count");
  put("sim.pdes.mail_per_window", ratio(L.mail, L.windows), "ratio");
  put("sim.pdes.inline_window_share", ratio(L.windows_inline, L.windows),
      "ratio");
  put("sim.snapshot.save_ms", median(save), "ms", save.size(), whatif);
  put("sim.snapshot.restore_ms", fork.p50, "ms", fork.count, whatif);
  put("sim.snapshot.react_ms", median(react_ms_), "ms", react_ms_.size(),
      whatif);
  put("mem.allocs_per_frame", ratio(L.allocs, F), "1/frame");
  put("mem.alloc_bytes_per_frame", ratio(L.alloc_bytes, F), "B/frame");
  if (args_.trace) {
    put("obs.trace_overhead_ratio", ratio(rate(fps_traced), rate(fps)),
        "ratio", fps_traced.size());
  }

  // --- correctness gates --------------------------------------------------
  bool repeatable = true;
  for (const SetupTimes& st : setups_) {
    repeatable = repeatable && st.digest == setups_.front().digest;
  }
  check("setup_repeatable", repeatable,
        std::to_string(setups_.size()) + " set-ups of one seed");
  if (data_workload()) {
    const double parses = ratio(L.parse_calls, F);
    check("parse_once", std::fabs(parses - 1.0) < 0.0005,
          "net.parse_calls_per_frame = " + json_number(parses));
    check("no_loss", failed_ == 0,
          std::to_string(failed_) + " of " + std::to_string(attempted_) +
              " datagrams lost");
  }
  if (churn) {
    check("arp_resolved", failed_ == 0,
          std::to_string(failed_) + " resolutions gave up");
  }
}

/// Self time per traced layer. Engine dispatch spans (obs.engine_trace)
/// sit between the benchmark's run_until/converge spans and the spans
/// of calls made from inside events (generator sends), so those are
/// re-parented onto the engine here.
void Bench::report_trace() {
  const auto& totals = tracer_.totals();
  const auto& child_of = tracer_.child_of();
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_us;
  };
  const auto child = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.child_us;
  };
  const auto inside = [&](const char* name, const char* parent) {
    const auto it = child_of.find(name);
    if (it == child_of.end()) return 0.0;
    const auto jt = it->second.find(parent);
    return jt == it->second.end() ? 0.0 : jt->second;
  };
  const double sends_in_events = inside("host.send_udp", "sim.run_until") +
                                 inside("host.send_udp", "core.ldp.converge");
  std::map<std::string, double> self_us = {
      {"core.fabric.construct",
       total("core.fabric.construct") - child("core.fabric.construct")},
      {"core.ldp.converge", total("core.ldp.converge") - engine_conv_us_},
      {"sim.run_until", total("sim.run_until") - engine_run_us_},
      {"sim.engine.dispatch",
       engine_conv_us_ + engine_run_us_ - sends_in_events},
      {"host.send_udp", total("host.send_udp")},
      {"core.fm.lookup_pmac", total("core.fm.lookup_pmac")},
      {"sim.snapshot.save", total("sim.snapshot.save")},
      {"sim.snapshot.restore", total("sim.snapshot.restore")},
      {"sim.snapshot.react",
       total("sim.snapshot.react") - child("sim.snapshot.react")},
  };
  const bool whatif = args_.workload == Workload::kWhatIfFork;
  for (const auto& [name, us] : self_us) {
    const bool applies = whatif || name.rfind("sim.snapshot.", 0) != 0;
    put("trace.self_ms." + name, us / 1e3, "ms", 0, applies);
  }
  const double wall = tracer_.traced_wall_us();
  put("trace.unexplained_share", ratio(wall - tracer_.top_level_us(), wall),
      "ratio");
  put("trace.traced_wall_s", wall / 1e6, "s");
}

void Bench::write_trace_file() const {
  if (args_.trace_out.empty()) return;
  FILE* f = std::fopen(args_.trace_out.c_str(), "w");
  if (f == nullptr) die("cannot write " + args_.trace_out);
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  const auto emit = [&](const SpanTracer::Kept& k, int tid) {
    std::fprintf(f,
                 "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %s, "
                 "\"dur\": %s, \"pid\": 1, \"tid\": %d}",
                 first ? "" : ",\n", json_string(k.name).c_str(),
                 json_string(k.parent).c_str(), json_number(k.begin_us).c_str(),
                 json_number(k.end_us - k.begin_us).c_str(), tid);
    first = false;
  };
  for (const auto& k : tracer_.kept()) emit(k, 1);
  for (const auto& k : engine_kept_) emit(k, 2);
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) die("cannot write " + args_.trace_out);
}

std::string Bench::result_json() const {
  bool correct = true;
  std::string checks = "[";
  for (const Check& c : checks_) {
    correct = correct && c.ok;
    if (checks.size() > 1) checks += ", ";
    checks += "{\"name\": " + json_string(c.name) +
              ", \"ok\": " + (c.ok ? "true" : "false") +
              ", \"detail\": " + json_string(c.detail) + "}";
  }
  checks += "]";
  std::string outcome = "{";
  for (const auto& [k, v] : outcome_fields_) {
    if (outcome.size() > 1) outcome += ", ";
    outcome += json_string(k) + ": " + json_string(v);
  }
  outcome += "}";
  std::string na = "[";
  for (const std::string& name : not_applicable_) {
    if (na.size() > 1) na += ", ";
    na += json_string(name);
  }
  na += "]";
  std::string chunk_fps = "[";
  for (const Chunk& c : chunks_) {
    if (chunk_fps.size() > 1) chunk_fps += ", ";
    chunk_fps += json_number(ratio(c.delivered, c.wall_s));
  }
  chunk_fps += "]";
  std::string setup_s = "[";
  for (const SetupTimes& st : setups_) {
    if (setup_s.size() > 1) setup_s += ", ";
    setup_s += json_number(st.setup_s);
  }
  setup_s += "]";
  return "{\"workload\": " + json_string(args_.workload_name) +
         ", \"seed\": " + std::to_string(args_.seed) +
         ", \"seconds\": " + std::to_string(args_.seconds) +
         ", \"trace\": " + (args_.trace ? "1" : "0") +
         ", \"correct\": " + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"digest\": " + json_string(outcome_.hex()) +
         ", \"outcome\": " + outcome + ", \"checks\": " + checks +
         ", \"not_applicable\": " + na + ", \"machine\": " + machine_ +
         ", \"chunk_fps\": " + chunk_fps + ", \"setup_s\": " + setup_s +
         ", \"metrics\": " + metrics_json(metrics_, true) + "}";
}

int Bench::run() {
  machine_ = machine_json();
  set_traced(args_.trace);
  for (int i = 0; i < kSetups; ++i) setups_.push_back(setup_once());
  if (args_.workload != Workload::kControlChurn) {
    // The first-contact wave of the last set-up is the ARP sample.
    arp_scope_ = capture(*fabric_, g_allocs, g_alloc_bytes, true);
    collect_arp_latencies();
  }
  outcome_.add(setups_.back().digest);
  switch (args_.workload) {
    case Workload::kShuffleBurst:
    case Workload::kPacedMtu: measure_data(); break;
    case Workload::kControlChurn: measure_churn(); break;
    case Workload::kWhatIfFork: measure_whatif(); break;
  }
  if (args_.workload == Workload::kControlChurn) collect_arp_latencies();
  arp_hist_ = arp_scope_.arp_hist;
  outcome_.add(arp_scope_.resolutions);
  for (const double us : arp_us_) outcome_.add_double(us);
  verify_arp_against_fm();
  report_metrics();
  set_traced(false);
  harvest_engine_spans();
  if (args_.trace) {
    report_trace();
    write_trace_file();
  }
  std::printf("RESULT %s\n", result_json().c_str());
  std::fflush(stdout);
  teardown();
  for (const Check& c : checks_) {
    if (!c.ok) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  perfbench::Bench bench(args);
  return bench.run();
}
