// E17 — observability overhead: what does the flight recorder cost the
// data plane?
//
// The same all-to-all UDP workload as E14 runs three times on identical
// fabrics (same k, same seed, same flows):
//   off     no recorder, no tracer — the plain data plane;
//   frames  flight recorder attached (per-hop records into shard rings);
//   full    recorder + engine tracer + a metrics snapshot every 50 ms.
// Each mode reports median frames/sec over `--reps` repetitions plus its
// slowdown relative to `off`. The acceptance bar lives in EXPERIMENTS.md
// (E17): recorder-off must be within noise of the pre-observability
// baseline — the disabled recorder is a single pointer check per hop.
// Recorder-on cost is reported, not bounded: with no --trace-frames cap
// every data frame is traced, the worst case by construction.
//
// Usage: bench_e17_observability [--k N] [--flows-per-host N]
//                                [--measure-ms T] [--reps N] [--json PATH]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"

using namespace portland;
using namespace portland::bench;

namespace {

constexpr const char* kUsage =
    "bench_e17_observability [--k N] [--flows-per-host N] "
    "[--measure-ms T] [--reps N] [--json PATH]";

struct Args {
  int k = 16;
  std::size_t flows_per_host = 1;
  SimDuration measure = millis(200);
  std::size_t reps = 3;
  std::string json_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  FlagReader flags(argc, argv, kUsage);
  while (flags.next()) {
    if (flags.is("--k")) {
      a.k = flags.k();
    } else if (flags.is("--flows-per-host")) {
      a.flows_per_host = static_cast<std::size_t>(flags.integer(1, 1000));
    } else if (flags.is("--measure-ms")) {
      a.measure = millis(flags.integer(1, 1000000));
    } else if (flags.is("--reps")) {
      a.reps = static_cast<std::size_t>(flags.integer(1, 1000));
    } else if (flags.is("--json")) {
      a.json_path = flags.value();
    } else {
      flags.unknown();
    }
  }
  return a;
}

enum class Mode { kOff, kFrames, kFull };

constexpr const char* mode_name(Mode m) {
  return m == Mode::kOff ? "off" : m == Mode::kFrames ? "frames" : "full";
}

struct ModeResult {
  double frames_per_sec = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t hop_records = 0;
  std::uint64_t traced_frames = 0;
  std::uint64_t engine_spans = 0;
  std::size_t snapshots = 0;
};

/// One full fabric lifetime: converge, wire flows, warm up, measure one
/// window. Returns delivered frames / wall second for that window.
ModeResult run_once(const Args& args, Mode mode) {
  core::PortlandFabric::Options options;
  options.k = args.k;
  options.seed = 17;
  options.obs.flight_recorder = mode != Mode::kOff;
  options.obs.engine_trace = mode == Mode::kFull;
  core::PortlandFabric fabric(options);
  if (!fabric.run_until_converged()) {
    std::fprintf(stderr, "FATAL: LDP did not converge (k=%d)\n", args.k);
    std::abort();
  }

  const auto& hosts = fabric.hosts();
  const std::size_t n = hosts.size();
  const std::size_t hosts_per_pod = n / static_cast<std::size_t>(args.k);
  std::vector<std::unique_ptr<ProbeFlow>> flows;
  std::uint16_t port = 9000;
  for (std::size_t f = 0; f < args.flows_per_host; ++f) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t dst = (i + (f + 1) * hosts_per_pod) % n;
      flows.push_back(std::make_unique<ProbeFlow>(
          *hosts[i], *hosts[dst], port++, /*interval=*/millis(1),
          /*payload_bytes=*/64));
    }
  }

  sim::Simulator& sim = fabric.sim();
  sim.run_until(sim.now() + millis(100));  // ARP + cache warmup

  auto delivered = [&] {
    std::uint64_t d = 0;
    for (const auto& fl : flows) d += fl->receiver->packets_received();
    return d;
  };

  obs::MetricsRegistry metrics;
  const std::uint64_t delivered0 = delivered();
  const auto wall0 = std::chrono::steady_clock::now();
  if (mode == Mode::kFull) {
    // The "full" deployment samples metrics while it runs, exactly like
    // scenario_cli --metrics-out.
    const SimDuration step = millis(50);
    const SimTime end = sim.now() + args.measure;
    for (SimTime t = sim.now(); t < end;) {
      t = std::min(end, t + step);
      sim.run_until(t);
      fabric.snapshot_metrics(metrics);
    }
  } else {
    sim.run_until(sim.now() + args.measure);
  }
  const auto wall1 = std::chrono::steady_clock::now();

  ModeResult r;
  r.delivered = delivered() - delivered0;
  const double wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  r.frames_per_sec = static_cast<double>(r.delivered) / wall_s;
  if (const obs::FlightRecorder* rec = fabric.flight_recorder()) {
    r.hop_records = rec->records_captured();
    r.traced_frames = rec->traced_frames();
  }
  if (const obs::EngineTracer* tracer = fabric.engine_tracer()) {
    r.engine_spans = tracer->span_count();
  }
  r.snapshots = metrics.snapshots().size();
  return r;
}

void run(const Args& args) {
  print_header("E17: observability overhead (k=" + std::to_string(args.k) +
               " fat tree, recorder off/frames/full)");

  constexpr Mode kModes[] = {Mode::kOff, Mode::kFrames, Mode::kFull};
  ModeResult results[3];
  for (std::size_t m = 0; m < 3; ++m) {
    std::vector<double> fps;
    fps.reserve(args.reps);
    for (std::size_t rep = 0; rep < args.reps; ++rep) {
      results[m] = run_once(args, kModes[m]);
      fps.push_back(results[m].frames_per_sec);
    }
    results[m].frames_per_sec = median_of(std::move(fps));
  }

  const double base = results[0].frames_per_sec;
  std::printf("%-8s %14s %10s %14s %12s %8s %10s\n", "mode", "frames/sec",
              "overhead", "hop records", "traced", "spans", "snapshots");
  for (std::size_t m = 0; m < 3; ++m) {
    const ModeResult& r = results[m];
    const double overhead =
        base > 0.0 ? (base / r.frames_per_sec - 1.0) * 100.0 : 0.0;
    std::printf("%-8s %14.0f %9.2f%% %14llu %12llu %8llu %10zu\n",
                mode_name(kModes[m]), r.frames_per_sec, overhead,
                static_cast<unsigned long long>(r.hop_records),
                static_cast<unsigned long long>(r.traced_frames),
                static_cast<unsigned long long>(r.engine_spans), r.snapshots);
  }

  if (!args.json_path.empty()) {
    JsonReport report("e17_observability");
    report.add("k", args.k);
    report.add("reps", static_cast<std::uint64_t>(args.reps));
    report.add("measure_ms",
               static_cast<std::uint64_t>(args.measure / 1000000));
    for (std::size_t m = 0; m < 3; ++m) {
      const ModeResult& r = results[m];
      const std::string p = mode_name(kModes[m]);
      report.add(p + "_frames_per_sec", r.frames_per_sec);
      report.add(p + "_delivered", r.delivered);
      report.add(p + "_hop_records", r.hop_records);
      report.add(p + "_traced_frames", r.traced_frames);
      report.add(p + "_engine_spans", r.engine_spans);
      report.add(p + "_snapshots", static_cast<std::uint64_t>(r.snapshots));
      report.add(p + "_overhead_pct",
                 base > 0.0 && r.frames_per_sec > 0.0
                     ? (base / r.frames_per_sec - 1.0) * 100.0
                     : 0.0);
    }
    report.write(args.json_path);
  }
}

}  // namespace

int main(int argc, char** argv) { run(parse_args(argc, argv)); }
