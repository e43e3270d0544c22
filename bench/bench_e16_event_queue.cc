// E16 — event-queue costs of the hierarchical timing wheel.
//
// PortLand's soft state is timer-driven: every switch re-arms LDP
// keepalives, the fabric manager ages liveness, hosts run ARP retries and
// TCP RTOs. At scale the schedule/rearm path dominates the event queue,
// which makes the queue's own operations (not the payload work) a first-
// order simulation cost. This bench isolates them two ways:
//
//  - Micro: ns/op for schedule_at, schedule+dispatch, Timer::rearm, and
//    Timer::cancel against a realistically-populated queue. Manual timing
//    (median of reps) rather than google-benchmark so the rows land in
//    one JSON report beside the macro numbers.
//  - Macro: a converged k=16/32 fabric at steady state — LDP keepalives,
//    LDM frames, and liveness aging (the paper's fabric-maintenance
//    workload) plus one long-lived cross-pod TCP flow per pod. The flows
//    matter: every ACK re-arms the sender's RTO (RTO_min = 200 ms), so at
//    steady state the queue carries hundreds of thousands of in-flight
//    timer shots, each rearm an O(1) wheel erase + insert. Measured as
//    executed events/sec over a fixed simulated window.
//
// Usage: bench_e16_event_queue [--k N[,N...]] [--reps N] [--measure-ms N]
//                              [--micro-ops N] [--full] [--json PATH]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace portland;
using namespace portland::bench;

namespace {

constexpr const char* kUsage =
    "bench_e16_event_queue [--k N[,N...]] [--reps N] [--measure-ms N] "
    "[--micro-ops N] [--full] [--json PATH]";

struct Args {
  std::vector<int> ks = {16, 32};
  std::size_t reps = 3;
  SimDuration measure = millis(200);
  std::size_t micro_ops = 1 << 18;
  std::string json_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  FlagReader flags(argc, argv, kUsage);
  while (flags.next()) {
    if (flags.is("--k")) {
      a.ks = flags.k_list();
    } else if (flags.is("--reps")) {
      a.reps = static_cast<std::size_t>(flags.integer(1, 1000));
    } else if (flags.is("--measure-ms")) {
      a.measure = millis(flags.integer(1, 1000000));
    } else if (flags.is("--micro-ops")) {
      a.micro_ops = static_cast<std::size_t>(flags.integer(1, 1 << 30));
    } else if (flags.is("--full")) {
      a.ks = {16, 32, 48};
    } else if (flags.is("--json")) {
      a.json_path = flags.value();
    } else {
      flags.unknown();
    }
  }
  return a;
}

double elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// Micro: queue operations against a pre-populated simulator. The backlog
// (pending timers at erratic deadlines, like a fabric's keepalive
// population) keeps every wheel level occupied.
// ---------------------------------------------------------------------------

constexpr std::size_t kBacklog = 1 << 16;

/// Fills `sim` with a realistic pending population: timers spread over
/// microseconds to minutes, all strictly after any measured horizon.
std::vector<std::unique_ptr<sim::Timer>> make_backlog(sim::Simulator& sim,
                                                      Rng& rng) {
  std::vector<std::unique_ptr<sim::Timer>> backlog;
  backlog.reserve(kBacklog);
  for (std::size_t i = 0; i < kBacklog; ++i) {
    backlog.push_back(std::make_unique<sim::Timer>(sim));
    backlog.back()->schedule_after(
        seconds(60) + static_cast<SimDuration>(rng.next_below(seconds(60))),
        [] {});
  }
  return backlog;
}

struct MicroRow {
  std::string op;
  double ns_per_op = 0;
};

void run_micro(const Args& args, std::vector<MicroRow>& rows) {
  print_header("E16 micro: event-queue ops, ns/op (backlog 65536)");
  std::printf("%18s %12s\n", "op", "ns/op");
  const std::size_t ops = args.micro_ops;
  const auto report = [&rows](const char* op, double ns) {
    rows.push_back(MicroRow{op, ns});
    std::printf("%18s %12.1f\n", op, ns);
  };

  // schedule_at: one-shot inserts at erratic offsets, never dispatched
  // within the measured window.
  double ns = repeat_median(args.reps, [&] {
    sim::Simulator sim;
    Rng rng(16);
    const auto backlog = make_backlog(sim, rng);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      sim.at(millis(1) + static_cast<SimTime>(rng.next_below(seconds(30))),
             [] {});
    }
    return elapsed_ns(t0) / static_cast<double>(ops);
  });
  report("schedule_at", ns);

  // schedule+dispatch: the full queue round trip — insert at erratic
  // offsets, then drain (bucket staging and cascades).
  ns = repeat_median(args.reps, [&] {
    sim::Simulator sim;
    Rng rng(17);
    const auto backlog = make_backlog(sim, rng);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      sim.at(sim.now() + static_cast<SimTime>(rng.next_below(millis(20))),
             [] {});
    }
    sim.run_until(sim.now() + millis(20));
    return elapsed_ns(t0) / static_cast<double>(ops);
  });
  report("schedule_dispatch", ns);

  // timer_rearm: the LDP-keepalive hot path — erase the pending shot,
  // re-insert at a new deadline, no closure rebuild.
  ns = repeat_median(args.reps, [&] {
    sim::Simulator sim;
    Rng rng(18);
    const auto backlog = make_backlog(sim, rng);
    sim::Timer t(sim);
    t.schedule_after(millis(1), [] {});
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      t.rearm(millis(1) +
              static_cast<SimDuration>(rng.next_below(millis(50))));
    }
    return elapsed_ns(t0) / static_cast<double>(ops);
  });
  report("timer_rearm", ns);

  // timer_cancel: schedule + true-cancel pairs.
  ns = repeat_median(args.reps, [&] {
    sim::Simulator sim;
    Rng rng(19);
    const auto backlog = make_backlog(sim, rng);
    sim::Timer t(sim);
    t.schedule_after(millis(1), [] {});
    t.cancel();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      t.rearm(millis(1) +
              static_cast<SimDuration>(rng.next_below(seconds(2))));
      t.cancel();
    }
    return elapsed_ns(t0) / static_cast<double>(2 * ops);
  });
  report("timer_cancel", ns);
}

// ---------------------------------------------------------------------------
// Macro: LDP steady state on a real fabric.
// ---------------------------------------------------------------------------

struct MacroRow {
  int k = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  std::uint64_t window_events = 0;
  std::uint64_t pending = 0;
};

MacroRow run_macro_one(const Args& args, int k) {
  core::PortlandFabric::Options options;
  options.k = k;
  options.seed = 16;
  core::PortlandFabric fabric(options);
  if (!fabric.run_until_converged(seconds(30))) {
    std::fprintf(stderr, "FATAL: LDP did not converge (k=%d)\n", k);
    std::exit(1);
  }
  sim::Simulator& sim = fabric.sim();

  // Standing transport load: one long-lived cross-pod TCP flow per pod.
  // Every ACK re-arms the sender's RTO, so the scheduler sees continuous
  // rearm/cancel churn on top of the LDP keepalive population — the
  // timer-dominated regime this experiment targets.
  for (int f = 0; f < k; ++f) {
    host::Host& src = fabric.host_at(f, 0, 0);
    host::Host& dst = fabric.host_at((f + k / 2) % k, 1, 0);
    dst.tcp_listen(static_cast<std::uint16_t>(5000 + f),
                   [](host::TcpConnection&) {});
    host::TcpConnection* conn =
        src.tcp_connect(dst.ip(), static_cast<std::uint16_t>(5000 + f));
    conn->send(1'000'000'000'000ull);  // effectively unbounded
  }
  sim.run_until(sim.now() + millis(300));  // ramp into steady state

  MacroRow row;
  row.k = k;
  row.pending = sim.pending_events();
  row.wall_s = repeat_median(args.reps, [&] {
    const std::uint64_t e0 = sim.executed_events();
    const auto wall0 = std::chrono::steady_clock::now();
    sim.run_until(sim.now() + args.measure);
    const auto wall1 = std::chrono::steady_clock::now();
    row.window_events = sim.executed_events() - e0;
    return std::chrono::duration<double>(wall1 - wall0).count();
  });
  row.events_per_sec = static_cast<double>(row.window_events) / row.wall_s;
  std::printf("%4d %10.3f %14.0f %12llu %10llu\n", k, row.wall_s,
              row.events_per_sec,
              static_cast<unsigned long long>(row.window_events),
              static_cast<unsigned long long>(row.pending));
  return row;
}

void run(const Args& args) {
  std::vector<MicroRow> micro;
  run_micro(args, micro);

  print_header("E16 macro: LDP steady state, executed events/sec");
  std::printf("%4s %10s %14s %12s %10s\n", "k", "wall_s", "events/s",
              "events", "pending");
  std::vector<MacroRow> macro;
  for (const int k : args.ks) macro.push_back(run_macro_one(args, k));

  if (!args.json_path.empty()) {
    JsonReport report("e16_event_queue");
    report.add("reps", args.reps);
    report.add("measure_ms",
               static_cast<std::uint64_t>(static_cast<std::uint64_t>(
                                              args.measure) /
                                          1000000ull));
    std::string arr = "[";
    for (std::size_t i = 0; i < micro.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s\n    {\"op\": \"%s\", \"ns_per_op\": %.2f}",
                    i == 0 ? "" : ",", micro[i].op.c_str(),
                    micro[i].ns_per_op);
      arr += buf;
    }
    arr += "\n  ]";
    report.add_raw("micro", arr);
    arr = "[";
    for (std::size_t i = 0; i < macro.size(); ++i) {
      const MacroRow& r = macro[i];
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "%s\n    {\"k\": %d, "
                    "\"wall_seconds\": %.6f, \"events_per_sec\": %.1f, "
                    "\"window_events\": %llu}",
                    i == 0 ? "" : ",", r.k, r.wall_s,
                    r.events_per_sec,
                    static_cast<unsigned long long>(r.window_events));
      arr += buf;
    }
    arr += "\n  ]";
    report.add_raw("macro", arr);
    report.write(args.json_path);
  }
}

}  // namespace

int main(int argc, char** argv) { run(parse_args(argc, argv)); }
