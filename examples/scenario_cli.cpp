// scenario_cli: drive a PortLand fabric from the command line — build a
// fat tree, run discovery, launch probe flows, inject failures, and print
// a delivery/convergence report. Useful for exploring parameters without
// writing C++.
//
//   $ ./scenario_cli --k 6 --flows 10 --fail 3 --fail-at-ms 500 --ecmp spray
//   $ ./scenario_cli --fail 2 --metrics-out m.jsonl --trace-out t.json
//
// Checkpoint/fork serving: converge once, then answer what-if queries
// from the warm image in milliseconds instead of re-converging.
//
//   $ ./scenario_cli --k 16 --snapshot-out warm.plfs      # warm + save
//   $ ./scenario_cli --k 16 --snapshot-in warm.plfs       # resume, no converge
//   $ ./scenario_cli --k 16 --serve 8                     # 8 forked what-ifs
#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fabric.h"
#include "host/apps.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"

using namespace portland;

namespace {

struct Args {
  int k = 4;
  std::uint64_t seed = 1;
  int flows = 8;
  int fail = 1;
  SimDuration fail_at = millis(500);
  SimDuration repair_at = 0;
  SimDuration duration = millis(2000);
  SimDuration fm_failover_at = 0;
  core::PortlandConfig::EcmpMode ecmp =
      core::PortlandConfig::EcmpMode::kFlowHash;
  /// Fabric-manager registry shards; 1 = the classic single endpoint,
  /// 0 (spelled "auto") = one shard per pod.
  std::size_t fm_shards = 1;
  /// ARP-storm rounds before the scenario traffic: every host resolves
  /// one fresh destination per round (0 = off).
  int arp_storm = 0;
  unsigned workers = 0;
  // Observability outputs; empty = off.
  std::string metrics_out;
  std::string prom_out;
  std::string trace_out;
  long long metrics_interval_ms = 100;
  long long trace_frames = 0;
  bool trace_engine = true;
  // Checkpoint/fork serving.
  std::string snapshot_out;
  std::string snapshot_in;
  int serve = 0;
  // HTTP exporter (serve mode only); -1 = off, 0 = ephemeral port.
  int http_port = -1;
  long long http_linger_ms = 0;
};

void print_usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: scenario_cli [flags]\n"
      "  --k N                  fat-tree arity (even, >= 4; default 4)\n"
      "  --seed N               RNG seed (default 1)\n"
      "  --flows N              inter-pod UDP probe flows at 1000 pkt/s "
      "(default 8)\n"
      "  --fail N               random fabric links to fail (default 1)\n"
      "  --fail-at-ms T         failure instant (default 500)\n"
      "  --repair-at-ms T       repair instant (0 = never; default 0)\n"
      "  --duration-ms T        total run (default 2000)\n"
      "  --ecmp hash|spray      ECMP mode (default hash)\n"
      "  --fm-failover-ms T     wipe the fabric manager's soft state at T "
      "(0 = off)\n"
      "  --fm-shards N|auto     fabric-manager registry shards (default 1 = "
      "the\n"
      "                         classic single endpoint; auto = one shard "
      "per pod)\n"
      "  --arp-storm N          before the scenario traffic, run N storm "
      "rounds\n"
      "                         where every host resolves one fresh "
      "destination,\n"
      "                         and report resolutions and the per-shard "
      "query\n"
      "                         spread (0 = off)\n"
      "  --workers N|auto       engine worker threads (0 = 1 shard on the "
      "calling\n"
      "                         thread; N >= 1 = k+1 shards on N threads;\n"
      "                         auto = one per shard, capped at core count,\n"
      "                         1 shard on single-core boxes)\n"
      "  --metrics-out PATH     write per-interval metrics snapshots as "
      "JSONL\n"
      "  --metrics-interval-ms T  snapshot period (default 100)\n"
      "  --prom-out PATH        write the final snapshot in Prometheus text "
      "format\n"
      "  --trace-out PATH       write a Chrome trace-event / Perfetto JSON "
      "trace\n"
      "                         (enables the flight recorder and engine "
      "tracer)\n"
      "  --trace-frames N       per-shard cap on traced frames (0 = "
      "unlimited)\n"
      "  --trace-engine on|off  include wall-clock engine spans in the trace "
      "(default\n"
      "                         on; off leaves only sim-time frame hops, "
      "which are\n"
      "                         bit-deterministic and diffable across runs)\n"
      "  --snapshot-out PATH    after convergence, save the warm fabric "
      "image to\n"
      "                         PATH, then run the scenario as usual\n"
      "  --snapshot-in PATH     restore the fabric from PATH instead of "
      "converging\n"
      "                         (requires identical --k/--seed/--workers)\n"
      "  --serve N              checkpoint the converged fabric in memory, "
      "then\n"
      "                         answer N what-if queries (link kills, switch "
      "crash,\n"
      "                         ARP storm, path audit), forking the warm "
      "image per\n"
      "                         query and reporting reaction metrics\n"
      "  --http-port N          with --serve: answer GET /metrics "
      "(Prometheus\n"
      "                         text), /timelines (JSONL failure "
      "timelines), and\n"
      "                         /healthz on 127.0.0.1:N (0 = pick an "
      "ephemeral\n"
      "                         port), sampled between queries\n"
      "  --http-linger-ms T     keep answering HTTP for T ms after the "
      "last\n"
      "                         query (default 0), so scrapers can collect "
      "the\n"
      "                         final state\n"
      "  --help                 this text\n");
}

[[noreturn]] void die_usage(const char* fmt, const char* a) {
  std::fprintf(stderr, "scenario_cli: ");
  std::fprintf(stderr, fmt, a);
  std::fprintf(stderr, "\n");
  print_usage(stderr);
  std::exit(2);
}

/// Strict integer parsing: the whole token must be a number in
/// [min, max]. Anything else (empty, trailing junk, overflow) is a
/// usage error — `--flows 1x0` must not silently run with 1 flow.
long long parse_int(const char* flag, const char* text, long long min,
                    long long max) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    die_usage("flag %s needs an integer value", flag);
  }
  if (v < min || v > max) {
    std::fprintf(stderr, "scenario_cli: %s out of range [%lld, %lld]\n", flag,
                 min, max);
    std::exit(2);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args out;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (!std::strcmp(flag, "--help") || !std::strcmp(flag, "-h")) {
      print_usage(stdout);
      std::exit(0);
    }
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) die_usage("flag %s needs a value", flag);
      return argv[++i];
    };
    auto int_value = [&](long long min, long long max) {
      return parse_int(flag, value(), min, max);
    };
    if (!std::strcmp(flag, "--k")) {
      out.k = static_cast<int>(int_value(4, 64));
      if (out.k % 2 != 0) die_usage("%s must be even", flag);
    } else if (!std::strcmp(flag, "--seed")) {
      out.seed = static_cast<std::uint64_t>(int_value(0, INT64_MAX));
    } else if (!std::strcmp(flag, "--flows")) {
      out.flows = static_cast<int>(int_value(0, 100000));
    } else if (!std::strcmp(flag, "--fail")) {
      out.fail = static_cast<int>(int_value(0, 100000));
    } else if (!std::strcmp(flag, "--fail-at-ms")) {
      out.fail_at = millis(int_value(0, INT64_MAX / 2000000));
    } else if (!std::strcmp(flag, "--repair-at-ms")) {
      out.repair_at = millis(int_value(0, INT64_MAX / 2000000));
    } else if (!std::strcmp(flag, "--duration-ms")) {
      out.duration = millis(int_value(1, INT64_MAX / 2000000));
    } else if (!std::strcmp(flag, "--fm-failover-ms")) {
      out.fm_failover_at = millis(int_value(0, INT64_MAX / 2000000));
    } else if (!std::strcmp(flag, "--fm-shards")) {
      const char* v = value();
      if (!std::strcmp(v, "auto")) {
        out.fm_shards = 0;  // resolved to one shard per pod
      } else {
        out.fm_shards = static_cast<std::size_t>(parse_int(
            flag, v, 1, static_cast<long long>(core::kMaxFmShards)));
      }
    } else if (!std::strcmp(flag, "--arp-storm")) {
      out.arp_storm = static_cast<int>(int_value(1, 1024));
    } else if (!std::strcmp(flag, "--workers")) {
      const char* w = value();
      if (!std::strcmp(w, "auto")) {
        out.workers = core::PortlandFabric::Options::kAutoWorkers;
      } else {
        out.workers =
            static_cast<unsigned>(parse_int(flag, w, 0, 256));
      }
    } else if (!std::strcmp(flag, "--metrics-out")) {
      out.metrics_out = value();
    } else if (!std::strcmp(flag, "--metrics-interval-ms")) {
      out.metrics_interval_ms = int_value(1, 1000000);
    } else if (!std::strcmp(flag, "--prom-out")) {
      out.prom_out = value();
    } else if (!std::strcmp(flag, "--trace-out")) {
      out.trace_out = value();
    } else if (!std::strcmp(flag, "--trace-frames")) {
      out.trace_frames = int_value(0, INT64_MAX);
    } else if (!std::strcmp(flag, "--trace-engine")) {
      const char* b = value();
      if (!std::strcmp(b, "on")) {
        out.trace_engine = true;
      } else if (!std::strcmp(b, "off")) {
        out.trace_engine = false;
      } else {
        die_usage("unknown --trace-engine value '%s' (on|off)", b);
      }
    } else if (!std::strcmp(flag, "--snapshot-out")) {
      out.snapshot_out = value();
    } else if (!std::strcmp(flag, "--snapshot-in")) {
      out.snapshot_in = value();
    } else if (!std::strcmp(flag, "--serve")) {
      out.serve = static_cast<int>(int_value(1, 1000000));
    } else if (!std::strcmp(flag, "--http-port")) {
      out.http_port = static_cast<int>(int_value(0, 65535));
    } else if (!std::strcmp(flag, "--http-linger-ms")) {
      out.http_linger_ms = int_value(0, 86400000);
    } else if (!std::strcmp(flag, "--ecmp")) {
      const char* mode = value();
      if (!std::strcmp(mode, "spray")) {
        out.ecmp = core::PortlandConfig::EcmpMode::kPacketSpray;
      } else if (!std::strcmp(mode, "hash")) {
        out.ecmp = core::PortlandConfig::EcmpMode::kFlowHash;
      } else {
        die_usage("unknown --ecmp mode '%s' (hash|spray)", mode);
      }
    } else {
      die_usage("unknown flag '%s'", flag);
    }
  }
  if (out.http_port >= 0 && out.serve == 0) {
    die_usage("flag %s requires --serve", "--http-port");
  }
  // --fail picks distinct fabric links.
  const std::size_t links = topo::FatTree::num_fabric_links(out.k);
  if (static_cast<std::size_t>(out.fail) > links) {
    const std::string n = std::to_string(links);
    die_usage("--fail is above the fabric's %s links", n.c_str());
  }
  return out;
}

bool write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      b.empty() || std::fwrite(b.data(), 1, b.size(), f) == b.size();
  return std::fclose(f) == 0 && ok;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  if (n < 0) {
    std::fclose(f);
    return false;
  }
  std::fseek(f, 0, SEEK_SET);
  b.resize(static_cast<std::size_t>(n));
  const bool ok = n == 0 || std::fread(b.data(), 1, b.size(), f) == b.size();
  std::fclose(f);
  return ok;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One probe flow: constant-rate UDP stream whose receive gaps measure
/// the fabric's reaction to whatever the query breaks.
struct Probe {
  std::unique_ptr<host::UdpFlowReceiver> rx;
  std::unique_ptr<host::UdpFlowSender> tx;
};

std::vector<Probe> make_probes(core::PortlandFabric& fabric, Rng& rng, int n,
                               std::uint16_t base_port) {
  std::vector<Probe> probes;
  const auto& hosts = fabric.hosts();
  std::uint16_t port = base_port;
  while (static_cast<int>(probes.size()) < n) {
    host::Host* a = hosts[rng.next_below(hosts.size())];
    host::Host* b = hosts[rng.next_below(hosts.size())];
    if (a == b) continue;
    Probe p;
    p.rx = std::make_unique<host::UdpFlowReceiver>(*b, port);
    host::UdpFlowSender::Config cfg;
    cfg.dst = b->ip();
    cfg.src_port = cfg.dst_port = port;
    cfg.interval = millis(1);
    p.tx = std::make_unique<host::UdpFlowSender>(*a, cfg);
    p.tx->start();
    probes.push_back(std::move(p));
    ++port;
  }
  return probes;
}

struct ProbeReport {
  std::uint64_t sent = 0;
  std::uint64_t recv = 0;
  SimDuration worst_gap = 0;
};

ProbeReport finish_probes(core::PortlandFabric& fabric,
                          std::vector<Probe>& probes, SimTime t0) {
  for (Probe& p : probes) p.tx->stop();
  fabric.sim().run_until(fabric.sim().now() + millis(5));
  ProbeReport rep;
  for (const Probe& p : probes) {
    rep.sent += p.tx->packets_sent();
    rep.recv += p.rx->packets_received();
    rep.worst_gap = std::max(rep.worst_gap,
                             p.rx->max_gap(t0, fabric.sim().now()));
  }
  return rep;
}

/// What-if serving: every query forks the warm image (an in-memory
/// restore into this fabric), perturbs the fork, runs a short window of
/// simulated time, and reports reaction metrics — all in wall-clock
/// milliseconds, versus re-converging from cold per question.
int run_serve(core::PortlandFabric& fabric,
              const std::vector<std::uint8_t>& image, const Args& args,
              double converge_wall_ms) {
  Rng rng(args.seed ^ 0x5E41E);
  const int k = args.k;
  double fork_total_ms = 0;
  double answer_total_ms = 0;
  obs::ConvergenceMonitor* monitor = fabric.convergence_monitor();
  const obs::FlightRecorder* recorder = fabric.flight_recorder();
  obs::MetricsRegistry registry;
  // Timelines accumulate across queries for /timelines; the monitor
  // itself is cleared by every fork (timelines never cross a restore).
  std::string all_timelines;
  std::unique_ptr<obs::HttpExporter> exporter;
  if (args.http_port >= 0) {
    exporter = std::make_unique<obs::HttpExporter>(
        static_cast<std::uint16_t>(args.http_port));
    std::string err;
    if (!exporter->start(&err)) {
      std::fprintf(stderr, "scenario_cli: http exporter: %s\n", err.c_str());
      return 1;
    }
    std::printf("http: listening on 127.0.0.1:%u "
                "(/metrics /timelines /healthz)\n",
                exporter->port());
  }
  std::printf("\nserve: %d what-if queries against a %zu-byte warm image "
              "(cold converge: %.1f ms wall)\n",
              args.serve, image.size(), converge_wall_ms);
  for (int q = 0; q < args.serve; ++q) {
    const auto wall0 = std::chrono::steady_clock::now();
    std::string err;
    if (!fabric.restore_snapshot(image, &err)) {
      std::fprintf(stderr, "scenario_cli: fork failed: %s\n", err.c_str());
      return 1;
    }
    const double fork_ms = ms_since(wall0);
    const SimTime t0 = fabric.sim().now();
    const auto& fm = fabric.fabric_manager();
    const std::uint64_t faults0 = fm.counters().get("fault_notifications");
    const std::uint64_t reroutes0 = fm.counters().get("prune_updates_sent");
    const std::uint64_t ctl0 = fabric.control().messages_sent();
    // Drop-reason baseline for this query (the fork clears the recorder,
    // but diffing against an explicit snapshot stays correct even if that
    // ever changes).
    std::array<std::uint64_t, obs::kDropReasonCount> drops0{};
    if (recorder != nullptr) drops0 = recorder->drops_by_reason();
    switch (q % 4) {
      case 0: {  // Kill 3 random fabric links.
        std::vector<Probe> probes = make_probes(fabric, rng, 8, 7200);
        const core::PortlandFabric::LinkKillAnswer answer =
            fabric.kill_random_links(3, t0 + millis(1), t0 + millis(250),
                                     rng);
        const ProbeReport rep = finish_probes(fabric, probes, t0);
        std::printf(
            "  q%-3d kill-links   fork %6.2f ms  answer %7.2f ms  "
            "%zu links down, %llu faults, %llu reroutes, probe %llu/%llu "
            "recv, worst gap %s\n",
            q, fork_ms, ms_since(wall0), answer.links_killed,
            static_cast<unsigned long long>(answer.faults),
            static_cast<unsigned long long>(answer.reroutes),
            static_cast<unsigned long long>(rep.recv),
            static_cast<unsigned long long>(rep.sent),
            format_time(rep.worst_gap).c_str());
        break;
      }
      case 1: {  // Crash one aggregation switch (all its links drop).
        std::vector<Probe> probes = make_probes(fabric, rng, 8, 7200);
        const std::size_t pod = rng.next_below(static_cast<std::size_t>(k));
        const std::size_t pos =
            rng.next_below(static_cast<std::size_t>(k / 2));
        core::PortlandSwitch& victim = fabric.agg_at(pod, pos);
        fabric.failures().crash_device_at(victim, t0 + millis(1));
        fabric.sim().run_until(t0 + millis(250));
        const ProbeReport rep = finish_probes(fabric, probes, t0);
        std::printf(
            "  q%-3d crash-switch fork %6.2f ms  answer %7.2f ms  "
            "%s down, %llu faults, %llu reroutes, probe %llu/%llu recv, "
            "worst gap %s\n",
            q, fork_ms, ms_since(wall0), victim.name().c_str(),
            static_cast<unsigned long long>(
                fm.counters().get("fault_notifications") - faults0),
            static_cast<unsigned long long>(
                fm.counters().get("prune_updates_sent") - reroutes0),
            static_cast<unsigned long long>(rep.recv),
            static_cast<unsigned long long>(rep.sent),
            format_time(rep.worst_gap).c_str());
        break;
      }
      case 2: {  // ARP storm: one pod's hosts all resolve cold remotes.
        const std::size_t pod = rng.next_below(static_cast<std::size_t>(k));
        const auto& hosts = fabric.hosts();
        std::vector<Probe> storm;
        std::uint64_t arp0 = 0;
        std::uint16_t port = 7400;
        for (std::size_t e = 0; e < static_cast<std::size_t>(k / 2); ++e) {
          for (std::size_t h = 0; h < static_cast<std::size_t>(k / 2); ++h) {
            host::Host& src = fabric.host_at(pod, e, h);
            arp0 += src.arp_requests_sent();
            host::Host* dst = nullptr;
            do {
              dst = hosts[rng.next_below(hosts.size())];
            } while (dst == &src);
            Probe p;
            p.rx = std::make_unique<host::UdpFlowReceiver>(*dst, port);
            host::UdpFlowSender::Config cfg;
            cfg.dst = dst->ip();
            cfg.src_port = cfg.dst_port = port;
            cfg.interval = millis(20);
            p.tx = std::make_unique<host::UdpFlowSender>(src, cfg);
            p.tx->start();
            storm.push_back(std::move(p));
            ++port;
          }
        }
        fabric.sim().run_until(t0 + millis(100));
        std::uint64_t arp1 = 0;
        std::uint64_t delivered = 0;
        for (Probe& p : storm) {
          p.tx->stop();
          delivered += p.rx->packets_received();
        }
        for (std::size_t e = 0; e < static_cast<std::size_t>(k / 2); ++e) {
          for (std::size_t h = 0; h < static_cast<std::size_t>(k / 2); ++h) {
            arp1 += fabric.host_at(pod, e, h).arp_requests_sent();
          }
        }
        std::printf(
            "  q%-3d arp-storm    fork %6.2f ms  answer %7.2f ms  "
            "pod %zu: %zu hosts, %llu ARP requests, %llu control msgs, "
            "%llu probe pkts delivered\n",
            q, fork_ms, ms_since(wall0), pod, storm.size(),
            static_cast<unsigned long long>(arp1 - arp0),
            static_cast<unsigned long long>(fabric.control().messages_sent() -
                                            ctl0),
            static_cast<unsigned long long>(delivered));
        break;
      }
      default: {  // Path audit: E13's per-packet loop-freedom invariants.
        // The restore cleared the monitor, so it audits this query alone.
        std::vector<Probe> probes = make_probes(fabric, rng, 8, 7200);
        fabric.sim().run_until(t0 + millis(150));
        const ProbeReport rep = finish_probes(fabric, probes, t0);
        monitor->finalize();
        const auto& hist = monitor->path_hop_histogram();
        const std::size_t max_hops = hist.empty() ? 0 : hist.rbegin()->first;
        std::printf(
            "  q%-3d path-audit   fork %6.2f ms  answer %7.2f ms  "
            "%llu packets audited, %llu violations, max %zu switch hops, "
            "probe %llu/%llu recv\n",
            q, fork_ms, ms_since(wall0),
            static_cast<unsigned long long>(monitor->paths_completed()),
            static_cast<unsigned long long>(monitor->path_violations()),
            max_hops,
            static_cast<unsigned long long>(rep.recv),
            static_cast<unsigned long long>(rep.sent));
        break;
      }
    }
    // Per-query DropReason deltas from the flight recorder.
    if (recorder != nullptr) {
      const auto drops1 = recorder->drops_by_reason();
      std::string line;
      for (std::size_t i = 1; i < obs::kDropReasonCount; ++i) {
        const std::uint64_t delta = drops1[i] - drops0[i];
        if (delta == 0) continue;
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s=%llu",
                      obs::drop_reason_name(static_cast<obs::DropReason>(i)),
                      static_cast<unsigned long long>(delta));
        line += buf;
      }
      if (!line.empty()) std::printf("        drops:%s\n", line.c_str());
    }
    // Per-failure reaction timelines observed during this query.
    if (monitor != nullptr) {
      monitor->finalize();
      const auto& done = monitor->completed();
      if (!done.empty() || monitor->path_violations() > 0) {
        std::vector<double> conv;
        double worst_blackhole = 0;
        for (const auto& tl : done) {
          if (tl.convergence() != 0) {
            conv.push_back(static_cast<double>(tl.convergence()) / 1e6);
          }
          for (const auto& w : tl.blackholes) {
            if (w.closed()) {
              worst_blackhole = std::max(
                  worst_blackhole, static_cast<double>(w.duration()) / 1e6);
            }
          }
        }
        std::sort(conv.begin(), conv.end());
        std::printf(
            "        timelines: %zu completed, convergence p50 %.2f ms "
            "max %.2f ms, worst blackhole %.2f ms, %llu path violations\n",
            done.size(), conv.empty() ? 0.0 : conv[conv.size() / 2],
            conv.empty() ? 0.0 : conv.back(), worst_blackhole,
            static_cast<unsigned long long>(monitor->path_violations()));
      }
      std::string jsonl;
      monitor->write_timelines_jsonl(&jsonl);
      all_timelines += jsonl;
    }
    if (exporter != nullptr) {
      fabric.snapshot_metrics(registry);
      std::string prom = registry.render_prometheus();
      if (monitor != nullptr) monitor->render_prometheus(&prom);
      exporter->publish_metrics(std::move(prom));
      exporter->publish_timelines(all_timelines);
      exporter->poll();
    }
    // A lingering server is usually watched through a redirected log;
    // flush per query so reports survive an external kill mid-linger.
    std::fflush(stdout);
    fork_total_ms += fork_ms;
    answer_total_ms += ms_since(wall0);
  }
  const double avg_answer = answer_total_ms / args.serve;
  std::printf("serve: answered %d queries, avg fork %.2f ms, avg answer "
              "%.2f ms (cold converge alone: %.1f ms, %.1fx)\n",
              args.serve, fork_total_ms / args.serve, avg_answer,
              converge_wall_ms,
              avg_answer > 0 ? converge_wall_ms / avg_answer : 0.0);
  if (exporter != nullptr && args.http_linger_ms > 0) {
    std::printf("http: lingering %lld ms on 127.0.0.1:%u\n",
                args.http_linger_ms, exporter->port());
    std::fflush(stdout);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(args.http_linger_ms);
    while (std::chrono::steady_clock::now() < until) {
      exporter->poll();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (exporter != nullptr) {
    std::printf("http: served %llu requests\n",
                static_cast<unsigned long long>(
                    exporter->requests_served()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const bool want_metrics = !args.metrics_out.empty() || !args.prom_out.empty();
  const bool want_trace = !args.trace_out.empty();

  core::PortlandFabric::Options options;
  options.k = args.k;
  options.seed = args.seed;
  options.workers = args.workers;
  options.config.ecmp_mode = args.ecmp;
  options.config.fm_shards = args.fm_shards;
  options.obs.flight_recorder = want_trace;
  options.obs.engine_trace = want_trace && args.trace_engine;
  options.obs.trace_frames = static_cast<std::uint64_t>(args.trace_frames);
  // Serve mode runs the convergence observatory: per-failure reaction
  // timelines plus per-packet path checks, sampled between queries.
  options.obs.convergence_monitor = args.serve > 0;
  core::PortlandFabric fabric(options);
  std::printf("fabric: k=%d, %zu switches, %zu hosts, seed=%llu, ecmp=%s\n",
              args.k, fabric.switches().size(), fabric.hosts().size(),
              static_cast<unsigned long long>(args.seed),
              args.ecmp == core::PortlandConfig::EcmpMode::kFlowHash
                  ? "flow-hash"
                  : "packet-spray");
  // options() holds the resolved worker count (auto is resolved in the
  // fabric constructor).
  std::printf("engine: workers=%u (%s)\n", fabric.options().workers,
              fabric.options().workers == 0 ? "1 shard" : "k+1 shards");
  double converge_wall_ms = 0;
  std::vector<std::uint8_t> image;
  if (!args.snapshot_in.empty()) {
    if (!read_file(args.snapshot_in, image)) {
      std::fprintf(stderr, "scenario_cli: cannot read %s\n",
                   args.snapshot_in.c_str());
      return 1;
    }
    const auto wall0 = std::chrono::steady_clock::now();
    std::string err;
    if (!fabric.restore_snapshot(image, &err)) {
      std::fprintf(stderr, "scenario_cli: restore failed: %s\n", err.c_str());
      return 1;
    }
    std::printf("snapshot: restored %zu bytes from %s in %.2f ms "
                "(sim time %s)\n",
                image.size(), args.snapshot_in.c_str(), ms_since(wall0),
                format_time(fabric.sim().now()).c_str());
  } else {
    const auto wall0 = std::chrono::steady_clock::now();
    if (!fabric.run_until_converged()) {
      std::printf("discovery did not converge\n");
      return 1;
    }
    converge_wall_ms = ms_since(wall0);
    std::printf("discovery converged at %s (%.1f ms wall)\n",
                format_time(fabric.sim().now()).c_str(), converge_wall_ms);
  }
  if (!args.snapshot_out.empty() || args.serve > 0) {
    const auto wall0 = std::chrono::steady_clock::now();
    image.clear();
    std::string err;
    if (!fabric.save_snapshot(image, &err)) {
      std::fprintf(stderr, "scenario_cli: save failed: %s\n", err.c_str());
      return 1;
    }
    const double save_ms = ms_since(wall0);
    if (!args.snapshot_out.empty()) {
      if (!write_file(args.snapshot_out, image)) {
        std::fprintf(stderr, "scenario_cli: cannot write %s\n",
                     args.snapshot_out.c_str());
        return 1;
      }
      std::printf("snapshot: %zu bytes -> %s (%.2f ms, %.0f bytes/host)\n",
                  image.size(), args.snapshot_out.c_str(), save_ms,
                  static_cast<double>(image.size()) /
                      static_cast<double>(fabric.hosts().size()));
    }
    // Post-save traces must evolve identically in this process and in
    // any process that restores the image (which clears rings and keeps
    // trace-id counters): drop the pre-save ring records here too.
    if (obs::FlightRecorder* rec = fabric.flight_recorder()) rec->clear();
  }
  if (args.serve > 0) {
    return run_serve(fabric, image, args, converge_wall_ms);
  }
  // ARP storm: every host resolves one fresh destination per round, then
  // the per-shard query spread shows how evenly the (possibly sharded)
  // fabric manager served it.
  if (args.arp_storm > 0) {
    const auto& storm_hosts = fabric.hosts();
    const std::size_t n = storm_hosts.size();
    auto resolutions = [&] {
      std::uint64_t total = 0;
      for (const host::Host* h : storm_hosts) {
        total += h->counters().get("arp_resolutions");
      }
      return total;
    };
    const std::uint64_t res0 = resolutions();
    for (int r = 0; r < args.arp_storm; ++r) {
      const std::size_t off =
          1 + (static_cast<std::size_t>(r) * 2654435761ull) % (n - 1);
      const std::uint16_t sport = static_cast<std::uint16_t>(7600 + r);
      for (std::size_t i = 0; i < n; ++i) {
        storm_hosts[i]->send_udp(storm_hosts[(i + off) % n]->ip(), sport,
                                 sport, {1});
      }
      fabric.sim().run_until(fabric.sim().now() + millis(5));
    }
    fabric.sim().run_until(fabric.sim().now() + millis(20));
    const auto& storm_fm = fabric.fabric_manager();
    std::uint64_t total_q = 0;
    std::uint64_t busiest = 0;
    for (std::size_t s = 0; s < storm_fm.shard_count(); ++s) {
      const std::uint64_t q = storm_fm.shard_counters(s).get("arp_queries");
      total_q += q;
      busiest = std::max(busiest, q);
    }
    std::printf("arp storm: %d rounds, %llu resolutions, %llu FM queries "
                "across %zu shard(s), busiest %llu (service speedup "
                "%.2fx)\n",
                args.arp_storm,
                static_cast<unsigned long long>(resolutions() - res0),
                static_cast<unsigned long long>(total_q),
                storm_fm.shard_count(),
                static_cast<unsigned long long>(busiest),
                busiest > 0 ? static_cast<double>(total_q) /
                                  static_cast<double>(busiest)
                            : 1.0);
  }
  const SimTime t0 = fabric.sim().now();

  // Flows.
  Rng rng(args.seed ^ 0xF10F);
  struct Flow {
    std::unique_ptr<host::UdpFlowReceiver> rx;
    std::unique_ptr<host::UdpFlowSender> tx;
    std::string name;
  };
  std::vector<Flow> flows;
  const auto& hosts = fabric.hosts();
  std::uint16_t port = 7100;
  while (static_cast<int>(flows.size()) < args.flows) {
    host::Host* a = hosts[rng.next_below(hosts.size())];
    host::Host* b = hosts[rng.next_below(hosts.size())];
    if (a == b) continue;
    Flow f;
    f.rx = std::make_unique<host::UdpFlowReceiver>(*b, port);
    host::UdpFlowSender::Config cfg;
    cfg.dst = b->ip();
    cfg.src_port = cfg.dst_port = port;
    cfg.interval = millis(1);
    f.tx = std::make_unique<host::UdpFlowSender>(*a, cfg);
    f.tx->start();
    f.name = a->name() + " -> " + b->name();
    flows.push_back(std::move(f));
    ++port;
  }

  // Failures.
  std::vector<sim::Link*> victims;
  if (args.fail > 0) {
    victims = fabric.failures().fail_random_links_at(
        fabric.fabric_links(), static_cast<std::size_t>(args.fail),
        t0 + args.fail_at, rng);
    for (sim::Link* l : victims) {
      std::printf("will fail %s <-> %s at +%s\n",
                  l->device(0).name().c_str(), l->device(1).name().c_str(),
                  format_time(args.fail_at).c_str());
      if (args.repair_at > 0) {
        fabric.failures().repair_link_at(*l, t0 + args.repair_at);
      }
    }
  }
  if (args.fm_failover_at > 0) {
    fabric.sim().at(t0 + args.fm_failover_at, [&fabric] {
      std::printf("fabric manager failover (soft state wiped)\n");
      fabric.fabric_manager().simulate_failover();
    });
  }

  // Run — chunked when sampling metrics so snapshots land every
  // interval, a single run_until otherwise. Snapshotting between chunks
  // is purely observational; the event schedule is identical either way.
  obs::MetricsRegistry metrics;
  if (want_metrics) {
    const SimDuration step = millis(args.metrics_interval_ms);
    const SimTime end = t0 + args.duration;
    for (SimTime t = t0; t < end;) {
      t = std::min(end, t + step);
      fabric.sim().run_until(t);
      fabric.snapshot_metrics(metrics);
    }
  } else {
    fabric.sim().run_until(t0 + args.duration);
  }
  for (auto& f : flows) f.tx->stop();

  // Report.
  std::printf("\n%-44s %8s %8s %12s\n", "flow", "sent", "recv", "max_gap");
  for (const Flow& f : flows) {
    std::printf("%-44s %8llu %8llu %12s\n", f.name.c_str(),
                static_cast<unsigned long long>(f.tx->packets_sent()),
                static_cast<unsigned long long>(f.rx->packets_received()),
                format_time(f.rx->max_gap(t0, t0 + args.duration)).c_str());
  }
  const auto& fm = fabric.fabric_manager();
  std::printf("\nfabric manager: %llu faults, %llu repairs, %llu reroute "
              "updates, %zu active prune keys, %zu failed links\n",
              static_cast<unsigned long long>(
                  fm.counters().get("fault_notifications")),
              static_cast<unsigned long long>(fm.counters().get("fault_repairs")),
              static_cast<unsigned long long>(
                  fm.counters().get("prune_updates_sent")),
              fm.installed_prune_keys(), fm.graph().failed_link_count());
  std::printf("control plane: %llu messages, %llu bytes\n",
              static_cast<unsigned long long>(
                  fabric.control().messages_sent()),
              static_cast<unsigned long long>(fabric.control().bytes_sent()));

  // Observability outputs.
  if (const obs::FlightRecorder* rec = fabric.flight_recorder()) {
    std::printf("flight recorder: %llu traced frames, %llu hop records "
                "(%llu evicted), %llu drops\n",
                static_cast<unsigned long long>(rec->traced_frames()),
                static_cast<unsigned long long>(rec->records_captured()),
                static_cast<unsigned long long>(rec->records_evicted()),
                static_cast<unsigned long long>(rec->drops_recorded()));
    const auto by_reason = rec->drops_by_reason();
    for (std::size_t i = 1; i < obs::kDropReasonCount; ++i) {
      if (by_reason[i] == 0) continue;
      std::printf("  drop %-18s %llu\n",
                  obs::drop_reason_name(static_cast<obs::DropReason>(i)),
                  static_cast<unsigned long long>(by_reason[i]));
    }
  }
  if (!args.metrics_out.empty()) {
    if (!metrics.write_jsonl(args.metrics_out)) {
      std::fprintf(stderr, "scenario_cli: cannot write %s\n",
                   args.metrics_out.c_str());
      return 1;
    }
    std::printf("metrics: %zu snapshots -> %s\n", metrics.snapshots().size(),
                args.metrics_out.c_str());
  }
  if (!args.prom_out.empty()) {
    if (!metrics.write_prometheus(args.prom_out)) {
      std::fprintf(stderr, "scenario_cli: cannot write %s\n",
                   args.prom_out.c_str());
      return 1;
    }
    std::printf("metrics: prometheus text -> %s\n", args.prom_out.c_str());
  }
  if (!args.trace_out.empty()) {
    if (!obs::write_perfetto_trace(args.trace_out, fabric.engine_tracer(),
                                   fabric.flight_recorder())) {
      std::fprintf(stderr, "scenario_cli: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %s\n", args.trace_out.c_str());
  }
  return 0;
}
