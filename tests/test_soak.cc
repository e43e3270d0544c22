// Soak test: everything the fabric does, all at once, for several
// simulated seconds — unicast flows, a TCP transfer, a multicast group,
// link failures and repairs, a VM migration, and a fabric-manager
// failover. At the end every invariant must hold simultaneously: all
// traffic flowing, loop-freedom per packet, pristine reroute state, and a
// fully reconstructed fabric-manager view.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <tuple>

#include "core/fabric.h"
#include "core/migration.h"
#include "core/path_audit.h"
#include "host/apps.h"

namespace portland::core {
namespace {

TEST(Soak, EverythingAtOnce) {
  topo::FatTree tree(4);
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 20260705;
  options.skip_host_indices = {tree.host_index(3, 1, 1)};  // migration slot
  PortlandFabric fabric(options);
  ASSERT_TRUE(fabric.run_until_converged());
  const SimTime t0 = fabric.sim().now();

  PathAuditor auditor(fabric);
  Rng rng(options.seed);

  // --- 4 unicast probe flows across pods -------------------------------
  struct Probe {
    std::unique_ptr<host::UdpFlowReceiver> rx;
    std::unique_ptr<host::UdpFlowSender> tx;
  };
  std::vector<Probe> probes;
  const std::pair<std::array<std::size_t, 3>, std::array<std::size_t, 3>>
      pairs[4] = {
          {{0, 0, 1}, {1, 0, 0}},
          {{1, 1, 0}, {2, 0, 1}},
          {{2, 1, 1}, {0, 1, 0}},
          {{3, 0, 0}, {1, 0, 1}},
      };
  std::uint16_t port = 7300;
  for (const auto& [src, dst] : pairs) {
    Probe p;
    host::Host& a = fabric.host_at(src[0], src[1], src[2]);
    host::Host& b = fabric.host_at(dst[0], dst[1], dst[2]);
    p.rx = std::make_unique<host::UdpFlowReceiver>(b, port);
    host::UdpFlowSender::Config cfg;
    cfg.dst = b.ip();
    cfg.src_port = cfg.dst_port = port;
    cfg.interval = millis(2);
    p.tx = std::make_unique<host::UdpFlowSender>(a, cfg);
    p.tx->start();
    probes.push_back(std::move(p));
    ++port;
  }

  // --- one long TCP transfer (sender in pod 2 -> the future migrant) ----
  host::Host& vm = fabric.host_at(0, 0, 0);
  host::Host& tcp_sender = fabric.host_at(2, 0, 0);
  host::TcpConnection* accepted = nullptr;
  vm.tcp_listen(5001, [&](host::TcpConnection& c) { accepted = &c; });
  host::TcpConnection* conn = nullptr;
  const std::uint64_t kTcpBytes = 40'000'000;
  fabric.sim().after(millis(5), [&] {
    conn = tcp_sender.tcp_connect(vm.ip(), 5001);
    conn->send(kTcpBytes);
  });

  // --- multicast group with three receivers -----------------------------
  const Ipv4Address group(224, 9, 9, 9);
  std::map<std::string, int> mcast_rx;
  for (host::Host* r : {&fabric.host_at(1, 1, 1), &fabric.host_at(2, 1, 0),
                        &fabric.host_at(3, 0, 1)}) {
    r->join_group(group, [&, r](Ipv4Address, std::uint16_t, std::uint16_t,
                                std::span<const std::uint8_t>) {
      ++mcast_rx[r->name()];
    });
  }
  host::Host& mcast_sender = fabric.host_at(0, 1, 1);
  sim::PeriodicTimer mcast_stream(fabric.sim(), millis(5), [&] {
    mcast_sender.send_udp_multicast(group, 8000, 8001, {0});
  });
  mcast_stream.start(millis(100));

  // --- chaos schedule ----------------------------------------------------
  // t0+300ms: two random link failures.  t0+900ms: repairs.
  const auto victims = fabric.failures().fail_random_links_at(
      fabric.fabric_links(), 2, t0 + millis(300), rng);
  for (sim::Link* l : victims) {
    fabric.failures().repair_link_at(*l, t0 + millis(900));
  }
  // t0+1200ms: the VM (TCP receiver) migrates to pod 3.
  MigrationController migration(fabric);
  MigrationController::Plan plan;
  plan.vm_host_index = tree.host_index(0, 0, 0);
  plan.to_pod = 3;
  plan.to_edge = 1;
  plan.to_port = 1;
  plan.start = t0 + millis(1200);
  plan.downtime = millis(150);
  migration.schedule(plan);
  // t0+1800ms: fabric-manager failover.
  fabric.sim().at(t0 + millis(1800), [&] {
    fabric.fabric_manager().simulate_failover();
  });

  // --- run 5 simulated seconds ------------------------------------------
  fabric.sim().run_until(t0 + seconds(5));
  for (auto& p : probes) p.tx->stop();
  mcast_stream.stop();
  fabric.sim().run_until(fabric.sim().now() + millis(50));

  // --- the reckoning -----------------------------------------------------
  // 1. Loop freedom held for every audited packet through all of it.
  EXPECT_TRUE(auditor.violations().empty()) << auditor.violations().front();
  EXPECT_GT(auditor.packets_completed(), 5000u);

  // 2. Every probe flow is alive and lost only transient packets.
  for (const auto& p : probes) {
    EXPECT_GT(p.rx->last_arrival_time(), fabric.sim().now() - millis(100));
    EXPECT_GT(p.rx->packets_received(), p.tx->packets_sent() * 8 / 10);
  }

  // 3. TCP finished intact across failures + migration + FM failover.
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(accepted->bytes_delivered(), kTcpBytes);
  EXPECT_FALSE(accepted->payload_corruption_seen());

  // 4. Multicast delivered to all three receivers and kept flowing.
  for (const auto& [name, n] : mcast_rx) {
    EXPECT_GT(n, 500) << name;
  }
  EXPECT_EQ(mcast_rx.size(), 3u);

  // 5. Fabric state is pristine: repaired links, no residual prunes, and
  //    the failed-over FM rebuilt its whole view.
  const FabricManager& fm = fabric.fabric_manager();
  EXPECT_EQ(fm.graph().failed_link_count(), 0u);
  EXPECT_EQ(fm.installed_prune_keys(), 0u);
  for (const PortlandSwitch* sw : fabric.switches()) {
    EXPECT_EQ(sw->prune_entry_count(), 0u) << sw->name();
  }
  EXPECT_EQ(fm.graph().switch_count(), fabric.switches().size());
  EXPECT_EQ(fm.host_count(), fabric.hosts().size());
  EXPECT_EQ(fm.pods_assigned(), 4u);
  // The migrated VM is registered at its new home.
  const auto record = fm.host(vm.ip());
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(Pmac::from_mac(record->pmac).pod,
            fabric.edge_at(3, 1).locator().pod);
}

// ---------------------------------------------------------------------------
// Parallel-engine determinism: the same chaos scenario on the sharded
// engine must produce the exact same simulation regardless of worker
// count — same event totals, same per-flow delivery, same drop counts,
// and the same network-wide frame trace down to every (time, receiver,
// size) triple.
// ---------------------------------------------------------------------------

struct ParallelRunResult {
  std::uint64_t executed = 0;
  SimTime final_now = 0;
  std::vector<std::uint64_t> probe_sent;
  std::vector<std::uint64_t> probe_received;
  std::uint64_t tcp_delivered = 0;
  bool tcp_corrupt = true;
  std::map<std::string, int> mcast_rx;
  std::uint64_t link_tx_frames = 0;
  std::uint64_t link_dropped = 0;
  /// Every frame delivery network-wide: (time, receiving device, size).
  std::vector<std::tuple<SimTime, std::string, std::size_t>> trace;
  /// Frames delivered via train batches (zero when burst mode is off).
  std::uint64_t train_frames = 0;
  /// Flight-recorder totals (zero when it was off).
  std::uint64_t rec_captured = 0;
  std::uint64_t rec_traced = 0;
  std::uint64_t rec_drops = 0;
  /// Convergence-monitor totals (zero when it was off).
  std::uint64_t mon_events = 0;
  std::uint64_t mon_timelines = 0;
  std::uint64_t mon_loops = 0;
  std::uint64_t mon_overflow = 0;
};

ParallelRunResult run_parallel_soak(unsigned workers, bool obs_on = false,
                                    bool burst = true, bool monitor_on = false,
                                    std::size_t fm_shards = 1,
                                    bool fm_replica = false) {
  topo::FatTree tree(4);
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 20260806;
  options.workers = workers;  // >= 1 selects the sharded engine
  options.skip_host_indices = {tree.host_index(3, 1, 1)};  // migration slot
  options.obs.flight_recorder = obs_on;
  options.obs.engine_trace = obs_on;
  options.obs.convergence_monitor = monitor_on;
  options.obs.check_invariants = monitor_on;
  options.burst = burst;
  options.config.fm_shards = fm_shards;
  options.config.fm_replica = fm_replica;
  PortlandFabric fabric(options);

  ParallelRunResult result;
  std::mutex trace_mutex;
  // The tap runs on shard threads; it serializes itself and the trace is
  // canonically sorted afterwards, so thread arrival order is irrelevant.
  fabric.network().set_frame_tap(
      [&](const sim::Link& link, int rx_side, const sim::FramePtr& frame) {
        std::lock_guard<std::mutex> lock(trace_mutex);
        result.trace.emplace_back(fabric.sim().now(),
                                  link.device(rx_side).name(),
                                  frame->bytes.size());
      });

  EXPECT_TRUE(fabric.run_until_converged());
  const SimTime t0 = fabric.sim().now();
  Rng rng(options.seed);

  // Cross-pod probe flows.
  struct Probe {
    std::unique_ptr<host::UdpFlowReceiver> rx;
    std::unique_ptr<host::UdpFlowSender> tx;
  };
  std::vector<Probe> probes;
  const std::pair<std::array<std::size_t, 3>, std::array<std::size_t, 3>>
      pairs[3] = {
          {{0, 0, 1}, {1, 0, 0}},
          {{1, 1, 0}, {2, 0, 1}},
          {{2, 1, 1}, {0, 1, 0}},
      };
  std::uint16_t port = 7400;
  for (const auto& [src, dst] : pairs) {
    Probe p;
    host::Host& a = fabric.host_at(src[0], src[1], src[2]);
    host::Host& b = fabric.host_at(dst[0], dst[1], dst[2]);
    p.rx = std::make_unique<host::UdpFlowReceiver>(b, port);
    host::UdpFlowSender::Config cfg;
    cfg.dst = b.ip();
    cfg.src_port = cfg.dst_port = port;
    cfg.interval = millis(2);
    p.tx = std::make_unique<host::UdpFlowSender>(a, cfg);
    {
      sim::ShardGuard guard(fabric.sim(), a.shard());
      p.tx->start();
    }
    probes.push_back(std::move(p));
    ++port;
  }

  // A TCP transfer to the future migrant.
  host::Host& vm = fabric.host_at(0, 0, 0);
  host::Host& tcp_sender = fabric.host_at(2, 0, 0);
  host::TcpConnection* accepted = nullptr;
  vm.tcp_listen(5001, [&](host::TcpConnection& c) { accepted = &c; });
  const std::uint64_t kTcpBytes = 2'000'000;
  fabric.sim().after(millis(5), [&] {
    tcp_sender.tcp_connect(vm.ip(), 5001)->send(kTcpBytes);
  });

  // Multicast: replicas of one frame fan out to several shards at once,
  // exercising the concurrent parse-once publish.
  const Ipv4Address group(224, 9, 9, 9);
  for (host::Host* r : {&fabric.host_at(1, 1, 1), &fabric.host_at(3, 0, 1)}) {
    r->join_group(group, [&result, r](Ipv4Address, std::uint16_t,
                                      std::uint16_t,
                                      std::span<const std::uint8_t>) {
      ++result.mcast_rx[r->name()];
    });
  }
  host::Host& mcast_sender = fabric.host_at(0, 1, 1);
  sim::PeriodicTimer mcast_stream(fabric.sim(), millis(5), [&] {
    mcast_sender.send_udp_multicast(group, 8000, 8001, {0});
  });
  mcast_stream.start(millis(50));

  // Chaos: two random link failures, repairs, then a VM migration.
  const auto victims = fabric.failures().fail_random_links_at(
      fabric.fabric_links(), 2, t0 + millis(200), rng);
  for (sim::Link* l : victims) {
    fabric.failures().repair_link_at(*l, t0 + millis(500));
  }
  MigrationController migration(fabric);
  MigrationController::Plan plan;
  plan.vm_host_index = tree.host_index(0, 0, 0);
  plan.to_pod = 3;
  plan.to_edge = 1;
  plan.to_port = 1;
  plan.start = t0 + millis(600);
  plan.downtime = millis(100);
  migration.schedule(plan);

  fabric.sim().run_until(t0 + millis(1500));
  for (auto& p : probes) p.tx->stop();
  mcast_stream.stop();
  fabric.sim().run_until(fabric.sim().now() + millis(50));

  result.executed = fabric.sim().executed_events();
  result.final_now = fabric.sim().now();
  result.train_frames = fabric.sim().train_frames();
  for (const auto& p : probes) {
    result.probe_sent.push_back(p.tx->packets_sent());
    result.probe_received.push_back(p.rx->packets_received());
  }
  if (accepted != nullptr) {
    result.tcp_delivered = accepted->bytes_delivered();
    result.tcp_corrupt = accepted->payload_corruption_seen();
  }
  for (const auto& link : fabric.network().links()) {
    for (int side = 0; side < 2; ++side) {
      result.link_tx_frames += link->tx_frames(side);
      result.link_dropped += link->dropped_frames(side);
    }
  }
  if (const obs::FlightRecorder* rec = fabric.flight_recorder()) {
    result.rec_captured = rec->records_captured();
    result.rec_traced = rec->traced_frames();
    result.rec_drops = rec->drops_recorded();
  }
  if (obs::ConvergenceMonitor* monitor = fabric.convergence_monitor()) {
    result.mon_events = monitor->events_captured();
    monitor->finalize();
    result.mon_timelines = monitor->timelines_total();
    result.mon_loops = monitor->loop_violations();
    result.mon_overflow = monitor->events_overflowed();
  }
  std::sort(result.trace.begin(), result.trace.end());
  return result;
}

TEST(Soak, ParallelEngineIsWorkerCountInvariant) {
  const ParallelRunResult serial = run_parallel_soak(1);
  const ParallelRunResult parallel = run_parallel_soak(4);

  // The scenario actually did something.
  EXPECT_EQ(serial.tcp_delivered, 2'000'000u);
  EXPECT_FALSE(serial.tcp_corrupt);
  EXPECT_EQ(serial.mcast_rx.size(), 2u);
  for (std::size_t i = 0; i < serial.probe_sent.size(); ++i) {
    EXPECT_GT(serial.probe_received[i], serial.probe_sent[i] * 8 / 10);
  }
  EXPECT_GT(serial.trace.size(), 10'000u);

  // Bit-identical replay across worker counts.
  EXPECT_EQ(serial.executed, parallel.executed);
  EXPECT_EQ(serial.final_now, parallel.final_now);
  EXPECT_EQ(serial.probe_sent, parallel.probe_sent);
  EXPECT_EQ(serial.probe_received, parallel.probe_received);
  EXPECT_EQ(serial.tcp_delivered, parallel.tcp_delivered);
  EXPECT_EQ(serial.tcp_corrupt, parallel.tcp_corrupt);
  EXPECT_EQ(serial.mcast_rx, parallel.mcast_rx);
  EXPECT_EQ(serial.link_tx_frames, parallel.link_tx_frames);
  EXPECT_EQ(serial.link_dropped, parallel.link_dropped);
  ASSERT_EQ(serial.trace.size(), parallel.trace.size());
  EXPECT_TRUE(serial.trace == parallel.trace)
      << "frame delivery traces diverged";
}

// The flight recorder + engine tracer are passive: attaching them must
// not move a single event. The same chaos scenario runs with tracing off
// and on, at 1 and at 4 workers — every sim-visible quantity (executed
// events, delivery counts, the full frame trace) must be bit-identical
// across all three runs, and the recorder itself must observe the same
// frames regardless of worker count.
TEST(Soak, FlightRecorderIsInvisibleToExecution) {
  const ParallelRunResult off1 = run_parallel_soak(1);
  const ParallelRunResult on1 = run_parallel_soak(1, /*obs_on=*/true);
  const ParallelRunResult on4 = run_parallel_soak(4, /*obs_on=*/true);

  const auto expect_same_sim = [](const ParallelRunResult& a,
                                  const ParallelRunResult& b,
                                  const char* label) {
    EXPECT_EQ(a.executed, b.executed) << label;
    EXPECT_EQ(a.final_now, b.final_now) << label;
    EXPECT_EQ(a.probe_sent, b.probe_sent) << label;
    EXPECT_EQ(a.probe_received, b.probe_received) << label;
    EXPECT_EQ(a.tcp_delivered, b.tcp_delivered) << label;
    EXPECT_EQ(a.tcp_corrupt, b.tcp_corrupt) << label;
    EXPECT_EQ(a.mcast_rx, b.mcast_rx) << label;
    EXPECT_EQ(a.link_tx_frames, b.link_tx_frames) << label;
    EXPECT_EQ(a.link_dropped, b.link_dropped) << label;
    ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
    EXPECT_TRUE(a.trace == b.trace) << label << ": traces diverged";
  };
  expect_same_sim(off1, on1, "tracing off vs on, 1 worker");
  expect_same_sim(on1, on4, "tracing on, 1 vs 4 workers");

  // The recorder saw real traffic...
  EXPECT_GT(on1.rec_captured, 10'000u);
  EXPECT_GT(on1.rec_traced, 100u);
  EXPECT_GT(on1.rec_drops, 0u);
  // ...and its own counts are worker-count invariant too (records land in
  // per-shard logs keyed by device shard, merged canonically).
  EXPECT_EQ(on1.rec_captured, on4.rec_captured);
  EXPECT_EQ(on1.rec_traced, on4.rec_traced);
  EXPECT_EQ(on1.rec_drops, on4.rec_drops);
  // The untraced run recorded nothing.
  EXPECT_EQ(off1.rec_captured, 0u);
}

// The convergence monitor (timeline engine + streaming loop-freedom
// checks) is passive like the recorder it rides on: attaching it must
// not move a single event. The same chaos scenario — failures, repairs,
// migration, TCP, multicast — runs with the monitor off and on, across
// 1/4 workers, and every sim-visible quantity must match the plain run
// bit for bit. The monitor's own observations (events captured,
// timelines opened, loop violations) must be worker-count invariant too.
TEST(Soak, ConvergenceMonitorIsInvisibleToExecution) {
  const ParallelRunResult plain1 = run_parallel_soak(1);
  const ParallelRunResult on1 = run_parallel_soak(
      1, /*obs_on=*/true, /*burst=*/true, /*monitor_on=*/true);
  const ParallelRunResult on4 = run_parallel_soak(
      4, /*obs_on=*/true, /*burst=*/true, /*monitor_on=*/true);

  const auto expect_same_sim = [](const ParallelRunResult& a,
                                  const ParallelRunResult& b,
                                  const char* label) {
    EXPECT_EQ(a.executed, b.executed) << label;
    EXPECT_EQ(a.final_now, b.final_now) << label;
    EXPECT_EQ(a.probe_sent, b.probe_sent) << label;
    EXPECT_EQ(a.probe_received, b.probe_received) << label;
    EXPECT_EQ(a.tcp_delivered, b.tcp_delivered) << label;
    EXPECT_EQ(a.tcp_corrupt, b.tcp_corrupt) << label;
    EXPECT_EQ(a.mcast_rx, b.mcast_rx) << label;
    EXPECT_EQ(a.link_tx_frames, b.link_tx_frames) << label;
    EXPECT_EQ(a.link_dropped, b.link_dropped) << label;
    ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
    EXPECT_TRUE(a.trace == b.trace) << label << ": traces diverged";
  };
  expect_same_sim(plain1, on1, "monitor off vs on, 1 worker");
  expect_same_sim(on1, on4, "monitor on, 1 vs 4 workers");

  // The monitor saw the chaos: 2 link failures + the migration's
  // disconnect all open timelines...
  EXPECT_GE(on1.mon_timelines, 3u);
  EXPECT_GT(on1.mon_events, 1000u);
  EXPECT_EQ(on1.mon_overflow, 0u);
  // ...the fabric stayed loop-free throughout...
  EXPECT_EQ(on1.mon_loops, 0u);
  // ...and what it observed is worker-count invariant.
  EXPECT_EQ(on1.mon_events, on4.mon_events);
  EXPECT_EQ(on1.mon_timelines, on4.mon_timelines);
  EXPECT_EQ(on1.mon_loops, on4.mon_loops);
  // The monitor-off runs observed nothing.
  EXPECT_EQ(plain1.mon_events, 0u);
  EXPECT_EQ(plain1.mon_timelines, 0u);
}

// Burst/train execution is a pure scheduler-side batching optimization:
// turning it off must not move a single event. The same chaos scenario runs
// with trains disabled — across worker counts — and every sim-visible
// quantity must match the burst-on reference bit for bit. This is the
// equality proof behind the E18 bench ("every configuration simulates the
// same network").
TEST(Soak, BurstModeIsInvisibleToExecution) {
  const ParallelRunResult on1 = run_parallel_soak(1);  // burst on (default)
  const ParallelRunResult off1 =
      run_parallel_soak(1, /*obs_on=*/false, /*burst=*/false);
  const ParallelRunResult off4 =
      run_parallel_soak(4, /*obs_on=*/false, /*burst=*/false);

  // The reference run really used trains; the off runs never did.
  EXPECT_GT(on1.train_frames, 0u);
  EXPECT_EQ(off1.train_frames, 0u);
  EXPECT_EQ(off4.train_frames, 0u);

  const auto expect_same_sim = [](const ParallelRunResult& a,
                                  const ParallelRunResult& b,
                                  const char* label) {
    EXPECT_EQ(a.executed, b.executed) << label;
    EXPECT_EQ(a.final_now, b.final_now) << label;
    EXPECT_EQ(a.probe_sent, b.probe_sent) << label;
    EXPECT_EQ(a.probe_received, b.probe_received) << label;
    EXPECT_EQ(a.tcp_delivered, b.tcp_delivered) << label;
    EXPECT_EQ(a.tcp_corrupt, b.tcp_corrupt) << label;
    EXPECT_EQ(a.mcast_rx, b.mcast_rx) << label;
    EXPECT_EQ(a.link_tx_frames, b.link_tx_frames) << label;
    EXPECT_EQ(a.link_dropped, b.link_dropped) << label;
    ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
    EXPECT_TRUE(a.trace == b.trace) << label << ": traces diverged";
  };
  expect_same_sim(on1, off1, "burst on vs off, 1 worker");
  expect_same_sim(on1, off4, "burst on vs off, 4 workers");
}

// Sharding the fabric manager's ARP/registry service is a pure control-
// plane placement change: registry traffic flows to per-shard endpoints
// instead of the primary, but every message still exists, carries the
// same latency, and produces the same answer. The same chaos scenario —
// failures, repairs, a VM migration, TCP, multicast — with the registry
// split four ways must execute the identical simulation, down to every
// (time, receiver, size) frame delivery and the executed-event count, at
// 1 and at 4 workers. This is the equality proof behind the E22 bench.
TEST(Soak, ShardedFmIsInvisibleToExecution) {
  const ParallelRunResult single1 = run_parallel_soak(1);
  const ParallelRunResult sharded1 =
      run_parallel_soak(1, /*obs_on=*/false, /*burst=*/true,
                        /*monitor_on=*/false, /*fm_shards=*/4);
  const ParallelRunResult sharded4 =
      run_parallel_soak(4, /*obs_on=*/false, /*burst=*/true,
                        /*monitor_on=*/false, /*fm_shards=*/4);

  EXPECT_GT(single1.trace.size(), 10'000u);  // the scenario really ran

  const auto expect_same_sim = [](const ParallelRunResult& a,
                                  const ParallelRunResult& b,
                                  const char* label) {
    EXPECT_EQ(a.executed, b.executed) << label;
    EXPECT_EQ(a.final_now, b.final_now) << label;
    EXPECT_EQ(a.probe_sent, b.probe_sent) << label;
    EXPECT_EQ(a.probe_received, b.probe_received) << label;
    EXPECT_EQ(a.tcp_delivered, b.tcp_delivered) << label;
    EXPECT_EQ(a.tcp_corrupt, b.tcp_corrupt) << label;
    EXPECT_EQ(a.mcast_rx, b.mcast_rx) << label;
    EXPECT_EQ(a.link_tx_frames, b.link_tx_frames) << label;
    EXPECT_EQ(a.link_dropped, b.link_dropped) << label;
    ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
    EXPECT_TRUE(a.trace == b.trace) << label << ": traces diverged";
  };
  expect_same_sim(single1, sharded1, "single vs sharded FM, 1 worker");
  expect_same_sim(sharded1, sharded4, "sharded FM, 1 vs 4 workers");
}

// The hot-standby delta stream adds control events of its own (the
// periodic FmDelta syncs), so the replica run is not event-identical to
// the plain one — but it must still be worker-count invariant, and the
// data plane it carries along must behave exactly like the plain run.
TEST(Soak, FmReplicaStreamIsWorkerCountInvariant) {
  const ParallelRunResult replica1 =
      run_parallel_soak(1, /*obs_on=*/false, /*burst=*/true,
                        /*monitor_on=*/false, /*fm_shards=*/4,
                        /*fm_replica=*/true);
  const ParallelRunResult replica4 =
      run_parallel_soak(4, /*obs_on=*/false, /*burst=*/true,
                        /*monitor_on=*/false, /*fm_shards=*/4,
                        /*fm_replica=*/true);

  EXPECT_GT(replica1.trace.size(), 10'000u);

  EXPECT_EQ(replica1.executed, replica4.executed);
  EXPECT_EQ(replica1.final_now, replica4.final_now);
  EXPECT_EQ(replica1.probe_sent, replica4.probe_sent);
  EXPECT_EQ(replica1.probe_received, replica4.probe_received);
  EXPECT_EQ(replica1.tcp_delivered, replica4.tcp_delivered);
  EXPECT_EQ(replica1.tcp_corrupt, replica4.tcp_corrupt);
  EXPECT_EQ(replica1.mcast_rx, replica4.mcast_rx);
  EXPECT_EQ(replica1.link_tx_frames, replica4.link_tx_frames);
  EXPECT_EQ(replica1.link_dropped, replica4.link_dropped);
  ASSERT_EQ(replica1.trace.size(), replica4.trace.size());
  EXPECT_TRUE(replica1.trace == replica4.trace)
      << "replica frame traces diverged";

  // The standby's stream is invisible to the data plane: same frame
  // trace as the plain run (FmDelta messages ride the out-of-band
  // control plane, never a link).
  const ParallelRunResult plain1 = run_parallel_soak(1);
  EXPECT_EQ(plain1.probe_sent, replica1.probe_sent);
  EXPECT_EQ(plain1.probe_received, replica1.probe_received);
  EXPECT_EQ(plain1.tcp_delivered, replica1.tcp_delivered);
  ASSERT_EQ(plain1.trace.size(), replica1.trace.size());
  EXPECT_TRUE(plain1.trace == replica1.trace)
      << "replica stream perturbed the data plane";
}

// ---------------------------------------------------------------------------
// Checkpoint/fork serving: saving a mid-chaos fabric and restoring it in
// place must be invisible to execution — the post-save frame trace, event
// counts, and per-flow delivery must be bit-identical to the uninterrupted
// run, for every engine configuration (worker count × burst mode). This is
// the headline snapshot invariant under full load: probe flows ticking, a
// TCP transfer mid-flight, multicast streaming, with a link failure + repair
// in the replayed window.
// ---------------------------------------------------------------------------

/// Adapts a PeriodicTimer in test scope into an extras entry.
struct TimerExtra : sim::Snapshotable {
  explicit TimerExtra(sim::PeriodicTimer& t) : timer(&t) {}
  void save_state(sim::SnapshotWriter& w) const override {
    timer->save_state(w);
  }
  void restore_state(sim::SnapshotReader& r) override {
    timer->restore_state(r);
  }
  sim::PeriodicTimer* timer;
};

struct SnapshotSoakResult {
  std::uint64_t executed = 0;
  SimTime final_now = 0;
  std::vector<std::uint64_t> probe_sent;
  std::vector<std::uint64_t> probe_received;
  std::uint64_t tcp_delivered = 0;
  bool tcp_corrupt = true;
  std::uint64_t link_tx_frames = 0;
  std::uint64_t link_dropped = 0;
  /// Post-save deliveries only: the part a snapshot must replay exactly.
  std::vector<std::tuple<SimTime, std::string, std::size_t>> trace;
  std::size_t image_bytes = 0;
};

SnapshotSoakResult run_snapshot_soak(unsigned workers, bool burst,
                                     bool snapshot) {
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 20260808;
  options.workers = workers;
  options.burst = burst;
  PortlandFabric fabric(options);

  SnapshotSoakResult result;
  std::mutex trace_mutex;
  std::vector<std::tuple<SimTime, std::string, std::size_t>> full_trace;
  fabric.network().set_frame_tap(
      [&](const sim::Link& link, int rx_side, const sim::FramePtr& frame) {
        std::lock_guard<std::mutex> lock(trace_mutex);
        full_trace.emplace_back(fabric.sim().now(),
                                link.device(rx_side).name(),
                                frame->bytes.size());
      });
  EXPECT_TRUE(fabric.run_until_converged());

  // Probe flows across pods.
  struct Probe {
    std::unique_ptr<host::UdpFlowReceiver> rx;
    std::unique_ptr<host::UdpFlowSender> tx;
  };
  std::vector<Probe> probes;
  const std::pair<std::array<std::size_t, 3>, std::array<std::size_t, 3>>
      pairs[3] = {
          {{0, 0, 1}, {1, 0, 0}},
          {{1, 1, 0}, {2, 0, 1}},
          {{2, 1, 1}, {0, 1, 0}},
      };
  std::uint16_t port = 7600;
  for (const auto& [src, dst] : pairs) {
    Probe p;
    host::Host& a = fabric.host_at(src[0], src[1], src[2]);
    host::Host& b = fabric.host_at(dst[0], dst[1], dst[2]);
    p.rx = std::make_unique<host::UdpFlowReceiver>(b, port);
    host::UdpFlowSender::Config cfg;
    cfg.dst = b.ip();
    cfg.src_port = cfg.dst_port = port;
    cfg.interval = millis(2);
    p.tx = std::make_unique<host::UdpFlowSender>(a, cfg);
    {
      sim::ShardGuard guard(fabric.sim(), a.shard());
      p.tx->start();
    }
    probes.push_back(std::move(p));
    ++port;
  }

  // A TCP transfer, mid-flight at the save point. The connect runs under
  // the sender's shard context so the connection's timers live in that
  // shard's queue (a barrier-queue timer would make the save refuse).
  host::Host& tcp_rx = fabric.host_at(3, 0, 0);
  host::Host& tcp_tx = fabric.host_at(2, 0, 0);
  host::TcpConnection* accepted = nullptr;
  tcp_rx.tcp_listen(5001, [&](host::TcpConnection& c) { accepted = &c; });
  const std::uint64_t kTcpBytes = 1'000'000;
  fabric.sim().run_until(fabric.sim().now() + millis(5));
  {
    sim::ShardGuard guard(fabric.sim(), tcp_tx.shard());
    tcp_tx.tcp_connect(tcp_rx.ip(), 5001)->send(kTcpBytes);
  }

  // Multicast streaming through a fabric-manager-installed tree.
  const Ipv4Address group(224, 9, 9, 9);
  for (host::Host* r : {&fabric.host_at(1, 1, 1), &fabric.host_at(3, 0, 1)}) {
    r->join_group(group, [](Ipv4Address, std::uint16_t, std::uint16_t,
                            std::span<const std::uint8_t>) {});
  }
  host::Host& mcast_sender = fabric.host_at(0, 1, 1);
  sim::PeriodicTimer mcast_stream(fabric.sim(), millis(5), [&] {
    mcast_sender.send_udp_multicast(group, 8000, 8001, {0});
  });
  {
    sim::ShardGuard guard(fabric.sim(), mcast_sender.shard());
    mcast_stream.start(millis(20));
  }

  // Warm phase: TCP connect fires, queues fill, timers stagger.
  fabric.sim().run_until(fabric.sim().now() + millis(150));
  const SimTime t_save = fabric.sim().now();

  if (snapshot) {
    TimerExtra mcast_extra(mcast_stream);
    std::vector<sim::Snapshotable*> extras;
    for (auto& p : probes) {
      extras.push_back(p.tx.get());
      extras.push_back(p.rx.get());
    }
    extras.push_back(&mcast_extra);
    std::vector<std::uint8_t> image;
    std::string error;
    EXPECT_TRUE(fabric.save_snapshot(image, extras, &error)) << error;
    result.image_bytes = image.size();
    EXPECT_TRUE(fabric.restore_snapshot(image, extras, &error)) << error;
  }

  // Replayed window: a link failure + repair mid-traffic.
  sim::Link* victim = fabric.fabric_links()[4];
  fabric.failures().fail_link_at(*victim, t_save + millis(40));
  fabric.failures().repair_link_at(*victim, t_save + millis(250));
  fabric.sim().run_until(t_save + millis(600));
  for (auto& p : probes) p.tx->stop();
  mcast_stream.stop();
  fabric.sim().run_until(fabric.sim().now() + millis(50));

  result.executed = fabric.sim().executed_events();
  result.final_now = fabric.sim().now();
  for (const auto& p : probes) {
    result.probe_sent.push_back(p.tx->packets_sent());
    result.probe_received.push_back(p.rx->packets_received());
  }
  if (accepted != nullptr) {
    result.tcp_delivered = accepted->bytes_delivered();
    result.tcp_corrupt = accepted->payload_corruption_seen();
  }
  for (const auto& link : fabric.network().links()) {
    for (int side = 0; side < 2; ++side) {
      result.link_tx_frames += link->tx_frames(side);
      result.link_dropped += link->dropped_frames(side);
    }
  }
  for (const auto& rec : full_trace) {
    if (std::get<0>(rec) > t_save) result.trace.push_back(rec);
  }
  std::sort(result.trace.begin(), result.trace.end());
  return result;
}

TEST(Soak, SnapshotRestoreIsInvisibleToExecution) {
  const SnapshotSoakResult reference = run_snapshot_soak(1, true, false);
  EXPECT_GT(reference.trace.size(), 5'000u);  // the scenario really ran
  EXPECT_EQ(reference.tcp_delivered, 1'000'000u);
  EXPECT_FALSE(reference.tcp_corrupt);

  const auto expect_same = [&](const SnapshotSoakResult& b,
                               const char* label) {
    EXPECT_EQ(reference.executed, b.executed) << label;
    EXPECT_EQ(reference.final_now, b.final_now) << label;
    EXPECT_EQ(reference.probe_sent, b.probe_sent) << label;
    EXPECT_EQ(reference.probe_received, b.probe_received) << label;
    EXPECT_EQ(reference.tcp_delivered, b.tcp_delivered) << label;
    EXPECT_EQ(reference.tcp_corrupt, b.tcp_corrupt) << label;
    EXPECT_EQ(reference.link_tx_frames, b.link_tx_frames) << label;
    EXPECT_EQ(reference.link_dropped, b.link_dropped) << label;
    ASSERT_EQ(reference.trace.size(), b.trace.size()) << label;
    EXPECT_TRUE(reference.trace == b.trace) << label << ": traces diverged";
  };

  for (const unsigned workers : {1u, 4u}) {
    for (const bool burst : {true, false}) {
      const SnapshotSoakResult snap = run_snapshot_soak(workers, burst, true);
      EXPECT_GT(snap.image_bytes, 0u);
      const std::string label = std::string("snapshot round trip, workers=") +
                                std::to_string(workers) +
                                (burst ? ", burst on" : ", burst off");
      expect_same(snap, label.c_str());
    }
  }
}

}  // namespace
}  // namespace portland::core
