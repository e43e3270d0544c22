// Checkpoint/fork serving (sim/snapshot.h + PortlandFabric::save_snapshot):
// the headline invariant is that restore(save(S)) followed by run is
// frame-trace bit-identical to running S uninterrupted — snapshots are
// invisible to execution. These tests pin the stream primitives, the
// fabric-level round trip (same fabric, fresh fabric, post-teardown
// restore under ASan), the refusal paths, and the flight-recorder
// trace-id continuation that keeps ids collision-free across a restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/fabric.h"
#include "host/apps.h"
#include "sim/snapshot.h"

namespace portland::core {
namespace {

using FrameTrace = std::vector<std::tuple<SimTime, std::string, std::size_t>>;

// ---------------------------------------------------------------------------
// Stream primitives.
// ---------------------------------------------------------------------------

TEST(Snapshot, WriterReaderRoundTripPrimitives) {
  std::vector<std::uint8_t> buf;
  sim::SnapshotWriter w(buf);
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.25);
  w.str("portland");
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  w.blob(payload);
  w.frame(nullptr);

  sim::SnapshotReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "portland");
  EXPECT_EQ(r.blob(), payload);
  EXPECT_EQ(r.frame(), nullptr);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining_size(), 0u);
}

TEST(Snapshot, FrameRoundTripCopiesBytesAndTraceId) {
  std::vector<std::uint8_t> buf;
  sim::SnapshotWriter w(buf);
  sim::FramePtr f = sim::make_frame({10, 20, 30, 40});
  ASSERT_TRUE(f->adopt_trace_id(0x77));
  w.frame(f);

  sim::SnapshotReader r(buf);
  sim::FramePtr g = r.frame();
  ASSERT_NE(g, nullptr);
  EXPECT_NE(g.get(), f.get());
  EXPECT_NE(g->bytes.data(), f->bytes.data());  // never aliases the source
  EXPECT_TRUE(std::equal(g->bytes.begin(), g->bytes.end(), f->bytes.begin()));
  EXPECT_EQ(g->trace_id(), 0x77u);
}

TEST(Snapshot, ReaderRejectsTruncatedBlobWithoutAllocating) {
  std::vector<std::uint8_t> buf;
  sim::SnapshotWriter w(buf);
  w.u32(0xFFFFFFFF);  // blob length far beyond the image
  sim::SnapshotReader r(buf);
  EXPECT_TRUE(r.blob().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Snapshot, CounterSectionRoundTripsNonzeroCells) {
  CounterSet c;
  c.add(Counter::rx_frames, 3);
  c.add(Counter::mcast_trees_unavailable, 0xFFFFFFFFFFull);
  std::vector<std::uint8_t> buf;
  sim::SnapshotWriter w(buf);
  sim::SnapshotIo save(w);
  save.counters(c.cells());
  EXPECT_EQ(buf.size(), 2u + 2 * (2 + 8));  // count + two (id, value)

  CounterSet restored;
  restored.add(Counter::floods, 5);  // stale: restore zeroes it
  sim::SnapshotReader r(buf);
  sim::SnapshotIo load(r);
  load.counters(restored.cells());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining_size(), 0u);
  EXPECT_TRUE(restored == c);
}

// A corrupt image must be rejected by the section's own bounds, before
// any allocation or write sized by image data.
TEST(Snapshot, CorruptCounterSectionIsRejectedWithoutAllocating) {
  // Returns the bytes left unread.
  const auto restore_into_dirty = [](const std::vector<std::uint8_t>& buf) {
    CounterSet c;
    c.add(Counter::rx_frames, 9);
    sim::SnapshotReader r(buf);
    sim::SnapshotIo load(r);
    load.counters(c.cells());
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(c == CounterSet{}) << "a rejected section restored cells";
    return r.remaining_size();
  };
  {
    // Count far past the table (and the image), then one valid pair.
    std::vector<std::uint8_t> buf;
    sim::SnapshotWriter w(buf);
    w.u16(0xFFFF);
    w.u16(0);
    w.u64(1);
    EXPECT_EQ(restore_into_dirty(buf), 2u + 8u);  // rejected on the count
  }
  {
    // A valid pair, then an id past the table.
    std::vector<std::uint8_t> buf;
    sim::SnapshotWriter w(buf);
    w.u16(2);
    w.u16(static_cast<std::uint16_t>(Counter::floods));
    w.u64(5);
    w.u16(static_cast<std::uint16_t>(kCounterCount));
    w.u64(42);
    restore_into_dirty(buf);
  }
}

// ---------------------------------------------------------------------------
// Fabric round trips.
// ---------------------------------------------------------------------------

PortlandFabric::Options small_options(unsigned workers = 0,
                                      bool recorder = false) {
  PortlandFabric::Options options;
  options.k = 4;
  options.seed = 20260808;
  options.workers = workers;
  options.obs.flight_recorder = recorder;
  return options;
}

/// A converged fabric with app wiring installed — two cross-pod probe
/// flows and one TCP transfer. With `warm` the scenario actually runs
/// 100 ms (probes ticking, TCP mid-flight) up to `t_save`; without, the
/// objects exist but nothing was started — the shape a fresh restore
/// target needs (wiring present, all state to come from the image).
struct Scenario {
  std::unique_ptr<PortlandFabric> fabric;
  std::vector<std::unique_ptr<host::UdpFlowSender>> senders;
  std::vector<std::unique_ptr<host::UdpFlowReceiver>> receivers;
  FrameTrace trace;
  std::mutex trace_mutex;
  /// Records after this time count toward trace comparison (set to the
  /// save point; a fresh target sets it at restore).
  SimTime t_save = 0;

  /// The extras span every snapshot of this scenario uses (order fixed).
  [[nodiscard]] std::vector<sim::Snapshotable*> extras() {
    std::vector<sim::Snapshotable*> out;
    for (auto& s : senders) out.push_back(s.get());
    for (auto& r : receivers) out.push_back(r.get());
    return out;
  }
};

std::unique_ptr<Scenario> make_scenario(PortlandFabric::Options options,
                                        bool warm = true) {
  auto sc = std::make_unique<Scenario>();
  sc->fabric = std::make_unique<PortlandFabric>(options);
  PortlandFabric& fabric = *sc->fabric;
  fabric.network().set_frame_tap(
      [sp = sc.get(), f = &fabric](const sim::Link& link, int rx_side,
                                   const sim::FramePtr& frame) {
        std::lock_guard<std::mutex> lock(sp->trace_mutex);
        sp->trace.emplace_back(f->sim().now(), link.device(rx_side).name(),
                               frame->bytes.size());
      });
  EXPECT_TRUE(fabric.run_until_converged());

  const std::pair<std::array<std::size_t, 3>, std::array<std::size_t, 3>>
      pairs[2] = {
          {{0, 0, 1}, {1, 0, 0}},
          {{2, 1, 1}, {3, 1, 0}},
      };
  std::uint16_t port = 7500;
  for (const auto& [src, dst] : pairs) {
    host::Host& a = fabric.host_at(src[0], src[1], src[2]);
    host::Host& b = fabric.host_at(dst[0], dst[1], dst[2]);
    sc->receivers.push_back(std::make_unique<host::UdpFlowReceiver>(b, port));
    host::UdpFlowSender::Config cfg;
    cfg.dst = b.ip();
    cfg.src_port = cfg.dst_port = port;
    cfg.interval = millis(2);
    auto tx = std::make_unique<host::UdpFlowSender>(a, cfg);
    if (warm) {
      sim::ShardGuard guard(fabric.sim(), a.shard());
      tx->start();
    }
    sc->senders.push_back(std::move(tx));
    ++port;
  }

  // One TCP transfer, mid-flight at the save point. The connect runs via
  // a plain closure, which must have fired before any save. It runs on
  // the sender's shard so that, under the sharded engine, the
  // connection's timers live in that shard's queue (a barrier-queue timer
  // would make the save refuse).
  host::Host& rx_host = fabric.host_at(3, 0, 0);
  host::Host& tx_host = fabric.host_at(0, 1, 0);
  rx_host.tcp_listen(5001, [](host::TcpConnection&) {});
  if (warm) {
    fabric.sim().at_shard(tx_host.shard(), fabric.sim().now() + millis(5),
                          [&tx_host, &rx_host] {
                            tx_host.tcp_connect(rx_host.ip(), 5001)
                                ->send(500'000);
                          });
    fabric.sim().run_until(fabric.sim().now() + millis(100));
  }
  sc->t_save = fabric.sim().now();
  return sc;
}

/// The shared what-if epilogue, applied from the current quiescent point
/// (the save point in every flavor): a link failure + repair, then a run
/// to quiescence.
void run_epilogue(Scenario& sc) {
  PortlandFabric& fabric = *sc.fabric;
  const SimTime base = fabric.sim().now();
  sim::Link* victim = fabric.fabric_links()[3];
  fabric.failures().fail_link_at(*victim, base + millis(50));
  fabric.failures().repair_link_at(*victim, base + millis(200));
  fabric.sim().run_until(base + millis(400));
  for (auto& tx : sc.senders) tx->stop();
  fabric.sim().run_until(fabric.sim().now() + millis(50));
}

struct RunResult {
  FrameTrace trace;  // post-save records only, canonically sorted
  std::uint64_t executed = 0;
  SimTime final_now = 0;
  std::vector<std::uint64_t> received;
  /// (device name, counters) in construction order.
  std::vector<std::pair<std::string, CounterSet>> device_counters;
  CounterSet fm_counters;
  std::vector<CounterSet> fm_shard_counters;
  /// Per control type (ControlBody order) messages and bytes, then
  /// undeliverable and parse errors.
  std::vector<std::uint64_t> control_counts;
};

/// "name: a vs b" for every counter that differs; empty when equal.
std::string counter_diff(const CounterSet& a, const CounterSet& b) {
  std::string out;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto id = static_cast<Counter>(i);
    if (a.get(id) == b.get(id)) continue;
    out += std::string(counter_name(id)) + ": " + std::to_string(a.get(id)) +
           " vs " + std::to_string(b.get(id)) + "; ";
  }
  return out;
}

RunResult finish(Scenario& sc) {
  RunResult out;
  {
    std::lock_guard<std::mutex> lock(sc.trace_mutex);
    for (const auto& rec : sc.trace) {
      if (std::get<0>(rec) > sc.t_save) out.trace.push_back(rec);
    }
  }
  std::sort(out.trace.begin(), out.trace.end());
  out.executed = sc.fabric->sim().executed_events();
  out.final_now = sc.fabric->sim().now();
  for (auto& r : sc.receivers) out.received.push_back(r->packets_received());
  for (const sim::Device* dev : sc.fabric->network().devices()) {
    out.device_counters.emplace_back(dev->name(), dev->counters());
  }
  const FabricManager& fm = sc.fabric->fabric_manager();
  out.fm_counters = fm.counters();
  for (std::size_t s = 0; s < fm.shard_count(); ++s) {
    out.fm_shard_counters.push_back(fm.shard_counters(s));
  }
  const ControlPlane& cp = sc.fabric->control();
  for (std::size_t t = 0; t < kControlTypeCount; ++t) {
    out.control_counts.push_back(cp.messages_of(control_type_name(t)));
    out.control_counts.push_back(cp.bytes_of(control_type_name(t)));
  }
  out.control_counts.push_back(cp.undeliverable());
  out.control_counts.push_back(cp.parse_errors());
  return out;
}

void expect_same(const RunResult& a, const RunResult& b, const char* label) {
  EXPECT_EQ(a.executed, b.executed) << label;
  EXPECT_EQ(a.final_now, b.final_now) << label;
  EXPECT_EQ(a.received, b.received) << label;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  EXPECT_TRUE(a.trace == b.trace) << label << ": frame traces diverged";
  ASSERT_EQ(a.device_counters.size(), b.device_counters.size()) << label;
  for (std::size_t i = 0; i < a.device_counters.size(); ++i) {
    EXPECT_EQ(counter_diff(a.device_counters[i].second,
                           b.device_counters[i].second),
              "")
        << label << ": counters of " << a.device_counters[i].first;
  }
  EXPECT_EQ(counter_diff(a.fm_counters, b.fm_counters), "")
      << label << ": fabric manager counters";
  ASSERT_EQ(a.fm_shard_counters.size(), b.fm_shard_counters.size()) << label;
  for (std::size_t s = 0; s < a.fm_shard_counters.size(); ++s) {
    EXPECT_EQ(counter_diff(a.fm_shard_counters[s], b.fm_shard_counters[s]),
              "")
        << label << ": fabric manager shard " << s;
  }
  EXPECT_EQ(a.control_counts, b.control_counts)
      << label << ": control-plane counts";
}

TEST(Snapshot, SaveRestoreRoundTripIsInvisible) {
  for (const unsigned workers : {0u, 4u}) {
    const std::string label =
        "save+restore round trip, workers=" + std::to_string(workers);
    // Reference: uninterrupted.
    auto ref = make_scenario(small_options(workers));
    run_epilogue(*ref);
    const RunResult expected = finish(*ref);
    EXPECT_GT(expected.trace.size(), 1000u);  // the scenario really ran
    EXPECT_GT(expected.fm_counters.get(Counter::fault_notifications), 0u);

    // Round trip: save at t_save, restore immediately, continue.
    auto rt = make_scenario(small_options(workers));
    std::vector<std::uint8_t> image;
    std::string error;
    const auto extras = rt->extras();
    ASSERT_TRUE(rt->fabric->save_snapshot(image, extras, &error)) << error;
    EXPECT_GT(image.size(), 0u);
    ASSERT_TRUE(rt->fabric->restore_snapshot(image, extras, &error)) << error;
    run_epilogue(*rt);
    expect_same(finish(*rt), expected, label.c_str());
  }
}

TEST(Snapshot, ForkRewindReplaysIdentically) {
  // Fork serving: save, explore a *different* what-if (discarded), rewind
  // to the checkpoint, then run the real epilogue. The discarded branch
  // must leave no residue.
  for (const unsigned workers : {0u, 4u}) {
    const std::string label =
        "fork + rewind + replay, workers=" + std::to_string(workers);
    auto ref = make_scenario(small_options(workers));
    run_epilogue(*ref);
    const RunResult expected = finish(*ref);

    auto rw = make_scenario(small_options(workers));
    std::vector<std::uint8_t> image;
    std::string error;
    const auto extras = rw->extras();
    ASSERT_TRUE(rw->fabric->save_snapshot(image, extras, &error)) << error;

    // Discarded branch: crash a different link, run a while.
    sim::Link* other = rw->fabric->fabric_links()[9];
    rw->fabric->failures().fail_link_at(*other, rw->t_save + millis(10));
    rw->fabric->sim().run_until(rw->t_save + millis(250));

    // Rewind and run the real epilogue; finish() discards the branch's
    // trace records along with everything pre-save.
    ASSERT_TRUE(rw->fabric->restore_snapshot(image, extras, &error)) << error;
    {
      std::lock_guard<std::mutex> lock(rw->trace_mutex);
      std::erase_if(rw->trace, [&](const auto& rec) {
        return std::get<0>(rec) > rw->t_save;
      });
    }
    run_epilogue(*rw);
    expect_same(finish(*rw), expected, label.c_str());
  }
}

TEST(Snapshot, RepeatedForksOfOneImageReplayIdentically) {
  // What-if serving forks one image again and again, and each fork skips
  // the sections a component still holds: links and hosts nothing touched,
  // registry shards no host registered in, the FM's graph. Every
  // discarded branch below touches a different one of them. The fork that
  // follows must undo exactly that, which a save taken right after it
  // checks byte for byte. A save leaves links unheld, so each check is
  // followed by a second fork that holds them again before the branch
  // runs. The last fork must replay like the uninterrupted run.
  // One host also keeps resolving an absent address, so its ARP retry
  // timer is armed in the image: a host with an armed timer must never be
  // held, since the engine clear drops its shots.
  const auto leave_retrying = [](Scenario& sc) {
    host::Host& h = sc.fabric->host_at(3, 0, 1);
    sim::ShardGuard guard(sc.fabric->sim(), h.shard());
    h.send_udp(Ipv4Address(10, 250, 0, 9), 7800, 7800, {1, 2});
  };
  for (const unsigned workers : {0u, 4u}) {
    const std::string label =
        "repeated forks, workers=" + std::to_string(workers);
    auto ref = make_scenario(small_options(workers));
    leave_retrying(*ref);
    run_epilogue(*ref);
    const RunResult expected = finish(*ref);
    EXPECT_GT(ref->fabric->host_at(3, 0, 1).arp_requests_sent(), 2u);

    auto sc = make_scenario(small_options(workers));
    leave_retrying(*sc);
    PortlandFabric& fabric = *sc->fabric;
    std::vector<std::uint8_t> image;
    std::string error;
    const auto extras = sc->extras();
    ASSERT_TRUE(fabric.save_snapshot(image, extras, &error)) << error;

    // Neither host carries one of the scenario's flows, so a fork leaves
    // both held.
    host::Host& idle = fabric.host_at(1, 1, 1);
    host::Host& peer = fabric.host_at(2, 0, 1);
    const SimTime t0 = sc->t_save;
    const std::vector<std::function<void()>> branches = {
        // One host's send, run until it is delivered.
        [&] {
          {
            sim::ShardGuard guard(fabric.sim(), idle.shard());
            idle.send_udp(peer.ip(), 7900, 7900,
                          std::vector<std::uint8_t>(32, 0xAB));
          }
          fabric.sim().run_until(t0 + millis(20));
        },
        // Hosts changed only through their accessors, with no event run.
        [&] {
          idle.arp_cache().insert(Ipv4Address(10, 9, 9, 9),
                                  MacAddress::from_u64(0x02000000AB99),
                                  fabric.sim().now());
          peer.counters().add(Counter::rx_ignored, 7);
        },
        // A host registration at the fabric manager.
        [&] {
          fabric.fabric_manager().register_host_direct(
              Ipv4Address(10, 3, 1, 200),
              FabricManager::HostRecord{MacAddress::from_u64(0x000301000042),
                                        MacAddress::from_u64(0x02000000AB42),
                                        fabric.edge_at(3, 1).id(), 1});
        },
        // A link flap.
        [&] {
          sim::Link& link = *fabric.fabric_links()[5];
          fabric.failures().fail_link_at(link, t0 + millis(1));
          fabric.failures().repair_link_at(link, t0 + millis(3));
          fabric.sim().run_until(t0 + millis(30));
        },
    };

    for (std::size_t i = 0; i <= branches.size(); ++i) {
      const std::string fork = label + ", fork " + std::to_string(i);
      ASSERT_TRUE(fabric.restore_snapshot(image, extras, &error))
          << fork << ": " << error;
      std::vector<std::uint8_t> again;
      ASSERT_TRUE(fabric.save_snapshot(again, extras, &error))
          << fork << ": " << error;
      EXPECT_TRUE(again == image) << fork << " saved other bytes";
      ASSERT_TRUE(fabric.restore_snapshot(image, extras, &error))
          << fork << ": " << error;
      if (i < branches.size()) branches[i]();
    }
    {
      std::lock_guard<std::mutex> lock(sc->trace_mutex);
      std::erase_if(sc->trace, [&](const auto& rec) {
        return std::get<0>(rec) > sc->t_save;
      });
    }
    run_epilogue(*sc);
    expect_same(finish(*sc), expected, label.c_str());
  }
}

TEST(Snapshot, RestoreIntoFreshFabricReplaysIdentically) {
  // Cross-fabric restore in one process: image from a warmed fabric,
  // restored into an instance that only converged and installed wiring —
  // it never ran the warm phase, so every divergent bit of state must
  // come from the image.
  for (const unsigned workers : {0u, 4u}) {
    const std::string label =
        "restore into fresh fabric, workers=" + std::to_string(workers);
    auto src = make_scenario(small_options(workers));
    std::vector<std::uint8_t> image;
    std::string error;
    ASSERT_TRUE(src->fabric->save_snapshot(image, src->extras(), &error))
        << error;
    run_epilogue(*src);
    const RunResult expected = finish(*src);

    auto dst = make_scenario(small_options(workers), /*warm=*/false);
    const auto extras = dst->extras();
    ASSERT_TRUE(dst->fabric->restore_snapshot(image, extras, &error))
        << error;
    dst->t_save = dst->fabric->sim().now();
    ASSERT_EQ(dst->t_save, src->t_save);  // now comes from the image
    run_epilogue(*dst);
    expect_same(finish(*dst), expected, label.c_str());
  }
}

/// Leaves a per-frame fallback delivery pending on a host uplink at the
/// current quiescent point: with the link's propagation raised to 1 ms,
/// the host sends a 200 B datagram (it joins the link's train), then with
/// the propagation back to normal a 300 B one, which arrives first and so
/// cannot join the train — it becomes a data event. Returns the number of
/// frames that took the train path (1 when the fallback happened).
std::uint64_t leave_fallback_pending(Scenario& sc) {
  PortlandFabric& fabric = *sc.fabric;
  host::Host& src = fabric.host_at(0, 0, 1);
  const Ipv4Address dst = fabric.host_at(1, 0, 0).ip();  // already resolved
  sim::Link& uplink = *src.port_link(0);
  const SimDuration normal = uplink.config().propagation;
  constexpr std::size_t kHeaders = 14 + 20 + 8;  // Ethernet + IPv4 + UDP
  const std::uint64_t trains0 = fabric.sim().train_frames();
  sim::ShardGuard guard(fabric.sim(), src.shard());
  uplink.set_propagation(millis(1));
  src.send_udp(dst, 7600, 7600, std::vector<std::uint8_t>(200 - kHeaders));
  uplink.set_propagation(normal);
  src.send_udp(dst, 7600, 7600, std::vector<std::uint8_t>(300 - kHeaders));
  return fabric.sim().train_frames() - trains0;
}

TEST(Snapshot, PendingPerFrameFallbackDeliverySurvivesRestore) {
  for (const unsigned workers : {0u, 4u}) {
    const std::string label = "workers=" + std::to_string(workers);
    // Reference: the fallback delivery runs out uninterrupted.
    auto ref = make_scenario(small_options(workers));
    ASSERT_EQ(leave_fallback_pending(*ref), 1u) << label;
    run_epilogue(*ref);
    const RunResult expected = finish(*ref);
    const auto first_delivery = [](const RunResult& r, std::size_t size) {
      const auto it =
          std::find_if(r.trace.begin(), r.trace.end(),
                       [&](const auto& e) { return std::get<2>(e) == size; });
      return it == r.trace.end() ? SimTime{-1} : std::get<0>(*it);
    };
    // Both datagrams reached the fabric, the late one first.
    const SimTime first_200 = first_delivery(expected, 200);
    const SimTime first_300 = first_delivery(expected, 300);
    ASSERT_GE(first_200, 0) << label;
    ASSERT_GE(first_300, 0) << label;
    EXPECT_LT(first_300, first_200) << label;

    // Round trip with the data event still queued at the save point.
    auto rt = make_scenario(small_options(workers));
    ASSERT_EQ(leave_fallback_pending(*rt), 1u) << label;
    std::vector<std::uint8_t> image;
    std::string error;
    const auto extras = rt->extras();
    ASSERT_TRUE(rt->fabric->save_snapshot(image, extras, &error))
        << label << ": " << error;
    ASSERT_TRUE(rt->fabric->restore_snapshot(image, extras, &error))
        << label << ": " << error;
    run_epilogue(*rt);
    expect_same(finish(*rt), expected, label.c_str());
  }
}

/// Leaves a host uplink's train and drain rings wrapped past the end of
/// their buffers at the current quiescent point. The host sends six
/// back-to-back 1500 B datagrams (both rings grow to 8 slots), the run
/// stops the instant the fourth arrives (four entries popped from each
/// ring, the fifth and sixth still serializing), and four more datagrams
/// land in slots 4..7 and 0..1. Returns the uplink.
sim::Link& leave_rings_wrapped(Scenario& sc) {
  PortlandFabric& fabric = *sc.fabric;
  host::Host& src = fabric.host_at(0, 0, 1);
  const Ipv4Address dst = fabric.host_at(1, 0, 0).ip();  // already resolved
  sim::Link& uplink = *src.port_link(0);
  constexpr std::size_t kFrame = 1500;
  constexpr std::size_t kHeaders = 14 + 20 + 8;  // Ethernet + IPv4 + UDP
  const auto serialization = static_cast<SimDuration>(
      static_cast<double>(kFrame) * 8.0 / uplink.config().bandwidth_bps * 1e9);
  // The fifth frame must still be serializing when the fourth arrives.
  EXPECT_LT(uplink.config().propagation, serialization);
  const auto send = [&](int n) {
    sim::ShardGuard guard(fabric.sim(), src.shard());
    for (int i = 0; i < n; ++i) {
      src.send_udp(dst, 7700, 7700,
                   std::vector<std::uint8_t>(kFrame - kHeaders));
    }
  };
  const SimTime start = fabric.sim().now();
  send(6);
  fabric.sim().run_until(start + 4 * serialization +
                         uplink.config().propagation);
  send(4);
  sc.t_save = fabric.sim().now();
  return uplink;
}

TEST(Snapshot, WrappedTrainRestoresExactly) {
  for (const unsigned workers : {0u, 4u}) {
    const std::string label = "workers=" + std::to_string(workers);
    // Source: saved with wrapped rings, then run on uninterrupted.
    auto src = make_scenario(small_options(workers));
    sim::Link& src_uplink = leave_rings_wrapped(*src);
    ASSERT_TRUE(src_uplink.rings_wrap(0)) << label;
    std::vector<std::uint8_t> image;
    std::string error;
    ASSERT_TRUE(src->fabric->save_snapshot(image, src->extras(), &error))
        << label << ": " << error;
    run_epilogue(*src);
    const RunResult expected = finish(*src);

    // A fresh fabric lays the restored entries out from slot 0; its own
    // image must still be byte-identical, and its replay the source's.
    auto dst = make_scenario(small_options(workers), /*warm=*/false);
    const auto extras = dst->extras();
    ASSERT_TRUE(dst->fabric->restore_snapshot(image, extras, &error))
        << label << ": " << error;
    EXPECT_FALSE(dst->fabric->host_at(0, 0, 1).port_link(0)->rings_wrap(0))
        << label;
    std::vector<std::uint8_t> resaved;
    ASSERT_TRUE(dst->fabric->save_snapshot(resaved, extras, &error))
        << label << ": " << error;
    EXPECT_TRUE(resaved == image) << label << ": images differ";
    dst->t_save = dst->fabric->sim().now();
    ASSERT_EQ(dst->t_save, src->t_save) << label;
    run_epilogue(*dst);
    expect_same(finish(*dst), expected, label.c_str());
  }
}

/// Leaves hosts holding unresolved destinations at the current quiescent
/// point. Nobody owns the 10.250.0.x addresses, so their ARP requests go
/// unanswered and retry every 200 ms:
///   * one host sent to its absent address 250 ms ago and has retried once;
///   * another queued three frames for its absent address;
///   * a third sent two more frames than its queue holds (overflow);
///   * a fourth has just asked for a real host, its answer still to come.
/// Returns the number of hosts with an unresolved destination.
std::size_t leave_unresolved_sends(Scenario& sc, std::size_t queue_cap) {
  PortlandFabric& fabric = *sc.fabric;
  const auto send = [&](host::Host& h, Ipv4Address dst, std::size_t n) {
    sim::ShardGuard guard(fabric.sim(), h.shard());
    for (std::size_t i = 0; i < n; ++i) h.send_udp(dst, 7800, 7800, {1, 2});
  };
  host::Host& retried = fabric.host_at(2, 0, 1);
  host::Host& queued = fabric.host_at(0, 0, 0);
  host::Host& overflowed = fabric.host_at(1, 1, 0);
  host::Host& resolving = fabric.host_at(3, 1, 1);
  send(retried, Ipv4Address(10, 250, 0, 1), 1);
  fabric.sim().run_until(fabric.sim().now() + millis(250));
  EXPECT_EQ(retried.arp_requests_sent(), 2u);
  send(queued, Ipv4Address(10, 250, 0, 2), 3);
  send(overflowed, Ipv4Address(10, 250, 0, 3), queue_cap + 2);
  EXPECT_EQ(overflowed.counters().get(Counter::arp_pending_overflow), 2u);
  send(resolving, fabric.host_at(1, 0, 1).ip(), 2);
  sc.t_save = fabric.sim().now();
  return 4;
}

TEST(Snapshot, UnresolvedSendsSurviveRestore) {
  constexpr std::size_t kQueueCap = 4;
  for (const unsigned workers : {0u, 4u}) {
    const std::string label = "workers=" + std::to_string(workers);
    PortlandFabric::Options options = small_options(workers);
    options.host_config.max_pending_frames_per_dst = kQueueCap;

    // Source: saved mid-resolution, then run on uninterrupted.
    auto src = make_scenario(options);
    ASSERT_EQ(leave_unresolved_sends(*src, kQueueCap), 4u);
    std::vector<std::uint8_t> image;
    std::string error;
    ASSERT_TRUE(src->fabric->save_snapshot(image, src->extras(), &error))
        << label << ": " << error;
    run_epilogue(*src);
    const RunResult expected = finish(*src);
    const auto counter_sum = [&](Counter c) {
      std::uint64_t total = 0;
      for (const host::Host* h : src->fabric->hosts()) {
        total += h->counters().get(c);
      }
      return total;
    };
    // The absent addresses kept retrying after the save point, and the
    // real host's answer flushed its queue.
    EXPECT_GE(counter_sum(Counter::arp_requests_sent), 8u) << label;
    EXPECT_EQ(counter_sum(Counter::arp_resolution_failed), 0u) << label;

    // A fresh fabric builds every pending entry from the image: its own
    // image must be byte-identical, and its replay the source's.
    auto dst = make_scenario(options, /*warm=*/false);
    const auto extras = dst->extras();
    ASSERT_TRUE(dst->fabric->restore_snapshot(image, extras, &error))
        << label << ": " << error;
    std::vector<std::uint8_t> resaved;
    ASSERT_TRUE(dst->fabric->save_snapshot(resaved, extras, &error))
        << label << ": " << error;
    EXPECT_TRUE(resaved == image) << label << ": images differ";
    dst->t_save = dst->fabric->sim().now();
    ASSERT_EQ(dst->t_save, src->t_save) << label;
    run_epilogue(*dst);
    expect_same(finish(*dst), expected, label.c_str());
  }
}

// Satellite: recycled byte buffers must never alias into a restored
// image. The source fabric (and its frame pool contents) is destroyed
// before the restore happens; ASan (run_asan_tests.sh) turns any
// aliasing of recycled/freed FrameBytes into a hard failure, and the
// image itself is clobbered after the restore to catch borrowed bytes.
TEST(Snapshot, RestoreAfterSourceTeardownOwnsItsBytes) {
  std::vector<std::uint8_t> image;
  std::string error;
  RunResult expected;
  {
    auto src = make_scenario(small_options());
    ASSERT_TRUE(src->fabric->save_snapshot(image, src->extras(), &error))
        << error;
    run_epilogue(*src);
    expected = finish(*src);
  }  // source fabric destroyed: in-flight frames recycled to the pool

  auto dst = make_scenario(small_options(), /*warm=*/false);
  const auto extras = dst->extras();
  ASSERT_TRUE(dst->fabric->restore_snapshot(image, extras, &error)) << error;
  dst->t_save = dst->fabric->sim().now();
  // The image is no longer needed; clobber and free it so any restored
  // state still referencing image bytes fails loudly.
  std::fill(image.begin(), image.end(), std::uint8_t{0xEE});
  image.clear();
  image.shrink_to_fit();
  run_epilogue(*dst);
  expect_same(finish(*dst), expected, "restore after source teardown");
}

TEST(Snapshot, TombstonedTimerShotLeavesTheCensus) {
  // A timer owned by shard 1, cancelled from inside a shard-0 window,
  // leaves a tombstone in shard 1's queue that still counts as live. The
  // image drops the tombstone, so its census must not count it either,
  // or every image saved while one is pending fails to restore.
  sim::Simulator sim;
  sim.configure_shards(2, micros(1));
  sim::Timer victim(sim);
  {
    sim::ShardGuard guard(sim, 1);
    victim.schedule_after(millis(10),
                          [] { FAIL() << "a cancelled shot fired"; });
  }
  {
    sim::ShardGuard guard(sim, 0);
    sim.at(millis(1), [&victim] { victim.cancel(); });
  }
  sim.run_until(millis(2));
  ASSERT_FALSE(victim.pending());
  ASSERT_EQ(sim.pending_events(), 1u)
      << "the tombstone counts until its deadline";

  std::vector<std::uint8_t> image;
  sim::SnapshotWriter w(image);
  std::string error;
  ASSERT_TRUE(sim.save_engine(w, &error)) << error;
  sim.snapshot_clear();
  sim::SnapshotReader r(image);
  ASSERT_TRUE(sim.restore_engine(r, &error)) << error;
  EXPECT_TRUE(sim.finish_restore(&error)) << error;
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until(millis(20));
  EXPECT_EQ(sim.executed_events(), 1u);
}

// ---------------------------------------------------------------------------
// Refusal paths.
// ---------------------------------------------------------------------------

TEST(Snapshot, SaveRefusesPendingPlainClosure) {
  PortlandFabric fabric(small_options());
  ASSERT_TRUE(fabric.run_until_converged());
  bool fired = false;
  fabric.sim().after(seconds(1), [&fired] { fired = true; });

  std::vector<std::uint8_t> image;
  std::string error;
  EXPECT_FALSE(fabric.save_snapshot(image, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fired);

  // The refused save must not have perturbed the pending event.
  fabric.sim().run_until(fabric.sim().now() + seconds(2));
  EXPECT_TRUE(fired);
}

TEST(Snapshot, RestoreRejectsMismatchedFabric) {
  PortlandFabric fabric(small_options());
  ASSERT_TRUE(fabric.run_until_converged());
  std::vector<std::uint8_t> image;
  std::string error;
  ASSERT_TRUE(fabric.save_snapshot(image, &error)) << error;

  PortlandFabric::Options other = small_options();
  other.seed = 777;
  PortlandFabric wrong_seed(other);
  ASSERT_TRUE(wrong_seed.run_until_converged());
  EXPECT_FALSE(wrong_seed.restore_snapshot(image, &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;

  // Truncated image: detected, not crashed.
  std::vector<std::uint8_t> cut(image.begin(),
                                image.begin() + image.size() / 3);
  PortlandFabric target(small_options());
  ASSERT_TRUE(target.run_until_converged());
  EXPECT_FALSE(target.restore_snapshot(cut, &error));

  // An image from another format version (big-endian word after the
  // magic) is refused by the header check, before any state is touched.
  std::vector<std::uint8_t> old_version = image;
  ASSERT_EQ(old_version[7], 9);
  old_version[7] = 8;
  EXPECT_FALSE(target.restore_snapshot(old_version, &error));
  EXPECT_NE(error.find("version mismatch"), std::string::npos) << error;
  // The same image with its own version word restores into that fabric.
  EXPECT_TRUE(target.restore_snapshot(image, &error)) << error;
}

TEST(Snapshot, RestoreRefusesAnotherFmConfiguration) {
  // The restore contract requires the same options: an image saved under
  // another registry split or replica setting is refused by name.
  PortlandFabric::Options sharded = small_options();
  sharded.config.fm_shards = 4;
  PortlandFabric source(sharded);
  ASSERT_TRUE(source.run_until_converged());
  std::vector<std::uint8_t> image;
  std::string error;
  ASSERT_TRUE(source.save_snapshot(image, &error)) << error;

  PortlandFabric one_shard(small_options());
  ASSERT_TRUE(one_shard.run_until_converged());
  EXPECT_FALSE(one_shard.restore_snapshot(image, &error));
  EXPECT_EQ(error, "snapshot: fm registry shard count mismatch");

  PortlandFabric::Options replica = sharded;
  replica.config.fm_replica = true;
  PortlandFabric standby(replica);
  ASSERT_TRUE(standby.run_until_converged());
  EXPECT_FALSE(standby.restore_snapshot(image, &error));
  EXPECT_EQ(error, "snapshot: fm replica setting mismatch");

  PortlandFabric same(sharded);
  ASSERT_TRUE(same.run_until_converged());
  EXPECT_TRUE(same.restore_snapshot(image, &error)) << error;
}

// ---------------------------------------------------------------------------
// Mutation loop: a corrupt image restores or is refused, and never crashes
// (ASan and UBSan run this suite).
// ---------------------------------------------------------------------------

/// Byte offsets at which the sections of `sc`'s image end, found by
/// replaying PortlandFabric::save_snapshot's walk one section at a time —
/// saving is invisible, so each section writes the same bytes again. The
/// engine section is split further at its header fields.
std::vector<std::size_t> section_ends(Scenario& sc) {
  PortlandFabric& fabric = *sc.fabric;
  std::vector<std::uint8_t> buf;
  sim::SnapshotWriter w(buf);
  std::vector<std::size_t> ends;
  // Fabric header: magic, version, k, seed, then four counts.
  w.u32(0);
  w.u32(0);
  w.u32(0);
  w.u64(0);
  for (int i = 0; i < 4; ++i) w.u32(0);
  ends.push_back(buf.size());
  const std::size_t engine = buf.size();
  std::string error;
  EXPECT_TRUE(fabric.sim().save_engine(w, &error)) << error;
  // Engine header: magic + shard count, then the twelve global scalars,
  // then shard 0's twelve scalars and its three census counts.
  for (const std::size_t off : {8u, 104u, 200u, 212u}) {
    ends.push_back(engine + off);
  }
  ends.push_back(buf.size());
  sim::SnapshotIo io(w);
  for (sim::Link* link : fabric.network().links()) {
    link->snapshot(io);
    ends.push_back(buf.size());
  }
  for (sim::Device* dev : fabric.network().devices()) {
    // A device's section opens with its counters: a u16 count, then a u16
    // id and a u64 value per nonzero cell. A host frames its section by
    // content hash, so its counters follow the 12-byte hash and length.
    const std::size_t start = buf.size();
    const auto cells = std::as_const(*dev).counters().cells();
    const std::size_t counters =
        2 + 10 * static_cast<std::size_t>(std::count_if(
                     cells.begin(), cells.end(),
                     [](std::uint64_t v) { return v != 0; }));
    const bool framed = dynamic_cast<const host::Host*>(dev) != nullptr;
    dev->snapshot(io);
    ends.push_back(start + (framed ? 12 : 0) + counters);
    ends.push_back(buf.size());
  }
  fabric.fabric_manager().snapshot(io);
  ends.push_back(buf.size());
  fabric.control().snapshot(io);
  ends.push_back(buf.size());
  w.u8(0);  // no flight recorder
  ends.push_back(buf.size());
  for (const sim::Snapshotable* x : sc.extras()) {
    x->save_state(w);
    ends.push_back(buf.size());
  }
  return ends;
}

TEST(Snapshot, MutatedImagesRestoreOrAreRefusedCleanly) {
  auto ref = make_scenario(small_options());
  run_epilogue(*ref);
  const RunResult expected = finish(*ref);

  auto sc = make_scenario(small_options());
  std::vector<std::uint8_t> image;
  std::string error;
  const auto extras = sc->extras();
  ASSERT_TRUE(sc->fabric->save_snapshot(image, extras, &error)) << error;
  const std::vector<std::size_t> ends = section_ends(*sc);
  ASSERT_EQ(ends.back(), image.size()) << "section walk out of step";

  // Returns whether the image restored; a refusal must say why.
  const auto restore = [&](std::span<const std::uint8_t> mutated,
                           const std::string& what) {
    std::string why;
    if (sc->fabric->restore_snapshot(mutated, extras, &why)) return true;
    EXPECT_FALSE(why.empty()) << what;
    return false;
  };

  // Truncation at, and one byte short of, every section boundary.
  for (const std::size_t end : ends) {
    for (const std::size_t cut : {end - 1, end}) {
      if (cut >= image.size()) continue;
      EXPECT_FALSE(restore(std::span(image).first(cut),
                           "truncated at " + std::to_string(cut)))
          << "an image truncated at " << cut << " restored";
    }
  }

  // Byte flips: the first byte of every section, then seeded positions.
  Rng rng(20261017);
  std::vector<std::size_t> positions{0};
  for (const std::size_t end : ends) {
    if (end < image.size()) positions.push_back(end);
  }
  for (int i = 0; i < 2000; ++i) {
    positions.push_back(static_cast<std::size_t>(rng.next_below(image.size())));
  }
  std::size_t refused = 0;
  for (const std::size_t pos : positions) {
    std::vector<std::uint8_t> mutated = image;
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    if (!restore(mutated, "byte " + std::to_string(pos) + " flipped")) {
      ++refused;
    }
  }
  EXPECT_GT(refused, 0u);

  // Targeted corruptions that a load must refuse, never restore: a byte
  // past the last section, a switch's LDP port count, and a FIB port id
  // past the switch's ports.
  std::vector<std::uint8_t> padded = image;
  padded.push_back(0);
  EXPECT_FALSE(restore(padded, "one trailing byte"))
      << "an image with a trailing byte restored";

  // ends: the fabric header, five engine offsets, one per link, then two
  // per device (counters, state).
  const auto& devices = sc->fabric->network().devices();
  const auto core = std::find_if(devices.begin(), devices.end(), [](auto* d) {
    return d->name().rfind("core-", 0) == 0;
  });
  ASSERT_NE(core, devices.end());
  const std::size_t dev_ends =
      6 + sc->fabric->network().links().size() + 2 * (core - devices.begin());
  const std::uint32_t ports = static_cast<std::uint32_t>((*core)->port_count());
  const auto u32_at = [&image](std::size_t off) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) v = v << 8 | image[off + i];
    return v;
  };
  const auto with_u32 = [&image](std::size_t off, std::uint32_t v) {
    std::vector<std::uint8_t> out = image;
    for (std::size_t i = 0; i < 4; ++i) out[off + i] = v >> (24 - 8 * i) & 0xFF;
    return out;
  };
  // The LDP section opens the switch's state: its locator (12 bytes) and
  // rng (32 bytes), then the port count.
  const std::size_t ldp_ports = ends[dev_ends] + 12 + 32;
  ASSERT_EQ(u32_at(ldp_ports), ports);
  EXPECT_FALSE(restore(with_u32(ldp_ports, ports - 1), "LDP port count"))
      << "an LDP section with another port count restored";
  // A core switch's state ends with its FIB's down_by_pod (one u32 port per
  // pod), fib_rebuilds (8), four empty lists (16), three timers (66),
  // hello_pending (1) and spray_counter (8).
  const std::size_t last_down = ends[dev_ends + 1] - 99 - 4;
  ASSERT_EQ(u32_at(last_down - 4 * 4), 4u);  // k = 4 pods
  ASSERT_LT(u32_at(last_down), ports);
  EXPECT_FALSE(restore(with_u32(last_down, ports), "FIB port id"))
      << "a FIB port id past the switch's ports restored";

  // None of it left residue: the intact image still restores and
  // replays exactly like the uninterrupted run.
  ASSERT_TRUE(sc->fabric->restore_snapshot(image, extras, &error)) << error;
  {
    std::lock_guard<std::mutex> lock(sc->trace_mutex);
    std::erase_if(sc->trace, [&](const auto& rec) {
      return std::get<0>(rec) > sc->t_save;
    });
  }
  run_epilogue(*sc);
  expect_same(finish(*sc), expected, "restore after mutated images");
}

// ---------------------------------------------------------------------------
// Flight-recorder trace ids (satellite): a restored fabric keeps handing
// out fresh ids that never collide with ids burned before the save, and
// the rings restart empty (hop records reference the saving process's
// device-name storage and are deliberately not serialized).
// ---------------------------------------------------------------------------

TEST(Snapshot, RestoredRecorderContinuesTraceIdsWithoutCollision) {
  auto src = make_scenario(small_options(/*workers=*/0, /*recorder=*/true));
  obs::FlightRecorder* src_rec = src->fabric->flight_recorder();
  ASSERT_NE(src_rec, nullptr);
  const std::uint64_t traced_before = src_rec->traced_frames();
  EXPECT_GT(traced_before, 0u);

  std::set<std::uint64_t> before_ids;
  for (const obs::HopRecord& h : src_rec->merged()) {
    if (h.trace_id != 0) before_ids.insert(h.trace_id);
  }
  ASSERT_FALSE(before_ids.empty());

  std::vector<std::uint8_t> image;
  std::string error;
  ASSERT_TRUE(src->fabric->save_snapshot(image, src->extras(), &error))
      << error;

  // Restore into a fabric whose own recorder only saw convergence
  // traffic — without the counter restore its allocators would sit far
  // below the saved values and re-mint colliding ids.
  auto dst = make_scenario(small_options(/*workers=*/0, /*recorder=*/true),
                           /*warm=*/false);
  obs::FlightRecorder* rec = dst->fabric->flight_recorder();
  ASSERT_NE(rec, nullptr);
  ASSERT_LT(rec->traced_frames(), traced_before);
  const auto extras = dst->extras();
  ASSERT_TRUE(dst->fabric->restore_snapshot(image, extras, &error)) << error;
  dst->t_save = dst->fabric->sim().now();

  // Counters continued from the image, rings restarted empty.
  EXPECT_EQ(rec->traced_frames(), traced_before);
  EXPECT_TRUE(rec->merged().empty());

  run_epilogue(*dst);
  EXPECT_GT(rec->traced_frames(), traced_before);

  // Every id first seen after the restore either belongs to a frame that
  // was in flight at the save (carried by the image, so at or below the
  // per-shard pre-save high-water mark AND present in before_ids) or was
  // freshly minted strictly above the mark. Without the counter restore,
  // fresh mints would land at or below the mark — colliding with ids
  // already burned.
  std::map<std::uint64_t, std::uint64_t> shard_max;  // id>>40 -> max id
  for (const std::uint64_t id : before_ids) {
    std::uint64_t& mx = shard_max[id >> 40];
    mx = std::max(mx, id);
  }
  std::set<std::uint64_t> after_ids;
  for (const obs::HopRecord& h : rec->merged()) {
    if (h.trace_id != 0) after_ids.insert(h.trace_id);
  }
  ASSERT_FALSE(after_ids.empty());
  std::uint64_t fresh_mints = 0;
  for (const std::uint64_t id : after_ids) {
    if (before_ids.count(id) != 0) continue;  // in-flight carry-over
    ++fresh_mints;
    const auto it = shard_max.find(id >> 40);
    if (it != shard_max.end()) {
      EXPECT_GT(id, it->second) << "freshly minted trace id at or below the "
                                   "pre-save high-water mark";
    }
  }
  EXPECT_GT(fresh_mints, 0u);
}

}  // namespace
}  // namespace portland::core
