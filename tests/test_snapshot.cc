// Checkpoint/fork serving (sim/snapshot.h + PortlandFabric::save_snapshot):
// the headline invariant is that restore(save(S)) followed by run is
// frame-trace bit-identical to running S uninterrupted — snapshots are
// invisible to execution. These tests pin the stream primitives, the
// fabric-level round trip (same fabric, fresh fabric, post-teardown
// restore under ASan), the refusal paths, and the flight-recorder
// trace-id continuation that keeps ids collision-free across a restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

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
  // a plain closure, which must have fired before any save.
  host::Host& rx_host = fabric.host_at(3, 0, 0);
  host::Host& tx_host = fabric.host_at(0, 1, 0);
  rx_host.tcp_listen(5001, [](host::TcpConnection&) {});
  if (warm) {
    fabric.sim().after(millis(5), [&tx_host, &rx_host] {
      tx_host.tcp_connect(rx_host.ip(), 5001)->send(500'000);
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
};

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
  return out;
}

void expect_same(const RunResult& a, const RunResult& b, const char* label) {
  EXPECT_EQ(a.executed, b.executed) << label;
  EXPECT_EQ(a.final_now, b.final_now) << label;
  EXPECT_EQ(a.received, b.received) << label;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  EXPECT_TRUE(a.trace == b.trace) << label << ": frame traces diverged";
}

TEST(Snapshot, SaveRestoreRoundTripIsInvisible) {
  // Reference: uninterrupted.
  auto ref = make_scenario(small_options());
  run_epilogue(*ref);
  const RunResult expected = finish(*ref);
  EXPECT_GT(expected.trace.size(), 1000u);  // the scenario really ran

  // Round trip: save at t_save, restore immediately, continue.
  auto rt = make_scenario(small_options());
  std::vector<std::uint8_t> image;
  std::string error;
  const auto extras = rt->extras();
  ASSERT_TRUE(rt->fabric->save_snapshot(image, extras, &error)) << error;
  EXPECT_GT(image.size(), 0u);
  ASSERT_TRUE(rt->fabric->restore_snapshot(image, extras, &error)) << error;
  run_epilogue(*rt);
  expect_same(finish(*rt), expected, "save+restore round trip");
}

TEST(Snapshot, ForkRewindReplaysIdentically) {
  // Fork serving: save, explore a *different* what-if (discarded), rewind
  // to the checkpoint, then run the real epilogue. The discarded branch
  // must leave no residue.
  auto ref = make_scenario(small_options());
  run_epilogue(*ref);
  const RunResult expected = finish(*ref);

  auto rw = make_scenario(small_options());
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
  expect_same(finish(*rw), expected, "fork + rewind + replay");
}

TEST(Snapshot, RestoreIntoFreshFabricReplaysIdentically) {
  // Cross-fabric restore in one process: image from a warmed fabric,
  // restored into an instance that only converged and installed wiring —
  // it never ran the warm phase, so every divergent bit of state must
  // come from the image.
  auto src = make_scenario(small_options());
  std::vector<std::uint8_t> image;
  std::string error;
  ASSERT_TRUE(src->fabric->save_snapshot(image, src->extras(), &error))
      << error;
  run_epilogue(*src);
  const RunResult expected = finish(*src);

  auto dst = make_scenario(small_options(), /*warm=*/false);
  const auto extras = dst->extras();
  ASSERT_TRUE(dst->fabric->restore_snapshot(image, extras, &error)) << error;
  dst->t_save = dst->fabric->sim().now();
  ASSERT_EQ(dst->t_save, src->t_save);  // now comes from the image
  run_epilogue(*dst);
  expect_same(finish(*dst), expected, "restore into fresh fabric");
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
  ASSERT_EQ(old_version[7], 4);
  old_version[7] = 3;
  EXPECT_FALSE(target.restore_snapshot(old_version, &error));
  EXPECT_NE(error.find("version mismatch"), std::string::npos) << error;
  // The same image with its own version word restores into that fabric.
  EXPECT_TRUE(target.restore_snapshot(image, &error)) << error;
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
