// Unit tests for the discrete-event engine: ordering, timers, links.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "sim/device.h"
#include "sim/failure.h"
#include "sim/link.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace portland::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.after(millis(3), [&] { order.push_back(3); });
  sim.after(millis(1), [&] { order.push_back(1); });
  sim.after(millis(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), millis(3));
}

TEST(Simulator, SameTimeFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(millis(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.after(millis(1), [&] {
    sim.after(millis(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), millis(2));
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(millis(7));
  EXPECT_EQ(sim.now(), millis(7));
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.after(millis(10), [&] { ++fired; });
  sim.run_until(millis(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(millis(15));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, Stop) {
  Simulator sim;
  int fired = 0;
  sim.after(1, [&] {
    ++fired;
    sim.stop();
  });
  sim.after(2, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Timer, FiresOnce) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.schedule_after(millis(1), [&] { ++fired; });
  EXPECT_TRUE(t.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, CancelPreventsFire) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.schedule_after(millis(1), [&] { ++fired; });
  t.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RescheduleReplacesPrevious) {
  Simulator sim;
  Timer t(sim);
  std::vector<int> hits;
  t.schedule_after(millis(1), [&] { hits.push_back(1); });
  t.schedule_after(millis(2), [&] { hits.push_back(2); });
  sim.run();
  EXPECT_EQ(hits, (std::vector<int>{2}));
}

TEST(PeriodicTimer, TicksAtPeriod) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTimer t(sim, millis(10), [&] { ticks.push_back(sim.now()); });
  t.start();
  sim.run_until(millis(35));
  t.stop();
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_EQ(ticks[0], millis(10));
  EXPECT_EQ(ticks[1], millis(20));
  EXPECT_EQ(ticks[2], millis(30));
}

TEST(PeriodicTimer, StopInsideCallback) {
  Simulator sim;
  int fired = 0;
  PeriodicTimer* handle = nullptr;
  PeriodicTimer t(sim, millis(1), [&] {
    ++fired;
    if (fired == 2) handle->stop();
  });
  handle = &t;
  t.start();
  sim.run_until(millis(20));
  EXPECT_EQ(fired, 2);
}

/// Minimal device that records what it receives.
class SinkDevice : public Device {
 public:
  SinkDevice(Simulator& sim, std::string name) : Device(sim, std::move(name)) {
    add_port();
  }
  void handle_frame(PortId port, const FramePtr& frame) override {
    (void)port;
    frames.push_back(frame);
    times.push_back(sim().now());
  }
  std::vector<FramePtr> frames;
  std::vector<SimTime> times;
};

FramePtr frame_of_size(std::size_t n) {
  return make_frame(FrameBytes(n, 0xEE));
}

TEST(Link, DeliversWithSerializationAndPropagation) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link::Config cfg;
  cfg.bandwidth_bps = 1e9;         // 1 Gb/s: 1000 bytes = 8 us
  cfg.propagation = micros(5);
  net.connect(a, 0, b, 0, cfg);

  net.sim().at(0, [&] { a.send(0, frame_of_size(1000)); });
  net.sim().run();
  ASSERT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(b.times[0], micros(13));  // 8 us serialize + 5 us propagate
}

TEST(Link, BackToBackFramesQueueBehindEachOther) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link::Config cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.propagation = 0;
  net.connect(a, 0, b, 0, cfg);

  net.sim().at(0, [&] {
    a.send(0, frame_of_size(1000));  // 8 us
    a.send(0, frame_of_size(1000));  // +8 us
  });
  net.sim().run();
  ASSERT_EQ(b.times.size(), 2u);
  EXPECT_EQ(b.times[0], micros(8));
  EXPECT_EQ(b.times[1], micros(16));
}

TEST(Link, DropTailWhenQueueFull) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link::Config cfg;
  cfg.bandwidth_bps = 1e6;  // slow: everything queues
  cfg.queue_capacity_bytes = 2500;
  net.connect(a, 0, b, 0, cfg);

  net.sim().at(0, [&] {
    for (int i = 0; i < 5; ++i) a.send(0, frame_of_size(1000));
  });
  net.sim().run();
  EXPECT_EQ(b.frames.size(), 2u);  // 2 x 1000 fit; rest dropped
  EXPECT_EQ(net.links()[0]->dropped_frames(0), 3u);
}

TEST(Link, DownLinkDropsAndNotifies) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link& link = net.connect(a, 0, b, 0);

  link.set_up(false);
  net.sim().at(0, [&] { a.send(0, frame_of_size(100)); });
  net.sim().run();
  EXPECT_TRUE(b.frames.empty());
  EXPECT_FALSE(a.port_up(0));
  link.set_up(true);
  net.sim().at(net.sim().now(), [&] { a.send(0, frame_of_size(100)); });
  net.sim().run();
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST(Link, InFlightFramesLostOnFailure) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link::Config cfg;
  cfg.propagation = millis(1);
  Link& link = net.connect(a, 0, b, 0, cfg);

  net.sim().at(0, [&] { a.send(0, frame_of_size(100)); });
  net.sim().at(micros(500), [&] { link.set_up(false); });  // mid-flight
  net.sim().run();
  EXPECT_TRUE(b.frames.empty());
}

TEST(Link, UnidirectionalFailure) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link& link = net.connect(a, 0, b, 0);

  link.set_direction_up(0, false);  // a -> b dead; b -> a alive
  net.sim().at(0, [&] {
    a.send(0, frame_of_size(10));
    b.send(0, frame_of_size(10));
  });
  net.sim().run();
  EXPECT_TRUE(b.frames.empty());
  EXPECT_EQ(a.frames.size(), 1u);
}

TEST(Network, FindDeviceAndLink) {
  Network net;
  auto& a = net.add_device<SinkDevice>("alpha");
  auto& b = net.add_device<SinkDevice>("beta");
  Link& link = net.connect(a, 0, b, 0);
  EXPECT_EQ(net.find_device("alpha"), &a);
  EXPECT_EQ(net.find_device("nope"), nullptr);
  EXPECT_EQ(net.find_link(a, b), &link);
  EXPECT_EQ(net.find_link(b, a), &link);
}

TEST(Network, DisconnectFreesPorts) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  auto& c = net.add_device<SinkDevice>("c");
  Link& link = net.connect(a, 0, b, 0);
  net.disconnect(link);
  EXPECT_FALSE(a.port_connected(0));
  // Ports can be re-wired after disconnect (VM migration).
  net.connect(a, 0, c, 0);
  net.sim().at(0, [&] { a.send(0, frame_of_size(10)); });
  net.sim().run();
  EXPECT_EQ(c.frames.size(), 1u);
}

TEST(FailureInjector, FailsAndRepairsOnSchedule) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  Link& link = net.connect(a, 0, b, 0);
  FailureInjector inj(net);
  inj.fail_link_at(link, millis(10));
  inj.repair_link_at(link, millis(20));

  net.sim().run_until(millis(5));
  EXPECT_TRUE(link.is_up());
  net.sim().run_until(millis(15));
  EXPECT_FALSE(link.is_up());
  net.sim().run_until(millis(25));
  EXPECT_TRUE(link.is_up());
}

TEST(FailureInjector, RandomLinkSelectionIsDistinct) {
  Network net;
  std::vector<Link*> links;
  auto& hub = net.add_device<SinkDevice>("hub");
  for (int i = 0; i < 8; ++i) {
    hub.add_port();
    auto& d = net.add_device<SinkDevice>("d" + std::to_string(i));
    links.push_back(&net.connect(hub, static_cast<PortId>(i + 1), d, 0));
  }
  FailureInjector inj(net);
  Rng rng(5);
  const auto chosen = inj.fail_random_links_at(links, 4, millis(1), rng);
  EXPECT_EQ(chosen.size(), 4u);
  std::set<Link*> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), 4u);
  net.sim().run_until(millis(2));
  for (Link* l : chosen) EXPECT_FALSE(l->is_up());
}

TEST(Device, CountersTrackTraffic) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  net.connect(a, 0, b, 0);
  net.sim().at(0, [&] { a.send(0, frame_of_size(64)); });
  net.sim().run();
  EXPECT_EQ(a.counters().get("tx_frames"), 1u);
  EXPECT_EQ(a.counters().get("tx_bytes"), 64u);
  EXPECT_EQ(b.counters().get("rx_frames"), 1u);
}

TEST(Device, SendOnUnconnectedPortCountsDrop) {
  Network net;
  auto& a = net.add_device<SinkDevice>("a");
  net.sim().at(0, [&] { a.send(0, frame_of_size(64)); });
  net.sim().run();
  EXPECT_EQ(a.counters().get("tx_drop_unconnected"), 1u);
}

// --- sharded parallel engine --------------------------------------------

/// Bounces every received frame back out the same port until `bounces`
/// frames have been seen, recording each receive time. All state is
/// touched only from the device's own shard.
class EchoDevice : public Device {
 public:
  EchoDevice(Simulator& sim, std::string name, int bounces)
      : Device(sim, std::move(name)), bounces_(bounces) {
    add_port();
  }
  void handle_frame(PortId port, const FramePtr& frame) override {
    times.push_back(sim().now());
    if (static_cast<int>(times.size()) < bounces_) send(port, frame);
  }
  std::vector<SimTime> times;

 private:
  int bounces_;
};

struct PingPongResult {
  std::vector<SimTime> times_a;
  std::vector<SimTime> times_b;
  std::uint64_t executed = 0;
  SimTime final_now = 0;
};

PingPongResult run_pingpong(unsigned workers) {
  Network net;
  net.sim().configure_shards(2, micros(1), 99);
  net.sim().set_workers(workers);
  auto& a = net.add_device<EchoDevice>("a", 200);
  auto& b = net.add_device<EchoDevice>("b", 200);
  a.set_shard(0);
  b.set_shard(1);
  Link::Config cfg;
  cfg.propagation = micros(5);  // cross-shard: always beyond the window
  net.connect(a, 0, b, 0, cfg);
  {
    ShardGuard guard(net.sim(), 0);
    net.sim().at(0, [&] { a.send(0, frame_of_size(200)); });
  }
  net.sim().run();
  return PingPongResult{a.times, b.times, net.sim().executed_events(),
                        net.sim().now()};
}

TEST(Sharded, CrossShardPingPongIsWorkerCountInvariant) {
  const PingPongResult one = run_pingpong(1);
  ASSERT_EQ(one.times_b.size(), 200u);
  ASSERT_EQ(one.times_a.size(), 199u);  // the 200th bounce stops the rally
  for (const unsigned workers : {2u, 4u}) {
    const PingPongResult many = run_pingpong(workers);
    EXPECT_EQ(many.times_a, one.times_a) << workers << " workers";
    EXPECT_EQ(many.times_b, one.times_b) << workers << " workers";
    EXPECT_EQ(many.executed, one.executed) << workers << " workers";
    EXPECT_EQ(many.final_now, one.final_now) << workers << " workers";
  }
}

TEST(Sharded, BarrierTasksRunBeforeShardEventsAtTheSameInstant) {
  Simulator sim;
  sim.configure_shards(2, micros(1), 1);
  std::vector<std::string> order;
  {
    ShardGuard guard(sim, 0);
    sim.at(millis(1), [&] { order.push_back("shard"); });
  }
  // No guard: the main thread schedules into the barrier queue.
  sim.at(millis(1), [&] { order.push_back("barrier"); });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "barrier");
  EXPECT_EQ(order[1], "shard");
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(Sharded, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.configure_shards(3, micros(1), 1);
  sim.set_workers(2);
  sim.run_until(millis(7));
  EXPECT_EQ(sim.now(), millis(7));
  sim.run_until(millis(9));
  EXPECT_EQ(sim.now(), millis(9));
}

TEST(Sharded, TimersTickOnTheGuardedShard) {
  Simulator sim;
  sim.configure_shards(2, micros(1), 1);
  sim.set_workers(2);
  int ticks = 0;
  PeriodicTimer timer(sim, millis(1), [&] { ++ticks; });
  {
    ShardGuard guard(sim, 1);
    timer.start();
  }
  sim.run_until(millis(10));
  EXPECT_EQ(ticks, 10);
  timer.stop();
}

struct FailRecoverResult {
  std::size_t delivered_a = 0;
  std::size_t delivered_b = 0;
  std::uint64_t dropped = 0;
  std::uint64_t executed = 0;
};

FailRecoverResult run_fail_recover(unsigned workers) {
  Network net;
  net.sim().configure_shards(2, micros(1), 5);
  net.sim().set_workers(workers);
  auto& a = net.add_device<SinkDevice>("a");
  auto& b = net.add_device<SinkDevice>("b");
  a.set_shard(0);
  b.set_shard(1);
  Link::Config cfg;
  cfg.propagation = micros(3);
  Link& link = net.connect(a, 0, b, 0, cfg);

  // A periodic stream from shard 0, re-armed from inside the shard.
  struct Stream {
    Simulator* sim;
    SinkDevice* dev;
    int remaining;
    void fire() {
      dev->send(0, frame_of_size(300));
      if (--remaining > 0) sim->after(micros(50), [this] { fire(); });
    }
  };
  Stream stream{&net.sim(), &a, 400};
  {
    ShardGuard guard(net.sim(), 0);
    net.sim().at(0, [&stream] { stream.fire(); });
  }

  FailureInjector inj(net);
  inj.fail_link_at(link, micros(3000));
  inj.repair_link_at(link, micros(9000));
  net.sim().run();
  return FailRecoverResult{a.frames.size(), b.frames.size(),
                           link.dropped_frames(0),
                           net.sim().executed_events()};
}

TEST(Sharded, FailRecoverIsWorkerCountInvariant) {
  const FailRecoverResult one = run_fail_recover(1);
  EXPECT_GT(one.delivered_b, 0u);
  EXPECT_GT(one.dropped, 0u);  // the outage really dropped frames
  for (const unsigned workers : {2u, 4u}) {
    const FailRecoverResult many = run_fail_recover(workers);
    EXPECT_EQ(many.delivered_b, one.delivered_b) << workers << " workers";
    EXPECT_EQ(many.dropped, one.dropped) << workers << " workers";
    EXPECT_EQ(many.executed, one.executed) << workers << " workers";
  }
}

// --- timing-wheel event queue --------------------------------------------

TEST(EngineTest, OrderingAcrossCascadeDistances) {
  // Times chosen to land on every wheel level: same-page ns (level 0),
  // ~hundreds of ns (level 1), tens of us (level 2), tens of ms and
  // seconds (level 3), and past the ~4.29 s horizon (overflow) — plus
  // duplicates, which must preserve schedule order.
  const SimTime times[] = {nanos(5),   nanos(300),  micros(70), millis(20),
                           seconds(1), seconds(5),  nanos(5),   millis(20),
                           seconds(6), nanos(6),    micros(70), seconds(5)};
  struct Fire {
    SimTime time;
    int id;
  };
  Simulator sim;
  std::vector<Fire> fired;
  for (int i = 0; i < static_cast<int>(std::size(times)); ++i) {
    sim.at(times[i], [&fired, &sim, i] {
      fired.push_back(Fire{sim.now(), i});
    });
  }
  sim.run();
  // Golden order: stable sort by time (schedule order breaks ties).
  std::vector<int> ids(std::size(times));
  for (int i = 0; i < static_cast<int>(ids.size()); ++i) ids[i] = i;
  std::stable_sort(ids.begin(), ids.end(), [&](int a, int b) {
    return times[a] < times[b];
  });
  ASSERT_EQ(fired.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(fired[i].id, ids[i]) << "position " << i;
    EXPECT_EQ(fired[i].time, times[static_cast<std::size_t>(ids[i])]);
  }
}

TEST(EngineTest, RunUntilBoundaryIsInclusive) {
  Simulator sim;
  int at_limit = 0;
  int past_limit = 0;
  sim.at(millis(5), [&] { ++at_limit; });
  sim.at(millis(5) + 1, [&] { ++past_limit; });
  sim.run_until(millis(5));
  EXPECT_EQ(at_limit, 1);
  EXPECT_EQ(past_limit, 0);
  EXPECT_EQ(sim.now(), millis(5));
  sim.run();
  EXPECT_EQ(past_limit, 1);
}

TEST(EngineTest, CancelledTimersLeavePendingCount) {
  Simulator sim;
  Timer a(sim);
  Timer b(sim);
  Timer c(sim);
  a.schedule_after(millis(1), [] {});
  b.schedule_after(seconds(10), [] {});
  c.schedule_after(seconds(100), [] {});  // overflow horizon on the wheel
  EXPECT_EQ(sim.pending_events(), 3u);
  b.cancel();
  c.cancel();
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.now(), millis(1));  // dead deadlines never drive the clock
}

TEST(EngineTest, CancelledLongDeadlineTimerReleasesItsCore) {
  // Regression: cancel used to leave the queued shot holding its
  // shared_ptr<TimerCore> (and with it the callback closure) until the
  // dead event's far-future deadline finally popped.
  Simulator sim;
  auto marker = std::make_shared<int>(7);
  std::weak_ptr<int> weak = marker;
  {
    Timer t(sim);
    t.schedule_after(seconds(3600), [marker] { (void)*marker; });
    marker.reset();
    EXPECT_FALSE(weak.expired());  // queue + core keep the closure alive
    t.cancel();
  }
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.now(), 0);
}

TEST(EngineTest, TwoTimersAtSameInstantFireInArmOrder) {
  Simulator sim;
  Timer first(sim);
  Timer second(sim);
  std::vector<int> order;
  first.schedule_after(millis(2), [&] { order.push_back(1); });
  second.schedule_after(millis(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EngineTest, CancelFromOwnCallback) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.schedule_after(millis(1), [&] {
    ++fired;
    t.cancel();  // no pending shot: must be a harmless no-op
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
  t.rearm(millis(1));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, CancelSiblingTimerAtSameInstant) {
  // First timer's callback cancels the second, which is already staged
  // for dispatch at the same instant — it must not fire.
  Simulator sim;
  Timer killer(sim);
  Timer victim(sim);
  int victim_fired = 0;
  killer.schedule_after(millis(3), [&] { victim.cancel(); });
  victim.schedule_after(millis(3), [&] { ++victim_fired; });
  sim.run();
  EXPECT_EQ(victim_fired, 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(EngineTest, RearmAfterCallbackReplacedItself) {
  // The callback replaces itself via schedule_after() from inside
  // fire_timer; a later rearm() must re-run the *replacement*.
  Simulator sim;
  Timer t(sim);
  std::vector<int> hits;
  t.schedule_after(millis(1), [&] {
    hits.push_back(1);
    t.schedule_after(millis(1), [&] { hits.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(hits, (std::vector<int>{1, 2}));
  t.rearm(millis(5));
  EXPECT_TRUE(t.pending());
  sim.run();
  EXPECT_EQ(hits, (std::vector<int>{1, 2, 2}));
}

TEST(EngineTest, DeadlineTracksRearm) {
  Simulator sim;
  Timer t(sim);
  t.schedule_after(millis(10), [] {});
  EXPECT_EQ(t.deadline(), millis(10));
  t.rearm(millis(4));
  EXPECT_EQ(t.deadline(), millis(4));
  sim.run_until(millis(1));
  t.rearm(seconds(30));  // push past the wheel's cascade horizon
  EXPECT_EQ(t.deadline(), millis(1) + seconds(30));
  t.rearm(millis(2));
  EXPECT_EQ(t.deadline(), millis(3));
  sim.run();
  EXPECT_EQ(sim.now(), millis(3));
  EXPECT_EQ(sim.executed_events(), 1u);  // every earlier shot was erased
}

TEST(EngineTest, FarFutureCancelThenNearReschedule) {
  Simulator sim;
  Timer t(sim);
  int fired = 0;
  t.schedule_after(seconds(20), [&] { ++fired; });  // overflow on the wheel
  t.cancel();
  t.schedule_after(micros(5), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), micros(5));
}

/// Drives an engine through a pseudorandom schedule/cancel/rearm storm of
/// plain events and 16 timers, recording the (time, id) dispatch trace.
/// Every deadline is rounded up to a multiple of `quantum`: 1 ns leaves
/// the times erratic, a coarse quantum piles many shots onto one instant
/// so their insertion-order ties are exercised too. `E` is either the
/// real simulator (WheelStorm) or the reference model below; both expose
/// the same handful of operations.
template <typename E>
std::vector<std::pair<SimTime, int>> run_storm(E& engine, SimDuration quantum) {
  Rng rng(0xC0FFEE);
  const auto due_in = [&](SimDuration d) {
    const SimTime t = engine.now() + d;
    return ((t + quantum - 1) / quantum) * quantum - engine.now();
  };
  int next_id = 1000;
  for (int round = 0; round < 40; ++round) {
    // A burst of plain events at erratic distances (ns .. multi-second).
    for (int i = 0; i < 64; ++i) {
      engine.at(engine.now() + due_in(static_cast<SimDuration>(
                                   rng.next_below(seconds(6)))),
                next_id++);
    }
    // Timer churn: schedule, rearm, or cancel at random.
    for (std::size_t timer = 0; timer < E::kTimers; ++timer) {
      const std::uint64_t action = rng.next_below(4);
      const int id = next_id++;
      if (action == 0) {
        engine.schedule_after(
            timer,
            due_in(static_cast<SimDuration>(rng.next_below(seconds(2)))), id);
      } else if (action == 1 && engine.pending(timer)) {
        engine.rearm(timer, due_in(static_cast<SimDuration>(
                                rng.next_below(millis(50)))));
      } else if (action == 2) {
        engine.cancel(timer);
      }
    }
    engine.run_until(engine.now() +
                     static_cast<SimTime>(rng.next_below(seconds(1))));
  }
  engine.run();
  return engine.trace;
}

/// The storm on the real engine.
struct WheelStorm {
  static constexpr std::size_t kTimers = 16;
  Simulator sim;
  std::vector<std::unique_ptr<Timer>> timers;
  std::vector<std::pair<SimTime, int>> trace;

  WheelStorm() {
    for (std::size_t i = 0; i < kTimers; ++i) {
      timers.push_back(std::make_unique<Timer>(sim));
    }
  }
  SimTime now() const { return sim.now(); }
  void at(SimTime t, int id) {
    sim.at(t, [this, id] { trace.emplace_back(sim.now(), id); });
  }
  void schedule_after(std::size_t i, SimDuration d, int id) {
    timers[i]->schedule_after(
        d, [this, id] { trace.emplace_back(sim.now(), id); });
  }
  bool pending(std::size_t i) const { return timers[i]->pending(); }
  void rearm(std::size_t i, SimDuration d) { timers[i]->rearm(d); }
  void cancel(std::size_t i) { timers[i]->cancel(); }
  void run_until(SimTime t) { sim.run_until(t); }
  void run() { sim.run(); }
};

/// Reference model: the live shots as a sorted list of (time, seq, id),
/// where seq counts insertions. Dispatch pops the front. A timer owns at
/// most one shot; rearm and cancel erase it, and a rearm re-inserts the
/// timer's last callback id at a fresh seq.
struct ReferenceStorm {
  static constexpr std::size_t kTimers = 16;
  using Shot = std::tuple<SimTime, std::uint64_t, int>;
  struct TimerState {
    int id = 0;
    std::optional<Shot> shot;
  };
  SimTime clock = 0;
  std::uint64_t seq = 0;
  std::set<Shot> shots;
  std::vector<TimerState> timers = std::vector<TimerState>(kTimers);
  std::vector<std::pair<SimTime, int>> trace;

  SimTime now() const { return clock; }
  void at(SimTime t, int id) { shots.emplace(t, seq++, id); }
  void arm(std::size_t i, SimDuration d) {
    cancel(i);
    const Shot shot{clock + d, seq++, timers[i].id};
    shots.insert(shot);
    timers[i].shot = shot;
  }
  void schedule_after(std::size_t i, SimDuration d, int id) {
    timers[i].id = id;
    arm(i, d);
  }
  bool pending(std::size_t i) const { return timers[i].shot.has_value(); }
  void rearm(std::size_t i, SimDuration d) { arm(i, d); }
  void cancel(std::size_t i) {
    if (timers[i].shot) shots.erase(*timers[i].shot);
    timers[i].shot.reset();
  }
  void run_until(SimTime limit) {
    while (!shots.empty() && std::get<0>(*shots.begin()) <= limit) {
      const Shot shot = *shots.begin();
      shots.erase(shots.begin());
      for (TimerState& timer : timers) {
        if (timer.shot == shot) timer.shot.reset();
      }
      clock = std::get<0>(shot);
      trace.emplace_back(clock, std::get<2>(shot));
    }
    clock = std::max(clock, limit);
  }
  void run() {
    if (!shots.empty()) run_until(std::get<0>(*shots.rbegin()));
  }
};

TEST(Scheduler, WheelDispatchMatchesReferenceModel) {
  for (const SimDuration quantum : {nanos(1), millis(20)}) {
    SCOPED_TRACE(quantum);
    WheelStorm wheel;
    ReferenceStorm model;
    const auto wheel_trace = run_storm(wheel, quantum);
    const auto model_trace = run_storm(model, quantum);
    ASSERT_GT(model_trace.size(), 2000u);
    EXPECT_EQ(wheel_trace, model_trace);
    EXPECT_EQ(wheel.sim.now(), model.now());
  }
}

TEST(Sharded, AdaptiveLookaheadWidensSparseWindows) {
  // Shard 0 walks a long purely-local chain while every other shard sits
  // far in the future: the adaptive policy must widen shard 0's windows
  // well past the fixed lookahead instead of creeping one lookahead at a
  // time — and the observed widths must never drop below the configured
  // lookahead floor.
  Simulator sim;
  sim.configure_shards(2, micros(1), 3);
  // The anchor sits inside the run limit: widths of limit-clamped windows
  // are deliberately not recorded, so min2 must be a real event time.
  {
    ShardGuard guard(sim, 1);
    sim.at(micros(300), [] {});
  }
  int steps = 0;
  std::function<void()> chain = [&] {
    if (++steps < 1000) sim.after(nanos(200), [&] { chain(); });
  };
  {
    ShardGuard guard(sim, 0);
    sim.at(micros(10), [&] { chain(); });
  }
  sim.run_until(millis(1));
  EXPECT_EQ(steps, 1000);
  EXPECT_GT(sim.windows_widened(), 0u);
  // The 200 ns chain spans ~200 us; a fixed 1 us window would need ~200
  // windows. Widening must cover it in far fewer.
  EXPECT_LT(sim.windows_executed(), 50u);
  EXPECT_GT(sim.window_width_max(), micros(1));
  if (sim.window_width_min() != 0) {
    EXPECT_GE(sim.window_width_min(), micros(1));
  }
}

TEST(Sharded, WidenedShardNeverOutrunsItsOwnEchoes) {
  // Regression test: a widened (argmin) shard that emits a cross-shard
  // send mid-window must stop at that send's arrival + lookahead. If it
  // ran on, the reply chain seeded by its own mail would re-enter it
  // *behind* its executed clock, and its dispatch order would go back in
  // time. Shard 2 anchors min2 far away so shard 0's window widens hugely;
  // shard 0's local chain fires one echo round-trip through shard 1.
  for (const unsigned workers : {1u, 2u}) {
    Simulator sim;
    sim.configure_shards(3, micros(1), 7);
    sim.set_workers(workers);
    {
      ShardGuard guard(sim, 2);
      sim.at(micros(500), [] {});
    }
    {
      ShardGuard guard(sim, 1);
      sim.at(seconds(1), [] {});
    }
    std::vector<SimTime> shard0_times;
    int steps = 0;
    std::function<void()> chain = [&] {
      shard0_times.push_back(sim.now());
      if (++steps == 100) {
        // One echo: shard 0 -> shard 1 -> shard 0, one lookahead per hop.
        sim.at_shard(1, sim.now() + micros(1), [&] {
          sim.at_shard(0, sim.now() + micros(1),
                       [&] { shard0_times.push_back(sim.now()); });
        });
      }
      if (steps < 2000) sim.after(nanos(100), [&] { chain(); });
    };
    {
      ShardGuard guard(sim, 0);
      sim.at(micros(10), [&] { chain(); });
    }
    sim.run_until(millis(2));
    ASSERT_EQ(shard0_times.size(), 2001u) << workers << " workers";
    EXPECT_GT(sim.windows_widened(), 0u) << workers << " workers";
    for (std::size_t i = 1; i < shard0_times.size(); ++i) {
      ASSERT_GE(shard0_times[i], shard0_times[i - 1])
          << "shard 0 executed behind its own clock at step " << i << " ("
          << workers << " workers)";
    }
  }
}

TEST(Sharded, ResolveAutoWorkersPolicy) {
  // A single-core box or a single-shard fabric resolves to the classic
  // serial engine; otherwise one worker per shard, capped at the cores.
  EXPECT_EQ(Simulator::resolve_auto_workers(1, 8), 0u);
  EXPECT_EQ(Simulator::resolve_auto_workers(2, 1), 0u);
  EXPECT_EQ(Simulator::resolve_auto_workers(8, 4), 4u);
  EXPECT_EQ(Simulator::resolve_auto_workers(2, 8), 2u);
  EXPECT_EQ(Simulator::resolve_auto_workers(4, 4), 4u);
}

TEST(Sharded, ShardRngStreamsAreIndependentAndStable) {
  Simulator sim1;
  sim1.configure_shards(3, micros(1), 42);
  Simulator sim2;
  sim2.configure_shards(3, micros(1), 42);
  for (ShardId s = 0; s < 3; ++s) {
    EXPECT_EQ(sim1.shard_rng(s).next(), sim2.shard_rng(s).next());
  }
  // Distinct shards draw from distinct streams.
  Simulator sim3;
  sim3.configure_shards(2, micros(1), 42);
  EXPECT_NE(sim3.shard_rng(0).next(), sim3.shard_rng(1).next());
}

}  // namespace
}  // namespace portland::sim
