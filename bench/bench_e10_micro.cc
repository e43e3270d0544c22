// E10 — data-plane hot-path microbenchmarks (google-benchmark).
//
// The nanosecond-scale costs behind every forwarded frame: PMAC
// encode/decode, flow hashing, whole-frame parse, LDM parse, and the
// PMAC<->AMAC rewrite an edge switch performs per frame — plus the
// timing-wheel event queue's own hot ops (schedule, timer rearm).
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/messages.h"
#include "core/pmac.h"
#include "net/packet.h"
#include "sim/simulator.h"

using namespace portland;

namespace {

void BM_PmacEncode(benchmark::State& state) {
  std::uint16_t pod = 0;
  for (auto _ : state) {
    core::Pmac pmac{pod, 3, 1, 7};
    benchmark::DoNotOptimize(pmac.to_mac());
    ++pod;
  }
}
BENCHMARK(BM_PmacEncode);

void BM_PmacDecode(benchmark::State& state) {
  const MacAddress mac = core::Pmac{12, 3, 1, 7}.to_mac();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Pmac::from_mac(mac));
  }
}
BENCHMARK(BM_PmacDecode);

void BM_FlowHash(benchmark::State& state) {
  net::FlowKey key;
  key.src_ip = Ipv4Address(10, 0, 0, 1);
  key.dst_ip = Ipv4Address(10, 3, 1, 2);
  key.protocol = net::kProtocolUdp;
  key.src_port = 7000;
  key.dst_port = 7001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::flow_hash(key));
    ++key.src_port;
  }
}
BENCHMARK(BM_FlowHash);

void BM_ParseUdpFrame(benchmark::State& state) {
  const auto frame = net::build_udp_frame(
      MacAddress::from_u64(0x000300010001), MacAddress::from_u64(0x000000010001),
      Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 3, 1, 2), 7000, 7001,
      std::vector<std::uint8_t>(64, 0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::parse_frame(frame));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * frame.size()));
}
BENCHMARK(BM_ParseUdpFrame);

void BM_ParseLdmFrame(benchmark::State& state) {
  core::LdpMessage m;
  m.from = core::SwitchLocator{0x1234, core::Level::kAggregation, 7, 1};
  const auto frame = m.to_frame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::LdpMessage::from_frame(frame));
  }
}
BENCHMARK(BM_ParseLdmFrame);

void BM_EdgeRewriteSrc(benchmark::State& state) {
  const auto frame = net::build_udp_frame(
      MacAddress::from_u64(0x000300010001), MacAddress::from_u64(0x020000000001),
      Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 3, 1, 2), 7000, 7001,
      std::vector<std::uint8_t>(1400, 0));
  const MacAddress pmac = core::Pmac{0, 0, 0, 1}.to_mac();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::rewrite_eth_src(frame, pmac));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * frame.size()));
}
BENCHMARK(BM_EdgeRewriteSrc);

void BM_ControlRoundTrip(benchmark::State& state) {
  const core::ControlMessage msg{
      0x1000, core::ArpQuery{1, Ipv4Address(10, 0, 0, 1)}};
  for (auto _ : state) {
    const auto bytes = core::serialize_control(msg);
    benchmark::DoNotOptimize(core::parse_control(bytes));
  }
}
BENCHMARK(BM_ControlRoundTrip);

void BM_ScheduleAt(benchmark::State& state) {
  sim::Simulator sim;
  Rng rng(10);
  std::size_t queued = 0;
  for (auto _ : state) {
    sim.at(sim.now() + 1 + static_cast<SimTime>(rng.next_below(millis(20))),
           [] {});
    // Drain in chunks so the pending population stays bounded (and
    // realistic) instead of growing with the iteration count.
    if (++queued == 4096) {
      state.PauseTiming();
      sim.run();
      queued = 0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_ScheduleAt);

void BM_TimerRearm(benchmark::State& state) {
  // The LDP-keepalive hot path: erase the pending shot, re-insert at a
  // new deadline, no closure rebuild. Erratic deadlines keep the wheel
  // cascading.
  sim::Simulator sim;
  Rng rng(11);
  sim::Timer timer(sim);
  timer.schedule_after(millis(1), [] {});
  for (auto _ : state) {
    timer.rearm(millis(1) +
                static_cast<SimDuration>(rng.next_below(millis(50))));
  }
}
BENCHMARK(BM_TimerRearm);

}  // namespace

BENCHMARK_MAIN();
