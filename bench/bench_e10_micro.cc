// E10 — data-plane hot-path microbenchmarks (google-benchmark).
//
// The nanosecond-scale costs behind every forwarded frame: PMAC
// encode/decode, flow hashing, whole-frame parse, LDM parse, and the
// PMAC<->AMAC rewrite an edge switch performs per frame — plus the
// timing-wheel event queue's own hot ops (schedule, timer rearm) and the
// fabric manager's per-message topology work (hello ingest, prune
// computation) on a k=32 view.
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/fabric_graph.h"
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

/// The hellos a converged k-ary fat tree sends the fabric manager. Ids:
/// edge, agg and core blocks of `kBase`-spaced ranges; edge and agg
/// uplinks on ports k/2.., cores on port = pod.
struct FatTreeHellos {
  static constexpr core::SwitchId kEdgeBase = 0x10000;
  static constexpr core::SwitchId kAggBase = 0x20000;
  static constexpr core::SwitchId kCoreBase = 0x30000;

  explicit FatTreeHellos(int k) : half(k / 2) {
    const auto edge = [&](int pod, int e) {
      return core::SwitchLocator{kEdgeBase + static_cast<core::SwitchId>(
                                                 pod * half + e),
                                 core::Level::kEdge,
                                 static_cast<std::uint16_t>(pod),
                                 static_cast<std::uint8_t>(e)};
    };
    const auto agg = [&](int pod, int a) {
      return core::SwitchLocator{kAggBase + static_cast<core::SwitchId>(
                                                pod * half + a),
                                 core::Level::kAggregation,
                                 static_cast<std::uint16_t>(pod),
                                 static_cast<std::uint8_t>(a)};
    };
    const auto core_at = [&](int a, int m) {
      return core::SwitchLocator{
          kCoreBase + static_cast<core::SwitchId>(a * half + m),
          core::Level::kCore, core::kUnknownPod, core::kUnknownPosition};
    };
    const auto port = [](int p) { return static_cast<std::uint16_t>(p); };
    for (int pod = 0; pod < k; ++pod) {
      for (int e = 0; e < half; ++e) {
        core::SwitchHello h{edge(pod, e), {}};
        for (int a = 0; a < half; ++a) {
          h.neighbors.push_back({port(half + a), agg(pod, a)});
        }
        hellos.push_back(std::move(h));
      }
      for (int a = 0; a < half; ++a) {
        core::SwitchHello h{agg(pod, a), {}};
        for (int e = 0; e < half; ++e) {
          h.neighbors.push_back({port(e), edge(pod, e)});
        }
        for (int m = 0; m < half; ++m) {
          h.neighbors.push_back({port(half + m), core_at(a, m)});
        }
        hellos.push_back(std::move(h));
      }
    }
    for (int a = 0; a < half; ++a) {
      for (int m = 0; m < half; ++m) {
        core::SwitchHello h{core_at(a, m), {}};
        for (int pod = 0; pod < k; ++pod) {
          h.neighbors.push_back({port(pod), agg(pod, a)});
        }
        hellos.push_back(std::move(h));
      }
    }
  }

  void apply(core::FabricGraph& g) const {
    for (const core::SwitchHello& h : hellos) {
      g.apply_hello(h.self.switch_id, h);
    }
  }

  int half;
  std::vector<core::SwitchHello> hellos;
};

void BM_FabricGraphApplyHello(benchmark::State& state, bool changed) {
  const FatTreeHellos tree(32);
  core::FabricGraph graph;
  tree.apply(graph);
  // The changed case alternates one aggregation switch's report between
  // one neighbour withdrawn and the full adjacency; the unchanged case
  // re-sends every switch's report in turn, as keepalive hellos do.
  const core::SwitchHello& full = tree.hellos[tree.half];  // agg (0, 0)
  core::SwitchHello withdrawn = full;
  withdrawn.neighbors.erase(withdrawn.neighbors.begin());
  std::size_t i = 0;
  for (auto _ : state) {
    if (changed) {
      const core::SwitchHello& h = (i++ & 1) == 0 ? withdrawn : full;
      benchmark::DoNotOptimize(graph.apply_hello(h.self.switch_id, h));
    } else {
      const core::SwitchHello& h = tree.hellos[i++ % tree.hellos.size()];
      benchmark::DoNotOptimize(graph.apply_hello(h.self.switch_id, h));
    }
  }
}
BENCHMARK_CAPTURE(BM_FabricGraphApplyHello, unchanged, false);
BENCHMARK_CAPTURE(BM_FabricGraphApplyHello, changed, true);

void BM_FabricGraphComputePrunes(benchmark::State& state) {
  const FatTreeHellos tree(32);
  core::FabricGraph graph;
  tree.apply(graph);
  const int half = tree.half;
  // Edge (0,0) loses one uplink; agg (0,1) and agg (2,0) each lose a core.
  graph.set_link_state(FatTreeHellos::kEdgeBase, FatTreeHellos::kAggBase,
                       false);
  graph.set_link_state(FatTreeHellos::kAggBase + 1,
                       FatTreeHellos::kCoreBase + half, false);
  graph.set_link_state(FatTreeHellos::kAggBase + 2 * half,
                       FatTreeHellos::kCoreBase, false);
  const core::DstKey key{0, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.compute_prunes(key));
  }
}
BENCHMARK(BM_FabricGraphComputePrunes);

}  // namespace

BENCHMARK_MAIN();
