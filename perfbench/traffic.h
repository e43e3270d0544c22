// The benchmark's own traffic generator: paced or bursty UDP flows that
// call Host::send_udp directly, so the benchmark can time the host send
// path (host.send_udp_ns) from outside the library. Snapshotable, so a
// what-if fork rewinds the generator together with the fabric.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/byte_io.h"
#include "host/host.h"
#include "metrics.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"

namespace perfbench {

class Generator : public portland::sim::Snapshotable {
 public:
  struct Flow {
    portland::host::Host* src = nullptr;
    portland::Ipv4Address dst;
    std::uint16_t port = 0;
    portland::SimDuration interval = 0;
    std::size_t payload_bytes = 64;  // >= 8: the sequence number
    std::size_t burst = 1;           // datagrams per tick
    portland::SimDuration phase = 0; // delay before the first tick
  };

  /// Every `kSampleEvery`-th traced send keeps its duration for the
  /// host.send_udp_ns median.
  static constexpr std::uint64_t kSampleEvery = 64;

  Generator(portland::sim::Simulator& sim, SpanTracer& tracer,
            std::vector<Flow> flows)
      : sim_(&sim), tracer_(&tracer) {
    states_.reserve(flows.size());
    for (const Flow& f : flows) {
      auto st = std::make_unique<State>();
      st->flow = f;
      State* raw = st.get();
      st->timer = std::make_unique<portland::sim::PeriodicTimer>(
          sim, f.interval, [this, raw] { tick(*raw); });
      states_.push_back(std::move(st));
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void start() {
    started_at_ = sim_->now();
    portland::sim::ShardGuard guard(*sim_, 0);
    for (auto& st : states_) st->timer->start(st->flow.phase);
  }
  void stop() {
    for (auto& st : states_) st->timer->stop();
  }

  [[nodiscard]] std::size_t flow_count() const { return states_.size(); }
  [[nodiscard]] const Flow& flow(std::size_t i) const {
    return states_[i]->flow;
  }

  /// Simulated time of flow i's first send.
  [[nodiscard]] portland::SimTime first_send(std::size_t i) const {
    return started_at_ + states_[i]->flow.phase;
  }

  /// Datagrams handed to send_udp since construction.
  [[nodiscard]] std::uint64_t sent() const {
    std::uint64_t n = 0;
    for (const auto& st : states_) n += st->seq;
    return n;
  }

  /// Sampled send_udp wall durations in ns (traced runs only).
  [[nodiscard]] const std::vector<double>& send_ns_samples() const {
    return send_ns_;
  }

  void save_state(portland::sim::SnapshotWriter& w) const override {
    for (const auto& st : states_) {
      w.u64(st->seq);
      st->timer->save_state(w);
    }
  }
  void restore_state(portland::sim::SnapshotReader& r) override {
    for (auto& st : states_) {
      st->seq = r.u64();
      st->timer->restore_state(r);
    }
  }

 private:
  struct State {
    Flow flow;
    std::uint64_t seq = 0;
    std::unique_ptr<portland::sim::PeriodicTimer> timer;
  };

  void tick(State& st) {
    for (std::size_t i = 0; i < st.flow.burst; ++i) {
      std::vector<std::uint8_t> payload;
      payload.reserve(st.flow.payload_bytes);
      portland::ByteWriter w(payload);
      w.u64(st.seq++);
      payload.resize(st.flow.payload_bytes, 0);
      if (!tracer_->enabled()) {
        st.flow.src->send_udp(st.flow.dst, st.flow.port, st.flow.port,
                              std::move(payload));
        continue;
      }
      tracer_->open("host.send_udp");
      st.flow.src->send_udp(st.flow.dst, st.flow.port, st.flow.port,
                            std::move(payload));
      const double us = tracer_->close();
      if (++traced_sends_ % kSampleEvery == 0) send_ns_.push_back(us * 1e3);
    }
  }

  portland::sim::Simulator* sim_;
  SpanTracer* tracer_;
  std::vector<std::unique_ptr<State>> states_;
  portland::SimTime started_at_ = 0;
  std::uint64_t traced_sends_ = 0;
  std::vector<double> send_ns_;
};

}  // namespace perfbench
