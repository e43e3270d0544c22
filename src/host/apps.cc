#include "host/apps.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "common/byte_io.h"

namespace portland::host {

UdpFlowSender::UdpFlowSender(Host& host, Config config)
    : host_(&host),
      config_(config),
      timer_(host.sim(), config.interval, [this] { tick(); }) {
  assert(config_.payload_bytes >= 8);
}

void UdpFlowSender::start() { timer_.start(/*initial_delay=*/config_.phase); }

void UdpFlowSender::stop() { timer_.stop(); }

void UdpFlowSender::tick() {
  for (std::size_t i = 0; i < config_.burst; ++i) {
    std::vector<std::uint8_t> payload;
    payload.reserve(config_.payload_bytes);
    ByteWriter w(payload);
    w.u64(next_seq_++);
    payload.resize(config_.payload_bytes, 0);
    host_->send_udp(config_.dst, config_.src_port, config_.dst_port,
                    std::move(payload));
  }
}

void UdpFlowSender::save_state(sim::SnapshotWriter& w) const {
  w.u64(next_seq_);
  timer_.save_state(w);
}

void UdpFlowSender::restore_state(sim::SnapshotReader& r) {
  next_seq_ = r.u64();
  timer_.restore_state(r);
}

UdpFlowReceiver::UdpFlowReceiver(Host& host, std::uint16_t port, bool record) {
  host.bind_udp(port, [this, &host, record](Ipv4Address, std::uint16_t,
                                            std::uint16_t,
                                            std::span<const std::uint8_t>
                                                payload) {
    ByteReader r(payload);
    const std::uint64_t seq = r.u64();
    if (!r.ok()) return;
    ++count_;
    last_time_ = host.sim().now();
    if (record) arrivals_.push_back(Arrival{host.sim().now(), seq});
  });
}

SimDuration UdpFlowReceiver::max_gap(SimTime window_start,
                                     SimTime window_end) const {
  SimDuration best = 0;
  for (std::size_t i = 1; i < arrivals_.size(); ++i) {
    const SimTime gap_start = arrivals_[i - 1].time;
    if (gap_start < window_start || gap_start > window_end) continue;
    best = std::max(best, arrivals_[i].time - gap_start);
  }
  return best;
}

std::vector<std::pair<SimTime, SimDuration>> UdpFlowReceiver::gaps_over(
    SimDuration threshold) const {
  std::vector<std::pair<SimTime, SimDuration>> out;
  for (std::size_t i = 1; i < arrivals_.size(); ++i) {
    const SimDuration gap = arrivals_[i].time - arrivals_[i - 1].time;
    if (gap > threshold) out.emplace_back(arrivals_[i - 1].time, gap);
  }
  return out;
}

void UdpFlowReceiver::save_state(sim::SnapshotWriter& w) const {
  w.u64(count_);
  w.i64(last_time_);
  w.u32(static_cast<std::uint32_t>(arrivals_.size()));
  for (const Arrival& a : arrivals_) {
    w.i64(a.time);
    w.u64(a.seq);
  }
}

void UdpFlowReceiver::restore_state(sim::SnapshotReader& r) {
  count_ = r.u64();
  last_time_ = r.i64();
  arrivals_.clear();
  const std::uint32_t n = r.count();
  arrivals_.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    Arrival a;
    a.time = r.i64();
    a.seq = r.u64();
    arrivals_.push_back(a);
  }
}

std::uint64_t UdpFlowReceiver::unique_sequences() const {
  std::set<std::uint64_t> seen;
  for (const Arrival& a : arrivals_) seen.insert(a.seq);
  return seen.size();
}

std::vector<std::size_t> permutation_pairing(std::size_t n, Rng& rng) {
  assert(n >= 2);
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  // Retry until a derangement appears (expected ~e tries).
  while (true) {
    rng.shuffle(perm);
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (perm[i] == i) {
        ok = false;
        break;
      }
    }
    if (ok) return perm;
  }
}

}  // namespace portland::host
