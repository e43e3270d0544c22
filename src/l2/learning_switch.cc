#include "l2/learning_switch.h"

#include <algorithm>

#include "common/logging.h"
#include "net/ethernet.h"
#include "net/packet.h"
#include "sim/snapshot.h"

namespace portland::l2 {

LearningSwitch::LearningSwitch(sim::Simulator& sim, std::string name,
                               std::size_t num_ports, std::uint64_t bridge_id,
                               Config config)
    : Device(sim, std::move(name)),
      bridge_id_(bridge_id),
      config_(config),
      ports_(num_ports),
      root_(bridge_id),
      hello_timer_(sim, config.stp.hello_interval, [this] { hello_tick(); }),
      age_timer_(sim, config.stp.hello_interval, [this] { age_tick(); }) {
  add_ports(num_ports);
}

void LearningSwitch::start() {
  if (config_.stp_enabled) {
    // Everything starts blocking; roles resolve from BPDU exchange.
    recompute();
    hello_timer_.start(/*initial_delay=*/millis(1));
    age_timer_.start(config_.stp.hello_interval / 2);
  } else {
    // No STP: all ports forward immediately (loops are the caller's
    // problem — this mode exists for single-tree topologies and tests).
    for (sim::PortId p = 0; p < ports_.size(); ++p) {
      ports_[p].role = PortRole::kDesignated;
      ports_[p].state = PortState::kForwarding;
    }
  }
}

Bpdu LearningSwitch::my_advertisement(sim::PortId p) const {
  // Message age: zero when we are the root; otherwise the age of the root
  // information we hold (stored age + time since we received it). Relayed
  // stale information therefore keeps aging and eventually dies fabric
  // wide (802.1D's defense against a vanished root).
  std::uint32_t age_ms = 0;
  if (root_ != bridge_id_ && root_port_.has_value()) {
    const PortInfo& rp = ports_[*root_port_];
    if (rp.best.has_value()) {
      age_ms = rp.best->age_ms +
               static_cast<std::uint32_t>(
                   to_millis(sim().now() - rp.best_received_at));
    }
  }
  return Bpdu{root_, root_cost_, bridge_id_, static_cast<std::uint16_t>(p),
              age_ms};
}

void LearningSwitch::hello_tick() {
  for (sim::PortId p = 0; p < ports_.size(); ++p) {
    if (ports_[p].role == PortRole::kDesignated && port_connected(p)) {
      send(p, sim::make_frame(my_advertisement(p).to_frame()));
    }
  }
}

void LearningSwitch::age_tick() {
  const SimTime now = sim().now();
  bool changed = false;
  for (PortInfo& pi : ports_) {
    if (!pi.best.has_value()) continue;
    const SimDuration total_age =
        (now - pi.best_received_at) +
        static_cast<SimDuration>(pi.best->age_ms) * kMillisecond;
    if (total_age > config_.stp.max_age) {
      pi.best.reset();
      changed = true;
    }
  }
  // MAC aging. Any erase may free the node the memo's cached pointer
  // refers to, so aging invalidates the memo.
  bool aged = false;
  for (auto it = mac_table_.begin(); it != mac_table_.end();) {
    if (now - it->second.learned_at > config_.mac_aging) {
      it = mac_table_.erase(it);
      aged = true;
    } else {
      ++it;
    }
  }
  if (aged) ++memo_generation_;
  if (changed) recompute();
}

void LearningSwitch::handle_link_status(sim::PortId port, bool up) {
  if (!config_.stp_enabled) return;
  if (!up) {
    ports_[port].best.reset();
    recompute();
  }
}

void LearningSwitch::on_bpdu(sim::PortId port, const Bpdu& bpdu) {
  // Information that has already outlived max_age is dead on arrival.
  if (bpdu.age_ms >= to_millis(config_.stp.max_age)) return;
  PortInfo& pi = ports_[port];
  if (!pi.best.has_value() || bpdu.better_than(*pi.best)) {
    pi.best = bpdu;
    pi.best_received_at = sim().now();
    recompute();
  } else if (!pi.best->better_than(bpdu)) {
    // Identical priority vector: refresh the age.
    pi.best_received_at = sim().now();
  }
  // Inferior BPDUs are ignored; our periodic hello corrects the peer.
}

void LearningSwitch::recompute() {
  // Root election over our id and all fresh port BPDUs.
  std::uint64_t best_root = bridge_id_;
  for (const PortInfo& pi : ports_) {
    if (pi.best.has_value() && pi.best->root < best_root) {
      best_root = pi.best->root;
    }
  }

  std::optional<sim::PortId> new_root_port;
  std::uint32_t new_cost = 0;
  if (best_root != bridge_id_) {
    Bpdu best_vector;
    bool have = false;
    for (sim::PortId p = 0; p < ports_.size(); ++p) {
      const PortInfo& pi = ports_[p];
      if (!pi.best.has_value() || pi.best->root != best_root) continue;
      Bpdu candidate = *pi.best;
      candidate.root_cost += config_.stp.link_cost;
      if (!have || candidate.better_than(best_vector)) {
        best_vector = candidate;
        have = true;
        new_root_port = p;
      }
    }
    new_cost = best_vector.root_cost;
  }

  root_ = best_root;
  root_cost_ = new_cost;
  root_port_ = new_root_port;

  for (sim::PortId p = 0; p < ports_.size(); ++p) {
    PortInfo& pi = ports_[p];
    if (!port_connected(p)) {
      set_port(p, PortRole::kDisabled);
      continue;
    }
    if (new_root_port.has_value() && p == *new_root_port) {
      set_port(p, PortRole::kRoot);
      continue;
    }
    // Designated if our advertisement beats the best heard on the segment.
    if (!pi.best.has_value() || my_advertisement(p).better_than(*pi.best)) {
      set_port(p, PortRole::kDesignated);
    } else {
      set_port(p, PortRole::kBlocked);
    }
  }
}

void LearningSwitch::set_port(sim::PortId p, PortRole role) {
  PortInfo& pi = ports_[p];
  if (pi.role == role) return;
  pi.role = role;
  ++pi.state_generation;
  ++topology_changes_;
  mac_table_.clear();  // simplified topology-change flush
  ++memo_generation_;  // table flushed and port states about to move

  if (role == PortRole::kBlocked || role == PortRole::kDisabled) {
    pi.state = PortState::kBlocking;
    return;
  }
  // Root/designated ports walk listening -> learning -> forwarding, one
  // forward_delay per stage (the 2 x 15 s that dominates STP recovery).
  pi.state = PortState::kListening;
  const std::uint64_t generation = pi.state_generation;
  sim().after(config_.stp.forward_delay,
              [this, p, generation] { advance_state(p, generation); });
}

void LearningSwitch::advance_state(sim::PortId p, std::uint64_t generation) {
  PortInfo& pi = ports_[p];
  if (pi.state_generation != generation) return;  // role changed since
  if (pi.state == PortState::kListening) {
    pi.state = PortState::kLearning;
    ++memo_generation_;
    sim().after(config_.stp.forward_delay,
                [this, p, generation] { advance_state(p, generation); });
  } else if (pi.state == PortState::kLearning) {
    pi.state = PortState::kForwarding;
    ++memo_generation_;
  }
}

void LearningSwitch::handle_frame(sim::PortId in_port,
                                  const sim::FramePtr& frame) {
  const auto bytes = sim::frame_span(frame);
  if (config_.stp_enabled) {
    if (const auto bpdu = Bpdu::from_frame(bytes); bpdu.has_value()) {
      on_bpdu(in_port, *bpdu);
      return;
    }
  }
  forward_data(in_port, frame);
}

void LearningSwitch::forward_data(sim::PortId in_port,
                                  const sim::FramePtr& frame) {
  const PortInfo& in = ports_[in_port];
  if (config_.stp_enabled && in.state != PortState::kForwarding &&
      in.state != PortState::kLearning) {
    counters().add(Counter::drop_port_blocked);
    return;
  }

  // Parse just the Ethernet header (cheap) for learning + lookup.
  ByteReader r(sim::frame_span(frame));
  const net::EthernetHeader eth = net::EthernetHeader::deserialize(r);
  if (!r.ok()) {
    counters().add(Counter::rx_malformed);
    return;
  }

  // Memo fast path: a frame train repeats (in_port, src, dst) exactly,
  // and an unchanged generation proves the previous decision still
  // holds, so the repeat skips both hash lookups. The cached src entry
  // still gets its learning refresh — byte-for-byte what the slow path
  // would have done.
  if (memo_.generation == memo_generation_ && memo_.in_port == in_port &&
      memo_.src == eth.src && memo_.dst == eth.dst) {
    ++memo_hits_;
    memo_.src_entry->learned_at = sim().now();
    send(memo_.out_port, frame);
    return;
  }

  MacEntry* learned = nullptr;
  if (!eth.src.is_multicast() && !eth.src.is_zero() &&
      (in.state == PortState::kLearning ||
       in.state == PortState::kForwarding || !config_.stp_enabled)) {
    const auto [sit, inserted] = mac_table_.try_emplace(eth.src);
    // A host moving ports changes the answer for any flow toward it.
    if (!inserted && sit->second.port != in_port) ++memo_generation_;
    sit->second = MacEntry{in_port, sim().now()};
    learned = &sit->second;
  }

  if (config_.stp_enabled && in.state != PortState::kForwarding) {
    counters().add(Counter::drop_port_learning);
    return;
  }

  if (!eth.dst.is_multicast()) {
    const auto it = mac_table_.find(eth.dst);
    if (it != mac_table_.end()) {
      if (it->second.port != in_port &&
          ports_[it->second.port].state == PortState::kForwarding) {
        // Memoize only the forwarding outcome (drops are cheap anyway);
        // requires a learned src entry so the hit path can refresh it.
        if (learned != nullptr) {
          memo_ = FwdMemo{eth.src,          eth.dst, in_port,
                          it->second.port,  learned, memo_generation_};
        }
        send(it->second.port, frame);
      }
      return;
    }
  }

  // Broadcast, multicast, or unknown unicast: flood.
  ++floods_;
  counters().add(Counter::floods);
  for (sim::PortId p = 0; p < ports_.size(); ++p) {
    if (p == in_port) continue;
    if (config_.stp_enabled && ports_[p].state != PortState::kForwarding) {
      continue;
    }
    if (!port_connected(p)) continue;
    send(p, frame);
  }
}

void LearningSwitch::save_state(sim::SnapshotWriter& w) const {
  w.u32(static_cast<std::uint32_t>(ports_.size()));
  for (const PortInfo& pi : ports_) {
    w.u8(static_cast<std::uint8_t>(pi.role));
    w.u8(static_cast<std::uint8_t>(pi.state));
    w.u8(pi.best.has_value() ? 1 : 0);
    if (pi.best.has_value()) {
      w.u64(pi.best->root);
      w.u32(pi.best->root_cost);
      w.u64(pi.best->bridge);
      w.u16(pi.best->port);
      w.u32(pi.best->age_ms);
    }
    w.i64(pi.best_received_at);
    w.u64(pi.state_generation);
  }
  w.u64(root_);
  w.u32(root_cost_);
  w.u8(root_port_.has_value() ? 1 : 0);
  if (root_port_.has_value()) w.u64(*root_port_);

  // MAC table is unordered; sort for a deterministic image.
  std::vector<std::pair<MacAddress, MacEntry>> macs(mac_table_.begin(),
                                                    mac_table_.end());
  std::sort(macs.begin(), macs.end(), [](const auto& a, const auto& b) {
    return a.first.to_u64() < b.first.to_u64();
  });
  w.u32(static_cast<std::uint32_t>(macs.size()));
  for (const auto& [mac, entry] : macs) {
    w.u64(mac.to_u64());
    w.u64(entry.port);
    w.i64(entry.learned_at);
  }

  hello_timer_.save_state(w);
  age_timer_.save_state(w);
  w.u64(floods_);
  w.u64(topology_changes_);
  w.u64(memo_hits_);
}

void LearningSwitch::restore_state(sim::SnapshotReader& r) {
  const std::uint32_t n_ports = r.count();
  if (n_ports != ports_.size()) return;  // image/topology mismatch
  for (PortInfo& pi : ports_) {
    pi.role = static_cast<PortRole>(r.u8());
    pi.state = static_cast<PortState>(r.u8());
    if (r.u8() != 0) {
      Bpdu b;
      b.root = r.u64();
      b.root_cost = r.u32();
      b.bridge = r.u64();
      b.port = r.u16();
      b.age_ms = r.u32();
      pi.best = b;
    } else {
      pi.best.reset();
    }
    pi.best_received_at = r.i64();
    pi.state_generation = r.u64();
  }
  root_ = r.u64();
  root_cost_ = r.u32();
  if (r.u8() != 0) {
    root_port_ = static_cast<sim::PortId>(r.u64());
  } else {
    root_port_.reset();
  }

  mac_table_.clear();
  const std::uint32_t n_macs = r.count();
  mac_table_.reserve(n_macs);
  for (std::uint32_t i = 0; i < n_macs && r.ok(); ++i) {
    const MacAddress mac = MacAddress::from_u64(r.u64());
    MacEntry entry;
    entry.port = static_cast<sim::PortId>(r.u64());
    entry.learned_at = r.i64();
    mac_table_.emplace(mac, entry);
  }

  hello_timer_.restore_state(r);
  age_timer_.restore_state(r);
  floods_ = r.u64();
  topology_changes_ = r.u64();
  memo_hits_ = r.u64();

  // The memo caches a MacEntry* into the old table; invalidate it.
  memo_ = FwdMemo{};
  ++memo_generation_;
}

}  // namespace portland::l2
