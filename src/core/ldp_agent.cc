#include "core/ldp_agent.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>

#include "common/logging.h"
#include "sim/snapshot.h"

namespace portland::core {

namespace {

template <class Io>
void snapshot_locator(Io& io, SwitchLocator& loc) {
  io.field(loc.switch_id);
  io.template field<std::uint8_t>(loc.level);
  io.field(loc.pod);
  io.field(loc.position);
}

/// A port's record after its neighbour flag: the neighbour's locator when
/// it has one, then the liveness stamps and flags.
template <class Io>
void snapshot_port_record(Io& io, std::optional<SwitchLocator>& neighbor,
                          SimTime& last_ldm, SimTime& last_echo,
                          bool& host_seen, bool& reported_down,
                          bool& echo_lost) {
  if (neighbor.has_value()) snapshot_locator(io, *neighbor);
  io.field(last_ldm);
  io.field(last_echo);
  io.field(host_seen);
  io.field(reported_down);
  io.field(echo_lost);
}

/// Wire bytes of a port record after its flag, without and with a
/// neighbour locator (u64 id, u8 level, u16 pod, u8 position).
constexpr std::size_t kPortRecordBytes = 8 + 8 + 3;
constexpr std::size_t kLocatorBytes = 8 + 1 + 2 + 1;

/// Inserts `v` into the ascending vector `c` unless it is already there.
template <class T>
void insert_sorted(std::vector<T>& c, const T& v) {
  const auto it = std::lower_bound(c.begin(), c.end(), v);
  if (it == c.end() || *it != v) c.insert(it, v);
}

template <class T>
[[nodiscard]] bool contains_sorted(const std::vector<T>& c, const T& v) {
  return std::binary_search(c.begin(), c.end(), v);
}

/// The reservation slot for `pos` in the ascending owner table: the entry
/// itself, or where it would go.
auto owner_slot(std::vector<std::pair<std::uint8_t, SwitchId>>& owners,
                std::uint8_t pos) {
  return std::lower_bound(
      owners.begin(), owners.end(), pos,
      [](const auto& e, std::uint8_t p) { return e.first < p; });
}

/// Records `owner` as holding `pos`.
void set_owner(std::vector<std::pair<std::uint8_t, SwitchId>>& owners,
               std::uint8_t pos, SwitchId owner) {
  const auto it = owner_slot(owners, pos);
  if (it != owners.end() && it->first == pos) {
    it->second = owner;
  } else {
    owners.insert(it, {pos, owner});
  }
}

/// True when `c` is strictly ascending under `less`: a load refuses a
/// table that a sorted search could not use.
template <class C, class Less = std::less<>>
[[nodiscard]] bool strictly_ascending(const C& c, Less less = {}) {
  return std::adjacent_find(c.begin(), c.end(),
                            [&less](const auto& a, const auto& b) {
                              return !less(a, b);
                            }) == c.end();
}

}  // namespace

LdpAgent::LdpAgent(sim::Simulator& sim, SwitchId id, std::size_t num_ports,
                   const PortlandConfig& config, Hooks hooks, Rng rng)
    : sim_(&sim),
      config_(config),
      hooks_(std::move(hooks)),
      rng_(rng),
      num_ports_(num_ports),
      ports_(num_ports),
      position_timer_(sim),
      pod_timer_(sim),
      ldm_timer_(sim, config.ldm_period, [this] { send_ldms(); }),
      sweep_timer_(sim, config.ldm_period, [this] { liveness_sweep(); }) {
  self_.switch_id = id;
}

void LdpAgent::start() {
  // Stagger LDM phases across switches so the fabric does not synchronize.
  const SimDuration phase =
      static_cast<SimDuration>(rng_.next_below(
          static_cast<std::uint64_t>(config_.ldm_period)));
  ldm_timer_.start(phase);
  sweep_timer_.start(phase + config_.ldm_period / 2);
}

void LdpAgent::send_ldms() {
  LdpMessage m;
  m.type = LdpType::kLdm;
  m.from = self_;
  const SimTime now = sim_->now();
  for (sim::PortId p = 0; p < num_ports_; ++p) {
    m.sender_port = static_cast<std::uint16_t>(p);
    // Echo whom we last heard on this port (fresh only): the neighbor
    // uses this to confirm its transmit direction toward us works.
    const PortState& ps = ports_[p];
    m.heard_id = (ps.neighbor.has_value() &&
                  now - ps.last_ldm <= config_.neighbor_timeout)
                     ? ps.neighbor->switch_id
                     : kInvalidSwitchId;
    auto frame = m.to_frame();
    ldm_bytes_sent_ += frame.size();
    ++ldms_sent_;
    hooks_.send_frame(p, std::move(frame));
  }
}

void LdpAgent::liveness_sweep() {
  const SimTime now = sim_->now();
  for (sim::PortId p = 0; p < num_ports_; ++p) {
    PortState& ps = ports_[p];
    if (!ps.neighbor.has_value()) continue;
    if (now - ps.last_ldm > config_.neighbor_timeout) {
      // Failure detected: 5 consecutive LDMs missed (paper §3.6).
      expire_neighbor(p);
      continue;
    }
    // The neighbor is audible, but has it stopped hearing US? A stale
    // echo means our transmit direction died (unidirectional failure):
    // stop forwarding through the port and report the fault.
    if (!ps.echo_lost && now - ps.last_echo > config_.neighbor_timeout) {
      ps.echo_lost = true;
      ps.reported_down = true;
      invalidate_topology();
      hooks_.neighbor_event(p, ps.neighbor->switch_id, /*lost=*/true);
    }
  }
}

void LdpAgent::expire_neighbor(sim::PortId port) {
  PortState& ps = ports_[port];
  if (!ps.neighbor.has_value()) return;
  const SwitchId lost = ps.neighbor->switch_id;
  // Free any position reservation held by the lost edge.
  std::erase_if(position_owners_,
                [lost](const auto& e) { return e.second == lost; });
  ps.neighbor.reset();
  ps.last_echo = -1;
  ps.echo_lost = false;
  ps.reported_down = true;
  invalidate_topology();
  hooks_.neighbor_event(port, lost, /*lost=*/true);
}

void LdpAgent::handle_frame(sim::PortId port,
                            std::span<const std::uint8_t> bytes) {
  const auto msg = LdpMessage::from_frame(bytes);
  if (!msg.has_value()) return;
  PortState& ps = ports_[port];

  switch (msg->type) {
    case LdpType::kLdm: {
      ++ldms_received_;
      ps.last_ldm = sim_->now();
      ps.host_seen = false;  // LDMs mean a switch, not a host
      const bool is_new = !ps.neighbor.has_value();
      const bool changed = is_new || *ps.neighbor != msg->from;
      ps.neighbor = msg->from;
      if (is_new) {
        // Grace period: give the neighbor one timeout to start echoing us
        // before declaring the reverse direction dead.
        ps.last_echo = sim_->now();
      }
      if (msg->heard_id == self_.switch_id) {
        ps.last_echo = sim_->now();
        if (ps.echo_lost) {
          // Reverse direction healed.
          ps.echo_lost = false;
          ps.reported_down = false;
          invalidate_topology();
          hooks_.neighbor_event(port, msg->from.switch_id, /*lost=*/false);
        }
      }
      if (is_new && ps.reported_down) {
        ps.reported_down = false;
        hooks_.neighbor_event(port, msg->from.switch_id, /*lost=*/false);
      }
      if (changed) {
        invalidate_topology();
        maybe_infer_level();
        adopt_pod(msg->from);
        // Aggregation switches track confirmed edge positions from LDMs so
        // reservations survive agg restarts and proposals can be vetted.
        if (self_.level == Level::kAggregation &&
            msg->from.level == Level::kEdge &&
            msg->from.position != kUnknownPosition) {
          set_owner(position_owners_, msg->from.position,
                    msg->from.switch_id);
        }
        if (self_.level == Level::kEdge && !position_confirmed_) {
          // A new aggregation neighbor appeared mid-negotiation; restart so
          // its ack is included.
          start_position_negotiation();
        }
        hooks_.neighbor_event(port, msg->from.switch_id, /*lost=*/false);
      }
      break;
    }
    case LdpType::kProposePosition:
      handle_proposal(port, *msg);
      break;
    case LdpType::kPositionAck:
    case LdpType::kPositionNack:
      handle_vote(*msg);
      break;
  }
}

void LdpAgent::note_host_traffic(sim::PortId port) {
  PortState& ps = ports_[port];
  if (ps.neighbor.has_value()) return;  // it's a switch port
  if (!ps.host_seen) {
    ps.host_seen = true;
    invalidate_topology();
    if (self_.level == Level::kUnknown) {
      set_level(Level::kEdge);
      start_position_negotiation();
    }
  }
}

void LdpAgent::set_level(Level level) {
  if (self_.level == level) return;
  assert(self_.level == Level::kUnknown && "levels are sticky");
  self_.level = level;
  if (level == Level::kCore) {
    // Cores are fully located without pod/position.
  }
  invalidate_topology();
  hooks_.location_changed();
}

void LdpAgent::maybe_infer_level() {
  if (self_.level != Level::kUnknown) return;
  std::size_t agg_neighbors = 0;
  bool any_edge = false;
  bool any_host = false;
  for (const PortState& ps : ports_) {
    if (ps.host_seen) any_host = true;
    if (!ps.neighbor.has_value()) continue;
    if (ps.neighbor->level == Level::kEdge) any_edge = true;
    if (ps.neighbor->level == Level::kAggregation) ++agg_neighbors;
  }
  if (any_host) {
    set_level(Level::kEdge);
    start_position_negotiation();
    return;
  }
  if (any_edge) {
    set_level(Level::kAggregation);
    return;
  }
  // Core: aggregation neighbors on a strict majority of ports and nothing
  // below us. (An edge switch can have at most half its ports on
  // aggregation switches, so the majority rule cannot misfire.)
  if (agg_neighbors > num_ports_ / 2) {
    set_level(Level::kCore);
  }
}

void LdpAgent::adopt_pod(const SwitchLocator& nbr) {
  if (self_.pod != kUnknownPod) return;
  if (nbr.pod == kUnknownPod) return;
  // Pod numbers flow edge <-> aggregation within a pod; cores never adopt.
  const bool adopt =
      (self_.level == Level::kEdge && nbr.level == Level::kAggregation) ||
      (self_.level == Level::kAggregation && nbr.level == Level::kEdge);
  if (!adopt) return;
  self_.pod = nbr.pod;
  hooks_.location_changed();
  maybe_request_pod();
}

// ---------------------------------------------------------------------------
// Position negotiation (edge side)
// ---------------------------------------------------------------------------

void LdpAgent::start_position_negotiation() {
  if (position_confirmed_ || self_.level != Level::kEdge) return;
  propose_position();
}

void LdpAgent::propose_position() {
  if (position_confirmed_) return;

  // Pick a candidate position not yet nacked; when everything was nacked,
  // clear and retry (reservations expire as edges die).
  if (positions_nacked_.size() >= half()) positions_nacked_.clear();
  if (proposed_position_ == kUnknownPosition ||
      contains_sorted(positions_nacked_, proposed_position_)) {
    std::vector<std::uint8_t> candidates;
    for (std::size_t pos = 0; pos < half(); ++pos) {
      const auto p = static_cast<std::uint8_t>(pos);
      if (!contains_sorted(positions_nacked_, p)) candidates.push_back(p);
    }
    assert(!candidates.empty());
    proposed_position_ =
        candidates[rng_.next_below(candidates.size())];
  }
  proposal_nonce_ = static_cast<std::uint32_t>(rng_.next());
  proposal_pending_.clear();

  LdpMessage m;
  m.type = LdpType::kProposePosition;
  m.from = self_;
  m.position = proposed_position_;
  m.nonce = proposal_nonce_;
  for (sim::PortId p = 0; p < num_ports_; ++p) {
    const PortState& ps = ports_[p];
    if (!ps.neighbor.has_value()) continue;
    // Proposals go to every switch neighbor; only aggregation switches of
    // our pod answer them. (Before levels settle we may not know which
    // neighbors are aggs yet.)
    insert_sorted(proposal_pending_, ps.neighbor->switch_id);
    m.sender_port = static_cast<std::uint16_t>(p);
    hooks_.send_frame(p, m.to_frame());
  }

  // Retry until confirmed (handles losses and late-arriving aggs).
  position_timer_.schedule_after(
      config_.position_retry +
          static_cast<SimDuration>(
              rng_.next_below(static_cast<std::uint64_t>(config_.position_retry))),
      [this] { propose_position(); });
}

void LdpAgent::handle_proposal(sim::PortId port, const LdpMessage& m) {
  // Aggregation side: grant if free or already owned by this same edge.
  if (self_.level == Level::kEdge) return;  // edges never arbitrate
  const SwitchId proposer = m.from.switch_id;
  const std::uint8_t pos = m.position;

  bool grant;
  const auto it = owner_slot(position_owners_, pos);
  if (it == position_owners_.end() || it->first != pos ||
      it->second == proposer) {
    grant = true;
    // One reservation per edge: drop any other position it held.
    std::erase_if(position_owners_, [proposer, pos](const auto& e) {
      return e.second == proposer && e.first != pos;
    });
    set_owner(position_owners_, pos, proposer);
  } else {
    grant = false;
  }

  LdpMessage reply;
  reply.type = grant ? LdpType::kPositionAck : LdpType::kPositionNack;
  reply.from = self_;
  reply.sender_port = static_cast<std::uint16_t>(port);
  reply.position = pos;
  reply.nonce = m.nonce;
  hooks_.send_frame(port, reply.to_frame());
}

void LdpAgent::handle_vote(const LdpMessage& m) {
  if (position_confirmed_ || self_.level != Level::kEdge) return;
  if (m.nonce != proposal_nonce_ || m.position != proposed_position_) return;

  if (m.type == LdpType::kPositionNack) {
    insert_sorted(positions_nacked_, proposed_position_);
    proposed_position_ = kUnknownPosition;
    // Re-propose after a randomized delay to break ties with the edge that
    // beat us to the slot.
    position_timer_.schedule_after(
        static_cast<SimDuration>(rng_.next_below(
            static_cast<std::uint64_t>(config_.position_retry))),
        [this] { propose_position(); });
    return;
  }

  std::erase(proposal_pending_, m.from.switch_id);
  if (proposal_pending_.empty()) {
    position_confirmed_ = true;
    position_timer_.cancel();
    self_.position = proposed_position_;
    hooks_.location_changed();
    maybe_request_pod();
  }
}

// ---------------------------------------------------------------------------
// Pod acquisition
// ---------------------------------------------------------------------------

void LdpAgent::maybe_request_pod() {
  // The edge switch that won position 0 asks the fabric manager for a pod
  // number on behalf of its pod (paper §3.4).
  if (self_.pod != kUnknownPod) {
    pod_timer_.cancel();
    return;
  }
  if (self_.level != Level::kEdge || !position_confirmed_ ||
      self_.position != 0) {
    return;
  }
  pod_requested_ = true;
  hooks_.send_to_fm(PodRequest{});
  pod_timer_.schedule_after(config_.pod_request_retry,
                            [this] { maybe_request_pod(); });
}

void LdpAgent::handle_pod_assignment(std::uint16_t pod) {
  if (self_.pod == pod) return;
  if (self_.pod != kUnknownPod) return;  // pods are sticky
  self_.pod = pod;
  pod_timer_.cancel();
  hooks_.location_changed();
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

std::optional<SwitchLocator> LdpAgent::neighbor(sim::PortId port) const {
  return port < ports_.size() ? ports_[port].neighbor : std::nullopt;
}

bool LdpAgent::port_bidirectional(sim::PortId port) const {
  if (port >= ports_.size()) return false;
  const PortState& ps = ports_[port];
  return ps.neighbor.has_value() && !ps.echo_lost;
}

bool LdpAgent::is_host_port(sim::PortId port) const {
  return port < ports_.size() && ports_[port].host_seen &&
         !ports_[port].neighbor.has_value();
}

void LdpAgent::invalidate_topology() {
  ++topology_generation_;
  port_caches_dirty_ = true;
}

void LdpAgent::rebuild_port_caches() const {
  ++port_cache_rebuilds_;
  port_caches_dirty_ = false;
  up_cache_.clear();
  down_cache_.clear();

  const Level above = self_.level == Level::kEdge ? Level::kAggregation
                      : self_.level == Level::kAggregation ? Level::kCore
                                                           : Level::kUnknown;
  for (sim::PortId p = 0; p < ports_.size(); ++p) {
    const PortState& ps = ports_[p];
    if (above != Level::kUnknown && ps.neighbor.has_value() &&
        !ps.echo_lost && ps.neighbor->level == above) {
      up_cache_.push_back(p);
    }
    switch (self_.level) {
      case Level::kEdge:
        if (ps.host_seen && !ps.neighbor.has_value()) down_cache_.push_back(p);
        break;
      case Level::kAggregation:
        if (ps.neighbor.has_value() && !ps.echo_lost &&
            ps.neighbor->level == Level::kEdge) {
          down_cache_.push_back(p);
        }
        break;
      case Level::kCore:
        if (ps.neighbor.has_value() && !ps.echo_lost &&
            ps.neighbor->level == Level::kAggregation) {
          down_cache_.push_back(p);
        }
        break;
      case Level::kUnknown:
        break;
    }
  }
}

const std::vector<sim::PortId>& LdpAgent::up_ports() const {
  if (port_caches_dirty_) rebuild_port_caches();
  return up_cache_;
}

const std::vector<sim::PortId>& LdpAgent::down_ports() const {
  if (port_caches_dirty_) rebuild_port_caches();
  return down_cache_;
}

void LdpAgent::snapshot(sim::SnapshotIo& io) {
  snapshot_locator(io, self_);
  auto rng = rng_.state();
  for (std::uint64_t& word : rng) io.field(word);
  if (io.loading()) rng_.set_state(rng);

  if (!io.expect<std::uint32_t>(ports_.size())) return;  // another topology
  for (PortState& ps : ports_) {
    bool has_neighbor = ps.neighbor.has_value();
    if (!io.loading()) {
      io.field(has_neighbor);
      snapshot_port_record(io, ps.neighbor, ps.last_ldm, ps.last_echo,
                           ps.host_seen, ps.reported_down, ps.echo_lost);
      continue;
    }
    // A load takes the flag and the record behind it as one bounded view,
    // then reads the record's fixed-width fields unchecked.
    sim::SnapshotReader& r = io.reader();
    has_neighbor = r.peek_u8() != 0;
    sim::RecordReader rec(r.bytes_view(
        1 + kPortRecordBytes + (has_neighbor ? kLocatorBytes : 0)));
    if (!r.ok()) return;
    rec.skip(1);
    if (has_neighbor) {
      ps.neighbor.emplace();
    } else {
      ps.neighbor.reset();
    }
    snapshot_port_record(rec, ps.neighbor, ps.last_ldm, ps.last_echo,
                         ps.host_seen, ps.reported_down, ps.echo_lost);
  }

  io.field(topology_generation_);
  io.field(port_cache_rebuilds_);
  if (io.loading()) port_caches_dirty_ = true;  // pure caches: rebuilt lazily

  io.field(position_confirmed_);
  io.field(proposed_position_);
  io.field(proposal_nonce_);
  io.list(proposal_pending_);
  io.list(positions_nacked_);
  position_timer_.snapshot(io, [this] { propose_position(); });
  io.list(position_owners_, [&io](std::pair<std::uint8_t, SwitchId>& e) {
    io.field(e.first);
    io.field(e.second);
  });
  if (io.loading() &&
      !(strictly_ascending(proposal_pending_) &&
        strictly_ascending(positions_nacked_) &&
        strictly_ascending(position_owners_,
                           [](const auto& a, const auto& b) {
                             return a.first < b.first;
                           }))) {
    io.fail();
  }

  io.field(pod_requested_);
  pod_timer_.snapshot(io, [this] { maybe_request_pod(); });
  ldm_timer_.snapshot(io);
  sweep_timer_.snapshot(io);

  io.field(ldms_sent_);
  io.field(ldms_received_);
  io.field(ldm_bytes_sent_);
}

std::vector<NeighborEntry> LdpAgent::neighbor_entries() const {
  std::vector<NeighborEntry> out;
  for (sim::PortId p = 0; p < ports_.size(); ++p) {
    if (!ports_[p].neighbor.has_value()) continue;
    out.push_back(
        NeighborEntry{static_cast<std::uint16_t>(p), *ports_[p].neighbor});
  }
  return out;
}

}  // namespace portland::core
