#include "core/portland_switch.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "common/memsize.h"
#include "net/igmp.h"
#include "obs/convergence_monitor.h"
#include "obs/flight_recorder.h"
#include "sim/snapshot.h"

namespace portland::core {

using net::ArpMessage;
using net::ArpOp;
using net::ParsedFrame;

PortlandSwitch::PortlandSwitch(sim::Simulator& sim, std::string name,
                               SwitchId id, std::size_t num_ports,
                               ControlPlane& control, PortlandConfig config,
                               Rng rng)
    : Device(sim, std::move(name)),
      id_(id),
      control_(&control),
      config_(config),
      rng_(rng),
      ldp_(sim, id, num_ports, config,
           LdpAgent::Hooks{
               [this](sim::PortId p, std::vector<std::uint8_t> bytes) {
                 send(p, sim::make_frame(std::move(bytes)));
               },
               [this](ControlBody body) { send_to_fm(std::move(body)); },
               [this] { on_location_changed(); },
               [this](sim::PortId p, SwitchId n, bool lost) {
                 on_neighbor_event(p, n, lost);
               },
           },
           rng.fork()),
      hello_timer_(sim),
      hello_periodic_(sim, config.hello_interval, [this] { send_hello(); }),
      refresh_periodic_(sim, config.host_reregister_interval,
                        [this] { send_soft_state_refresh(); }) {
  add_ports(num_ports);
  next_vmid_.assign(num_ports, 0);
  // An edge's hosts hang off its down ports (at most half the radix);
  // the hint is applied lazily, so non-edge switches never allocate.
  host_table_.reserve(std::max<std::size_t>(1, num_ports / 2));
}

void PortlandSwitch::drop(obs::DropReason reason, const sim::FramePtr& frame,
                          sim::PortId port) {
  counters().add(obs::drop_counter(reason));
  if (flight_recorder() != nullptr) record_drop(reason, frame, port);
}

// Note: the destructor intentionally does not touch the control plane —
// teardown order between the Network (which owns switches) and the
// ControlPlane is owned by the fabric builder, and no events run during
// destruction.
PortlandSwitch::~PortlandSwitch() = default;

void PortlandSwitch::start() {
  control_->register_endpoint(
      id_, [this](const ControlMessage& m) { on_control(m); });
  ldp_.start();
  const SimDuration phase = static_cast<SimDuration>(
      rng_.next_below(static_cast<std::uint64_t>(config_.hello_interval)));
  hello_periodic_.start(phase);
  const SimDuration refresh_phase = static_cast<SimDuration>(rng_.next_below(
      static_cast<std::uint64_t>(config_.host_reregister_interval)));
  refresh_periodic_.start(refresh_phase);
  schedule_hello();
}

void PortlandSwitch::send_soft_state_refresh() {
  // Host registrations (edge switches). A refresh with an unchanged PMAC
  // is a no-op at the FM unless it lost its state. Iteration is ascending
  // by AMAC in both table builds — the message order is part of the
  // deterministic event stream.
  host_table_.for_each([this](const HostEntry& entry) {
    if (entry.ip.is_zero()) return;
    send_to_fm(HostRegister{entry.ip, entry.amac, entry.pmac.to_mac(),
                            static_cast<std::uint16_t>(entry.port)});
  });
  // Multicast membership and sender grafts.
  for (const auto& [group, ports] : local_members_) {
    ports.for_each([&](std::size_t p) {
      send_to_fm(McastJoin{group, static_cast<std::uint16_t>(p)});
    });
  }
  for (const Ipv4Address group : mcast_sender_reported_) {
    send_to_fm(McastSenderSeen{group});
  }
  // Outstanding faults: the FM's fault matrix is soft state too.
  for (const PortFault& fault : reported_down_) {
    send_to_fm(FaultNotify{static_cast<std::uint16_t>(fault.port),
                           fault.neighbor, /*link_up=*/false});
  }
}

void PortlandSwitch::handle_link_status(sim::PortId port, bool up) {
  if (config_.fast_link_detection && !up) {
    ldp_.expire_neighbor(port);
  }
}

// ---------------------------------------------------------------------------
// Ingress dispatch
// ---------------------------------------------------------------------------

void PortlandSwitch::handle_frame(sim::PortId in_port,
                                  const sim::FramePtr& frame) {
  const auto bytes = sim::frame_span(frame);
  // LDP control frames are spotted with a raw EtherType peek so the very
  // frequent LDMs never pay for (or pollute) the parse-metadata cache.
  if (bytes.size() >= net::EthernetHeader::kSize &&
      (static_cast<std::uint16_t>(bytes[12]) << 8 | bytes[13]) ==
          net::to_u16(net::EtherType::kLdp)) {
    ldp_.handle_frame(in_port, bytes);
    return;
  }

  // Parse-once: the first switch on the path parses and attaches the
  // summary to the frame; every later hop reads it back for free.
  const ParsedFrame& parsed = net::parsed_of(frame);

  const bool host_port = !ldp_.has_neighbor(in_port);
  if (host_port) ldp_.note_host_traffic(in_port);

  if (flight_recorder() != nullptr) {
    record_hop(obs::HopEvent::kIngress, frame, in_port, frame->size(),
               static_cast<std::uint8_t>(locator().level));
  }

  if (!parsed.valid) {
    drop(obs::DropReason::kMalformed, frame, in_port);
    return;
  }
  if (!ldp_.self().located()) {
    // Cannot assign PMACs or route before discovery completes. Hosts
    // retry (ARP), so early frames are safely dropped.
    drop(obs::DropReason::kBeforeLocated, frame, in_port);
    return;
  }

  if (host_port) {
    // Data on a neighbor-less port of a non-edge switch can only be
    // transient misdelivery during convergence; never treat it as a host.
    if (ldp_.self().level != Level::kEdge) {
      drop(obs::DropReason::kDataOnFabricPort, frame, in_port);
      return;
    }
    handle_host_ingress(in_port, parsed, frame);
  } else {
    handle_fabric_ingress(in_port, parsed, frame);
  }
}

void PortlandSwitch::handle_host_ingress(sim::PortId port,
                                         const ParsedFrame& parsed,
                                         const sim::FramePtr& frame) {
  Ipv4Address ip_hint;
  if (parsed.arp.has_value()) {
    ip_hint = parsed.arp->sender_ip;
  } else if (parsed.ipv4.has_value()) {
    ip_hint = parsed.ipv4->src;
  }
  HostEntry* host = ensure_host(port, parsed.eth.src, ip_hint);
  if (host == nullptr) {
    drop(obs::DropReason::kBadHostSrc, frame, port);
    return;
  }

  if (parsed.arp.has_value()) {
    handle_host_arp(port, parsed, frame);
    return;
  }

  if (parsed.ipv4.has_value() &&
      parsed.ipv4->protocol == net::kProtocolIgmp) {
    const auto igmp = net::IgmpMessage::deserialize(parsed.payload);
    if (!igmp.has_value()) {
      drop(obs::DropReason::kMalformed, frame, port);
      return;
    }
    if (igmp->type == net::IgmpType::kMembershipReport) {
      local_members_[igmp->group].insert(port);
      send_to_fm(McastJoin{igmp->group, static_cast<std::uint16_t>(port)});
    } else {
      auto it = local_members_.find(igmp->group);
      if (it != local_members_.end()) {
        it->second.erase(port);
        if (it->second.empty()) local_members_.erase(it);
      }
      send_to_fm(McastLeave{igmp->group, static_cast<std::uint16_t>(port)});
    }
    return;  // IGMP is consumed by the edge, never forwarded
  }

  // Ingress rewrite: the host's AMAC becomes its PMAC fabric-wide (§3.2).
  net::FrameRewrite rw;
  rw.eth_src = host->pmac.to_mac();
  const auto rewritten = net::rewrite_frame(frame, rw);
  if (flight_recorder() != nullptr) {
    record_hop(obs::HopEvent::kIngressRewrite, rewritten, port,
               host->pmac.to_mac().to_u64());
  }

  if (parsed.eth.dst.is_broadcast()) {
    counters().add(Counter::host_broadcasts);
    forward_broadcast(port, /*from_host=*/true, /*from_above=*/false,
                      rewritten);
    return;
  }
  if (parsed.eth.dst.is_multicast()) {
    forward_multicast(port, /*from_host=*/true, parsed, rewritten);
    return;
  }
  // The rewritten frame's parse, not the host's: a migration trap on this
  // same edge must correct the sender's PMAC, not its AMAC (§3.7).
  forward_unicast(port, parsed.eth.dst, net::parsed_of(rewritten), rewritten,
                  /*redirect_depth=*/0);
}

void PortlandSwitch::handle_fabric_ingress(sim::PortId port,
                                           const ParsedFrame& parsed,
                                           const sim::FramePtr& frame) {
  const auto nbr = ldp_.neighbor(port);
  const bool from_above =
      nbr.has_value() && static_cast<int>(nbr->level) >
                             static_cast<int>(ldp_.self().level);

  if (parsed.eth.dst.is_broadcast()) {
    forward_broadcast(port, /*from_host=*/false, from_above, frame);
    return;
  }
  if (parsed.eth.dst.is_multicast()) {
    forward_multicast(port, /*from_host=*/false, parsed, frame);
    return;
  }
  forward_unicast(port, parsed.eth.dst, parsed, frame, /*redirect_depth=*/0);
}

// ---------------------------------------------------------------------------
// Unicast forwarding
// ---------------------------------------------------------------------------

const PortlandSwitch::Fib& PortlandSwitch::fib() const {
  if (fib_.ldp_gen != ldp_.topology_generation() ||
      fib_.prune_gen != prune_generation_) {
    rebuild_fib();
  }
  return fib_;
}

void PortlandSwitch::rebuild_fib() const {
  ++fib_rebuilds_;
  fib_.ldp_gen = ldp_.topology_generation();
  fib_.prune_gen = prune_generation_;
  fib_.base_up = ldp_.up_ports();
  fib_.pruned_up.clear();
  fib_.down_by_position.clear();
  fib_.down_by_pod.clear();

  // One prune-applied candidate array per installed destination key. Fine
  // (pod, position) entries fold in the pod-wide coarse set so lookups
  // never merge sets per packet. prunes_ iterates in (pod, position)
  // order, so the flat table comes out sorted by its u32 key.
  fib_.pruned_up.reserve(prunes_.size());
  for (const auto& [key, avoid] : prunes_) {
    const std::set<SwitchId>* coarse = nullptr;
    if (key.position != kUnknownPosition) {
      const auto cit = prunes_.find(DstKey{key.pod, kUnknownPosition});
      if (cit != prunes_.end()) coarse = &cit->second;
    }
    std::vector<sim::PortId> candidates;
    candidates.reserve(fib_.base_up.size());
    for (const sim::PortId p : fib_.base_up) {
      const auto nbr = ldp_.neighbor(p);
      if (!nbr.has_value()) continue;
      if (avoid.count(nbr->switch_id) != 0) continue;
      if (coarse != nullptr && coarse->count(nbr->switch_id) != 0) continue;
      candidates.push_back(p);
    }
    fib_.pruned_up.push_back(PrunedRoute{dst_key_u32(key.pod, key.position),
                                         std::move(candidates)});
  }

  // Down-path indexes: aggregation forwards by the PMAC's position field,
  // cores by its pod field — both O(1) array loads instead of a neighbor
  // scan per packet.
  for (const sim::PortId p : ldp_.down_ports()) {
    const auto nbr = ldp_.neighbor(p);
    if (!nbr.has_value()) continue;
    if (nbr->position != kUnknownPosition) {
      if (fib_.down_by_position.size() <= nbr->position) {
        fib_.down_by_position.resize(nbr->position + 1, -1);
      }
      fib_.down_by_position[nbr->position] = static_cast<std::int32_t>(p);
    }
    if (nbr->pod != kUnknownPod) {
      if (fib_.down_by_pod.size() <= nbr->pod) {
        fib_.down_by_pod.resize(nbr->pod + 1, -1);
      }
      fib_.down_by_pod[nbr->pod] = static_cast<std::int32_t>(p);
    }
  }
}

std::optional<sim::PortId> PortlandSwitch::pick_up_port(
    const ParsedFrame& parsed, const sim::FramePtr& frame,
    std::uint16_t dst_pod, std::uint8_t dst_position) const {
  const Fib& fib = this->fib();
  const std::vector<sim::PortId>* candidates = &fib.base_up;
  if (!fib.pruned_up.empty()) {
    // Fine (pod, position) entry first, then the pod-wide coarse entry —
    // both binary searches over the sorted flat table.
    const auto find_route = [&fib](std::uint32_t k) {
      const auto it = std::lower_bound(
          fib.pruned_up.begin(), fib.pruned_up.end(), k,
          [](const PrunedRoute& r, std::uint32_t key) { return r.key < key; });
      return (it != fib.pruned_up.end() && it->key == k) ? &it->ports
                                                         : nullptr;
    };
    if (const auto* fine = find_route(dst_key_u32(dst_pod, dst_position))) {
      candidates = fine;
    } else if (const auto* coarse =
                   find_route(dst_key_u32(dst_pod, kUnknownPosition))) {
      candidates = coarse;
    }
  }
  if (candidates->empty()) return std::nullopt;

  // Flow-level ECMP: all packets of a flow hash to one uplink (§3.5); the
  // hash was precomputed at parse time. The kPacketSpray ablation instead
  // round-robins per packet — best instantaneous balance, but it reorders
  // flows, and E11 measures what that does to TCP.
  const std::uint64_t pick =
      config_.ecmp_mode == PortlandConfig::EcmpMode::kPacketSpray
          ? spray_counter_++
          : parsed.flow_hash;
  const sim::PortId port = (*candidates)[pick % candidates->size()];
  if (flight_recorder() != nullptr) {
    record_hop(obs::HopEvent::kEcmpChoice, frame, port, candidates->size());
  }
  return port;
}

void PortlandSwitch::forward_unicast(sim::PortId in_port, MacAddress dst,
                                     const ParsedFrame& parsed,
                                     const sim::FramePtr& frame,
                                     int redirect_depth) {
  const Pmac pmac = Pmac::from_mac(dst);
  const SwitchLocator& self = ldp_.self();

  switch (self.level) {
    case Level::kEdge: {
      if (pmac.pod == self.pod && pmac.position == self.position) {
        if (const HostEntry* entry = host_table_.find_pmac(dst)) {
          deliver_to_local_host(*entry, parsed, frame);
          return;
        }
        // Migration trap (§3.7): the host this PMAC referred to has moved.
        const auto rit = redirects_.find(dst);
        if (rit != redirects_.end() && redirect_depth == 0) {
          counters().add(Counter::migration_redirects);
          const MacAddress new_pmac = rit->second.new_pmac;
          send_garp_to_sender(dst, parsed.eth.src);
          net::FrameRewrite rw;
          rw.eth_dst = new_pmac;
          const auto rewritten = net::rewrite_frame(frame, rw);
          forward_unicast(in_port, new_pmac, net::parsed_of(rewritten),
                          rewritten, redirect_depth + 1);
          return;
        }
        drop(obs::DropReason::kUnknownLocalDst, frame, in_port);
        return;
      }
      const auto up = pick_up_port(parsed, frame, pmac.pod, pmac.position);
      if (!up.has_value()) {
        drop(obs::DropReason::kNoUplink, frame, in_port);
        return;
      }
      send(*up, frame);
      return;
    }
    case Level::kAggregation: {
      if (pmac.pod == self.pod) {
        // Down to the edge at `position` (unique path below us): O(1)
        // index load from the FIB.
        const Fib& fib = this->fib();
        const std::int32_t p =
            pmac.position < fib.down_by_position.size()
                ? fib.down_by_position[pmac.position]
                : -1;
        if (p >= 0) {
          if (flight_recorder() != nullptr) {
            record_hop(obs::HopEvent::kFibLookup, frame,
                       static_cast<sim::PortId>(p), pmac.position);
          }
          send(static_cast<sim::PortId>(p), frame);
          return;
        }
        drop(obs::DropReason::kNoDownlink, frame, in_port);
        return;
      }
      const auto up = pick_up_port(parsed, frame, pmac.pod, pmac.position);
      if (!up.has_value()) {
        drop(obs::DropReason::kNoUplink, frame, in_port);
        return;
      }
      send(*up, frame);
      return;
    }
    case Level::kCore: {
      const Fib& fib = this->fib();
      const std::int32_t p =
          pmac.pod < fib.down_by_pod.size() ? fib.down_by_pod[pmac.pod] : -1;
      if (p >= 0) {
        if (flight_recorder() != nullptr) {
          record_hop(obs::HopEvent::kFibLookup, frame,
                     static_cast<sim::PortId>(p), pmac.pod);
        }
        send(static_cast<sim::PortId>(p), frame);
        return;
      }
      drop(obs::DropReason::kNoPodPort, frame, in_port);
      return;
    }
    case Level::kUnknown:
      drop(obs::DropReason::kUnlocated, frame, in_port);
      return;
  }
}

void PortlandSwitch::deliver_to_local_host(const HostEntry& entry,
                                           const ParsedFrame& parsed,
                                           const sim::FramePtr& frame) {
  // Egress rewrite: PMAC back to the host's actual MAC (§3.2) — a single
  // buffer copy even when the ARP target MAC needs patching too.
  net::FrameRewrite rw;
  rw.eth_dst = entry.amac;
  if (parsed.arp.has_value()) rw.arp_target_mac = entry.amac;
  const auto rewritten = net::rewrite_frame(frame, rw);
  if (flight_recorder() != nullptr) {
    record_hop(obs::HopEvent::kEgressRewrite, rewritten, entry.port,
               entry.amac.to_u64());
  }
  send(entry.port, rewritten);
}

// ---------------------------------------------------------------------------
// Broadcast (loop-free, core-rooted; used only as ARP-miss fallback and for
// any residual host broadcast traffic)
// ---------------------------------------------------------------------------

std::optional<sim::PortId> PortlandSwitch::designated_up_port() const {
  const std::vector<sim::PortId>& ups = ldp_.up_ports();
  if (ups.empty()) return std::nullopt;
  return ups.front();  // lowest alive uplink
}

void PortlandSwitch::forward_broadcast(sim::PortId in_port, bool from_host,
                                       bool from_above,
                                       const sim::FramePtr& frame) {
  const SwitchLocator& self = ldp_.self();
  switch (self.level) {
    case Level::kEdge:
      if (from_host) {
        for (const sim::PortId p : ldp_.down_ports()) {
          if (p != in_port) send(p, frame);
        }
        if (const auto up = designated_up_port(); up.has_value()) {
          send(*up, frame);
        }
      } else if (from_above) {
        for (const sim::PortId p : ldp_.down_ports()) send(p, frame);
      }
      return;
    case Level::kAggregation:
      if (from_above) {
        for (const sim::PortId p : ldp_.down_ports()) send(p, frame);
      } else {
        if (const auto up = designated_up_port(); up.has_value()) {
          send(*up, frame);
        }
        for (const sim::PortId p : ldp_.down_ports()) {
          if (p != in_port) send(p, frame);
        }
      }
      return;
    case Level::kCore:
      for (const sim::PortId p : ldp_.down_ports()) {
        if (p != in_port) send(p, frame);
      }
      return;
    case Level::kUnknown:
      drop(obs::DropReason::kUnlocated, frame, in_port);
      return;
  }
}

// ---------------------------------------------------------------------------
// Multicast
// ---------------------------------------------------------------------------

void PortlandSwitch::forward_multicast(sim::PortId in_port, bool from_host,
                                       const ParsedFrame& parsed,
                                       const sim::FramePtr& frame) {
  if (!parsed.ipv4.has_value()) {
    drop(obs::DropReason::kMcastNoIp, frame, in_port);
    return;
  }
  const Ipv4Address group = parsed.ipv4->dst;
  const auto it = mcast_ports_.find(group);
  if (it == mcast_ports_.end()) {
    if (from_host && ldp_.self().level == Level::kEdge) {
      // First transmission from a local sender: ask the FM to graft us
      // into the group's tree. Packets drop until the install lands.
      if (mcast_sender_reported_.insert(group).second) {
        send_to_fm(McastSenderSeen{group});
      }
    }
    drop(obs::DropReason::kMcastNoEntry, frame, in_port);
    return;
  }
  it->second.for_each([&](std::size_t p) {
    if (p != in_port) send(static_cast<sim::PortId>(p), frame);
  });
}

// ---------------------------------------------------------------------------
// Proxy ARP (§3.3)
// ---------------------------------------------------------------------------

void PortlandSwitch::handle_host_arp(sim::PortId port,
                                     const ParsedFrame& parsed,
                                     const sim::FramePtr& frame) {
  const ArpMessage& arp = *parsed.arp;
  // ensure_host ran in handle_host_ingress, so the entry exists.
  const HostEntry& host = *host_table_.find_amac(parsed.eth.src);

  if (arp.is_gratuitous()) {
    // Boot/migration announcement: registration already refreshed by
    // ensure_host; PortLand never floods it (§3.3, §3.7).
    counters().add(Counter::garp_consumed);
    return;
  }

  if (arp.op == ArpOp::kRequest) {
    counters().add(Counter::arp_requests_intercepted);
    if (config_.arp_coalescing) {
      // Bounded negative cache: a recent FM "not found" for this target
      // answers locally with the same fallback the miss itself took, so
      // a retrying host costs the FM one query per TTL per edge.
      if (negative_arp_fresh(arp.target_ip)) {
        counters().add(Counter::arp_negative_hits);
        net::FrameRewrite rw;
        rw.eth_src = host.pmac.to_mac();
        rw.arp_sender_mac = host.pmac.to_mac();
        forward_broadcast(port, /*from_host=*/true, /*from_above=*/false,
                          net::rewrite_frame(frame, rw));
        return;
      }
      // Coalescer: a duplicate in-flight resolution rides the existing FM
      // query; the single answer fans out to every waiter.
      if (const auto in_flight = pending_query_for(arp.target_ip)) {
        counters().add(Counter::arp_coalesced);
        pending_arps_[*in_flight].waiters.push_back(
            ArpWaiter{port, arp.sender_mac, host.pmac.to_mac(), arp.sender_ip,
                      frame});
        return;
      }
    }
    const std::uint32_t query_id = next_query_id_++;
    PendingArp pending;
    pending.host_port = port;
    pending.requester_amac = arp.sender_mac;
    pending.requester_pmac = host.pmac.to_mac();
    pending.requester_ip = arp.sender_ip;
    pending.target = arp.target_ip;
    pending.original = frame;
    pending.timer = std::make_unique<sim::Timer>(sim());
    pending.timer->schedule_after(config_.arp_query_timeout, [this, query_id] {
      flood_arp_fallback(query_id);
    });
    pending_arps_.emplace(query_id, std::move(pending));
    const auto key = std::make_pair(arp.target_ip.value(), query_id);
    pending_by_target_.insert(
        std::lower_bound(pending_by_target_.begin(), pending_by_target_.end(),
                         key),
        key);
    send_to_fm(ArpQuery{query_id, arp.target_ip});
    return;
  }

  // Unicast ARP reply from a host (answering a broadcast-fallback
  // request): rewrite the sender's AMAC to its PMAC in both the Ethernet
  // and ARP headers, then forward like any unicast frame.
  net::FrameRewrite rw;
  rw.eth_src = host.pmac.to_mac();
  rw.arp_sender_mac = host.pmac.to_mac();
  const auto rewritten = net::rewrite_frame(frame, rw);
  forward_unicast(port, parsed.eth.dst, net::parsed_of(rewritten), rewritten,
                  /*redirect_depth=*/0);
}

void PortlandSwitch::on_arp_response(const ArpResponse& m) {
  const auto it = pending_arps_.find(m.query_id);
  if (it == pending_arps_.end()) return;  // timed out already
  PendingArp pending = std::move(it->second);
  pending_arps_.erase(it);
  unindex_pending_target(pending.target, m.query_id);
  pending.timer->cancel();

  if (!m.found) {
    // Fabric-manager miss: fall back to a loop-free broadcast of the
    // original request so the owner can answer directly, and remember the
    // miss so immediate retries stay off the FM.
    counters().add(Counter::arp_fallback_broadcasts);
    broadcast_pending_arp(pending);
    note_negative_arp(pending.target);
    return;
  }

  counters().add(Counter::arp_proxied_replies);
  const ArpMessage reply = ArpMessage::reply(
      m.pmac, m.ip, pending.requester_amac, pending.requester_ip);
  send(pending.host_port,
       sim::make_frame(net::build_arp_frame(pending.requester_amac,
                                            m.pmac, reply)));
  for (const ArpWaiter& waiter : pending.waiters) {
    counters().add(Counter::arp_proxied_replies);
    const ArpMessage fanned =
        ArpMessage::reply(m.pmac, m.ip, waiter.amac, waiter.ip);
    send(waiter.host_port,
         sim::make_frame(net::build_arp_frame(waiter.amac, m.pmac, fanned)));
  }
}

void PortlandSwitch::flood_arp_fallback(std::uint32_t query_id) {
  const auto it = pending_arps_.find(query_id);
  if (it == pending_arps_.end()) return;
  counters().add(Counter::arp_query_timeouts);
  PendingArp pending = std::move(it->second);
  pending_arps_.erase(it);
  unindex_pending_target(pending.target, query_id);
  broadcast_pending_arp(pending);
}

void PortlandSwitch::broadcast_pending_arp(const PendingArp& pending) {
  net::FrameRewrite rw;
  rw.eth_src = pending.requester_pmac;
  rw.arp_sender_mac = pending.requester_pmac;
  forward_broadcast(pending.host_port, /*from_host=*/true,
                    /*from_above=*/false,
                    net::rewrite_frame(pending.original, rw));
  for (const ArpWaiter& waiter : pending.waiters) {
    net::FrameRewrite wrw;
    wrw.eth_src = waiter.pmac;
    wrw.arp_sender_mac = waiter.pmac;
    forward_broadcast(waiter.host_port, /*from_host=*/true,
                      /*from_above=*/false,
                      net::rewrite_frame(waiter.original, wrw));
  }
}

std::optional<std::uint32_t> PortlandSwitch::pending_query_for(
    Ipv4Address target) const {
  const auto it = std::lower_bound(
      pending_by_target_.begin(), pending_by_target_.end(),
      std::make_pair(target.value(), std::uint32_t{0}));
  if (it == pending_by_target_.end() || it->first != target.value()) {
    return std::nullopt;
  }
  return it->second;
}

void PortlandSwitch::unindex_pending_target(Ipv4Address target,
                                            std::uint32_t query_id) {
  const auto it = std::lower_bound(
      pending_by_target_.begin(), pending_by_target_.end(),
      std::make_pair(target.value(), query_id));
  if (it != pending_by_target_.end() && it->first == target.value() &&
      it->second == query_id) {
    pending_by_target_.erase(it);
  }
}

bool PortlandSwitch::negative_arp_fresh(Ipv4Address ip) {
  if (config_.arp_negative_cache_entries == 0) return false;
  const auto it = std::lower_bound(
      arp_negative_.begin(), arp_negative_.end(), ip.value(),
      [](const NegativeArp& e, std::uint32_t v) { return e.ip < v; });
  if (it == arp_negative_.end() || it->ip != ip.value()) return false;
  if (it->expires <= sim().now()) {
    arp_negative_.erase(it);
    return false;
  }
  return true;
}

void PortlandSwitch::note_negative_arp(Ipv4Address ip) {
  if (!config_.arp_coalescing || config_.arp_negative_cache_entries == 0) {
    return;
  }
  const SimTime expires = sim().now() + config_.arp_negative_ttl;
  const auto it = std::lower_bound(
      arp_negative_.begin(), arp_negative_.end(), ip.value(),
      [](const NegativeArp& e, std::uint32_t v) { return e.ip < v; });
  if (it != arp_negative_.end() && it->ip == ip.value()) {
    it->expires = expires;
    return;
  }
  if (arp_negative_.size() >= config_.arp_negative_cache_entries) {
    // Bounded: displace the entry closest to expiry (often already dead).
    const auto victim = std::min_element(
        arp_negative_.begin(), arp_negative_.end(),
        [](const NegativeArp& a, const NegativeArp& b) {
          return a.expires < b.expires;
        });
    arp_negative_.erase(victim);
  }
  arp_negative_.insert(
      std::lower_bound(arp_negative_.begin(), arp_negative_.end(), ip.value(),
                       [](const NegativeArp& e, std::uint32_t v) {
                         return e.ip < v;
                       }),
      NegativeArp{ip.value(), expires});
}

void PortlandSwitch::send_garp_to_sender(MacAddress old_pmac,
                                         MacAddress sender_pmac) {
  // Correct the stale ARP cache of a host still using the old PMAC: a
  // unicast gratuitous ARP with the migrated host's new PMAC (§3.7).
  const auto it = redirects_.find(old_pmac);
  if (it == redirects_.end()) return;
  Redirect& redirect = it->second;
  if (!redirect.garp_sent_to.insert(sender_pmac).second) return;

  ArpMessage garp = ArpMessage::gratuitous(redirect.new_pmac, redirect.ip);
  const auto frame = sim::make_frame(
      net::build_arp_frame(sender_pmac, redirect.new_pmac, garp));
  const ParsedFrame& parsed = net::parsed_of(frame);
  counters().add(Counter::migration_garps_sent);
  forward_unicast(/*in_port=*/0, sender_pmac, parsed, frame,
                  /*redirect_depth=*/0);
}

// ---------------------------------------------------------------------------
// Host registration (PMAC assignment, §3.2)
// ---------------------------------------------------------------------------

HostEntry* PortlandSwitch::ensure_host(sim::PortId port, MacAddress amac,
                                       Ipv4Address ip_hint) {
  if (amac.is_multicast() || amac.is_zero()) return nullptr;
  const SwitchLocator& self = ldp_.self();
  assert(self.level == Level::kEdge);

  if (HostEntry* e = host_table_.find_amac(amac)) {
    bool reregister = false;
    if (e->port != port) {
      // Same edge switch, different port (local migration): new PMAC.
      e->port = port;
      std::uint16_t& vmid = next_vmid_[port];
      vmid = next_vmid(vmid);
      host_table_.rekey_pmac(
          *e, Pmac{self.pod, self.position, static_cast<std::uint8_t>(port),
                   vmid});
      reregister = true;
    }
    if (!ip_hint.is_zero() && e->ip != ip_hint) {
      e->ip = ip_hint;
      reregister = true;
    }
    if (reregister && !e->ip.is_zero()) {
      send_to_fm(HostRegister{e->ip, e->amac, e->pmac.to_mac(),
                              static_cast<std::uint16_t>(e->port)});
    }
    return e;
  }

  HostEntry e;
  e.amac = amac;
  e.ip = ip_hint;
  e.port = port;
  std::uint16_t& vmid = next_vmid_[port];
  vmid = next_vmid(vmid);
  e.pmac = Pmac{self.pod, self.position, static_cast<std::uint8_t>(port),
                vmid};
  counters().add(Counter::hosts_learned);
  if (!e.ip.is_zero()) {
    send_to_fm(HostRegister{e.ip, e.amac, e.pmac.to_mac(),
                            static_cast<std::uint16_t>(e.port)});
    // A returning migrant invalidates any redirect chain for its IP.
    for (auto rit = redirects_.begin(); rit != redirects_.end();) {
      rit = (rit->second.ip == e.ip) ? redirects_.erase(rit) : std::next(rit);
    }
  }
  return host_table_.insert(e);
}

std::optional<Pmac> PortlandSwitch::pmac_for(MacAddress amac) const {
  const HostEntry* e = host_table_.find_amac(amac);
  if (e == nullptr) return std::nullopt;
  return e->pmac;
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

void PortlandSwitch::send_to_fm(ControlBody body) {
  // Registry traffic goes straight to the owning FM shard endpoint when
  // the registry is sharded; everything else (and everything at shard
  // count 1) takes the classic primary address.
  SwitchId to = kFabricManagerId;
  if (config_.fm_shards > 1) {
    if (const auto* q = std::get_if<ArpQuery>(&body)) {
      to = kFmShardIdBase + fm_shard_of(q->ip, config_.fm_shards);
    } else if (const auto* reg = std::get_if<HostRegister>(&body)) {
      to = kFmShardIdBase + fm_shard_of(reg->ip, config_.fm_shards);
    }
  }
  control_->send(to, ControlMessage{id_, std::move(body)});
}

void PortlandSwitch::on_control(const ControlMessage& msg) {
  struct Dispatcher {
    PortlandSwitch& sw;
    void operator()(const PodAssignment& m) {
      sw.ldp_.handle_pod_assignment(m.pod);
    }
    void operator()(const ArpResponse& m) { sw.on_arp_response(m); }
    void operator()(const PruneUpdate& m) {
      // Any prune change retires the precomputed FIB (and with it every
      // flow-cache entry): the very next frame routes on the new tables.
      ++sw.prune_generation_;
      if (m.flush) {
        sw.prunes_.clear();
        sw.counters().add(Counter::prune_flushes);
      }
      for (const PruneEntry& e : m.entries) {
        const DstKey key{e.dst_pod, e.dst_position};
        if (e.add) {
          sw.prunes_[key].insert(e.avoid);
        } else {
          const auto it = sw.prunes_.find(key);
          if (it != sw.prunes_.end()) {
            it->second.erase(e.avoid);
            if (it->second.empty()) sw.prunes_.erase(it);
          }
        }
      }
      sw.counters().add(Counter::prune_updates_applied);
      if (obs::ConvergenceMonitor* monitor = sw.convergence_monitor()) {
        monitor->on_prune_install(
            static_cast<std::uint32_t>(sw.shard()), sw.sim().now(),
            sw.name().c_str());
      }
    }
    void operator()(const McastInstall& m) {
      PortSet ports;
      for (const std::uint16_t p : m.ports) {
        if (p < sw.port_count()) {
          ports.insert(p);
        } else {
          sw.counters().add(Counter::mcast_install_bad_port);
        }
      }
      sw.mcast_ports_[m.group] = ports;
      sw.counters().add(Counter::mcast_installs);
    }
    void operator()(const McastRemove& m) { sw.mcast_ports_.erase(m.group); }
    void operator()(const InvalidateHost& m) {
      // Remove the stale host entry and set up the trap-and-redirect flow.
      sw.host_table_.erase_by_pmac(m.old_pmac);
      sw.redirects_[m.old_pmac] = Redirect{m.new_pmac, m.ip, {}};
      // Compress chains: earlier redirects for the same IP now point at
      // the newest location.
      for (auto& [old_pmac, r] : sw.redirects_) {
        if (r.ip == m.ip) {
          r.new_pmac = m.new_pmac;
          r.garp_sent_to.clear();
        }
      }
      sw.counters().add(Counter::invalidations_applied);
    }
    // FM-bound messages a switch never receives:
    void operator()(const SwitchHello&) {}
    void operator()(const PodRequest&) {}
    void operator()(const HostRegister&) {}
    void operator()(const ArpQuery&) {}
    void operator()(const FaultNotify&) {}
    void operator()(const McastJoin&) {}
    void operator()(const McastLeave&) {}
    void operator()(const McastSenderSeen&) {}
    void operator()(const FmDelta&) {}  // replica-bound only
  };
  std::visit(Dispatcher{*this}, msg.body);
}

void PortlandSwitch::schedule_hello() {
  if (hello_pending_) return;
  hello_pending_ = true;
  hello_timer_.schedule_after(config_.hello_batch_delay, [this] {
    hello_pending_ = false;
    send_hello();
  });
}

void PortlandSwitch::send_hello() {
  send_to_fm(SwitchHello{ldp_.self(), ldp_.neighbor_entries()});
}

// ---------------------------------------------------------------------------
// LDP hooks
// ---------------------------------------------------------------------------

void PortlandSwitch::on_location_changed() {
  counters().add(Counter::location_updates);
  schedule_hello();
}

void PortlandSwitch::on_neighbor_event(sim::PortId port, SwitchId neighbor,
                                       bool lost) {
  const auto it = std::lower_bound(
      reported_down_.begin(), reported_down_.end(), port,
      [](const PortFault& f, sim::PortId p) { return f.port < p; });
  const bool present = it != reported_down_.end() && it->port == port;
  if (lost) {
    if (present) {
      it->neighbor = neighbor;
    } else {
      reported_down_.insert(it, PortFault{port, neighbor});
    }
    counters().add(Counter::neighbors_lost);
    if (obs::ConvergenceMonitor* monitor = convergence_monitor()) {
      monitor->on_neighbor_event(static_cast<std::uint32_t>(shard()),
                                 sim().now(), name().c_str(),
                                 /*lost=*/true);
    }
    send_to_fm(FaultNotify{static_cast<std::uint16_t>(port), neighbor,
                           /*link_up=*/false});
  } else if (present) {
    reported_down_.erase(it);
    counters().add(Counter::neighbors_recovered);
    if (obs::ConvergenceMonitor* monitor = convergence_monitor()) {
      monitor->on_neighbor_event(static_cast<std::uint32_t>(shard()),
                                 sim().now(), name().c_str(),
                                 /*lost=*/false);
    }
    send_to_fm(FaultNotify{static_cast<std::uint16_t>(port), neighbor,
                           /*link_up=*/true});
  }
  schedule_hello();
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

namespace {

void save_ports(sim::SnapshotWriter& w, const std::vector<sim::PortId>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const sim::PortId p : v) w.u64(p);
}

void restore_ports(sim::SnapshotReader& r, std::vector<sim::PortId>& v) {
  v.clear();
  const std::uint32_t n = r.count();
  v.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) v.push_back(r.u64());
}

void save_port_set(sim::SnapshotWriter& w, const PortSet& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  s.for_each([&w](std::size_t p) { w.u64(p); });
}

PortSet restore_port_set(sim::SnapshotReader& r) {
  PortSet s;
  const std::uint32_t n = r.count();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const std::uint64_t port = r.u64();
    if (port >= PortSet::kMaxPorts) {
      r.fail();  // a corrupt image
      break;
    }
    s.insert(static_cast<std::size_t>(port));
  }
  return s;
}

}  // namespace

void PortlandSwitch::save_state(sim::SnapshotWriter& w) const {
  ldp_.save_state(w);
  const auto rng = rng_.state();
  for (const std::uint64_t word : rng) w.u64(word);

  host_table_.save_state(w);
  w.u32(static_cast<std::uint32_t>(next_vmid_.size()));
  for (const std::uint16_t vmid : next_vmid_) w.u16(vmid);

  w.u32(static_cast<std::uint32_t>(redirects_.size()));
  for (const auto& [old_pmac, redirect] : redirects_) {
    w.u64(old_pmac.to_u64());
    w.u64(redirect.new_pmac.to_u64());
    w.u32(redirect.ip.value());
    w.u32(static_cast<std::uint32_t>(redirect.garp_sent_to.size()));
    for (const MacAddress sender : redirect.garp_sent_to) {
      w.u64(sender.to_u64());
    }
  }

  w.u32(static_cast<std::uint32_t>(pending_arps_.size()));
  for (const auto& [query_id, pending] : pending_arps_) {
    w.u32(query_id);
    w.u64(pending.host_port);
    w.u64(pending.requester_amac.to_u64());
    w.u64(pending.requester_pmac.to_u64());
    w.u32(pending.requester_ip.value());
    w.u32(pending.target.value());
    w.frame(pending.original);
    pending.timer->save_state(w);
    w.u32(static_cast<std::uint32_t>(pending.waiters.size()));
    for (const ArpWaiter& waiter : pending.waiters) {
      w.u64(waiter.host_port);
      w.u64(waiter.amac.to_u64());
      w.u64(waiter.pmac.to_u64());
      w.u32(waiter.ip.value());
      w.frame(waiter.original);
    }
  }
  w.u32(next_query_id_);
  w.u32(static_cast<std::uint32_t>(arp_negative_.size()));
  for (const NegativeArp& e : arp_negative_) {
    w.u32(e.ip);
    w.i64(e.expires);
  }

  w.u32(static_cast<std::uint32_t>(prunes_.size()));
  for (const auto& [key, avoid] : prunes_) {
    w.u16(key.pod);
    w.u8(key.position);
    w.u32(static_cast<std::uint32_t>(avoid.size()));
    for (const SwitchId id : avoid) w.u64(id);
  }
  w.u64(prune_generation_);

  // Precomputed FIB: logically derived, but restored as saved rather
  // than rebuilt, since a rebuild would bump fib_rebuilds_.
  w.u64(fib_.ldp_gen);
  w.u64(fib_.prune_gen);
  save_ports(w, fib_.base_up);
  w.u32(static_cast<std::uint32_t>(fib_.pruned_up.size()));
  for (const PrunedRoute& route : fib_.pruned_up) {
    w.u32(route.key);
    save_ports(w, route.ports);
  }
  w.u32(static_cast<std::uint32_t>(fib_.down_by_position.size()));
  for (const std::int32_t p : fib_.down_by_position) {
    w.u32(static_cast<std::uint32_t>(p));
  }
  w.u32(static_cast<std::uint32_t>(fib_.down_by_pod.size()));
  for (const std::int32_t p : fib_.down_by_pod) {
    w.u32(static_cast<std::uint32_t>(p));
  }

  w.u64(fib_rebuilds_);

  w.u32(static_cast<std::uint32_t>(mcast_ports_.size()));
  for (const auto& [group, ports] : mcast_ports_) {
    w.u32(group.value());
    save_port_set(w, ports);
  }
  w.u32(static_cast<std::uint32_t>(local_members_.size()));
  for (const auto& [group, ports] : local_members_) {
    w.u32(group.value());
    save_port_set(w, ports);
  }
  w.u32(static_cast<std::uint32_t>(mcast_sender_reported_.size()));
  for (const Ipv4Address group : mcast_sender_reported_) {
    w.u32(group.value());
  }

  w.u32(static_cast<std::uint32_t>(reported_down_.size()));
  for (const PortFault& fault : reported_down_) {
    w.u64(fault.port);
    w.u64(fault.neighbor);
  }

  hello_timer_.save_state(w);
  hello_periodic_.save_state(w);
  refresh_periodic_.save_state(w);
  w.u8(hello_pending_ ? 1 : 0);
  w.u64(spray_counter_);
}

void PortlandSwitch::restore_state(sim::SnapshotReader& r) {
  ldp_.restore_state(r);
  std::array<std::uint64_t, 4> rng{};
  for (std::uint64_t& word : rng) word = r.u64();
  rng_.set_state(rng);

  host_table_.restore_state(r);
  const std::uint32_t n_vmids = r.count();
  next_vmid_.assign(n_vmids, 0);
  for (std::uint32_t i = 0; i < n_vmids && r.ok(); ++i) {
    next_vmid_[i] = r.u16();
  }

  redirects_.clear();
  const std::uint32_t n_redirects = r.count();
  for (std::uint32_t i = 0; i < n_redirects && r.ok(); ++i) {
    const MacAddress old_pmac = MacAddress::from_u64(r.u64());
    Redirect redirect;
    redirect.new_pmac = MacAddress::from_u64(r.u64());
    redirect.ip = Ipv4Address(r.u32());
    const std::uint32_t n_senders = r.count();
    for (std::uint32_t j = 0; j < n_senders && r.ok(); ++j) {
      redirect.garp_sent_to.insert(MacAddress::from_u64(r.u64()));
    }
    redirects_.emplace(old_pmac, std::move(redirect));
  }

  pending_arps_.clear();
  const std::uint32_t n_arps = r.count();
  for (std::uint32_t i = 0; i < n_arps && r.ok(); ++i) {
    const std::uint32_t query_id = r.u32();
    PendingArp pending;
    pending.host_port = r.u64();
    pending.requester_amac = MacAddress::from_u64(r.u64());
    pending.requester_pmac = MacAddress::from_u64(r.u64());
    pending.requester_ip = Ipv4Address(r.u32());
    pending.target = Ipv4Address(r.u32());
    pending.original = r.frame();
    pending.timer = std::make_unique<sim::Timer>(sim());
    pending.timer->restore_at(
        r, [this, query_id] { flood_arp_fallback(query_id); });
    const std::uint32_t n_waiters = r.count();
    pending.waiters.reserve(n_waiters);
    for (std::uint32_t j = 0; j < n_waiters && r.ok(); ++j) {
      ArpWaiter waiter;
      waiter.host_port = r.u64();
      waiter.amac = MacAddress::from_u64(r.u64());
      waiter.pmac = MacAddress::from_u64(r.u64());
      waiter.ip = Ipv4Address(r.u32());
      waiter.original = r.frame();
      pending.waiters.push_back(std::move(waiter));
    }
    pending_arps_.emplace(query_id, std::move(pending));
  }
  next_query_id_ = r.u32();
  // The coalescer index is derived from pending_arps_; rebuild it.
  pending_by_target_.clear();
  for (const auto& [query_id, pending] : pending_arps_) {
    pending_by_target_.emplace_back(pending.target.value(), query_id);
  }
  std::sort(pending_by_target_.begin(), pending_by_target_.end());
  arp_negative_.clear();
  const std::uint32_t n_negative = r.count();
  arp_negative_.reserve(n_negative);
  for (std::uint32_t i = 0; i < n_negative && r.ok(); ++i) {
    NegativeArp e;
    e.ip = r.u32();
    e.expires = r.i64();
    arp_negative_.push_back(e);
  }

  prunes_.clear();
  const std::uint32_t n_prunes = r.count();
  for (std::uint32_t i = 0; i < n_prunes && r.ok(); ++i) {
    DstKey key;
    key.pod = r.u16();
    key.position = r.u8();
    std::set<SwitchId>& avoid = prunes_[key];
    const std::uint32_t n_avoid = r.count();
    for (std::uint32_t j = 0; j < n_avoid && r.ok(); ++j) {
      avoid.insert(r.u64());
    }
  }
  prune_generation_ = r.u64();

  fib_.ldp_gen = r.u64();
  fib_.prune_gen = r.u64();
  restore_ports(r, fib_.base_up);
  fib_.pruned_up.clear();
  const std::uint32_t n_routes = r.count();
  fib_.pruned_up.reserve(n_routes);
  for (std::uint32_t i = 0; i < n_routes && r.ok(); ++i) {
    PrunedRoute route;
    route.key = r.u32();
    restore_ports(r, route.ports);
    fib_.pruned_up.push_back(std::move(route));
  }
  const std::uint32_t n_by_pos = r.count();
  fib_.down_by_position.assign(n_by_pos, -1);
  for (std::uint32_t i = 0; i < n_by_pos && r.ok(); ++i) {
    fib_.down_by_position[i] = static_cast<std::int32_t>(r.u32());
  }
  const std::uint32_t n_by_pod = r.count();
  fib_.down_by_pod.assign(n_by_pod, -1);
  for (std::uint32_t i = 0; i < n_by_pod && r.ok(); ++i) {
    fib_.down_by_pod[i] = static_cast<std::int32_t>(r.u32());
  }

  fib_rebuilds_ = r.u64();

  mcast_ports_.clear();
  const std::uint32_t n_mcast = r.count();
  for (std::uint32_t i = 0; i < n_mcast && r.ok(); ++i) {
    const Ipv4Address group(r.u32());
    mcast_ports_[group] = restore_port_set(r);
  }
  local_members_.clear();
  const std::uint32_t n_members = r.count();
  for (std::uint32_t i = 0; i < n_members && r.ok(); ++i) {
    const Ipv4Address group(r.u32());
    local_members_[group] = restore_port_set(r);
  }
  mcast_sender_reported_.clear();
  const std::uint32_t n_senders = r.count();
  for (std::uint32_t i = 0; i < n_senders && r.ok(); ++i) {
    mcast_sender_reported_.insert(Ipv4Address(r.u32()));
  }

  reported_down_.clear();
  const std::uint32_t n_faults = r.count();
  reported_down_.reserve(n_faults);
  for (std::uint32_t i = 0; i < n_faults && r.ok(); ++i) {
    PortFault fault;
    fault.port = r.u64();
    fault.neighbor = r.u64();
    reported_down_.push_back(fault);
  }

  hello_timer_.restore_at(r, [this] {
    hello_pending_ = false;
    send_hello();
  });
  hello_periodic_.restore_state(r);
  refresh_periodic_.restore_state(r);
  hello_pending_ = r.u8() != 0;
  spray_counter_ = r.u64();

  // The control-plane endpoint registration from start() survives in a
  // forked image (same object); a fresh fabric restores after its own
  // start(), which re-registered it. Nothing to redo here.
}

// ---------------------------------------------------------------------------
// State accounting (E5)
// ---------------------------------------------------------------------------

std::size_t PortlandSwitch::prune_entry_count() const {
  std::size_t n = 0;
  for (const auto& [key, avoid] : prunes_) n += avoid.size();
  return n;
}

std::size_t PortlandSwitch::forwarding_state_size() const {
  return ldp_.neighbor_entries().size() + host_table_.size() +
         prune_entry_count() + mcast_ports_.size();
}

PortlandSwitch::TableBytes PortlandSwitch::table_bytes() const {
  TableBytes b;
  b.host_table = host_table_.bytes();

  b.fib = vector_bytes(fib_.base_up) + vector_bytes(fib_.down_by_position) +
          vector_bytes(fib_.down_by_pod);
  b.fib += vector_bytes(fib_.pruned_up);
  for (const PrunedRoute& r : fib_.pruned_up) b.fib += vector_bytes(r.ports);

  for (const auto& [key, avoid] : prunes_) {
    b.prunes += sizeof(key) + kTreeNodeOverhead + set_bytes(avoid);
  }

  b.multicast = map_bytes(mcast_ports_) + map_bytes(local_members_) +
                set_bytes(mcast_sender_reported_);

  b.other = vector_bytes(next_vmid_) + vector_bytes(reported_down_) +
            map_bytes(redirects_) +
            vector_bytes(pending_by_target_) + vector_bytes(arp_negative_);
  return b;
}

}  // namespace portland::core
