#include "host/host.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "net/igmp.h"
#include "obs/flight_recorder.h"
#include "sim/snapshot.h"

namespace portland::host {

using net::ArpMessage;
using net::ArpOp;
using net::ParsedFrame;

namespace {
/// The host owns these freshly built frame bytes, so the resolved
/// destination is patched in place instead of copying the whole buffer.
void patch_eth_dst(std::vector<std::uint8_t>& frame, MacAddress dst) {
  const auto& b = dst.bytes();
  std::copy(b.begin(), b.end(), frame.begin());
}

/// Log2 histogram bucket (in microseconds) for an ARP resolution latency:
/// the smallest b with us <= 2^b, or the "over" bucket. Benches sum these
/// across hosts to report resolution percentiles.
Counter arp_latency_bucket(SimDuration latency) {
  constexpr std::size_t kLast = kArpLatencyBuckets - 1;
  const auto us = static_cast<std::uint64_t>(latency / kMicrosecond);
  std::size_t idx = 0;
  while (idx < kLast && (1ull << idx) < us) ++idx;
  return arp_latency_counter(idx);
}
}  // namespace

Host::Host(sim::Simulator& sim, std::string name, MacAddress mac,
           Ipv4Address ip, HostConfig config)
    : Device(sim, std::move(name)),
      mac_(mac),
      ip_(ip),
      config_(config),
      arp_cache_(config.arp_cache_lifetime),
      isn_state_(config.seed ^ mac.to_u64()) {
  add_port();  // hosts have a single NIC, port 0
}

Host::~Host() = default;

void Host::start() {
  if (config_.announce_on_start) {
    sim().after(config_.announce_delay, [this] { send_gratuitous_arp(); });
  }
}

std::uint32_t Host::next_isn() {
  // SplitMix64 step; low 32 bits are plenty for a simulated ISN.
  isn_state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = isn_state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return static_cast<std::uint32_t>(z ^ (z >> 27));
}

void Host::send_gratuitous_arp() {
  const ArpMessage garp = ArpMessage::gratuitous(mac_, ip_);
  send(0, sim::make_frame(
              net::build_arp_frame(MacAddress::broadcast(), mac_, garp)));
  counters().add(Counter::garp_sent);
}

// --------------------------------------------------------------------------
// Receive path
// --------------------------------------------------------------------------

void Host::handle_frame(sim::PortId in_port, const sim::FramePtr& frame) {
  // Edge switches emit LDMs on host-facing ports every period; drop them
  // on a raw EtherType peek so hosts never parse (or attach metadata to)
  // fabric control traffic.
  const auto bytes = sim::frame_span(frame);
  if (bytes.size() >= net::EthernetHeader::kSize &&
      (static_cast<std::uint16_t>(bytes[12]) << 8 | bytes[13]) ==
          net::to_u16(net::EtherType::kLdp)) {
    counters().add(Counter::rx_ignored);
    return;
  }
  const ParsedFrame& parsed = net::parsed_of(frame);
  if (!parsed.valid) {
    counters().add(Counter::rx_malformed);
    return;
  }
  if (flight_recorder() != nullptr) {
    record_hop(obs::HopEvent::kDeliver, frame, in_port, frame->size());
  }
  // A broadcast can loop back to its sender through the fabric's
  // down-phase; hosts ignore their own frames.
  if (parsed.eth.src == mac_) return;

  if (parsed.arp.has_value()) {
    handle_arp(*parsed.arp);
    return;
  }
  if (parsed.ipv4.has_value()) {
    handle_ipv4(parsed);
    return;
  }
  counters().add(Counter::rx_ignored);
}

void Host::handle_arp(const ArpMessage& arp) {
  // Gleaning: any ARP naming a sender refreshes entries we already track
  // or are actively resolving.
  if (!arp.sender_ip.is_zero() &&
      (arp_cache_.contains(arp.sender_ip) ||
       pending_.count(arp.sender_ip) != 0)) {
    arp_cache_.insert(arp.sender_ip, arp.sender_mac, sim().now());
    flush_pending(arp.sender_ip, arp.sender_mac);
  }

  if (arp.op == ArpOp::kRequest && arp.target_ip == ip_) {
    counters().add(Counter::arp_replies_sent);
    const ArpMessage reply =
        ArpMessage::reply(mac_, ip_, arp.sender_mac, arp.sender_ip);
    send(0, sim::make_frame(net::build_arp_frame(arp.sender_mac, mac_, reply)));
    return;
  }
  if (arp.op == ArpOp::kReply) {
    arp_cache_.insert(arp.sender_ip, arp.sender_mac, sim().now());
    flush_pending(arp.sender_ip, arp.sender_mac);
  }
}

void Host::handle_ipv4(const ParsedFrame& parsed) {
  const bool multicast = net::is_multicast_ip(parsed.ipv4->dst);
  if (!multicast && parsed.ipv4->dst != ip_) {
    counters().add(Counter::rx_wrong_ip);
    return;
  }

  if (parsed.udp.has_value()) {
    deliver_udp(parsed, multicast);
    return;
  }
  if (parsed.tcp.has_value()) {
    const net::TcpHeader& h = *parsed.tcp;
    const TcpEndpointKey key{parsed.ipv4->src, h.src_port, h.dst_port};
    const auto it = connections_.find(key);
    if (it != connections_.end()) {
      it->second->handle_segment(h, parsed.payload);
      return;
    }
    if (h.flags.syn && !h.flags.ack) {
      const auto listener = listeners_.find(h.dst_port);
      if (listener != listeners_.end()) {
        TcpConnection& conn = make_connection(key);
        conn.accept_syn(h);
        listener->second(conn);
        return;
      }
    }
    counters().add(Counter::tcp_rx_no_connection);
    return;
  }
  counters().add(Counter::rx_ip_other);
}

void Host::deliver_udp(const ParsedFrame& parsed, bool multicast) {
  if (multicast) {
    const auto it = group_handlers_.find(parsed.ipv4->dst);
    if (it == group_handlers_.end()) {
      counters().add(Counter::udp_rx_unjoined_group);
      return;
    }
    it->second(parsed.ipv4->src, parsed.udp->src_port, parsed.udp->dst_port,
               parsed.payload);
    return;
  }
  const auto it = udp_handlers_.find(parsed.udp->dst_port);
  if (it == udp_handlers_.end()) {
    counters().add(Counter::udp_rx_unbound);
    return;
  }
  it->second(parsed.ipv4->src, parsed.udp->src_port, parsed.udp->dst_port,
             parsed.payload);
}

// --------------------------------------------------------------------------
// UDP
// --------------------------------------------------------------------------

void Host::bind_udp(std::uint16_t port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

void Host::send_udp(Ipv4Address dst, std::uint16_t src_port,
                    std::uint16_t dst_port, std::vector<std::uint8_t> payload) {
  // Built with a broadcast placeholder; send_resolved patches the real dst.
  auto frame = net::build_udp_frame(MacAddress::broadcast(), mac_, ip_, dst,
                                    src_port, dst_port, payload);
  send_resolved(dst, std::move(frame));
}

// --------------------------------------------------------------------------
// TCP
// --------------------------------------------------------------------------

TcpConnection& Host::make_connection(TcpEndpointKey key) {
  auto sink = [this, key](const net::TcpHeader& h,
                          std::span<const std::uint8_t> payload) {
    auto frame = net::build_tcp_frame(MacAddress::broadcast(), mac_, ip_,
                                      key.remote_ip, h, payload);
    send_resolved(key.remote_ip, std::move(frame));
  };
  auto conn = std::make_unique<TcpConnection>(sim(), key, config_.tcp,
                                              std::move(sink), next_isn());
  TcpConnection& ref = *conn;
  connections_[key] = std::move(conn);
  return ref;
}

TcpConnection* Host::tcp_connect(Ipv4Address dst, std::uint16_t dst_port) {
  const TcpEndpointKey key{dst, dst_port, next_ephemeral_port_++};
  TcpConnection& conn = make_connection(key);
  conn.connect();
  return &conn;
}

void Host::tcp_listen(std::uint16_t port,
                      std::function<void(TcpConnection&)> on_accept) {
  listeners_[port] = std::move(on_accept);
}

// --------------------------------------------------------------------------
// Multicast
// --------------------------------------------------------------------------

void Host::join_group(Ipv4Address group, UdpHandler handler) {
  assert(net::is_multicast_ip(group));
  group_handlers_[group] = std::move(handler);
  net::IgmpMessage report{net::IgmpType::kMembershipReport, group};
  const auto payload = report.serialize();
  send(0, sim::make_frame(net::build_ipv4_frame(
              net::multicast_mac(group), mac_, ip_, group, net::kProtocolIgmp,
              payload, /*ttl=*/1)));
  counters().add(Counter::igmp_joins_sent);
}

void Host::leave_group(Ipv4Address group) {
  group_handlers_.erase(group);
  net::IgmpMessage leave{net::IgmpType::kLeaveGroup, group};
  const auto payload = leave.serialize();
  send(0, sim::make_frame(net::build_ipv4_frame(
              net::multicast_mac(group), mac_, ip_, group, net::kProtocolIgmp,
              payload, /*ttl=*/1)));
  counters().add(Counter::igmp_leaves_sent);
}

void Host::send_udp_multicast(Ipv4Address group, std::uint16_t src_port,
                              std::uint16_t dst_port,
                              std::vector<std::uint8_t> payload) {
  assert(net::is_multicast_ip(group));
  send(0, sim::make_frame(net::build_udp_frame(net::multicast_mac(group),
                                               mac_, ip_, group, src_port,
                                               dst_port, payload)));
}

// --------------------------------------------------------------------------
// ARP resolution
// --------------------------------------------------------------------------

void Host::send_resolved(Ipv4Address dst, std::vector<std::uint8_t> frame) {
  if (const auto mac = arp_cache_.lookup(dst, sim().now()); mac.has_value()) {
    patch_eth_dst(frame, *mac);
    send(0, sim::make_frame(std::move(frame)));
    return;
  }
  const auto [it, fresh] = pending_.try_emplace(dst, sim());
  Pending& p = it->second;
  if (p.frames.size() >= config_.max_pending_frames_per_dst) {
    counters().add(Counter::arp_pending_overflow);
    p.frames.pop_front();
  }
  p.frames.push_back(std::move(frame));
  if (fresh) {
    p.first_request_at = sim().now();
    send_arp_request(dst);
    p.timer.schedule_after(config_.arp_retry_interval,
                           [this, dst] { arp_retry_tick(dst); });
  }
}

void Host::send_arp_request(Ipv4Address target) {
  counters().add(Counter::arp_requests_sent);
  const ArpMessage req = ArpMessage::request(mac_, ip_, target);
  send(0, sim::make_frame(
              net::build_arp_frame(MacAddress::broadcast(), mac_, req)));
}

void Host::arp_retry_tick(Ipv4Address target) {
  const auto it = pending_.find(target);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (++p.retries > config_.arp_max_retries) {
    counters().add(Counter::arp_resolution_failed);
    pending_.erase(it);  // drop queued frames: unreachable destination
    return;
  }
  send_arp_request(target);
  p.timer.rearm(config_.arp_retry_interval);
}

// --------------------------------------------------------------------------
// Checkpoint
// --------------------------------------------------------------------------

void Host::snapshot(sim::SnapshotIo& io) {
  arp_cache_.snapshot(io);

  // Unresolved sends, in destination-IP order. Entries neither move nor
  // default-construct, so a load builds each in place under its key, and
  // refuses keys that are not strictly ascending.
  std::vector<Ipv4Address> dsts;
  if (io.loading()) {
    pending_.clear();
  } else {
    dsts.reserve(pending_.size());
    for (const auto& [dst, p] : pending_) dsts.push_back(dst);
    std::sort(dsts.begin(), dsts.end());
  }
  const std::uint32_t n_dsts = io.count(dsts.size());
  Ipv4Address prev;
  for (std::uint32_t i = 0; i < n_dsts && io.ok(); ++i) {
    Ipv4Address dst = io.loading() ? Ipv4Address{} : dsts[i];
    io.field(dst);
    if (i > 0 && !(prev < dst)) io.fail();
    prev = dst;
    Pending& p = pending_.try_emplace(dst, sim()).first->second;
    io.field<std::uint32_t>(p.retries);
    io.field(p.first_request_at);
    const std::uint32_t n_frames = io.count(p.frames.size());
    for (std::uint32_t f = 0; f < n_frames && io.ok(); ++f) {
      if (io.loading()) p.frames.push_back({});
      io.blob(p.frames[f]);
    }
    p.timer.snapshot(io, [this, dst] { arp_retry_tick(dst); });
  }

  io.field(next_ephemeral_port_);

  std::vector<TcpEndpointKey> keys;
  if (!io.loading()) {
    for (const auto& [key, conn] : connections_) keys.push_back(key);
  }
  io.list(keys, [this, &io](TcpEndpointKey& key) {
    io.field(key.remote_ip);
    io.field(key.remote_port);
    io.field(key.local_port);
    const auto it = connections_.find(key);
    TcpConnection& conn =
        it != connections_.end() ? *it->second : make_connection(key);
    conn.snapshot(io);
  });
  if (io.loading()) {
    // Drop connections the image does not know about (a fork target that
    // had diverged before restore).
    for (auto it = connections_.begin(); it != connections_.end();) {
      const bool keep =
          std::find(keys.begin(), keys.end(), it->first) != keys.end();
      it = keep ? std::next(it) : connections_.erase(it);
    }
  }
  // Walked after connections: a fresh-process load creates missing
  // connections through make_connection, which advances isn_state_ — the
  // exact value is reapplied last either way.
  io.field(isn_state_);
}

void Host::flush_pending(Ipv4Address dst, MacAddress mac) {
  const auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.first_request_at >= 0) {
    counters().add(Counter::arp_resolutions);
    counters().add(arp_latency_bucket(sim().now() - p.first_request_at));
  }
  // Retire the retry shot before the queued frames go out, as erasing the
  // entry first would.
  p.timer.cancel();
  for (std::size_t i = 0; i < p.frames.size(); ++i) {
    patch_eth_dst(p.frames[i], mac);
    send(0, sim::make_frame(std::move(p.frames[i])));
  }
  pending_.erase(it);
}

}  // namespace portland::host
