// Host: an unmodified end host (or VM) attached to the fabric by one port.
//
// PortLand requires zero host changes (paper §1): hosts here speak plain
// ARP / IPv4 / UDP / TCP and announce themselves with a gratuitous ARP on
// boot and after migration — exactly the signals the fabric's edge switches
// consume. The same Host class runs unchanged on the baseline Ethernet
// fabric, which is the point.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/ipv4_address.h"
#include "common/mac_address.h"
#include "host/arp_cache.h"
#include "host/tcp.h"
#include "net/packet.h"
#include "sim/device.h"
#include "sim/ring.h"

namespace portland::host {

struct HostConfig {
  SimDuration arp_cache_lifetime = seconds(600);
  SimDuration arp_retry_interval = millis(200);
  int arp_max_retries = 8;
  std::size_t max_pending_frames_per_dst = 256;
  /// Announce (gratuitous ARP) shortly after start; edge switches use this
  /// to assign PMACs and register the host with the fabric manager.
  bool announce_on_start = true;
  SimDuration announce_delay = millis(1);
  TcpConfig tcp;
  std::uint64_t seed = 0x9E3779B9;  // ISN generation
};

class Host : public sim::Device {
 public:
  Host(sim::Simulator& sim, std::string name, MacAddress mac, Ipv4Address ip,
       HostConfig config = {});
  ~Host() override;

  void handle_frame(sim::PortId in_port, const sim::FramePtr& frame) override;
  void start() override;

  /// Checkpoint: ARP cache, unresolved sends with their retry timers, TCP
  /// connections (created on demand for keys missing after a fresh-
  /// process restore; app deliver/finished callbacks must be re-installed
  /// by the application — in-place forks keep them automatically), ISN
  /// state. UDP/listener handler maps are construction wiring.
  void snapshot(sim::SnapshotIo& io) override;

  [[nodiscard]] MacAddress mac() const { return mac_; }
  [[nodiscard]] Ipv4Address ip() const { return ip_; }

  // --- UDP -----------------------------------------------------------
  using UdpHandler = std::function<void(
      Ipv4Address src_ip, std::uint16_t src_port, std::uint16_t dst_port,
      std::span<const std::uint8_t> payload)>;

  /// Registers a receive handler for a local UDP port.
  void bind_udp(std::uint16_t port, UdpHandler handler);

  /// Sends a UDP datagram (resolving the destination with ARP as needed).
  void send_udp(Ipv4Address dst, std::uint16_t src_port,
                std::uint16_t dst_port, std::vector<std::uint8_t> payload);

  // --- TCP -----------------------------------------------------------
  /// Active-opens a connection; returns a stable pointer owned by the host.
  TcpConnection* tcp_connect(Ipv4Address dst, std::uint16_t dst_port);

  /// Listens; `on_accept` fires for each new inbound connection.
  void tcp_listen(std::uint16_t port,
                  std::function<void(TcpConnection&)> on_accept);

  // --- multicast -------------------------------------------------------
  /// Joins `group` (sends an IGMP report) and delivers group UDP traffic
  /// to `handler`.
  void join_group(Ipv4Address group, UdpHandler handler);

  /// Leaves `group` (sends an IGMP leave).
  void leave_group(Ipv4Address group);

  /// Sends a UDP datagram to a multicast group (no ARP involved).
  void send_udp_multicast(Ipv4Address group, std::uint16_t src_port,
                          std::uint16_t dst_port,
                          std::vector<std::uint8_t> payload);

  // --- ARP -------------------------------------------------------------
  /// Announces (ip -> mac) to the fabric; called automatically at start and
  /// by the migration controller after re-attachment.
  void send_gratuitous_arp();

  [[nodiscard]] ArpCache& arp_cache() { return arp_cache_; }

  /// Number of ARP requests this host has transmitted (broadcasts in the
  /// baseline; intercepted by the edge switch in PortLand).
  [[nodiscard]] std::uint64_t arp_requests_sent() const {
    return counters().get(Counter::arp_requests_sent);
  }

 private:
  void handle_arp(const net::ArpMessage& arp);
  void handle_ipv4(const net::ParsedFrame& parsed);
  void deliver_udp(const net::ParsedFrame& parsed, bool multicast);
  /// Queues `frame` until `dst` resolves, then rewrites the Ethernet dst
  /// and transmits. Frames are built with a broadcast placeholder dst.
  void send_resolved(Ipv4Address dst, std::vector<std::uint8_t> frame);
  void send_arp_request(Ipv4Address target);
  void arp_retry_tick(Ipv4Address target);
  void flush_pending(Ipv4Address dst, MacAddress mac);
  TcpConnection& make_connection(TcpEndpointKey key);
  [[nodiscard]] std::uint32_t next_isn();

  MacAddress mac_;
  Ipv4Address ip_;
  HostConfig config_;
  ArpCache arp_cache_;
  std::uint64_t isn_state_;

  /// One unresolved destination. Every host may hold one per fresh peer
  /// at once (an ARP storm), so the entry is kept small: the frame queue
  /// allocates nothing until its first push and the retry timer lives
  /// inline. Neither moves, so entries are built in place in the map.
  struct Pending {
    explicit Pending(sim::Simulator& sim) : timer(sim) {}

    sim::Ring<std::vector<std::uint8_t>> frames;
    int retries = 0;
    sim::Timer timer;
    /// When the first ARP request for this destination went out; stamps
    /// the resolution-latency histogram when the answer arrives (E22).
    SimTime first_request_at = -1;
  };
  std::unordered_map<Ipv4Address, Pending> pending_;

  std::map<std::uint16_t, UdpHandler> udp_handlers_;
  std::map<std::uint16_t, std::function<void(TcpConnection&)>> listeners_;
  std::map<TcpEndpointKey, std::unique_ptr<TcpConnection>> connections_;
  std::map<Ipv4Address, UdpHandler> group_handlers_;

  std::uint16_t next_ephemeral_port_ = 49152;
};

}  // namespace portland::host
