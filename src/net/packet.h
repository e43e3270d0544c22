// Whole-frame composition and decomposition.
//
// `ParsedFrame` is the one-pass parse every switch and host performs on an
// incoming frame: Ethernet header plus, when present, ARP / IPv4 / UDP /
// TCP views, and the precomputed ECMP flow hash. Builders assemble full
// frames (headers + payload) into byte vectors ready for the wire.
//
// Parse-once fast path: `parsed_of(frame)` parses a sim frame at most once
// per buffer and caches the result in the frame's metadata slot — every
// later hop (and the path auditor, and the destination host) reads the
// cached summary for free. The attach is an atomic publish, so shard
// workers may race on a multicast replica: one parse wins, the rest adopt
// it. `rewrite_frame` performs the PMAC<->AMAC header
// rewriting edge switches do (paper §3.2) as ONE buffer copy with in-place
// patches, carrying the parse metadata across so downstream hops never
// re-parse. `parse_stats()` counts parses vs. cache hits so benches and
// tests can prove the per-hop parse count is zero at steady state.
//
// `FlowKey` is the 5-tuple PortLand's ECMP hashes to pin a flow to one
// up-path (paper §3.5).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ipv4_address.h"
#include "common/mac_address.h"
#include "net/arp.h"
#include "net/ethernet.h"
#include "net/ipv4.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "sim/frame.h"

namespace portland::net {

/// 5-tuple flow identity for ECMP hashing.
struct FlowKey {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint8_t protocol = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

/// Deterministic 64-bit flow hash (SplitMix finalizer over the tuple).
[[nodiscard]] std::uint64_t flow_hash(const FlowKey& key);

struct ParsedFrame {
  bool valid = false;
  EthernetHeader eth;
  std::optional<ArpMessage> arp;
  std::optional<Ipv4Header> ipv4;
  std::optional<UdpHeader> udp;
  std::optional<TcpHeader> tcp;
  /// L4 payload (UDP/TCP data), a view into the original buffer.
  std::span<const std::uint8_t> payload;
  /// ECMP flow identity, precomputed at parse time (zero for non-IP).
  FlowKey flow;
  std::uint64_t flow_hash = 0;
};

/// Parses an entire frame. `valid` is false on any framing error; the
/// optional sub-headers are set only when present and well-formed.
[[nodiscard]] ParsedFrame parse_frame(std::span<const std::uint8_t> bytes);

/// Cached parse of a sim frame: parses the buffer on first call and
/// attaches the result to the frame's metadata slot; later calls (other
/// hops, the frame tap, the destination) return the cached summary.
[[nodiscard]] const ParsedFrame& parsed_of(const sim::FramePtr& frame);

/// Counters behind the parse-once machinery. Benches and tests diff these
/// across a run to verify the fast path: steady state must show ~1 parse
/// per frame, not per hop. Each thread counts into its own set (shard
/// workers never contend); parse_stats() aggregates a snapshot — call it
/// while the simulation is quiescent for exact totals.
struct ParseStats {
  std::uint64_t parse_calls = 0;    // full buffer walks (parse_frame)
  std::uint64_t meta_hits = 0;      // parsed_of served from cache
  std::uint64_t meta_attaches = 0;  // parsed_of had to parse + attach
  std::uint64_t rewrite_copies = 0; // rewrite_frame buffer copies

  /// Each counter once: fn(metric name, member pointer).
  template <typename Fn>
  static void walk(Fn&& fn) {
    fn("parse_calls", &ParseStats::parse_calls);
    fn("meta_hits", &ParseStats::meta_hits);
    fn("meta_attaches", &ParseStats::meta_attaches);
    fn("rewrite_copies", &ParseStats::rewrite_copies);
  }
};
[[nodiscard]] ParseStats parse_stats();

/// Header patches applied by rewrite_frame. Unset fields are untouched.
struct FrameRewrite {
  std::optional<MacAddress> eth_src;
  std::optional<MacAddress> eth_dst;
  /// ARP payloads embed MACs too (sender / target hardware address).
  /// Only valid on ARP frames.
  std::optional<MacAddress> arp_sender_mac;
  std::optional<MacAddress> arp_target_mac;
};

/// Applies all requested header patches as a single buffer copy, and
/// carries the cached parse metadata (patched to match) to the new frame —
/// the edge rewrite no longer costs one whole-frame copy per patched
/// field, and downstream hops still skip the parse.
[[nodiscard]] sim::FramePtr rewrite_frame(const sim::FramePtr& in,
                                          const FrameRewrite& rw);

/// Frame builders. Each returns the complete on-wire byte vector.
[[nodiscard]] std::vector<std::uint8_t> build_arp_frame(MacAddress eth_dst,
                                                        MacAddress eth_src,
                                                        const ArpMessage& arp);

[[nodiscard]] std::vector<std::uint8_t> build_udp_frame(
    MacAddress eth_dst, MacAddress eth_src, Ipv4Address ip_src,
    Ipv4Address ip_dst, std::uint16_t src_port, std::uint16_t dst_port,
    std::span<const std::uint8_t> payload, std::uint8_t ttl = 64);

/// Raw IPv4 frame with an arbitrary protocol number (e.g. IGMP).
[[nodiscard]] std::vector<std::uint8_t> build_ipv4_frame(
    MacAddress eth_dst, MacAddress eth_src, Ipv4Address ip_src,
    Ipv4Address ip_dst, std::uint8_t protocol,
    std::span<const std::uint8_t> payload, std::uint8_t ttl = 64);

[[nodiscard]] std::vector<std::uint8_t> build_tcp_frame(
    MacAddress eth_dst, MacAddress eth_src, Ipv4Address ip_src,
    Ipv4Address ip_dst, const TcpHeader& tcp,
    std::span<const std::uint8_t> payload, std::uint8_t ttl = 64);

/// Extracts the flow key from a parsed frame (ports zero for non-L4).
[[nodiscard]] FlowKey flow_key_of(const ParsedFrame& p);

/// Returns a copy of `frame` with the Ethernet source replaced.
[[nodiscard]] std::vector<std::uint8_t> rewrite_eth_src(
    std::span<const std::uint8_t> frame, MacAddress new_src);

/// Returns a copy of `frame` with the Ethernet destination replaced.
[[nodiscard]] std::vector<std::uint8_t> rewrite_eth_dst(
    std::span<const std::uint8_t> frame, MacAddress new_dst);

/// ARP payloads embed MACs too: replaces sender (true) or target (false)
/// hardware address inside an ARP frame, returning the rewritten copy.
[[nodiscard]] std::vector<std::uint8_t> rewrite_arp_mac(
    std::span<const std::uint8_t> frame, bool sender, MacAddress new_mac);

}  // namespace portland::net
