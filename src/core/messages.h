// PortLand protocol messages.
//
// Two families:
//   1. LDP frames — link-local Location Discovery Messages and the
//      position-negotiation handshake, carried on the wire between
//      adjacent switches with EtherType kLdp (paper §3.4).
//   2. Control messages — switch <-> fabric-manager traffic carried on the
//      out-of-band control network: registrations, proxy-ARP queries,
//      fault notifications, reroute (prune) updates, multicast state, and
//      VM-migration invalidations (paper §3.1, §3.3, §3.6, §3.7).
//
// Everything serializes to bytes: LDP because it rides simulated links,
// control messages so the control-plane overhead experiment (E7) can count
// real message sizes.
//
// Each message lists its wire fields once, in a `walk(Io&)` next to the
// fields: `io(a, b, ...)` for fixed fields in wire order, `io.list(v)` for
// a u16-counted list, `io.blob(v)` for a u32-counted byte image, and
// `io.check(cond)` for a value a decode must refuse. messages.cc runs the
// same walk to encode and to decode, so the two directions cannot drift.
// A control message's type tag is its ControlBody index + 1, and its name
// for counters and logs is the alternative's `kName`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/ipv4_address.h"
#include "common/mac_address.h"
#include "core/locator.h"

namespace portland::core {

// ===========================================================================
// LDP frames
// ===========================================================================

enum class LdpType : std::uint8_t {
  kLdm = 1,              // periodic location discovery message / keepalive
  kProposePosition = 2,  // edge -> agg: claim a position within the pod
  kPositionAck = 3,      // agg -> edge: position granted
  kPositionNack = 4,     // agg -> edge: position taken, pick another
};

struct LdpMessage {
  LdpType type = LdpType::kLdm;
  /// Sender's current view of its own location.
  SwitchLocator from;
  /// Port the sender transmitted on.
  std::uint16_t sender_port = 0;
  /// Echo evidence: the switch id last heard (within the liveness
  /// timeout) on the port this LDM leaves through; kInvalidSwitchId when
  /// nothing fresh. A receiver that stops seeing its own id echoed knows
  /// the *reverse* direction is dead — this is how unidirectional
  /// failures are detected (three-way liveness, as in LLDP/BFD).
  SwitchId heard_id = kInvalidSwitchId;
  /// kProposePosition / kPositionAck / kPositionNack: the position in play.
  std::uint8_t position = kUnknownPosition;
  /// Proposal nonce, echoed in acks/nacks.
  std::uint32_t nonce = 0;

  /// The body after the Ethernet header.
  template <class Io>
  void walk(Io& io) {
    io(type, from, sender_port, heard_id, position, nonce);
    io.check(type >= LdpType::kLdm && type <= LdpType::kPositionNack);
  }

  /// Builds the complete Ethernet frame (EtherType kLdp, broadcast dst).
  [[nodiscard]] std::vector<std::uint8_t> to_frame() const;

  /// Parses a whole frame previously built by to_frame(). Bytes past the
  /// body (link padding) are ignored.
  [[nodiscard]] static std::optional<LdpMessage> from_frame(
      std::span<const std::uint8_t> frame);
};

// ===========================================================================
// Control-plane messages
// ===========================================================================

/// Well-known control-plane address of the fabric manager.
constexpr SwitchId kFabricManagerId = 1;

/// Well-known control-plane address of the hot-standby FM replica
/// (registered only when PortlandConfig::fm_replica is on).
constexpr SwitchId kFmReplicaId = 2;

/// First control-plane address of the FM's registry shards: shard s
/// answers at kFmShardIdBase + s (registered only when fm_shards > 1).
constexpr SwitchId kFmShardIdBase = 3;

/// First switch id a fabric assigns. Every control-plane address below it
/// belongs to the fabric manager, so at most kMaxFmShards registry shards
/// fit before a shard address would collide with a switch.
constexpr SwitchId kSwitchIdBase = 0x1000;
constexpr std::size_t kMaxFmShards = kSwitchIdBase - kFmShardIdBase;

/// Which registry shard owns `ip`, for `shards` shards. The same
/// Fibonacci multiplicative hash the registry itself probes with, so the
/// shard split is uniform even though the fabric's IP plan is dense in
/// the low octets.
[[nodiscard]] constexpr std::size_t fm_shard_of(Ipv4Address ip,
                                                std::size_t shards) {
  if (shards <= 1) return 0;
  // Keep the product's high half: the multiply mixes upward, so the low
  // bits of (ip * phi) are still just the low bits of ip — reducing those
  // mod a small shard count would leave shards empty under the dense plan.
  return ((static_cast<std::uint64_t>(ip.value()) * 0x9E3779B9u) >> 24) %
         shards;
}

/// One neighbor-table entry reported in a SwitchHello.
struct NeighborEntry {
  std::uint16_t port = 0;
  SwitchLocator neighbor;

  template <class Io>
  void walk(Io& io) { io(port, neighbor); }

  friend bool operator==(const NeighborEntry&, const NeighborEntry&) = default;
};

/// Switch -> FM: location + neighbor table, on every change and as a
/// periodic keepalive. The FM builds its topology view from these.
struct SwitchHello {
  static constexpr const char* kName = "switch_hello";
  SwitchLocator self;
  std::vector<NeighborEntry> neighbors;

  template <class Io>
  void walk(Io& io) {
    io(self);
    io.list(neighbors);
  }
};

/// Edge (position 0) -> FM: request a pod number for my pod.
struct PodRequest {
  static constexpr const char* kName = "pod_request";

  template <class Io>
  void walk(Io&) {}
};

/// FM -> switch: pod number assignment.
struct PodAssignment {
  static constexpr const char* kName = "pod_assignment";
  std::uint16_t pod = kUnknownPod;

  template <class Io>
  void walk(Io& io) { io(pod); }
};

/// Edge -> FM: host (ip, amac, pmac) appeared behind me. A register for an
/// IP already mapped elsewhere is how the FM detects VM migration.
struct HostRegister {
  static constexpr const char* kName = "host_register";
  Ipv4Address ip;
  MacAddress amac;
  MacAddress pmac;
  std::uint16_t edge_port = 0;

  template <class Io>
  void walk(Io& io) { io(ip, amac, pmac, edge_port); }
};

/// Edge -> FM: proxy-ARP lookup.
struct ArpQuery {
  static constexpr const char* kName = "arp_query";
  std::uint32_t query_id = 0;
  Ipv4Address ip;

  template <class Io>
  void walk(Io& io) { io(query_id, ip); }
};

/// FM -> edge: proxy-ARP answer. `found == false` directs the edge to fall
/// back to a loop-free broadcast of the original request.
struct ArpResponse {
  static constexpr const char* kName = "arp_response";
  std::uint32_t query_id = 0;
  Ipv4Address ip;
  MacAddress pmac;
  bool found = false;

  template <class Io>
  void walk(Io& io) { io(query_id, ip, pmac, found); }
};

/// Switch -> FM: liveness of the link behind `port` changed (detected by
/// LDM timeout, or carrier in the fast-detection ablation).
struct FaultNotify {
  static constexpr const char* kName = "fault_notify";
  std::uint16_t port = 0;
  SwitchId neighbor = kInvalidSwitchId;
  bool link_up = false;

  template <class Io>
  void walk(Io& io) { io(port, neighbor, link_up); }
};

/// One reroute rule: for traffic to (dst_pod, dst_position), do not use a
/// next hop whose switch id is `avoid`. dst_position == kUnknownPosition
/// means "the whole pod".
struct PruneEntry {
  std::uint16_t dst_pod = kUnknownPod;
  std::uint8_t dst_position = kUnknownPosition;
  SwitchId avoid = kInvalidSwitchId;
  bool add = true;  // false = remove (link repaired)

  template <class Io>
  void walk(Io& io) { io(dst_pod, dst_position, avoid, add); }

  friend bool operator==(const PruneEntry&, const PruneEntry&) = default;
};

/// FM -> switch: apply these reroute rules (paper: "the fabric manager
/// informs all affected switches of the failure, which then individually
/// recalculate their forwarding tables").
struct PruneUpdate {
  static constexpr const char* kName = "prune_update";
  /// When true the switch clears all installed prunes before applying
  /// `entries` — sent by a freshly started (failed-over) fabric manager so
  /// stale reroutes from its predecessor cannot linger (§3.1 soft state).
  bool flush = false;
  std::vector<PruneEntry> entries;

  template <class Io>
  void walk(Io& io) {
    io(flush);
    io.list(entries);
  }
};

/// Edge -> FM: a host behind `host_port` joined/left `group`.
struct McastJoin {
  static constexpr const char* kName = "mcast_join";
  Ipv4Address group;
  std::uint16_t host_port = 0;

  template <class Io>
  void walk(Io& io) { io(group, host_port); }
};
struct McastLeave {
  static constexpr const char* kName = "mcast_leave";
  Ipv4Address group;
  std::uint16_t host_port = 0;

  template <class Io>
  void walk(Io& io) { io(group, host_port); }
};

/// Edge -> FM: a local host transmits to `group`; graft me into the tree.
struct McastSenderSeen {
  static constexpr const char* kName = "mcast_sender_seen";
  Ipv4Address group;

  template <class Io>
  void walk(Io& io) { io(group); }
};

/// FM -> switch: forwarding set for `group` (replicate to every listed
/// port except the ingress port). Replaces any previous entry.
struct McastInstall {
  static constexpr const char* kName = "mcast_install";
  Ipv4Address group;
  std::vector<std::uint16_t> ports;

  template <class Io>
  void walk(Io& io) {
    io(group);
    io.list(ports);
  }
};

/// FM -> switch: remove the group's forwarding entry.
struct McastRemove {
  static constexpr const char* kName = "mcast_remove";
  Ipv4Address group;

  template <class Io>
  void walk(Io& io) { io(group); }
};

/// FM -> old edge after a migration: trap frames addressed to `old_pmac`,
/// rewrite them to `new_pmac`, and unicast a gratuitous ARP correcting
/// stale caches back to each sender (paper §3.7).
struct InvalidateHost {
  static constexpr const char* kName = "invalidate_host";
  Ipv4Address ip;
  MacAddress old_pmac;
  MacAddress new_pmac;

  template <class Io>
  void walk(Io& io) { io(ip, old_pmac, new_pmac); }
};

/// FM (primary / registry shard) -> kFmReplicaId: one section of FM state
/// serialized with the snapshot plumbing. Section 0 is the primary's core
/// state (topology view, pods, prunes, multicast); section 1 + s is
/// registry shard s. `version` increments per section so the replica can
/// discard reordered stale images (control delivery is FIFO per sender,
/// so in practice versions only move forward).
struct FmDelta {
  static constexpr const char* kName = "fm_delta";
  std::uint32_t section = 0;
  std::uint64_t version = 0;
  std::vector<std::uint8_t> image;

  template <class Io>
  void walk(Io& io) {
    io(section, version);
    io.blob(image);
  }
};

using ControlBody =
    std::variant<SwitchHello, PodRequest, PodAssignment, HostRegister,
                 ArpQuery, ArpResponse, FaultNotify, PruneUpdate, McastJoin,
                 McastLeave, McastSenderSeen, McastInstall, McastRemove,
                 InvalidateHost, FmDelta>;

struct ControlMessage {
  /// Control-plane address of the sender (switch id or kFabricManagerId).
  SwitchId sender = kInvalidSwitchId;
  ControlBody body;
};

/// Serializes a control message to bytes: sender, type tag
/// (body.index() + 1), then the body's walk.
[[nodiscard]] std::vector<std::uint8_t> serialize_control(
    const ControlMessage& msg);

/// Parses bytes produced by serialize_control. Refuses an unknown tag, a
/// short body, a locator level above kCore and unread trailing bytes.
[[nodiscard]] std::optional<ControlMessage> parse_control(
    std::span<const std::uint8_t> bytes);

inline constexpr std::size_t kControlTypeCount =
    std::variant_size_v<ControlBody>;

/// Human-readable tag of the body type with variant index `index` (for
/// counters and logs).
[[nodiscard]] const char* control_type_name(std::size_t index);
[[nodiscard]] const char* control_type_name(const ControlBody& body);

}  // namespace portland::core
