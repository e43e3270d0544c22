// Typed drop reasons: one enum unifying every way the fabric discards a
// frame. Each reason maps to one id of the counter table (drop_counter),
// which a dropping device increments and whose name tests, benches and
// dashboards read; the flight recorder keys off the enum itself.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/stats.h"

namespace portland::obs {

enum class DropReason : std::uint8_t {
  kNone = 0,
  kMalformed,         // frame failed to parse
  kBeforeLocated,     // switch not yet located by LDP
  kDataOnFabricPort,  // data on a neighbor-less port of a non-edge switch
  kBadHostSrc,        // host source MAC multicast/zero
  kUnknownLocalDst,   // PMAC says "here" but no host entry and no redirect
  kNoUplink,          // no surviving (unpruned) uplink candidate
  kNoDownlink,        // aggregation: no down port at the PMAC's position
  kNoPodPort,         // core: no down port toward the PMAC's pod
  kUnlocated,         // forwarding attempted before location discovery
  kMcastNoIp,         // multicast MAC without an IPv4 header
  kMcastNoEntry,      // no FM-installed replication entry for the group
  kLinkDown,          // transmit into a failed link direction
  kQueueFull,         // drop-tail output queue overflow
  kUnconnectedPort,   // transmit out of an unwired port
  kCount
};

constexpr std::size_t kDropReasonCount =
    static_cast<std::size_t>(DropReason::kCount);

/// Short symbolic name ("no_uplink") for trace output.
[[nodiscard]] constexpr const char* drop_reason_name(DropReason r) {
  constexpr std::array<const char*, kDropReasonCount> kNames{
      "none",           "malformed",          "before_located",
      "data_on_fabric_port", "bad_host_src",  "unknown_local_dst",
      "no_uplink",      "no_downlink",        "no_pod_port",
      "unlocated",      "mcast_no_ip",        "mcast_no_entry",
      "link_down",      "queue_full",         "unconnected_port",
  };
  return kNames[static_cast<std::size_t>(r)];
}

/// Counter each reason increments: the table declares them in
/// DropReason order, from rx_malformed. kNone never counts.
static_assert(static_cast<std::size_t>(Counter::tx_drop_unconnected) -
                  static_cast<std::size_t>(Counter::rx_malformed) + 1 ==
              kDropReasonCount - 1);
[[nodiscard]] constexpr Counter drop_counter(DropReason r) {
  assert(r != DropReason::kNone && r != DropReason::kCount);
  return static_cast<Counter>(static_cast<std::size_t>(Counter::rx_malformed) +
                              static_cast<std::size_t>(r) - 1);
}

/// Name of the counter each reason increments ("drop_none" for kNone,
/// which has no counter).
[[nodiscard]] constexpr const char* drop_reason_counter(DropReason r) {
  return r == DropReason::kNone ? "drop_none" : counter_name(drop_counter(r));
}

}  // namespace portland::obs
