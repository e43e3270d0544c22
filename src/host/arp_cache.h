// Host-side ARP cache with entry aging.
//
// In a PortLand fabric the cached MAC for a peer is its PMAC, handed out by
// proxy ARP; entries go stale when a VM migrates, which is why gratuitous
// ARPs and the old-edge invalidation path exist (paper §3.3).
//
// Every host keeps one, so the cache is a single array sorted by IP: 24
// bytes per entry and no per-entry node or bucket array, searched by
// binary search. A host resolves a peer once per lifetime and then hits
// the entry on every send, so inserts (a shift at the entry's rank) are
// rare next to lookups.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ipv4_address.h"
#include "common/mac_address.h"
#include "common/units.h"
#include "sim/snapshot.h"

namespace portland::host {

class ArpCache {
 public:
  explicit ArpCache(SimDuration entry_lifetime) : lifetime_(entry_lifetime) {}

  /// Adds `ip`'s entry, or refreshes it in place.
  void insert(Ipv4Address ip, MacAddress mac, SimTime now);

  /// Returns the mapping if present and not expired at `now`.
  [[nodiscard]] std::optional<MacAddress> lookup(Ipv4Address ip,
                                                 SimTime now) const;

  /// True if a (possibly expired) entry exists.
  [[nodiscard]] bool contains(Ipv4Address ip) const {
    return find(ip) != nullptr;
  }

  void invalidate(Ipv4Address ip);
  void clear() { entries_.clear(); }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] SimDuration lifetime() const { return lifetime_; }

  /// Checkpoint: entries in IP order, which is the array's own order. A
  /// load refuses entries that are not in strictly ascending IP order.
  void snapshot(sim::SnapshotIo& io);

 private:
  struct Entry {
    Ipv4Address ip;
    MacAddress mac;
    SimTime learned_at = 0;
  };

  /// The first entry whose IP is not below `ip`.
  [[nodiscard]] std::vector<Entry>::const_iterator rank(Ipv4Address ip) const;
  [[nodiscard]] const Entry* find(Ipv4Address ip) const;

  SimDuration lifetime_;
  std::vector<Entry> entries_;  // sorted by ip, unique
};

}  // namespace portland::host
