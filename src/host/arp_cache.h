// Host-side ARP cache with entry aging.
//
// In a PortLand fabric the cached MAC for a peer is its PMAC, handed out by
// proxy ARP; entries go stale when a VM migrates, which is why gratuitous
// ARPs and the old-edge invalidation path exist (paper §3.3).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/ipv4_address.h"
#include "common/mac_address.h"
#include "common/units.h"
#include "sim/snapshot.h"

namespace portland::host {

class ArpCache {
 public:
  explicit ArpCache(SimDuration entry_lifetime) : lifetime_(entry_lifetime) {}

  void insert(Ipv4Address ip, MacAddress mac, SimTime now);

  /// Returns the mapping if present and not expired at `now`.
  [[nodiscard]] std::optional<MacAddress> lookup(Ipv4Address ip,
                                                 SimTime now) const;

  /// True if a (possibly expired) entry exists.
  [[nodiscard]] bool contains(Ipv4Address ip) const {
    return entries_.count(ip) != 0;
  }

  void invalidate(Ipv4Address ip) { entries_.erase(ip); }
  void clear() { entries_.clear(); }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] SimDuration lifetime() const { return lifetime_; }

  /// Checkpoint: entries in IP order so the image is deterministic (the
  /// map itself is unordered and only ever queried by key).
  void snapshot(sim::SnapshotIo& io) {
    io.list(entries_, [&io](Ipv4Address& ip, Entry& entry) {
      io.field(ip);
      io.field(entry.mac);
      io.field(entry.learned_at);
    });
  }

 private:
  struct Entry {
    MacAddress mac;
    SimTime learned_at = 0;
  };

  SimDuration lifetime_;
  std::unordered_map<Ipv4Address, Entry> entries_;
};

}  // namespace portland::host
