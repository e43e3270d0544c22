// Host-side ARP cache with entry aging.
//
// In a PortLand fabric the cached MAC for a peer is its PMAC, handed out by
// proxy ARP; entries go stale when a VM migrates, which is why gratuitous
// ARPs and the old-edge invalidation path exist (paper §3.3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

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

  /// Checkpoint: entries sorted by IP so the image is deterministic (the
  /// map itself is unordered and only ever queried by key).
  void save_state(sim::SnapshotWriter& w) const {
    std::vector<std::pair<Ipv4Address, Entry>> sorted(entries_.begin(),
                                                      entries_.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.first.value() < b.first.value();
    });
    w.u32(static_cast<std::uint32_t>(sorted.size()));
    for (const auto& [ip, entry] : sorted) {
      w.u32(ip.value());
      w.u64(entry.mac.to_u64());
      w.i64(entry.learned_at);
    }
  }

  void restore_state(sim::SnapshotReader& r) {
    entries_.clear();
    const std::uint32_t n = r.count();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      const Ipv4Address ip(r.u32());
      Entry entry;
      entry.mac = MacAddress::from_u64(r.u64());
      entry.learned_at = r.i64();
      entries_.emplace(ip, entry);
    }
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
