#include "host/arp_cache.h"

#include <algorithm>

namespace portland::host {

std::vector<ArpCache::Entry>::const_iterator ArpCache::rank(
    Ipv4Address ip) const {
  return std::lower_bound(
      entries_.begin(), entries_.end(), ip,
      [](const Entry& e, Ipv4Address key) { return e.ip < key; });
}

const ArpCache::Entry* ArpCache::find(Ipv4Address ip) const {
  const auto it = rank(ip);
  return it != entries_.end() && it->ip == ip ? &*it : nullptr;
}

void ArpCache::insert(Ipv4Address ip, MacAddress mac, SimTime now) {
  const auto it = rank(ip);
  if (it != entries_.end() && it->ip == ip) {
    Entry& e = entries_[static_cast<std::size_t>(it - entries_.begin())];
    e.mac = mac;
    e.learned_at = now;
    return;
  }
  entries_.insert(it, Entry{ip, mac, now});
}

std::optional<MacAddress> ArpCache::lookup(Ipv4Address ip, SimTime now) const {
  const Entry* e = find(ip);
  if (e == nullptr || now - e->learned_at > lifetime_) return std::nullopt;
  return e->mac;
}

void ArpCache::invalidate(Ipv4Address ip) {
  const auto it = rank(ip);
  if (it != entries_.end() && it->ip == ip) entries_.erase(it);
}

void ArpCache::snapshot(sim::SnapshotIo& io) {
  io.list(entries_, [&io](Entry& e) {
    io.field(e.ip);
    io.field(e.mac);
    io.field(e.learned_at);
  });
  if (!io.loading()) return;
  const auto unordered = std::adjacent_find(
      entries_.begin(), entries_.end(),
      [](const Entry& a, const Entry& b) { return !(a.ip < b.ip); });
  if (unordered != entries_.end()) io.fail();
}

}  // namespace portland::host
