// HostTable: the edge switch's AMAC<->PMAC host table.
//
// Entries live in one contiguous vector; two sorted slot-id index vectors
// (ordered by AMAC / by PMAC, keys derived from the entries themselves) give
// binary-search lookup at 4 bytes per index entry. An edge switch learns at
// most k/2 hosts (plus migrants), so the O(n) index shifts on insert are
// negligible while lookups stay cache-resident — this is the O(k)-state
// table the paper's §3 argument promises. Reservation is lazy: aggregation
// and core switches construct a HostTable but never insert, so they never
// allocate.
//
// Behavioral invariant: iteration (for_each) is ascending by AMAC, because
// the periodic soft-state refresh walks the table to emit HostRegister
// messages and their order is part of the deterministic event stream.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/mac_address.h"
#include "common/ipv4_address.h"
#include "common/memsize.h"
#include "core/pmac.h"
#include "sim/device.h"
#include "sim/snapshot.h"

namespace portland::core {

struct HostEntry {
  MacAddress amac;
  Pmac pmac;
  Ipv4Address ip;  // zero until first IP-bearing frame
  sim::PortId port = 0;
};

class HostTable {
 public:
  /// Sizing hint, applied lazily at the first insert — switches that
  /// never learn a host (aggregation, core) never allocate.
  void reserve(std::size_t hosts) { hint_ = hosts; }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  [[nodiscard]] HostEntry* find_amac(MacAddress amac) {
    const std::uint32_t slot = index_find(by_amac_, kAmac, amac.to_u64());
    return slot == kNoSlot ? nullptr : &slots_[slot];
  }
  [[nodiscard]] const HostEntry* find_amac(MacAddress amac) const {
    return const_cast<HostTable*>(this)->find_amac(amac);
  }

  [[nodiscard]] const HostEntry* find_pmac(MacAddress pmac) const {
    const std::uint32_t slot = index_find(by_pmac_, kPmac, pmac.to_u64());
    return slot == kNoSlot ? nullptr : &slots_[slot];
  }

  /// Inserts a new host (AMAC must be absent). The returned pointer is
  /// valid until the next insert or erase.
  HostEntry* insert(const HostEntry& e) {
    if (slots_.capacity() == 0 && hint_ != 0) {
      slots_.reserve(hint_);
      by_amac_.reserve(hint_);
      by_pmac_.reserve(hint_);
    }
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(e);
    index_insert(by_amac_, kAmac, slot);
    index_insert(by_pmac_, kPmac, slot);
    return &slots_[slot];
  }

  /// Re-keys an entry's PMAC (local migration to a new port/vmid) and
  /// fixes the PMAC index. `e` must point into this table.
  void rekey_pmac(HostEntry& e, Pmac new_pmac) {
    const auto slot = static_cast<std::uint32_t>(&e - slots_.data());
    index_erase(by_pmac_, kPmac, key_of(kPmac, slot));  // old key still live
    e.pmac = new_pmac;
    index_insert(by_pmac_, kPmac, slot);
  }

  /// Removes the host a PMAC maps to (migration invalidation). Returns
  /// false when the PMAC is unknown. Invalidates entry pointers (the
  /// vacated slot is back-filled from the end).
  bool erase_by_pmac(MacAddress pmac) {
    const std::uint32_t slot = index_find(by_pmac_, kPmac, pmac.to_u64());
    if (slot == kNoSlot) return false;
    index_erase(by_amac_, kAmac, key_of(kAmac, slot));
    index_erase(by_pmac_, kPmac, pmac.to_u64());
    const auto last = static_cast<std::uint32_t>(slots_.size() - 1);
    if (slot != last) {
      // Re-point the index entries of the entry being moved down.
      *index_ref(by_amac_, kAmac, key_of(kAmac, last)) = slot;
      *index_ref(by_pmac_, kPmac, key_of(kPmac, last)) = slot;
      slots_[slot] = slots_[last];
    }
    slots_.pop_back();
    return true;
  }

  /// Visits every host in ascending AMAC order (determinism-relevant).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::uint32_t slot : by_amac_) fn(slots_[slot]);
  }

  [[nodiscard]] std::size_t bytes() const {
    return vector_bytes(slots_) + vector_bytes(by_amac_) +
           vector_bytes(by_pmac_);
  }

  /// Checkpoint: slots and both index vectors, verbatim (slot order is
  /// state — erase back-fills from the end).
  void save_state(sim::SnapshotWriter& w) const {
    w.u32(static_cast<std::uint32_t>(slots_.size()));
    for (const HostEntry& e : slots_) {
      w.u64(e.amac.to_u64());
      w.u64(e.pmac.to_mac().to_u64());
      w.u32(e.ip.value());
      w.u64(e.port);
    }
    for (const std::uint32_t slot : by_amac_) w.u32(slot);
    for (const std::uint32_t slot : by_pmac_) w.u32(slot);
  }

  void restore_state(sim::SnapshotReader& r) {
    const std::uint32_t n = r.count();
    slots_.clear();
    by_amac_.clear();
    by_pmac_.clear();
    slots_.reserve(n);
    by_amac_.reserve(n);
    by_pmac_.reserve(n);
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      HostEntry e;
      e.amac = MacAddress::from_u64(r.u64());
      e.pmac = Pmac::from_mac(MacAddress::from_u64(r.u64()));
      e.ip = Ipv4Address(r.u32());
      e.port = r.u64();
      slots_.push_back(e);
    }
    for (Index* idx : {&by_amac_, &by_pmac_}) {
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        const std::uint32_t slot = r.u32();
        if (slot >= n) r.fail();  // a corrupt image; never index past slots_
        idx->push_back(slot);
      }
    }
  }

 private:
  using Index = std::vector<std::uint32_t>;  // slot ids, sorted by key
  enum Kind { kAmac, kPmac };
  static constexpr std::uint32_t kNoSlot = 0xFFFF'FFFF;

  [[nodiscard]] std::uint64_t key_of(Kind kind, std::uint32_t slot) const {
    const HostEntry& e = slots_[slot];
    return kind == kAmac ? e.amac.to_u64() : e.pmac.to_mac().to_u64();
  }
  [[nodiscard]] Index::iterator index_lower(Index& idx, Kind kind,
                                            std::uint64_t key) {
    return std::lower_bound(idx.begin(), idx.end(), key,
                            [this, kind](std::uint32_t slot, std::uint64_t k) {
                              return key_of(kind, slot) < k;
                            });
  }
  [[nodiscard]] std::uint32_t index_find(const Index& idx, Kind kind,
                                         std::uint64_t key) const {
    auto& mut = const_cast<Index&>(idx);
    const auto it = const_cast<HostTable*>(this)->index_lower(mut, kind, key);
    return (it != idx.end() && key_of(kind, *it) == key) ? *it : kNoSlot;
  }
  void index_insert(Index& idx, Kind kind, std::uint32_t slot) {
    idx.insert(index_lower(idx, kind, key_of(kind, slot)), slot);
  }
  void index_erase(Index& idx, Kind kind, std::uint64_t key) {
    const auto it = index_lower(idx, kind, key);
    if (it != idx.end() && key_of(kind, *it) == key) idx.erase(it);
  }
  /// Iterator to the index entry holding `key` (must exist).
  [[nodiscard]] Index::iterator index_ref(Index& idx, Kind kind,
                                          std::uint64_t key) {
    return index_lower(idx, kind, key);
  }

  std::size_t hint_ = 0;
  std::vector<HostEntry> slots_;
  Index by_amac_;
  Index by_pmac_;
};

}  // namespace portland::core
