#include "core/fabric_graph.h"

#include <algorithm>
#include <cstring>

#include "sim/snapshot.h"

namespace portland::core {
namespace {

std::uint32_t be32_at(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return detail::to_net(v);
}

std::uint64_t be64_at(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return detail::to_net(v);
}

constexpr std::size_t kOffsetEntryBytes = 12;  // u64 id + u32 offset
constexpr std::size_t kLinkRecordBytes = 17;   // u64 a + u64 b + u8 up
constexpr std::size_t kPortRecordBytes = 10;   // u16 port + u64 neighbour
// u64 id + locator (u64 + u8 + u16 + u8) + u32 n_ports + u32 n_neighbours
constexpr std::size_t kSwitchHeaderBytes = 8 + 12 + 4 + 4;
constexpr std::size_t kDirtyCap = 128;

/// Open-addressing hash of a normalized link key.
std::size_t link_hash(SwitchId a, SwitchId b) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull ^ b;
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  return static_cast<std::size_t>(x);
}

}  // namespace

template <typename InfoVec>
std::uint32_t FabricGraph::find_slot(const InfoVec& v, SwitchId id) {
  const auto it = std::lower_bound(
      v.begin(), v.end(), id,
      [](const auto& info, SwitchId x) { return info.id < x; });
  if (it == v.end() || it->id != id) return kNoSlot;
  return static_cast<std::uint32_t>(it - v.begin());
}

HelloDelta FabricGraph::apply_hello(SwitchId id, const SwitchHello& hello) {
  canonicalize(hello);
  bool created = false;
  SwitchState& st = upsert_switch(id, created);
  if (created) {
    note_switch_dirty(id);
  } else if (st.locator == hello.self && st.ports == scratch_ports_ &&
             st.nbrs == scratch_nbrs_) {
    // Same report. Every stored neighbour already has its link cell (see
    // nbr_links), so ingesting it again would write exactly what is
    // stored.
    return {};
  }

  // Effective adjacency before the hello: reported neighbors whose link the
  // fault matrix still believes alive. Captured before the fresh neighbors
  // are ingested (ingestion adds default-alive cells).
  std::vector<SwitchId>& old_effective = scratch_live_;
  old_effective.clear();
  for (std::size_t i = 0; i < st.nbrs.size(); ++i) {
    if (link_up(st.nbr_links[i])) old_effective.push_back(st.nbrs[i]);
  }

  HelloDelta delta;
  const bool locator_changed = st.locator != hello.self;
  delta.changed = locator_changed || st.ports != scratch_ports_ ||
                  st.nbrs != scratch_nbrs_;
  st.locator = hello.self;
  st.ports = scratch_ports_;
  st.nbrs = scratch_nbrs_;
  st.nbr_links.assign(st.nbrs.size(), kNoSlot);
  for (std::size_t i = 0; i < st.nbrs.size(); ++i) {
    const SwitchId n = st.nbrs[i];
    std::uint32_t slot = find_link(id, n);
    if (slot == kNoSlot) {
      // Newly learned links default to alive.
      slot = add_link(id, n, true);
      note_link_dirty(std::minmax(id, n));
    }
    st.nbr_links[i] = slot;
  }

  if (delta.changed) note_switch_dirty(id);
  if (delta.changed && idx_.valid) {
    if (!locator_changed) {
      // Same locator: the switch population and every level/pod/position
      // the index depends on are untouched; only this switch's own
      // adjacency lists can differ, so patch them in place. (A
      // brand-new switch always takes the invalidate branch — its old
      // locator is the default-constructed one.)
      patch_index_adjacency(st);
    } else {
      idx_.valid = false;
    }
  }

  delta.routing_changed = locator_changed;
  if (!delta.routing_changed) {
    std::size_t j = 0;
    for (std::size_t i = 0; i < st.nbrs.size(); ++i) {
      if (!link_up(st.nbr_links[i])) continue;
      if (j == old_effective.size() || old_effective[j] != st.nbrs[i]) {
        delta.routing_changed = true;
        break;
      }
      ++j;
    }
    if (j != old_effective.size()) delta.routing_changed = true;
  }
  return delta;
}

void FabricGraph::canonicalize(const SwitchHello& hello) {
  scratch_nbrs_.clear();
  for (const NeighborEntry& n : hello.neighbors) {
    scratch_nbrs_.push_back(n.neighbor.switch_id);
  }
  std::sort(scratch_nbrs_.begin(), scratch_nbrs_.end());
  scratch_nbrs_.erase(std::unique(scratch_nbrs_.begin(), scratch_nbrs_.end()),
                      scratch_nbrs_.end());

  scratch_ports_.clear();
  bool ascending = true;
  for (const NeighborEntry& n : hello.neighbors) {
    const auto it = std::lower_bound(scratch_nbrs_.begin(), scratch_nbrs_.end(),
                                     n.neighbor.switch_id);
    if (!scratch_ports_.empty() && scratch_ports_.back().port >= n.port) {
      ascending = false;
    }
    scratch_ports_.push_back(
        {n.port, static_cast<std::uint32_t>(it - scratch_nbrs_.begin())});
  }
  if (ascending) return;
  // A port reported twice keeps its last neighbour: stable-sort by port,
  // then keep the last row of each run.
  std::stable_sort(scratch_ports_.begin(), scratch_ports_.end(),
                   [](const Port& x, const Port& y) { return x.port < y.port; });
  std::size_t w = 0;
  for (std::size_t i = 0; i < scratch_ports_.size(); ++i) {
    if (i + 1 < scratch_ports_.size() &&
        scratch_ports_[i + 1].port == scratch_ports_[i].port) {
      continue;
    }
    scratch_ports_[w++] = scratch_ports_[i];
  }
  scratch_ports_.resize(w);
}

bool FabricGraph::set_link_state(SwitchId a, SwitchId b, bool up) {
  const std::uint32_t slot = find_link(a, b);
  if (slot == kNoSlot) {
    // A cell no hello named: no adjacency entry refers to it, so the
    // index is unaffected.
    add_link(a, b, up);
  } else if (links_[slot].up == up) {
    return false;
  } else {
    set_up(slot, up);
  }
  note_link_dirty(std::minmax(a, b));
  return true;
}

std::vector<FabricGraph::SwitchState>::iterator FabricGraph::switch_pos(
    SwitchId id) {
  return std::lower_bound(
      switches_.begin(), switches_.end(), id,
      [](const SwitchState& st, SwitchId x) { return st.id < x; });
}

FabricGraph::SwitchState* FabricGraph::find_switch(SwitchId id) {
  const auto it = switch_pos(id);
  return it == switches_.end() || it->id != id ? nullptr : &*it;
}

const FabricGraph::SwitchState* FabricGraph::find_switch(SwitchId id) const {
  return const_cast<FabricGraph*>(this)->find_switch(id);
}

FabricGraph::SwitchState& FabricGraph::upsert_switch(SwitchId id,
                                                     bool& created) {
  const auto it = switch_pos(id);
  created = it == switches_.end() || it->id != id;
  if (!created) return *it;
  SwitchState fresh;
  fresh.id = id;
  return *switches_.insert(it, std::move(fresh));
}

std::uint32_t FabricGraph::find_link(SwitchId a, SwitchId b) const {
  if (link_table_.empty()) return kNoSlot;
  if (b < a) std::swap(a, b);
  const std::size_t mask = link_table_.size() - 1;
  for (std::size_t i = link_hash(a, b) & mask;; i = (i + 1) & mask) {
    const std::uint32_t slot = link_table_[i];
    if (slot == kNoSlot) return kNoSlot;
    if (links_[slot].a == a && links_[slot].b == b) return slot;
  }
}

std::uint32_t FabricGraph::add_link(SwitchId a, SwitchId b, bool up) {
  if (b < a) std::swap(a, b);
  const auto slot = static_cast<std::uint32_t>(links_.size());
  links_.push_back({a, b, up});
  if (!up) ++failed_links_;
  link_order_.clear();
  if (2 * links_.size() > link_table_.size()) {
    rehash();  // indexes the new cell too
  } else {
    index_link(slot);
  }
  return slot;
}

void FabricGraph::index_link(std::uint32_t slot) {
  const std::size_t mask = link_table_.size() - 1;
  std::size_t i = link_hash(links_[slot].a, links_[slot].b) & mask;
  while (link_table_[i] != kNoSlot) i = (i + 1) & mask;
  link_table_[i] = slot;
}

void FabricGraph::rehash() {
  // At most half full, so a probe always meets an empty cell.
  std::size_t cap = 16;
  while (cap < 2 * links_.size()) cap *= 2;
  link_table_.assign(cap, kNoSlot);
  for (std::uint32_t slot = 0; slot < links_.size(); ++slot) index_link(slot);
}

void FabricGraph::set_up(std::uint32_t slot, bool up) {
  Link& link = links_[slot];
  if (link.up == up) return;
  link.up = up;
  if (up) {
    --failed_links_;
  } else {
    ++failed_links_;
  }
}

bool FabricGraph::relink(SwitchState& st) {
  bool complete = true;
  st.nbr_links.resize(st.nbrs.size());
  for (std::size_t i = 0; i < st.nbrs.size(); ++i) {
    st.nbr_links[i] = find_link(st.id, st.nbrs[i]);
    complete = complete && st.nbr_links[i] != kNoSlot;
  }
  return complete;
}

void FabricGraph::erase_links(const std::vector<std::uint32_t>& slots) {
  std::vector<std::uint8_t> gone(links_.size(), 0);
  for (const std::uint32_t s : slots) gone[s] = 1;
  std::size_t w = 0;
  failed_links_ = 0;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (gone[i]) continue;
    if (!links_[i].up) ++failed_links_;
    links_[w++] = links_[i];
  }
  links_.resize(w);
  link_order_.clear();
  rehash();
}

const SwitchLocator* FabricGraph::locator(SwitchId id) const {
  const SwitchState* st = find_switch(id);
  return st == nullptr ? nullptr : &st->locator;
}

bool FabricGraph::link_alive(SwitchId a, SwitchId b) const {
  return link_up(find_link(a, b));
}

bool FabricGraph::adjacent(SwitchId a, SwitchId b) const {
  const SwitchState* st = find_switch(a);
  return st != nullptr &&
         std::binary_search(st->nbrs.begin(), st->nbrs.end(), b);
}

int FabricGraph::port_between(SwitchId from, SwitchId to) const {
  const SwitchState* st = find_switch(from);
  if (st == nullptr) return -1;
  const auto it = std::lower_bound(st->nbrs.begin(), st->nbrs.end(), to);
  if (it == st->nbrs.end() || *it != to) return -1;
  const auto nbr = static_cast<std::uint32_t>(it - st->nbrs.begin());
  for (const Port& p : st->ports) {
    if (p.nbr == nbr) return static_cast<int>(p.port);
  }
  return -1;
}

std::vector<SwitchId> FabricGraph::switches_at(Level level) const {
  std::vector<SwitchId> out;
  for (const SwitchState& st : switches_) {
    if (st.locator.level == level) out.push_back(st.id);
  }
  return out;
}

std::vector<SwitchId> FabricGraph::edges_in_pod(std::uint16_t pod) const {
  std::vector<SwitchId> out;
  for (const SwitchState& st : switches_) {
    if (st.locator.level == Level::kEdge && st.locator.pod == pod) {
      out.push_back(st.id);
    }
  }
  return out;
}

std::vector<SwitchId> FabricGraph::aggs_in_pod(std::uint16_t pod) const {
  std::vector<SwitchId> out;
  for (const SwitchState& st : switches_) {
    if (st.locator.level == Level::kAggregation && st.locator.pod == pod) {
      out.push_back(st.id);
    }
  }
  return out;
}

std::vector<SwitchId> FabricGraph::cores() const {
  return switches_at(Level::kCore);
}

std::span<const SwitchId> FabricGraph::neighbors(SwitchId id) const {
  const SwitchState* st = find_switch(id);
  if (st == nullptr) return {};
  return st->nbrs;
}

SwitchId FabricGraph::edge_at(std::uint16_t pod, std::uint8_t position) const {
  for (const SwitchState& st : switches_) {
    if (st.locator.level == Level::kEdge && st.locator.pod == pod &&
        st.locator.position == position) {
      return st.id;
    }
  }
  return kInvalidSwitchId;
}

const FabricGraph::TopoIndex& FabricGraph::index() const {
  if (idx_.valid) return idx_;
  TopoIndex& ix = idx_;
  ix.cores.clear();
  ix.aggs.clear();
  ix.edges.clear();
  ix.aggs_by_pod.clear();
  ix.edges_by_pod.clear();

  // Pass 1: slot assignment per level, ascending id (switch order).
  for (const SwitchState& st : switches_) {
    switch (st.locator.level) {
      case Level::kCore: {
        ix.cores.push_back({st.id, {}});
        break;
      }
      case Level::kAggregation: {
        ix.aggs_by_pod.emplace_back(
            st.locator.pod, static_cast<std::uint32_t>(ix.aggs.size()));
        ix.aggs.push_back({st.id, st.locator.pod, {}, {}});
        break;
      }
      case Level::kEdge: {
        ix.edges_by_pod.emplace_back(
            st.locator.pod, static_cast<std::uint32_t>(ix.edges.size()));
        ix.edges.push_back({st.id, st.locator.pod, st.locator.position, {}});
        break;
      }
      default:
        break;
    }
  }
  std::sort(ix.aggs_by_pod.begin(), ix.aggs_by_pod.end());
  std::sort(ix.edges_by_pod.begin(), ix.edges_by_pod.end());

  // Pass 2: adjacency lists, each from the owning switch's own report.
  // Slots are found by binary search on the pass-1 vectors, which switch
  // order keeps ascending by id.
  std::size_t c = 0, a = 0, e = 0;
  for (const SwitchState& st : switches_) {
    switch (st.locator.level) {
      case Level::kCore:
        build_site_adjacency(ix, Level::kCore, c++, st);
        break;
      case Level::kAggregation:
        build_site_adjacency(ix, Level::kAggregation, a++, st);
        break;
      case Level::kEdge:
        build_site_adjacency(ix, Level::kEdge, e++, st);
        break;
      default:
        break;
    }
  }
  ix.valid = true;
  return ix;
}

void FabricGraph::build_site_adjacency(TopoIndex& ix, Level level,
                                       std::size_t slot,
                                       const SwitchState& st) const {
  switch (level) {
    case Level::kCore: {
      TopoIndex::CoreInfo& core = ix.cores[slot];
      core.down.clear();
      for (std::size_t i = 0; i < st.nbrs.size(); ++i) {
        const std::uint32_t as = find_slot(ix.aggs, st.nbrs[i]);
        if (as == kNoSlot) continue;
        core.down.push_back({as, ix.aggs[as].pod, st.nbr_links[i]});
      }
      break;
    }
    case Level::kAggregation: {
      TopoIndex::AggInfo& agg = ix.aggs[slot];
      agg.up.clear();
      agg.down.clear();
      for (std::size_t i = 0; i < st.nbrs.size(); ++i) {
        const SwitchId nbr = st.nbrs[i];
        if (const std::uint32_t cs = find_slot(ix.cores, nbr); cs != kNoSlot) {
          agg.up.push_back({cs, st.nbr_links[i]});
        } else if (const SwitchLocator* loc = locator(nbr);
                   loc != nullptr && loc->level == Level::kEdge) {
          agg.down.push_back({nbr, st.nbr_links[i]});
        }
      }
      break;
    }
    case Level::kEdge: {
      TopoIndex::EdgeInfo& edge = ix.edges[slot];
      edge.aggs.clear();
      for (const SwitchId nbr : st.nbrs) {
        const std::uint32_t as = find_slot(ix.aggs, nbr);
        if (as != kNoSlot) edge.aggs.push_back(as);
      }
      break;
    }
    default:
      break;
  }
}

void FabricGraph::patch_index_adjacency(const SwitchState& st) const {
  TopoIndex& ix = idx_;
  if (!ix.valid) return;
  std::uint32_t slot = kNoSlot;
  switch (st.locator.level) {
    case Level::kCore:
      slot = find_slot(ix.cores, st.id);
      break;
    case Level::kAggregation:
      slot = find_slot(ix.aggs, st.id);
      break;
    case Level::kEdge:
      slot = find_slot(ix.edges, st.id);
      break;
    default:
      // Unknown-level switches are not in the index; their own adjacency
      // lists don't exist and nothing referencing them changed.
      return;
  }
  if (slot == kNoSlot) {
    ix.valid = false;  // population drifted; shouldn't happen
    return;
  }
  build_site_adjacency(ix, st.locator.level, slot, st);
}

PruneMap FabricGraph::compute_prunes(const DstKey& key) const {
  PruneMap out;
  const bool pod_level = key.position == kUnknownPosition;
  const TopoIndex& ix = index();
  const auto pod_range = [&key](const TopoIndex::PodSlots& v) {
    return std::equal_range(
        v.begin(), v.end(), std::make_pair(key.pod, std::uint32_t{0}),
        [](const auto& x, const auto& y) { return x.first < y.first; });
  };
  const auto [edges_begin, edges_end] = pod_range(ix.edges_by_pod);

  // The target edge: the lowest id registered at (pod, position), as
  // edge_at would answer.
  SwitchId target_edge = kInvalidSwitchId;
  if (!pod_level) {
    for (auto it = edges_begin; it != edges_end; ++it) {
      if (ix.edges[it->second].position == key.position) {
        target_edge = ix.edges[it->second].id;
        break;
      }
    }
    if (target_edge == kInvalidSwitchId) return out;
  }

  // Which aggs in the destination pod still have an alive downlink to the
  // target edge (trivially all of them for pod-level keys).
  std::vector<std::uint8_t> agg_serves(ix.aggs.size(), pod_level ? 1 : 0);
  if (!pod_level) {
    const auto [begin, end] = pod_range(ix.aggs_by_pod);
    for (auto it = begin; it != end; ++it) {
      for (const TopoIndex::AggDown& down : ix.aggs[it->second].down) {
        if (down.edge == target_edge && link_up(down.link)) {
          agg_serves[it->second] = 1;
          break;
        }
      }
    }
  }

  // Cores that can still deliver to the destination: an alive downlink (by
  // the core's report) into a destination-pod agg that still serves it.
  std::vector<std::uint8_t> ok_core(ix.cores.size(), 0);
  for (std::uint32_t c = 0; c < ix.cores.size(); ++c) {
    for (const TopoIndex::CoreDown& down : ix.cores[c].down) {
      if (down.pod == key.pod && link_up(down.link) && agg_serves[down.agg]) {
        ok_core[c] = 1;
        break;
      }
    }
  }

  // 1. Aggregation switches in other pods avoid cores that lost the
  //    destination. 2 (hoisted). An agg has a surviving path iff any alive
  //    uplink reaches an ok core — this depends only on the agg, not on
  //    which edge sits below it.
  std::vector<std::uint8_t> agg_has_path(ix.aggs.size(), 0);
  for (std::uint32_t a = 0; a < ix.aggs.size(); ++a) {
    const TopoIndex::AggInfo& agg = ix.aggs[a];
    bool has_path = false;
    for (const TopoIndex::AggUp& up : agg.up) {
      if (link_up(up.link) && ok_core[up.core]) has_path = true;
    }
    agg_has_path[a] = has_path ? 1 : 0;
    if (agg.pod == key.pod) continue;
    std::set<SwitchId>* avoid = nullptr;
    for (const TopoIndex::AggUp& up : agg.up) {
      if (ok_core[up.core]) continue;
      if (avoid == nullptr) avoid = &out[agg.id];
      avoid->insert(ix.cores[up.core].id);
    }
  }

  // 2. Edge switches in other pods avoid aggregation switches with no
  //    surviving core toward the destination.
  for (const TopoIndex::EdgeInfo& edge : ix.edges) {
    if (edge.pod == key.pod) continue;
    std::set<SwitchId>* avoid = nullptr;
    for (const std::uint32_t a : edge.aggs) {
      if (agg_has_path[a]) continue;
      if (avoid == nullptr) avoid = &out[edge.id];
      avoid->insert(ix.aggs[a].id);
    }
  }

  // 3. Edges inside the destination pod avoid aggregation switches whose
  //    downlink to the destination edge died (edge-locator keys only).
  if (!pod_level) {
    for (auto it = edges_begin; it != edges_end; ++it) {
      const TopoIndex::EdgeInfo& edge = ix.edges[it->second];
      if (edge.id == target_edge) continue;
      std::set<SwitchId>* avoid = nullptr;
      for (const std::uint32_t a : edge.aggs) {
        if (agg_serves[a]) continue;
        if (avoid == nullptr) avoid = &out[edge.id];
        avoid->insert(ix.aggs[a].id);
      }
    }
  }

  return out;
}

std::vector<DstKey> FabricGraph::keys_for_link(SwitchId a, SwitchId b) const {
  const SwitchLocator* la = locator(a);
  const SwitchLocator* lb = locator(b);
  if (la == nullptr || lb == nullptr) return {};

  // Normalize so `la` is the lower level.
  if (static_cast<int>(la->level) > static_cast<int>(lb->level)) {
    std::swap(la, lb);
  }
  if (la->level == Level::kEdge && lb->level == Level::kAggregation) {
    if (la->pod == kUnknownPod || la->position == kUnknownPosition) return {};
    return {DstKey{la->pod, la->position}};
  }
  if (la->level == Level::kAggregation && lb->level == Level::kCore) {
    if (la->pod == kUnknownPod) return {};
    return {DstKey{la->pod, kUnknownPosition}};
  }
  return {};
}

void FabricGraph::note_switch_dirty(SwitchId id) {
  if (dirty_switches_.size() >= kDirtyCap) {
    dirty_overflow_ = true;
    return;
  }
  dirty_switches_.push_back(id);
}

void FabricGraph::note_link_dirty(std::pair<SwitchId, SwitchId> key) {
  if (dirty_links_.size() >= kDirtyCap) {
    dirty_overflow_ = true;
    return;
  }
  dirty_links_.push_back(key);
}

void FabricGraph::clear() {
  switches_.clear();
  links_.clear();
  link_table_.clear();
  failed_links_ = 0;
  link_order_.clear();
  idx_.valid = false;
  restored_hash_valid_ = false;
  dirty_overflow_ = false;
  dirty_switches_.clear();
  dirty_links_.clear();
}

void FabricGraph::save_payload(sim::SnapshotWriter& w) const {
  // Payload layout (framed by SnapshotIo::hashed):
  //   u32 n_switches | n × (u64 id, u32 offset into switch block)
  //   | u32 switch-block length | switch block (records below)
  //   | u32 n_links | n × (u64 a, u64 b, u8 up)   fixed 17-byte stride
  // The offset table + fixed-stride link block let a restore onto a graph
  // already holding this exact payload touch only its own dirty entries
  // (see merge_selective). Record sizes are known up front, so the table
  // and the block are written in one pass.
  const auto record_bytes = [](const SwitchState& st) {
    return kSwitchHeaderBytes + kPortRecordBytes * st.ports.size() +
           sizeof(std::uint64_t) * st.nbrs.size();
  };
  std::size_t block_len = 0;
  for (const SwitchState& st : switches_) block_len += record_bytes(st);
  if (link_order_.size() != links_.size()) {
    link_order_.resize(links_.size());
    for (std::uint32_t i = 0; i < links_.size(); ++i) link_order_[i] = i;
    std::sort(link_order_.begin(), link_order_.end(),
              [this](std::uint32_t x, std::uint32_t y) {
                const Link& lx = links_[x];
                const Link& ly = links_[y];
                return lx.a != ly.a ? lx.a < ly.a : lx.b < ly.b;
              });
  }

  w.u32(static_cast<std::uint32_t>(switches_.size()));
  std::uint32_t off = 0;
  for (const SwitchState& st : switches_) {
    w.u64(st.id);
    w.u32(off);
    off += static_cast<std::uint32_t>(record_bytes(st));
  }
  w.u32(static_cast<std::uint32_t>(block_len));
  for (const SwitchState& st : switches_) {
    w.u64(st.id);
    w.u64(st.locator.switch_id);
    w.u8(static_cast<std::uint8_t>(st.locator.level));
    w.u16(st.locator.pod);
    w.u8(st.locator.position);
    w.u32(static_cast<std::uint32_t>(st.ports.size()));
    for (const Port& p : st.ports) {
      w.u16(p.port);
      w.u64(st.nbrs[p.nbr]);
    }
    w.u32(static_cast<std::uint32_t>(st.nbrs.size()));
    for (const SwitchId n : st.nbrs) w.u64(n);
  }
  w.u32(static_cast<std::uint32_t>(links_.size()));
  for (const std::uint32_t slot : link_order_) {
    const Link& link = links_[slot];
    w.u64(link.a);
    w.u64(link.b);
    w.u8(link.up ? 1 : 0);
  }
}

void FabricGraph::merge_switch_body(sim::SnapshotReader& r, SwitchState& st,
                                    MergeNotes& notes) {
  SwitchLocator loc;
  loc.switch_id = r.u64();
  loc.level = static_cast<Level>(r.u8());
  loc.pod = r.u16();
  loc.position = r.u8();
  if (st.locator != loc) {
    st.locator = loc;
    notes.structural = true;
  }

  // A saved record is canonical: ports strictly ascending, neighbours
  // strictly ascending, every port facing a listed neighbour. Anything
  // else did not come from a save and is refused.
  scratch_pairs_.clear();
  const std::uint32_t n_ports = r.count(kPortRecordBytes);
  for (std::uint32_t p = 0; p < n_ports && r.ok(); ++p) {
    const std::uint16_t port = r.u16();
    const SwitchId nbr = r.u64();
    if (!scratch_pairs_.empty() && scratch_pairs_.back().first >= port) {
      r.fail();
    }
    scratch_pairs_.emplace_back(port, nbr);
  }
  scratch_nbrs_.clear();
  const std::uint32_t n_neighbors = r.count(sizeof(std::uint64_t));
  for (std::uint32_t p = 0; p < n_neighbors && r.ok(); ++p) {
    const SwitchId nbr = r.u64();
    if (!scratch_nbrs_.empty() && scratch_nbrs_.back() >= nbr) r.fail();
    scratch_nbrs_.push_back(nbr);
  }
  scratch_ports_.clear();
  for (const auto& [port, nbr] : scratch_pairs_) {
    const auto it =
        std::lower_bound(scratch_nbrs_.begin(), scratch_nbrs_.end(), nbr);
    if (it == scratch_nbrs_.end() || *it != nbr) {
      r.fail();
      break;
    }
    scratch_ports_.push_back(
        {port, static_cast<std::uint32_t>(it - scratch_nbrs_.begin())});
  }
  if (!r.ok()) return;

  if (st.nbrs != scratch_nbrs_) {
    st.nbrs = scratch_nbrs_;
    st.nbr_links.assign(st.nbrs.size(), kNoSlot);  // relinked after merge
    notes.adj.push_back(st.id);
  }
  // Port mappings feed port_between / multicast mirrors, not the index.
  if (st.ports != scratch_ports_) st.ports = scratch_ports_;
}

bool FabricGraph::rebuild(std::span<const std::uint8_t> payload) {
  clear();
  sim::SnapshotReader r(payload);
  MergeNotes notes;  // a rebuild re-derives everything anyway
  const std::uint32_t n_switches = r.count(kOffsetEntryBytes);
  const std::span<const std::uint8_t> table =
      r.bytes_view(kOffsetEntryBytes * n_switches);
  (void)r.u32();  // switch-block length
  if (r.ok()) switches_.reserve(n_switches);
  for (std::uint32_t i = 0; i < n_switches && r.ok(); ++i) {
    // Records follow the offset table's ids, which ascend.
    const SwitchId id = be64_at(table.data() + i * kOffsetEntryBytes);
    if ((!switches_.empty() && switches_.back().id >= id) || r.u64() != id) {
      r.fail();
    }
    SwitchState& st = switches_.emplace_back();
    st.id = id;
    merge_switch_body(r, st, notes);
  }

  const std::uint32_t n_links = r.count(kLinkRecordBytes);
  links_.reserve(n_links);
  for (std::uint32_t i = 0; i < n_links && r.ok(); ++i) {
    Link link;
    link.a = r.u64();
    link.b = r.u64();
    link.up = r.u8() != 0;
    if (link.a > link.b ||
        (!links_.empty() && std::make_pair(links_.back().a, links_.back().b) >=
                                std::make_pair(link.a, link.b))) {
      r.fail();
    }
    if (!link.up) ++failed_links_;
    links_.push_back(link);
  }
  if (!r.ok()) return false;
  rehash();
  // A save only writes adjacency whose links it also writes, so an entry
  // left without a slot marks a forged image.
  bool linked = true;
  for (SwitchState& st : switches_) linked = relink(st) && linked;
  return linked;
}

bool FabricGraph::merge_selective(std::span<const std::uint8_t> payload) {
  // The live graph *is* this payload plus the mutations noted in the
  // dirty lists — reconcile only those entries, via the offset table for
  // switches and the fixed-stride sorted block for links.
  MergeNotes notes;
  sim::SnapshotReader hr(payload);
  const std::uint32_t n_switches = hr.u32();
  const std::span<const std::uint8_t> table =
      hr.bytes_view(kOffsetEntryBytes * n_switches);
  const std::uint32_t block_len = hr.u32();
  const std::span<const std::uint8_t> block = hr.bytes_view(block_len);
  const std::uint32_t n_links = hr.u32();
  const std::span<const std::uint8_t> links =
      hr.bytes_view(kLinkRecordBytes * n_links);
  if (!hr.ok() || hr.remaining_size() != 0) return false;

  std::sort(dirty_switches_.begin(), dirty_switches_.end());
  dirty_switches_.erase(
      std::unique(dirty_switches_.begin(), dirty_switches_.end()),
      dirty_switches_.end());
  for (const SwitchId id : dirty_switches_) {
    // Binary search the offset table (ids ascending, save order).
    std::size_t lo = 0, hi = n_switches;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const SwitchId mid_id = be64_at(table.data() + mid * kOffsetEntryBytes);
      if (mid_id < id) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const bool found =
        lo < n_switches && be64_at(table.data() + lo * kOffsetEntryBytes) == id;
    const auto sit = switch_pos(id);
    const bool live = sit != switches_.end() && sit->id == id;
    if (!found) {
      // Dirty switch absent from the image: the mutation created it.
      if (live) {
        switches_.erase(sit);
        notes.structural = true;
      }
      continue;
    }
    const std::uint32_t off =
        be32_at(table.data() + lo * kOffsetEntryBytes + sizeof(std::uint64_t));
    if (off >= block_len) return false;
    sim::SnapshotReader sr(block.subspan(off));
    if (sr.u64() != id) return false;
    bool created = false;
    SwitchState& st = upsert_switch(id, created);
    if (created) notes.structural = true;
    merge_switch_body(sr, st, notes);
    if (!sr.ok()) return false;
  }

  std::sort(dirty_links_.begin(), dirty_links_.end());
  dirty_links_.erase(std::unique(dirty_links_.begin(), dirty_links_.end()),
                     dirty_links_.end());
  for (const auto& key : dirty_links_) {
    std::size_t lo = 0, hi = n_links;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const std::uint8_t* rec = links.data() + mid * kLinkRecordBytes;
      const std::pair<SwitchId, SwitchId> mid_key{
          be64_at(rec), be64_at(rec + sizeof(std::uint64_t))};
      if (mid_key < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const std::uint8_t* rec = links.data() + lo * kLinkRecordBytes;
    const bool found = lo < n_links && be64_at(rec) == key.first &&
                       be64_at(rec + sizeof(std::uint64_t)) == key.second;
    const std::uint32_t slot = find_link(key.first, key.second);
    if (!found) {
      if (slot != kNoSlot) {
        notes.drop.push_back(slot);
        notes.structural = true;
      }
      continue;
    }
    const bool up = rec[2 * sizeof(std::uint64_t)] != 0;
    if (slot == kNoSlot) {
      add_link(key.first, key.second, up);
      notes.structural = true;
      notes.link_set = true;
    } else {
      set_up(slot, up);  // index-transparent value flip
    }
  }

  // Re-derive what holds link slots: a dropped link compacts the array
  // and an added one may complete a stored adjacency, so either relinks
  // every switch; otherwise only switches whose neighbour set moved need
  // fresh slots. A save only writes adjacency whose links it also writes,
  // so an entry left without a slot marks a forged image.
  if (!notes.drop.empty()) erase_links(notes.drop);
  bool linked = true;
  if (!notes.drop.empty() || notes.link_set) {
    for (SwitchState& st : switches_) linked = relink(st) && linked;
  } else {
    for (const SwitchId id : notes.adj) {
      if (SwitchState* st = find_switch(id)) linked = relink(*st) && linked;
    }
  }
  if (!linked) return false;

  if (notes.structural) {
    idx_.valid = false;
    return true;
  }
  // Population, locators and the link set are all unchanged — the index
  // still describes this graph except for the adjacency lists of switches
  // whose reported neighbours moved (e.g. forks undoing a what-if's hello
  // withdrawals). Patch those sites; every slot they hold is current.
  for (const SwitchId id : notes.adj) {
    if (const SwitchState* st = find_switch(id)) patch_index_adjacency(*st);
  }
  return true;
}

void FabricGraph::snapshot(sim::SnapshotIo& io) {
  // The payload this graph last loaded is held while the dirty lists
  // still name every mutation since.
  const bool held = restored_hash_valid_ && !dirty_overflow_;
  const sim::SnapshotIo::Hashed s =
      io.hashed(held ? std::optional(restored_hash_) : std::nullopt,
                [this](sim::SnapshotWriter& w) { save_payload(w); });
  if (s.state == sim::SnapshotIo::Hashed::kSaved) return;
  const bool ok = s.state == sim::SnapshotIo::Hashed::kHeld
                      ? merge_selective(s.payload)
                      : s.state == sim::SnapshotIo::Hashed::kFresh &&
                            rebuild(s.payload);
  if (!ok) {
    io.fail();
    clear();
    return;
  }
  restored_hash_ = s.hash;
  restored_hash_valid_ = true;
  dirty_overflow_ = false;
  dirty_switches_.clear();
  dirty_links_.clear();
}

}  // namespace portland::core

