// The fabric manager's soft-state topology view (paper §3.1: network
// configuration + fault matrix).
//
// Built entirely from SwitchHello reports (locators + neighbor tables) and
// FaultNotify events (the fault matrix). From this view the FM computes,
// per destination, which next-hop switches each forwarding switch must
// avoid — the `PruneEntry` sets pushed to "affected switches" after a
// failure (paper §3.6).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "core/messages.h"

namespace portland::sim {
class SnapshotIo;
class SnapshotReader;
class SnapshotWriter;
}  // namespace portland::sim

namespace portland::core {

/// Key identifying a destination whose reachability a fault can restrict:
/// a specific edge locator (pod, position) or a whole pod
/// (position == kUnknownPosition).
struct DstKey {
  std::uint16_t pod = kUnknownPod;
  std::uint8_t position = kUnknownPosition;

  friend bool operator==(const DstKey&, const DstKey&) = default;
  friend bool operator<(const DstKey& a, const DstKey& b) {
    if (a.pod != b.pod) return a.pod < b.pod;
    return a.position < b.position;
  }
};

/// For one destination key: per affected switch, the set of next-hop
/// switch ids to avoid.
using PruneMap = std::map<SwitchId, std::set<SwitchId>>;

/// What a SwitchHello actually changed in the FM's view. `changed` is the
/// raw delta (locator or reported adjacency differs — callers that mirror
/// ports, e.g. multicast install, re-derive on this). `routing_changed` is
/// the *effective* delta: locator, or the set of adjacent links that are
/// also alive in the fault matrix. A hello that merely withdraws adjacency
/// for a link the fault matrix already killed (the normal carrier-loss
/// ordering: FaultNotify first, hello second) leaves routing untouched, so
/// prune recomputation can be skipped.
struct HelloDelta {
  bool changed = false;
  bool routing_changed = false;
};

class FabricGraph {
 public:
  /// Ingests a switch's location + adjacency report. Newly reported links
  /// default to alive. See HelloDelta for what the two flags mean; a
  /// report identical to the stored one returns both false and writes
  /// nothing.
  HelloDelta apply_hello(SwitchId id, const SwitchHello& hello);

  /// Marks the (a, b) link up/down in the fault matrix. Returns true if
  /// the state changed.
  bool set_link_state(SwitchId a, SwitchId b, bool up);

  [[nodiscard]] const SwitchLocator* locator(SwitchId id) const;
  [[nodiscard]] bool link_alive(SwitchId a, SwitchId b) const;
  [[nodiscard]] bool adjacent(SwitchId a, SwitchId b) const;

  /// Port on `from` that faces `to`; -1 if not adjacent.
  [[nodiscard]] int port_between(SwitchId from, SwitchId to) const;

  [[nodiscard]] std::vector<SwitchId> switches_at(Level level) const;
  [[nodiscard]] std::vector<SwitchId> edges_in_pod(std::uint16_t pod) const;
  [[nodiscard]] std::vector<SwitchId> aggs_in_pod(std::uint16_t pod) const;
  [[nodiscard]] std::vector<SwitchId> cores() const;
  /// The switch ids `id` reported as neighbours, ascending and unique.
  /// The view is valid until the graph is next mutated.
  [[nodiscard]] std::span<const SwitchId> neighbors(SwitchId id) const;
  [[nodiscard]] std::size_t switch_count() const { return switches_.size(); }
  [[nodiscard]] std::size_t failed_link_count() const { return failed_links_; }

  /// The edge switch registered at (pod, position); kInvalidSwitchId if
  /// unknown.
  [[nodiscard]] SwitchId edge_at(std::uint16_t pod,
                                 std::uint8_t position) const;

  /// Computes the complete avoid-sets for destination `key` given the
  /// current fault matrix:
  ///   * key = (p, e): cores that cannot deliver to edge (p, e) are avoided
  ///     by aggregation switches in other pods; aggregation switches with
  ///     no surviving path are avoided by the edges below them; in-pod
  ///     edges avoid aggregation switches whose downlink to (p, e) died.
  ///   * key = (p, any): same structure, one level coarser, for
  ///     aggregation<->core faults.
  /// A switch absent from the result has nothing to avoid.
  [[nodiscard]] PruneMap compute_prunes(const DstKey& key) const;

  /// The destination keys directly restricted by the (a, b) link.
  [[nodiscard]] std::vector<DstKey> keys_for_link(SwitchId a, SwitchId b) const;

  /// Checkpoint: the full soft-state view (locators, adjacency, fault
  /// matrix). The section is content-addressed (SnapshotIo::hashed, with a
  /// per-switch offset table), so a fabric repeatedly forked from the same
  /// image merges only the records its own mutations touched since the
  /// last restore; any other load rebuilds the graph from the image. A
  /// load fails the reader on an image a save cannot have written
  /// (records out of order, a port facing an unlisted neighbour, adjacency
  /// without its link record) and leaves the graph empty.
  void snapshot(sim::SnapshotIo& io);

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One row of a switch's port table: the port and the index of the
  /// neighbour it faces in the same switch's `nbrs`.
  struct Port {
    std::uint16_t port = 0;
    std::uint32_t nbr = 0;
    friend bool operator==(const Port&, const Port&) = default;
  };

  /// One switch's last report. `ports` is ascending by port (a repeated
  /// port keeps its last neighbour, as a port table would); `nbrs` holds
  /// every neighbour id the report named, ascending and unique, so a
  /// neighbour shadowed by a repeated port still counts as adjacent.
  /// `nbr_links[i]` is the slot of the (id, nbrs[i]) link. Every entry
  /// has one: a hello adds the links it names, and a restore refuses an
  /// image whose adjacency names a link it has no record of. (kNoSlot
  /// appears only inside a restore, and after a refused one.)
  struct SwitchState {
    SwitchId id = kInvalidSwitchId;
    SwitchLocator locator;
    std::vector<Port> ports;
    std::vector<SwitchId> nbrs;
    std::vector<std::uint32_t> nbr_links;
  };

  /// One fault-matrix cell, keyed by the normalized pair a <= b.
  struct Link {
    SwitchId a = kInvalidSwitchId;
    SwitchId b = kInvalidSwitchId;
    bool up = true;
  };

  /// Flattened fat-tree view, rebuilt lazily only after *structural*
  /// change (switch population, locators, link set). Adjacency entries
  /// hold link slots, so set_link_state's in-place flips are visible
  /// through the index with no rebuild. Adjacency-only changes (hello
  /// withdrawals, snapshot forks undoing them) patch the affected site's
  /// lists in place via patch_index_adjacency. Each per-site adjacency
  /// list is built from the *same switch's* reported neighbours, so
  /// transiently asymmetric adjacency (one endpoint's hello processed,
  /// the other's not) prunes exactly as each switch reported it.
  struct TopoIndex {
    struct AggUp {
      std::uint32_t core = 0;  // core slot
      std::uint32_t link = kNoSlot;
    };
    struct AggDown {
      SwitchId edge = kInvalidSwitchId;
      std::uint32_t link = kNoSlot;
    };
    struct CoreDown {
      std::uint32_t agg = 0;  // agg slot
      std::uint16_t pod = kUnknownPod;
      std::uint32_t link = kNoSlot;
    };
    struct AggInfo {
      SwitchId id = kInvalidSwitchId;
      std::uint16_t pod = kUnknownPod;
      std::vector<AggUp> up;      // core neighbours by the agg's report
      std::vector<AggDown> down;  // edge neighbours by the agg's report
    };
    struct CoreInfo {
      SwitchId id = kInvalidSwitchId;
      std::vector<CoreDown> down;  // agg neighbours by the core's report
    };
    struct EdgeInfo {
      SwitchId id = kInvalidSwitchId;
      std::uint16_t pod = kUnknownPod;
      std::uint8_t position = kUnknownPosition;
      std::vector<std::uint32_t> aggs;  // agg slots, by the edge's report
    };
    /// (pod, slot) pairs, ascending: one pod's slots are an equal_range.
    using PodSlots = std::vector<std::pair<std::uint16_t, std::uint32_t>>;
    bool valid = false;
    std::vector<CoreInfo> cores;  // ascending id
    std::vector<AggInfo> aggs;    // ascending id
    std::vector<EdgeInfo> edges;  // ascending id
    PodSlots aggs_by_pod;
    PodSlots edges_by_pod;
  };

  /// What a selective merge moved, so the caller re-derives only that.
  struct MergeNotes {
    bool structural = false;  // population, a locator or the link set
    bool link_set = false;    // links added
    std::vector<SwitchId> adj;          // neighbour sets that moved
    std::vector<std::uint32_t> drop;    // link slots the image lacks
  };

  /// Slot of `id` in an index vector sorted ascending by id; kNoSlot if
  /// absent.
  template <typename InfoVec>
  static std::uint32_t find_slot(const InfoVec& v, SwitchId id);

  /// First switch whose id is not below `id`.
  std::vector<SwitchState>::iterator switch_pos(SwitchId id);
  [[nodiscard]] SwitchState* find_switch(SwitchId id);
  [[nodiscard]] const SwitchState* find_switch(SwitchId id) const;
  /// Returns `id`'s state, inserting an empty one in id order if absent.
  SwitchState& upsert_switch(SwitchId id, bool& created);

  [[nodiscard]] std::uint32_t find_link(SwitchId a, SwitchId b) const;
  [[nodiscard]] bool link_up(std::uint32_t slot) const {
    return slot != kNoSlot && links_[slot].up;
  }
  /// Appends the (a, b) cell, which must be absent, and indexes it.
  std::uint32_t add_link(SwitchId a, SwitchId b, bool up);
  void set_up(std::uint32_t slot, bool up);
  /// Enters `slot` into the (a,b) table, which has a free cell.
  void index_link(std::uint32_t slot);
  /// Re-reads `st.nbr_links` from the link table. Returns false if a
  /// neighbour has no link cell.
  bool relink(SwitchState& st);
  void rehash();
  /// Removes the given slots and compacts the link array; every
  /// `nbr_links` and index entry is stale until relinked.
  void erase_links(const std::vector<std::uint32_t>& slots);
  /// Empties the graph: no switch, no link, index invalid.
  void clear();

  /// Reads a report's adjacency into scratch_nbrs_ (ascending, unique)
  /// and scratch_ports_ (ascending port, last report of a port wins).
  void canonicalize(const SwitchHello& hello);

  const TopoIndex& index() const;

  /// Fills one site's adjacency vectors from its own reported neighbours
  /// (clearing them first). Shared by the full index build and the
  /// incremental patch below.
  void build_site_adjacency(TopoIndex& ix, Level level, std::size_t slot,
                            const SwitchState& st) const;

  /// Rebuilds just `st`'s adjacency lists inside a valid index after its
  /// reported neighbours changed. Legal only while the switch's locator
  /// (level, pod, position) and the overall switch population are
  /// unchanged — callers invalidate the whole index otherwise.
  void patch_index_adjacency(const SwitchState& st) const;

  /// Writes the section payload (layout in fabric_graph.cc).
  void save_payload(sim::SnapshotWriter& w) const;

  /// Merges one saved switch record body (everything after the id) into
  /// `st`.
  void merge_switch_body(sim::SnapshotReader& r, SwitchState& st,
                         MergeNotes& notes);

  /// Replaces the whole graph with a saved payload, relinks every switch
  /// and leaves the index invalid. Returns false on an image a save
  /// cannot have written.
  bool rebuild(std::span<const std::uint8_t> payload);

  /// Merges only the entries in dirty_switches_ / dirty_links_, using the
  /// payload's offset table / fixed-stride link block for random access,
  /// then relinks and re-indexes what moved. Returns false on a payload
  /// that does not fit the graph it claims to be.
  bool merge_selective(std::span<const std::uint8_t> payload);

  /// Mutation notes for selective restore; capped — once the caps
  /// overflow, the next restore rebuilds.
  void note_switch_dirty(SwitchId id);
  void note_link_dirty(std::pair<SwitchId, SwitchId> key);

  std::vector<SwitchState> switches_;  // ascending id
  std::vector<Link> links_;            // slot order = first report
  std::vector<std::uint32_t> link_table_;  // open-addressed (a,b) -> slot
  std::size_t failed_links_ = 0;
  /// Link slots ascending by (a, b) for save_state; stale (and cleared)
  /// whenever the link set changes.
  mutable std::vector<std::uint32_t> link_order_;
  mutable TopoIndex idx_;

  // apply_hello / merge scratch, reused so an ingest does not allocate.
  std::vector<Port> scratch_ports_;
  std::vector<SwitchId> scratch_nbrs_;
  std::vector<std::pair<std::uint16_t, SwitchId>> scratch_pairs_;
  std::vector<SwitchId> scratch_live_;

  /// Content hash of the payload this graph was last restored from, and
  /// the mutations applied since. While the hash matches the incoming
  /// image and the dirty lists haven't overflowed, restore is
  /// O(dirty entries) instead of O(graph).
  bool restored_hash_valid_ = false;
  std::uint64_t restored_hash_ = 0;
  bool dirty_overflow_ = false;
  std::vector<SwitchId> dirty_switches_;
  std::vector<std::pair<SwitchId, SwitchId>> dirty_links_;
};

}  // namespace portland::core
