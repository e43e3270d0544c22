// Fabric-manager unit tests against a hand-built topology graph: pod
// allocation, proxy-ARP registry, migration detection, fault-matrix prune
// computation, and multicast tree computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>

#include "core/fabric_graph.h"
#include "core/fabric_manager.h"
#include "common/random.h"
#include "core/multicast.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"

namespace portland::core {
namespace {

/// Builds the FM-visible graph of a k=4 fat tree with LDP-true locators.
/// Switch ids: edge = 100 + pod*2 + e; agg = 200 + pod*2 + a;
/// core = 300 + g*2 + m.
class GraphFixture {
 public:
  GraphFixture() {
    for (std::uint16_t pod = 0; pod < 4; ++pod) {
      for (std::uint8_t e = 0; e < 2; ++e) {
        hello(edge_id(pod, e), Level::kEdge, pod, e);
      }
      for (std::uint8_t a = 0; a < 2; ++a) {
        hello(agg_id(pod, a), Level::kAggregation, pod, a);
      }
    }
    for (std::uint8_t g = 0; g < 2; ++g) {
      for (std::uint8_t m = 0; m < 2; ++m) {
        hello(core_id(g, m), Level::kCore, kUnknownPod, kUnknownPosition);
      }
    }
    // Wire adjacency: edge <-> agg within pods; agg(pos a) <-> cores (a,*).
    for (std::uint16_t pod = 0; pod < 4; ++pod) {
      for (std::uint8_t e = 0; e < 2; ++e) {
        for (std::uint8_t a = 0; a < 2; ++a) {
          link(edge_id(pod, e), 2 + a, agg_id(pod, a), e);
        }
      }
      for (std::uint8_t a = 0; a < 2; ++a) {
        for (std::uint8_t m = 0; m < 2; ++m) {
          link(agg_id(pod, a), 2 + m, core_id(a, m),
               static_cast<std::uint16_t>(pod));
        }
      }
    }
    flush();
  }

  static SwitchId edge_id(std::uint16_t pod, std::uint8_t e) {
    return 100 + pod * 2 + e;
  }
  static SwitchId agg_id(std::uint16_t pod, std::uint8_t a) {
    return 200 + pod * 2 + a;
  }
  static SwitchId core_id(std::uint8_t g, std::uint8_t m) {
    return 300 + g * 2 + m;
  }

  FabricGraph graph;

 private:
  void hello(SwitchId id, Level level, std::uint16_t pod, std::uint8_t pos) {
    hellos_[id].self = SwitchLocator{id, level, pod, pos};
  }
  void link(SwitchId a, std::uint16_t port_a, SwitchId b,
            std::uint16_t port_b) {
    hellos_[a].neighbors.push_back(NeighborEntry{port_a, hellos_[b].self});
    hellos_[b].neighbors.push_back(NeighborEntry{port_b, hellos_[a].self});
  }
  void flush() {
    for (const auto& [id, h] : hellos_) graph.apply_hello(id, h);
  }

  std::map<SwitchId, SwitchHello> hellos_;
};

TEST(FabricGraph, QueriesReflectTopology) {
  GraphFixture fx;
  EXPECT_EQ(fx.graph.switch_count(), 20u);
  EXPECT_EQ(fx.graph.cores().size(), 4u);
  EXPECT_EQ(fx.graph.edges_in_pod(2).size(), 2u);
  EXPECT_EQ(fx.graph.aggs_in_pod(2).size(), 2u);
  EXPECT_EQ(fx.graph.edge_at(1, 1), GraphFixture::edge_id(1, 1));
  EXPECT_EQ(fx.graph.edge_at(1, 9), kInvalidSwitchId);

  const SwitchId e = GraphFixture::edge_id(0, 0);
  const SwitchId a = GraphFixture::agg_id(0, 1);
  EXPECT_TRUE(fx.graph.adjacent(e, a));
  EXPECT_TRUE(fx.graph.link_alive(e, a));
  EXPECT_EQ(fx.graph.port_between(e, a), 3);  // uplink 2 + a
  EXPECT_EQ(fx.graph.port_between(a, e), 0);
  EXPECT_FALSE(fx.graph.adjacent(e, GraphFixture::core_id(0, 0)));
}

TEST(FabricGraph, LinkStateChanges) {
  GraphFixture fx;
  const SwitchId a = GraphFixture::agg_id(1, 0);
  const SwitchId c = GraphFixture::core_id(0, 1);
  EXPECT_TRUE(fx.graph.set_link_state(a, c, false));
  EXPECT_FALSE(fx.graph.set_link_state(a, c, false));  // idempotent
  EXPECT_FALSE(fx.graph.link_alive(a, c));
  EXPECT_EQ(fx.graph.failed_link_count(), 1u);
  EXPECT_TRUE(fx.graph.set_link_state(a, c, true));
  EXPECT_EQ(fx.graph.failed_link_count(), 0u);
}

TEST(FabricGraph, KeysForLink) {
  GraphFixture fx;
  const auto edge_keys = fx.graph.keys_for_link(
      GraphFixture::edge_id(2, 1), GraphFixture::agg_id(2, 0));
  ASSERT_EQ(edge_keys.size(), 1u);
  EXPECT_EQ(edge_keys[0], (DstKey{2, 1}));

  const auto pod_keys = fx.graph.keys_for_link(
      GraphFixture::core_id(1, 0), GraphFixture::agg_id(3, 1));
  ASSERT_EQ(pod_keys.size(), 1u);
  EXPECT_EQ(pod_keys[0], (DstKey{3, kUnknownPosition}));

  // Unknown endpoints yield nothing.
  EXPECT_TRUE(fx.graph.keys_for_link(1, 2).empty());
}

TEST(FabricGraph, NoPrunesOnHealthyFabric) {
  GraphFixture fx;
  EXPECT_TRUE(fx.graph.compute_prunes(DstKey{0, 0}).empty());
  EXPECT_TRUE(fx.graph.compute_prunes(DstKey{2, kUnknownPosition}).empty());
}

TEST(FabricGraph, EdgeAggFaultPrunesEverywhereRelevant) {
  GraphFixture fx;
  // Kill agg(0,0) <-> edge(0,0): destination (pod 0, position 0).
  const SwitchId e00 = GraphFixture::edge_id(0, 0);
  const SwitchId a00 = GraphFixture::agg_id(0, 0);
  fx.graph.set_link_state(e00, a00, false);
  const PruneMap prunes = fx.graph.compute_prunes(DstKey{0, 0});

  // In-pod: edge(0,1) must avoid agg(0,0) for this destination.
  const SwitchId e01 = GraphFixture::edge_id(0, 1);
  ASSERT_TRUE(prunes.count(e01));
  EXPECT_TRUE(prunes.at(e01).count(a00));

  // Group-0 cores (which enter pod 0 at a00) are dead for this dst: aggs
  // at position 0 in other pods must avoid both of them.
  const SwitchId a10 = GraphFixture::agg_id(1, 0);
  ASSERT_TRUE(prunes.count(a10));
  EXPECT_TRUE(prunes.at(a10).count(GraphFixture::core_id(0, 0)));
  EXPECT_TRUE(prunes.at(a10).count(GraphFixture::core_id(0, 1)));

  // Those aggs then have no surviving core for the dst, so edges in other
  // pods must avoid them entirely.
  const SwitchId e10 = GraphFixture::edge_id(1, 0);
  ASSERT_TRUE(prunes.count(e10));
  EXPECT_TRUE(prunes.at(e10).count(a10));
  EXPECT_FALSE(prunes.at(e10).count(GraphFixture::agg_id(1, 1)));

  // Position-1 aggs are untouched.
  EXPECT_FALSE(prunes.count(GraphFixture::agg_id(1, 1)));
}

TEST(FabricGraph, AggCoreFaultPrunesPodLevel) {
  GraphFixture fx;
  // Kill agg(2,1) <-> core(1,0): pod 2 loses that core.
  const SwitchId a21 = GraphFixture::agg_id(2, 1);
  const SwitchId c10 = GraphFixture::core_id(1, 0);
  fx.graph.set_link_state(a21, c10, false);
  const PruneMap prunes = fx.graph.compute_prunes(DstKey{2, kUnknownPosition});

  // Aggs at position 1 in other pods avoid core(1,0) for dst pod 2.
  const SwitchId a01 = GraphFixture::agg_id(0, 1);
  ASSERT_TRUE(prunes.count(a01));
  EXPECT_TRUE(prunes.at(a01).count(c10));
  EXPECT_FALSE(prunes.at(a01).count(GraphFixture::core_id(1, 1)));

  // Those aggs still reach pod 2 via core(1,1): edges need no pruning.
  EXPECT_FALSE(prunes.count(GraphFixture::edge_id(0, 0)));
  // Aggs inside pod 2 are not restricted for their own pod.
  EXPECT_FALSE(prunes.count(GraphFixture::agg_id(2, 0)));
}

TEST(FabricGraph, CompoundFaultsEscalateToEdgePruning) {
  GraphFixture fx;
  // Cut BOTH cores of group 1 off from pod 2: now any agg at position 1
  // anywhere has no path to pod 2, and edges must avoid position-1 aggs.
  fx.graph.set_link_state(GraphFixture::agg_id(2, 1),
                          GraphFixture::core_id(1, 0), false);
  fx.graph.set_link_state(GraphFixture::agg_id(2, 1),
                          GraphFixture::core_id(1, 1), false);
  const PruneMap prunes = fx.graph.compute_prunes(DstKey{2, kUnknownPosition});
  const SwitchId e00 = GraphFixture::edge_id(0, 0);
  ASSERT_TRUE(prunes.count(e00));
  EXPECT_TRUE(prunes.at(e00).count(GraphFixture::agg_id(0, 1)));
}

/// The fabric manager's topology view written the obvious way, over
/// ordered maps: the semantics FabricGraph's slot-indexed arrays must
/// reproduce query for query.
class ReferenceGraph {
 public:
  struct Switch {
    SwitchLocator locator;
    std::map<std::uint16_t, SwitchId> ports;  // last report of a port wins
    std::set<SwitchId> nbrs;                  // every neighbour named
  };
  using LinkKey = std::pair<SwitchId, SwitchId>;

  static LinkKey key(SwitchId a, SwitchId b) { return std::minmax(a, b); }

  HelloDelta apply_hello(SwitchId id, const SwitchHello& h) {
    Switch& st = switches[id];
    const Switch old = st;
    const std::set<SwitchId> old_live = live(id, old.nbrs);
    st = Switch{h.self, {}, {}};
    for (const NeighborEntry& n : h.neighbors) {
      st.ports[n.port] = n.neighbor.switch_id;
      st.nbrs.insert(n.neighbor.switch_id);
      links.emplace(key(id, n.neighbor.switch_id), true);
    }
    HelloDelta d;
    d.changed = old.locator != st.locator || old.ports != st.ports ||
                old.nbrs != st.nbrs;
    d.routing_changed =
        old.locator != st.locator || old_live != live(id, st.nbrs);
    return d;
  }

  bool set_link_state(SwitchId a, SwitchId b, bool up) {
    const auto [it, inserted] = links.emplace(key(a, b), up);
    if (!inserted && it->second == up) return false;
    it->second = up;
    return true;
  }

  bool alive(SwitchId a, SwitchId b) const {
    const auto it = links.find(key(a, b));
    return it != links.end() && it->second;
  }

  const Switch* find(SwitchId id) const {
    const auto it = switches.find(id);
    return it == switches.end() ? nullptr : &it->second;
  }

  bool is(SwitchId id, Level level) const {
    const Switch* st = find(id);
    return st != nullptr && st->locator.level == level;
  }

  int port_between(SwitchId from, SwitchId to) const {
    const Switch* st = find(from);
    if (st == nullptr) return -1;
    for (const auto& [port, nbr] : st->ports) {
      if (nbr == to) return port;
    }
    return -1;
  }

  std::size_t failed() const {
    std::size_t n = 0;
    for (const auto& [k, up] : links) n += up ? 0 : 1;
    return n;
  }

  std::vector<DstKey> keys_for_link(SwitchId a, SwitchId b) const {
    const Switch* sa = find(a);
    const Switch* sb = find(b);
    if (sa == nullptr || sb == nullptr) return {};
    SwitchLocator la = sa->locator;
    SwitchLocator lb = sb->locator;
    if (static_cast<int>(la.level) > static_cast<int>(lb.level)) {
      std::swap(la, lb);
    }
    if (la.level == Level::kEdge && lb.level == Level::kAggregation &&
        la.pod != kUnknownPod && la.position != kUnknownPosition) {
      return {DstKey{la.pod, la.position}};
    }
    if (la.level == Level::kAggregation && lb.level == Level::kCore &&
        la.pod != kUnknownPod) {
      return {DstKey{la.pod, kUnknownPosition}};
    }
    return {};
  }

  /// §3.6's avoid-sets, evaluated neighbour by neighbour from each
  /// switch's own report.
  PruneMap compute_prunes(const DstKey& k) const {
    PruneMap out;
    const bool pod_level = k.position == kUnknownPosition;
    SwitchId target = kInvalidSwitchId;
    for (const auto& [id, st] : switches) {
      if (st.locator.level == Level::kEdge && st.locator.pod == k.pod &&
          st.locator.position == k.position) {
        target = id;
        break;
      }
    }
    if (!pod_level && target == kInvalidSwitchId) return out;

    const auto serves = [&](SwitchId agg) {
      if (pod_level) return true;
      const Switch& st = switches.at(agg);
      return st.locator.pod == k.pod && st.nbrs.count(target) != 0 &&
             alive(agg, target);
    };
    std::map<SwitchId, bool> core_ok_memo;
    const auto core_ok = [&](SwitchId core) {
      const auto [it, fresh] = core_ok_memo.try_emplace(core, false);
      if (!fresh) return it->second;
      for (const SwitchId n : switches.at(core).nbrs) {
        if (is(n, Level::kAggregation) && find(n)->locator.pod == k.pod &&
            alive(core, n) && serves(n)) {
          it->second = true;
        }
      }
      return it->second;
    };
    std::map<SwitchId, bool> has_path_memo;
    const auto has_path = [&](SwitchId agg) {
      const auto [it, fresh] = has_path_memo.try_emplace(agg, false);
      if (!fresh) return it->second;
      for (const SwitchId n : switches.at(agg).nbrs) {
        if (is(n, Level::kCore) && alive(agg, n) && core_ok(n)) {
          it->second = true;
        }
      }
      return it->second;
    };
    for (const auto& [id, st] : switches) {
      if (st.locator.level == Level::kAggregation && st.locator.pod != k.pod) {
        for (const SwitchId n : st.nbrs) {
          if (is(n, Level::kCore) && !core_ok(n)) out[id].insert(n);
        }
      }
      if (st.locator.level != Level::kEdge) continue;
      for (const SwitchId n : st.nbrs) {
        if (!is(n, Level::kAggregation)) continue;
        if (st.locator.pod != k.pod && !has_path(n)) out[id].insert(n);
        if (st.locator.pod == k.pod && !pod_level && id != target &&
            !serves(n)) {
          out[id].insert(n);
        }
      }
    }
    return out;
  }

  std::map<SwitchId, Switch> switches;
  std::map<LinkKey, bool> links;

 private:
  std::set<SwitchId> live(SwitchId id, const std::set<SwitchId>& nbrs) const {
    std::set<SwitchId> out;
    for (const SwitchId n : nbrs) {
      if (alive(id, n)) out.insert(n);
    }
    return out;
  }
};

std::vector<std::uint8_t> save_graph(FabricGraph& g) {
  std::vector<std::uint8_t> bytes;
  sim::SnapshotWriter w(bytes);
  sim::SnapshotIo io(w);
  g.snapshot(io);
  return bytes;
}

bool restore_graph(FabricGraph& g, const std::vector<std::uint8_t>& bytes) {
  sim::SnapshotReader r(bytes);
  sim::SnapshotIo io(r);
  g.snapshot(io);
  return r.ok() && r.remaining_size() == 0;
}

/// The full adjacency report of every switch of a k-ary fat tree: edges
/// 1000+, aggs 2000+, cores 3000+, uplinks on ports k/2.., core port =
/// pod.
std::map<SwitchId, SwitchHello> fat_tree_hellos(int k) {
  const int half = k / 2;
  std::map<SwitchId, SwitchHello> out;
  const auto edge = [&](int pod, int e) {
    return SwitchLocator{static_cast<SwitchId>(1000 + pod * half + e),
                         Level::kEdge, static_cast<std::uint16_t>(pod),
                         static_cast<std::uint8_t>(e)};
  };
  const auto agg = [&](int pod, int a) {
    return SwitchLocator{static_cast<SwitchId>(2000 + pod * half + a),
                         Level::kAggregation, static_cast<std::uint16_t>(pod),
                         static_cast<std::uint8_t>(a)};
  };
  const auto core = [&](int a, int m) {
    return SwitchLocator{static_cast<SwitchId>(3000 + a * half + m),
                         Level::kCore, kUnknownPod, kUnknownPosition};
  };
  const auto link = [&](const SwitchLocator& x, int px, const SwitchLocator& y,
                        int py) {
    out[x.switch_id].self = x;
    out[y.switch_id].self = y;
    out[x.switch_id].neighbors.push_back(
        {static_cast<std::uint16_t>(px), y});
    out[y.switch_id].neighbors.push_back(
        {static_cast<std::uint16_t>(py), x});
  };
  for (int pod = 0; pod < k; ++pod) {
    for (int a = 0; a < half; ++a) {
      for (int e = 0; e < half; ++e) link(edge(pod, e), half + a, agg(pod, a), e);
      for (int m = 0; m < half; ++m) link(agg(pod, a), half + m, core(a, m), pod);
    }
  }
  return out;
}

void expect_same_view(const FabricGraph& g, const ReferenceGraph& ref, int k,
                      const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(g.switch_count(), ref.switches.size());
  ASSERT_EQ(g.failed_link_count(), ref.failed());
  std::vector<SwitchId> ref_cores;
  for (const auto& [id, st] : ref.switches) {
    if (st.locator.level == Level::kCore) ref_cores.push_back(id);
    ASSERT_NE(g.locator(id), nullptr);
    ASSERT_EQ(*g.locator(id), st.locator);
    const std::span<const SwitchId> nbrs = g.neighbors(id);
    ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(), st.nbrs.begin(),
                           st.nbrs.end()))
        << "neighbors of " << id;
    for (const SwitchId n : st.nbrs) {
      ASSERT_EQ(g.port_between(id, n), ref.port_between(id, n))
          << id << " -> " << n;
      ASSERT_TRUE(g.adjacent(id, n));
    }
    ASSERT_EQ(g.port_between(id, 1), -1);
  }
  ASSERT_EQ(g.cores(), ref_cores);
  for (const auto& [key, up] : ref.links) {
    ASSERT_EQ(g.link_alive(key.first, key.second), up)
        << key.first << "-" << key.second;
    ASSERT_EQ(g.keys_for_link(key.second, key.first),
              ref.keys_for_link(key.second, key.first));
  }
  for (int pod = 0; pod <= k; ++pod) {
    for (int pos = 0; pos <= k / 2; ++pos) {
      const DstKey key{static_cast<std::uint16_t>(pod),
                       pos == k / 2 ? kUnknownPosition
                                    : static_cast<std::uint8_t>(pos)};
      ASSERT_EQ(g.compute_prunes(key), ref.compute_prunes(key))
          << "key (" << pod << ", " << pos << ")";
    }
  }
}

TEST(FabricGraph, MatchesReferenceModel) {
  constexpr int kK = 8;
  constexpr int kSteps = 2000;
  const std::map<SwitchId, SwitchHello> full = fat_tree_hellos(kK);
  std::vector<SwitchId> ids;
  for (const auto& [id, h] : full) ids.push_back(id);

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    FabricGraph graph;
    ReferenceGraph ref;
    std::map<SwitchId, SwitchHello> last;
    struct Image {
      std::vector<std::uint8_t> bytes;
      ReferenceGraph ref;
    };
    std::vector<Image> images;
    const auto pick = [&](const auto& v) {
      return v[rng.next_below(v.size())];
    };
    const auto send = [&](SwitchId id, const SwitchHello& h) {
      last[id] = h;
      const HelloDelta got = graph.apply_hello(id, h);
      const HelloDelta want = ref.apply_hello(id, h);
      EXPECT_EQ(got.changed, want.changed);
      EXPECT_EQ(got.routing_changed, want.routing_changed);
    };
    for (const SwitchId id : ids) send(id, full.at(id));
    expect_same_view(graph, ref, kK, "bring-up");

    for (int step = 0; step < kSteps; ++step) {
      const std::uint64_t op = rng.next_below(11);
      std::string what;
      if (op == 0) {
        // Unchanged: re-send a switch's last report.
        what = "unchanged";
        const auto it = std::next(last.begin(),
                                  static_cast<long>(rng.next_below(last.size())));
        send(it->first, it->second);
      } else if (op == 1) {
        // Withdraw some neighbours.
        what = "withdraw";
        const SwitchId id = pick(ids);
        SwitchHello h = full.at(id);
        std::erase_if(h.neighbors,
                      [&](const NeighborEntry&) { return rng.chance(0.3); });
        send(id, h);
      } else if (op == 2) {
        what = "restore adjacency";
        const SwitchId id = pick(ids);
        send(id, full.at(id));
      } else if (op == 3) {
        // A switch the tree does not have, naming a few that it does.
        what = "new switch";
        const SwitchId id = 4000 + rng.next_below(8);
        SwitchHello h;
        h.self = SwitchLocator{id, static_cast<Level>(rng.next_below(4)),
                               static_cast<std::uint16_t>(rng.next_below(kK)),
                               static_cast<std::uint8_t>(rng.next_below(kK / 2))};
        for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
          h.neighbors.push_back(
              {static_cast<std::uint16_t>(rng.next_below(kK)),
               SwitchLocator{pick(ids), Level::kUnknown, 0, 0}});
        }
        send(id, h);
      } else if (op == 4) {
        what = "locator change";
        const SwitchId id = pick(ids);
        SwitchHello h = last.count(id) != 0 ? last.at(id) : full.at(id);
        if (rng.chance(0.5)) {
          h.self = full.at(id).self;
        } else if (rng.chance(0.5)) {
          h.self.level = static_cast<Level>(rng.next_below(4));
        } else {
          h.self.pod = static_cast<std::uint16_t>(rng.next_below(kK + 1));
          h.self.position = static_cast<std::uint8_t>(rng.next_below(kK / 2));
        }
        send(id, h);
      } else if (op == 5) {
        // What ordered maps deduplicate silently: a port named twice, a
        // neighbour named on two ports, a switch naming itself.
        what = "duplicates";
        const SwitchId id = pick(ids);
        SwitchHello h = full.at(id);
        const NeighborEntry first = h.neighbors.front();
        h.neighbors.push_back({first.port, full.at(pick(ids)).self});
        h.neighbors.push_back(
            {static_cast<std::uint16_t>(kK + rng.next_below(4)),
             pick(h.neighbors).neighbor});
        if (rng.chance(0.5)) {
          h.neighbors.push_back({static_cast<std::uint16_t>(kK + 7), h.self});
        }
        rng.shuffle(h.neighbors);
        send(id, h);
      } else if (op <= 7) {
        what = "flip";
        SwitchId a = pick(ids);
        SwitchId b = pick(ids);
        if (op == 6 && !ref.links.empty()) {
          const auto it = std::next(
              ref.links.begin(), static_cast<long>(rng.next_below(ref.links.size())));
          a = it->first.first;
          b = it->first.second;
        }
        const bool up = rng.chance(0.5);
        EXPECT_EQ(graph.set_link_state(a, b, up), ref.set_link_state(a, b, up));
      } else if (op == 8) {
        what = "save";
        images.push_back({save_graph(graph), ref});
        if (images.size() > 3) images.erase(images.begin());
      } else if (op == 9 && !images.empty()) {
        // The last image restored again merges selectively; any other
        // image (or a dirty-list overflow) rebuilds the graph.
        what = "restore";
        const Image& img = rng.chance(0.6) ? images.back() : pick(images);
        ASSERT_TRUE(restore_graph(graph, img.bytes));
        ref = img.ref;
        ASSERT_EQ(save_graph(graph), img.bytes) << "step " << step;
        // A restore forgets which report produced each switch's state.
        last.clear();
        for (const auto& [id, st] : ref.switches) {
          SwitchHello h{st.locator, {}};
          for (const auto& [port, nbr] : st.ports) {
            h.neighbors.push_back({port, SwitchLocator{nbr, Level::kUnknown, 0, 0}});
          }
          last[id] = h;
        }
      } else {
        what = "fresh restore";
        const std::vector<std::uint8_t> bytes = save_graph(graph);
        FabricGraph fresh;
        ASSERT_TRUE(restore_graph(fresh, bytes));
        ASSERT_EQ(save_graph(fresh), bytes) << "step " << step;
        expect_same_view(fresh, ref, kK, "fresh graph, step " +
                                             std::to_string(step));
      }
      expect_same_view(graph, ref, kK,
                       "seed " + std::to_string(seed) + " step " +
                           std::to_string(step) + " (" + what + ")");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FabricGraph, RestoreRefusesAdjacencyWithoutItsLink) {
  // Every adjacency entry a hello stores has its link cell, which is what
  // lets an unchanged hello return without writing. An image that names
  // a neighbour but carries no link record for it (here: the link block
  // emptied and the hash recomputed) cannot come from a save.
  GraphFixture fx;
  std::vector<std::uint8_t> image = save_graph(fx.graph);
  sim::SnapshotReader r(image);
  (void)r.u64();
  const std::uint32_t payload_len = r.u32();
  const std::size_t payload_at = image.size() - payload_len;
  std::vector<std::uint8_t> payload(image.begin() + payload_at, image.end());
  // The link block is last: u32 count + 17-byte records.
  const std::size_t n_links = 32;  // k=4: 16 edge-agg + 16 agg-core
  ASSERT_GE(payload.size(), 4 + 17 * n_links);
  payload.resize(payload.size() - 17 * n_links - 4);
  sim::SnapshotWriter(payload).u32(0);  // no link records
  std::vector<std::uint8_t> forged;
  sim::SnapshotWriter w(forged);
  w.u64(sim::content_hash(payload));
  w.blob(payload);

  FabricGraph fresh;
  EXPECT_FALSE(restore_graph(fresh, forged));
  // The untouched image still restores.
  EXPECT_TRUE(restore_graph(fresh, image));
  EXPECT_EQ(save_graph(fresh), image);
}

TEST(Multicast, TreeSpansParticipantPods) {
  GraphFixture fx;
  GroupState state;
  state.receivers[GraphFixture::edge_id(0, 0)] = {0};
  state.receivers[GraphFixture::edge_id(2, 1)] = {0, 1};
  state.senders.insert(GraphFixture::edge_id(3, 0));

  const auto tree =
      compute_multicast_tree(fx.graph, Ipv4Address(224, 1, 1, 1), state);
  ASSERT_TRUE(tree.has_value());
  // The rendezvous core must be adjacent to aggs of pods 0, 2 and 3.
  const SwitchLocator* core_loc = fx.graph.locator(tree->core);
  ASSERT_NE(core_loc, nullptr);
  EXPECT_EQ(core_loc->level, Level::kCore);
  // Every participant edge appears with its member host ports included.
  ASSERT_TRUE(tree->ports.count(GraphFixture::edge_id(2, 1)));
  const auto& e21_ports = tree->ports.at(GraphFixture::edge_id(2, 1));
  EXPECT_TRUE(e21_ports.count(0));
  EXPECT_TRUE(e21_ports.count(1));
  // Sender edge is in the tree even without receivers.
  EXPECT_TRUE(tree->ports.count(GraphFixture::edge_id(3, 0)));
}

TEST(Multicast, AvoidsDeadCore) {
  GraphFixture fx;
  GroupState state;
  state.receivers[GraphFixture::edge_id(0, 0)] = {0};
  state.receivers[GraphFixture::edge_id(1, 0)] = {0};

  const Ipv4Address group(224, 0, 0, 2);
  const auto before = compute_multicast_tree(fx.graph, group, state);
  ASSERT_TRUE(before.has_value());

  // Kill the chosen core's links; recomputation must pick another.
  for (std::uint16_t pod = 0; pod < 4; ++pod) {
    for (std::uint8_t a = 0; a < 2; ++a) {
      fx.graph.set_link_state(GraphFixture::agg_id(pod, a), before->core,
                              false);
    }
  }
  const auto after = compute_multicast_tree(fx.graph, group, state);
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(after->core, before->core);
}

TEST(Multicast, NoParticipantsNoTree) {
  GraphFixture fx;
  EXPECT_FALSE(compute_multicast_tree(fx.graph, Ipv4Address(224, 0, 0, 1),
                                      GroupState{})
                   .has_value());
}

// ---------------------------------------------------------------------------
// FabricManager behaviors over a real control plane.
// ---------------------------------------------------------------------------

struct FmFixture {
  sim::Simulator sim;
  ControlPlane control{sim, micros(10)};
  PortlandConfig config;
  FabricManager fm{sim, control, config};
  std::vector<ControlMessage> inbox;

  void attach_switch(SwitchId id) {
    control.register_endpoint(
        id, [this](const ControlMessage& m) { inbox.push_back(m); });
  }
  void from_switch(SwitchId id, ControlBody body) {
    control.send(kFabricManagerId, ControlMessage{id, std::move(body)});
  }
};

TEST(FabricManager, PodAssignmentIsSequentialAndIdempotent) {
  FmFixture fx;
  fx.attach_switch(50);
  fx.attach_switch(51);
  fx.from_switch(50, PodRequest{});
  fx.from_switch(50, PodRequest{});  // duplicate request
  fx.from_switch(51, PodRequest{});
  fx.sim.run();

  ASSERT_EQ(fx.inbox.size(), 3u);
  EXPECT_EQ(std::get<PodAssignment>(fx.inbox[0].body).pod, 0);
  EXPECT_EQ(std::get<PodAssignment>(fx.inbox[1].body).pod, 0);  // same pod
  EXPECT_EQ(std::get<PodAssignment>(fx.inbox[2].body).pod, 1);
  EXPECT_EQ(fx.fm.pods_assigned(), 2);
}

TEST(FabricManager, ArpHitAndMiss) {
  FmFixture fx;
  fx.attach_switch(60);
  const Ipv4Address ip(10, 0, 0, 5);
  const MacAddress pmac = MacAddress::from_u64(0x000000010001);
  fx.from_switch(60, HostRegister{ip, MacAddress::from_u64(0x02000001),
                                  pmac, 1});
  fx.from_switch(60, ArpQuery{1, ip});
  fx.from_switch(60, ArpQuery{2, Ipv4Address(10, 9, 9, 9)});
  fx.sim.run();

  ASSERT_EQ(fx.inbox.size(), 2u);
  const auto& hit = std::get<ArpResponse>(fx.inbox[0].body);
  EXPECT_TRUE(hit.found);
  EXPECT_EQ(hit.pmac, pmac);
  const auto& miss = std::get<ArpResponse>(fx.inbox[1].body);
  EXPECT_FALSE(miss.found);
  EXPECT_EQ(fx.fm.counters().get("arp_hits"), 1u);
  EXPECT_EQ(fx.fm.counters().get("arp_misses"), 1u);
}

TEST(FabricManager, DetectsMigrationAndInvalidatesOldEdge) {
  FmFixture fx;
  fx.attach_switch(60);  // old edge
  fx.attach_switch(61);  // new edge
  const Ipv4Address ip(10, 0, 0, 7);
  const MacAddress amac = MacAddress::from_u64(0x020000000007);
  const MacAddress old_pmac = MacAddress::from_u64(0x000000010001);
  const MacAddress new_pmac = MacAddress::from_u64(0x000300010001);

  fx.from_switch(60, HostRegister{ip, amac, old_pmac, 0});
  fx.sim.run();
  EXPECT_TRUE(fx.inbox.empty());

  fx.from_switch(61, HostRegister{ip, amac, new_pmac, 1});
  fx.sim.run();
  ASSERT_EQ(fx.inbox.size(), 1u);
  EXPECT_EQ(fx.inbox[0].sender, kFabricManagerId);
  const auto& inv = std::get<InvalidateHost>(fx.inbox[0].body);
  EXPECT_EQ(inv.ip, ip);
  EXPECT_EQ(inv.old_pmac, old_pmac);
  EXPECT_EQ(inv.new_pmac, new_pmac);
  EXPECT_EQ(fx.fm.counters().get("migrations_detected"), 1u);
  EXPECT_EQ(fx.fm.host(ip)->edge, 61u);
}

TEST(FabricManager, LookupFastPath) {
  FmFixture fx;
  const Ipv4Address ip(10, 1, 1, 1);
  const MacAddress pmac = MacAddress::from_u64(0x000100000001);
  fx.fm.register_host_direct(ip, {pmac, MacAddress::from_u64(0x02001), 9, 0});
  EXPECT_EQ(fx.fm.lookup_pmac(ip), pmac);
  EXPECT_FALSE(fx.fm.lookup_pmac(Ipv4Address(1, 2, 3, 4)).has_value());
}

// ---------------------------------------------------------------------------
// Sharded registry (E22) and the hot-standby delta stream.
// ---------------------------------------------------------------------------

TEST(FabricManager, ShardedRegistryServesPerShardEndpoints) {
  sim::Simulator sim;
  ControlPlane control(sim, micros(10));
  PortlandConfig config;
  config.fm_shards = 4;
  FabricManager fm(sim, control, config);
  ASSERT_EQ(fm.shard_count(), 4u);
  std::vector<ControlMessage> inbox;
  control.register_endpoint(
      60, [&](const ControlMessage& m) { inbox.push_back(m); });

  // Register 32 hosts, each at its owning shard's endpoint (as a sharded
  // edge switch would).
  std::vector<Ipv4Address> ips;
  for (std::uint32_t i = 0; i < 32; ++i) {
    const Ipv4Address ip(10, 0, 0, 1 + i);
    ips.push_back(ip);
    control.send(
        static_cast<SwitchId>(kFmShardIdBase + fm.shard_of(ip)),
        ControlMessage{60, HostRegister{
                               ip, MacAddress::from_u64(0x020000000000ull + i),
                               MacAddress::from_u64(0x000000010000ull + i),
                               1}});
  }
  sim.run();
  EXPECT_EQ(fm.host_count(), 32u);

  // Queries at the shard endpoints answer exactly like the classic FM.
  std::uint32_t qid = 1;
  for (const Ipv4Address ip : ips) {
    control.send(static_cast<SwitchId>(kFmShardIdBase + fm.shard_of(ip)),
                 ControlMessage{60, ArpQuery{qid++, ip}});
  }
  const Ipv4Address absent(10, 9, 9, 9);
  control.send(static_cast<SwitchId>(kFmShardIdBase + fm.shard_of(absent)),
               ControlMessage{60, ArpQuery{qid++, absent}});
  sim.run();
  ASSERT_EQ(inbox.size(), 33u);
  for (std::size_t i = 0; i + 1 < inbox.size(); ++i) {
    EXPECT_TRUE(std::get<ArpResponse>(inbox[i].body).found) << i;
  }
  EXPECT_FALSE(std::get<ArpResponse>(inbox.back().body).found);

  // Merged counters sum the per-shard slices, and the load really split
  // across more than one shard.
  EXPECT_EQ(fm.counters().get("arp_hits"), 32u);
  EXPECT_EQ(fm.counters().get("arp_misses"), 1u);
  std::size_t shards_serving = 0;
  std::uint64_t per_shard_total = 0;
  for (std::size_t s = 0; s < fm.shard_count(); ++s) {
    const std::uint64_t q = fm.shard_counters(s).get("arp_queries");
    shards_serving += q > 0 ? 1 : 0;
    per_shard_total += q;
  }
  EXPECT_GE(shards_serving, 2u);
  EXPECT_EQ(per_shard_total, 33u);

  // The primary address still routes registry traffic internally, so
  // unsharded senders keep working at any shard count.
  inbox.clear();
  control.send(kFabricManagerId, ControlMessage{60, ArpQuery{qid++, ips[0]}});
  sim.run();
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_TRUE(std::get<ArpResponse>(inbox[0].body).found);
  EXPECT_EQ(fm.lookup_pmac(ips[0]), MacAddress::from_u64(0x000000010000ull));
}

TEST(FabricManager, ReplicaFailoverRestoresStreamedState) {
  sim::Simulator sim;
  ControlPlane control(sim, micros(10));
  PortlandConfig config;
  config.fm_shards = 2;
  config.fm_replica = true;
  config.fm_replica_sync_interval = millis(10);
  FabricManager fm(sim, control, config);
  fm.start_replica_sync({0, 0}, 0);

  for (std::uint32_t i = 0; i < 16; ++i) {
    const Ipv4Address ip(10, 0, 0, 1 + i);
    control.send(
        static_cast<SwitchId>(kFmShardIdBase + fm.shard_of(ip)),
        ControlMessage{60, HostRegister{
                               ip, MacAddress::from_u64(0x020000000000ull + i),
                               MacAddress::from_u64(0x000000010000ull + i),
                               1}});
  }
  sim.run_until(millis(55));  // several sync intervals stream the deltas
  EXPECT_EQ(fm.host_count(), 16u);
  EXPECT_GE(fm.replica_sections_held(), 2u);  // both registry shards synced

  // A registration landing inside the dirty window (after the last sync)
  // is exactly what a failover may lose — nothing more.
  const Ipv4Address late(10, 0, 0, 99);
  control.send(static_cast<SwitchId>(kFmShardIdBase + fm.shard_of(late)),
               ControlMessage{60, HostRegister{
                                      late, MacAddress::from_u64(0x02990000),
                                      MacAddress::from_u64(0x00990000), 1}});
  sim.run_until(millis(56));  // delivered, but the next sync hasn't run
  EXPECT_EQ(fm.host_count(), 17u);

  fm.failover_to_replica();
  EXPECT_EQ(fm.host_count(), 16u);  // streamed state back, dirty window lost
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(fm.lookup_pmac(Ipv4Address(10, 0, 0, 1 + i)).has_value()) << i;
  }
  EXPECT_FALSE(fm.lookup_pmac(late).has_value());
  EXPECT_EQ(fm.counters().get("replica_failovers"), 1u);

  // A cold failover (no replica restore) wipes everything instead.
  fm.simulate_failover();
  EXPECT_EQ(fm.host_count(), 0u);
}

TEST(FabricManager, SnapshotRefusesAnotherConfiguration) {
  const auto save = [](const PortlandConfig& config) {
    sim::Simulator sim;
    ControlPlane control(sim, micros(10));
    FabricManager fm(sim, control, config);
    for (std::uint32_t i = 0; i < 24; ++i) {
      fm.register_host_direct(
          Ipv4Address(10, 0, 1, i),
          {MacAddress::from_u64(0x000000020000ull + i),
           MacAddress::from_u64(0x020000000000ull + i), 7, 0});
    }
    std::vector<std::uint8_t> image;
    sim::SnapshotWriter w(image);
    sim::SnapshotIo io(w);
    EXPECT_EQ(fm.snapshot(io), nullptr);
    return image;
  };
  // Returns the load's refusal, or "" when the image loaded.
  const auto load = [](const PortlandConfig& config,
                       const std::vector<std::uint8_t>& image) {
    sim::Simulator sim;
    ControlPlane control(sim, micros(10));
    FabricManager fm(sim, control, config);
    sim::SnapshotReader r(image);
    sim::SnapshotIo io(r);
    const char* bad = fm.snapshot(io);
    EXPECT_EQ(bad == nullptr, r.ok());
    if (bad == nullptr && r.ok()) {
      EXPECT_EQ(fm.host_count(), 24u);
    }
    return std::string(bad == nullptr ? "" : bad);
  };
  PortlandConfig four;
  four.fm_shards = 4;
  PortlandConfig one;
  PortlandConfig replica = four;
  replica.fm_replica = true;
  const std::vector<std::uint8_t> image = save(four);
  EXPECT_EQ(load(four, image), "");
  // Another registry split is refused, not folded or re-homed.
  EXPECT_EQ(load(one, image), "fm registry shard count mismatch");
  EXPECT_EQ(load(replica, image), "fm replica setting mismatch");
  EXPECT_EQ(load(four, save(replica)), "fm replica setting mismatch");
  EXPECT_EQ(load(replica, save(replica)), "");
}

TEST(FabricManager, SnapshotRefusesAnEntryInAnotherShard) {
  PortlandConfig config;
  config.fm_shards = 4;
  sim::Simulator sim;
  ControlPlane control(sim, micros(10));
  FabricManager fm(sim, control, config);
  const Ipv4Address a(10, 0, 1, 1);
  Ipv4Address b = a;
  for (std::uint8_t i = 2; fm.shard_of(b) == fm.shard_of(a); ++i) {
    b = Ipv4Address(10, 0, 1, i);
  }
  fm.register_host_direct(a, {MacAddress::from_u64(0x20000),
                              MacAddress::from_u64(0x20000000000), 7, 0});
  std::vector<std::uint8_t> image;
  sim::SnapshotWriter w(image);
  sim::SnapshotIo save(w);
  ASSERT_EQ(fm.snapshot(save), nullptr);

  // Rename the one entry to an IP another shard owns, in place: the image
  // stores each IP once, as a big-endian word.
  const auto be = [](Ipv4Address ip) {
    const std::uint32_t v = ip.value();
    return std::array<std::uint8_t, 4>{
        static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
  };
  const std::array<std::uint8_t, 4> from = be(a);
  const auto at = std::search(image.begin(), image.end(), from.begin(),
                              from.end());
  ASSERT_NE(at, image.end());
  ASSERT_EQ(std::search(at + 1, image.end(), from.begin(), from.end()),
            image.end());
  std::vector<std::uint8_t> forged = image;
  const std::array<std::uint8_t, 4> to = be(b);
  std::copy(to.begin(), to.end(), forged.begin() + (at - image.begin()));

  sim::SnapshotReader r(forged);
  sim::SnapshotIo load(r);
  (void)fm.snapshot(load);
  EXPECT_FALSE(r.ok());

  sim::SnapshotReader again(image);
  sim::SnapshotIo reload(again);
  EXPECT_EQ(fm.snapshot(reload), nullptr);
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(fm.lookup_pmac(a), MacAddress::from_u64(0x20000));
}

TEST(ControlPlane, CountsPerTypeAndBytes) {
  sim::Simulator sim;
  ControlPlane cp(sim, micros(5));
  int received = 0;
  cp.register_endpoint(7, [&](const ControlMessage&) { ++received; });
  cp.send(7, ControlMessage{1, ArpQuery{1, Ipv4Address(10, 0, 0, 1)}});
  cp.send(7, ControlMessage{1, ArpQuery{2, Ipv4Address(10, 0, 0, 2)}});
  cp.send(99, ControlMessage{1, PodRequest{}});  // no such endpoint
  sim.run();

  EXPECT_EQ(received, 2);
  EXPECT_EQ(cp.messages_sent(), 3u);
  EXPECT_EQ(cp.messages_of("arp_query"), 2u);
  EXPECT_GT(cp.bytes_of("arp_query"), 0u);
  EXPECT_EQ(cp.messages_of("pod_request"), 1u);
  EXPECT_EQ(cp.messages_of("no_such_type"), 0u);
  EXPECT_EQ(cp.bytes_sent(),
            cp.bytes_of("arp_query") + cp.bytes_of("pod_request"));
  EXPECT_EQ(cp.undeliverable(), 1u);
}

TEST(ControlPlane, DeliversAfterLatencyPlusExtraDelay) {
  sim::Simulator sim;
  ControlPlane cp(sim, millis(1));
  SimTime delivered_at = -1;
  cp.register_endpoint(7, [&](const ControlMessage&) {
    delivered_at = sim.now();
  });
  cp.send(7, ControlMessage{1, PodRequest{}}, millis(2));
  sim.run();
  EXPECT_EQ(delivered_at, millis(3));
}

}  // namespace
}  // namespace portland::core
