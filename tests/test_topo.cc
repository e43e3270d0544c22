// Fat-tree structural properties (parameterized across k) and graph
// ground-truth queries.
#include <gtest/gtest.h>

#include "sim/network.h"
#include "topo/fat_tree.h"
#include "topo/graph.h"

namespace portland::topo {
namespace {

class FatTreeSizes : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeSizes, CountsMatchFormulas) {
  const int k = GetParam();
  const FatTree tree(k);
  const std::size_t uk = static_cast<std::size_t>(k);
  EXPECT_EQ(tree.num_hosts(), uk * uk * uk / 4);
  EXPECT_EQ(tree.num_edge(), uk * uk / 2);
  EXPECT_EQ(tree.num_agg(), uk * uk / 2);
  EXPECT_EQ(tree.num_core(), uk * uk / 4);
  EXPECT_EQ(tree.num_switches(), 5 * uk * uk / 4);
  EXPECT_EQ(tree.nodes().size(), tree.num_hosts() + tree.num_switches());
  // Links: hosts + edge-agg (k/2 * k/2 per pod * k) + agg-core (same).
  EXPECT_EQ(FatTree::num_fabric_links(k), uk * (uk / 2) * (uk / 2) * 2);
  EXPECT_EQ(tree.links().size(),
            tree.num_hosts() + FatTree::num_fabric_links(k));
}

TEST_P(FatTreeSizes, EverySwitchHasExactlyKLinks) {
  const int k = GetParam();
  const FatTree tree(k);
  std::vector<std::size_t> degree(tree.nodes().size(), 0);
  for (const LinkSpec& l : tree.links()) {
    ++degree[l.node_a];
    ++degree[l.node_b];
  }
  for (std::size_t i = 0; i < tree.nodes().size(); ++i) {
    if (tree.nodes()[i].kind == NodeKind::kHost) {
      EXPECT_EQ(degree[i], 1u);
    } else {
      EXPECT_EQ(degree[i], static_cast<std::size_t>(k)) << tree.nodes()[i].name;
    }
  }
}

TEST_P(FatTreeSizes, PortConventions) {
  const int k = GetParam();
  const std::size_t half = static_cast<std::size_t>(k) / 2;
  const FatTree tree(k);
  for (const LinkSpec& l : tree.links()) {
    const NodeSpec& a = tree.nodes()[l.node_a];
    const NodeSpec& b = tree.nodes()[l.node_b];
    if (a.kind == NodeKind::kHost) {
      // Host port 0 to edge port == host's port number.
      EXPECT_EQ(l.port_a, 0u);
      EXPECT_EQ(l.port_b, a.port);
      EXPECT_LT(l.port_b, half);  // host-facing half
    } else if (a.kind == NodeKind::kEdge && b.kind == NodeKind::kAggregation) {
      EXPECT_GE(l.port_a, half);  // uplink half on the edge
      EXPECT_LT(l.port_b, half);  // downlink half on the agg
      EXPECT_EQ(l.port_b, a.position);  // agg down port = edge position
    } else if (a.kind == NodeKind::kAggregation && b.kind == NodeKind::kCore) {
      EXPECT_GE(l.port_a, half);
      EXPECT_EQ(l.port_b, a.pod);  // core port = pod number
      EXPECT_EQ(b.position, a.position);  // core group = agg position
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, FatTreeSizes, ::testing::Values(2, 4, 6, 8, 16));

TEST(FatTree, RejectsOddOrTinyK) {
  EXPECT_THROW(FatTree(3), std::invalid_argument);
  EXPECT_THROW(FatTree(0), std::invalid_argument);
  EXPECT_THROW(FatTree(-4), std::invalid_argument);
}

TEST(FatTree, IndexHelpersMatchSpecs) {
  const FatTree tree(4);
  const NodeSpec& host = tree.nodes()[tree.host_index(2, 1, 0)];
  EXPECT_EQ(host.kind, NodeKind::kHost);
  EXPECT_EQ(host.pod, 2);
  EXPECT_EQ(host.position, 1);
  EXPECT_EQ(host.port, 0);

  const NodeSpec& edge = tree.nodes()[tree.edge_index(3, 0)];
  EXPECT_EQ(edge.kind, NodeKind::kEdge);
  EXPECT_EQ(edge.pod, 3);

  const NodeSpec& core = tree.nodes()[tree.core_index(1, 0)];
  EXPECT_EQ(core.kind, NodeKind::kCore);
  EXPECT_EQ(core.pod, kNoPod);
}

/// Trivial device used for instantiation tests.
class NullDevice : public sim::Device {
 public:
  NullDevice(sim::Simulator& sim, std::string name, std::size_t ports)
      : Device(sim, std::move(name)) {
    add_ports(ports);
  }
  void handle_frame(sim::PortId, const sim::FramePtr&) override {}
};

struct BuiltFixture {
  sim::Network net;
  FatTree tree;
  BuiltFatTree built;

  explicit BuiltFixture(int k)
      : tree(k),
        built(instantiate(
            tree, net,
            [&](const NodeSpec& spec) -> sim::Device& {
              return net.add_device<NullDevice>(spec.name, 1);
            },
            [&](const NodeSpec& spec) -> sim::Device& {
              return net.add_device<NullDevice>(spec.name,
                                                static_cast<std::size_t>(k));
            })) {}
};

TEST(Instantiate, WiresEverything) {
  BuiltFixture fx(4);
  EXPECT_EQ(fx.built.hosts.size(), 16u);
  EXPECT_EQ(fx.built.edges.size(), 8u);
  EXPECT_EQ(fx.built.aggs.size(), 8u);
  EXPECT_EQ(fx.built.cores.size(), 4u);
  EXPECT_EQ(fx.built.host_links.size(), 16u);
  EXPECT_EQ(fx.built.fabric_links.size(), 32u);
  // Every switch port wired.
  for (sim::Device* sw : fx.built.all_switches()) {
    for (sim::PortId p = 0; p < sw->port_count(); ++p) {
      EXPECT_TRUE(sw->port_connected(p)) << sw->name() << " port " << p;
    }
  }
}

TEST(Graph, FatTreeIsConnectedAndHasExpectedDiameter) {
  BuiltFixture fx(4);
  const Graph g = Graph::from_network(fx.net);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.component_count(), 1u);

  // Host-to-host distance: same edge = 2 hops, inter-pod = 6 hops.
  const auto a = g.index_of(fx.built.hosts[fx.tree.host_index(0, 0, 0)]);
  const auto b = g.index_of(fx.built.hosts[fx.tree.host_index(0, 0, 1)]);
  const auto c = g.index_of(fx.built.hosts[fx.tree.host_index(3, 1, 1)]);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(g.distance(*a, *b), 2u);
  EXPECT_EQ(g.distance(*a, *c), 6u);
}

TEST(Graph, ReflectsFailedLinks) {
  BuiltFixture fx(4);
  // Kill one host's access link: host unreachable, rest connected.
  fx.built.host_links[0]->set_up(false);
  const Graph g = Graph::from_network(fx.net);
  EXPECT_FALSE(g.connected());
  EXPECT_EQ(g.component_count(), 2u);
}

TEST(Graph, EdgeDisjointPathsBetweenPods) {
  BuiltFixture fx(4);
  const Graph g = Graph::from_network(fx.net);
  // Between two edge switches in different pods, a k=4 fat tree offers 2
  // edge-disjoint paths (one per aggregation switch / core group).
  const auto e0 = g.index_of(fx.built.edges[0]);
  const auto e7 = g.index_of(fx.built.edges[7]);
  ASSERT_TRUE(e0 && e7);
  EXPECT_EQ(g.edge_disjoint_paths(*e0, *e7), 2u);
  // Hosts are singly attached.
  const auto h = g.index_of(fx.built.hosts[0]);
  EXPECT_EQ(g.edge_disjoint_paths(*h, *e7), 1u);
}

TEST(Graph, DisjointPathsDegradeWithFailures) {
  BuiltFixture fx(8);
  const auto before =
      Graph::from_network(fx.net)
          .edge_disjoint_paths(
              *Graph::from_network(fx.net).index_of(fx.built.edges[0]),
              *Graph::from_network(fx.net).index_of(fx.built.edges.back()));
  EXPECT_EQ(before, 4u);  // k/2 disjoint inter-pod paths

  // Fail one of edge 0's uplinks.
  for (const auto& link : fx.net.links()) {
    if (&link->device(0) == fx.built.edges[0] ||
        &link->device(1) == fx.built.edges[0]) {
      const bool host_side =
          link->device(0).port_count() == 1 || link->device(1).port_count() == 1;
      if (!host_side) {
        link->set_up(false);
        break;
      }
    }
  }
  const Graph g = Graph::from_network(fx.net);
  EXPECT_EQ(g.edge_disjoint_paths(*g.index_of(fx.built.edges[0]),
                                  *g.index_of(fx.built.edges.back())),
            3u);
}

TEST(Graph, ManualConstruction) {
  Graph g;
  const auto a = g.add_node();
  const auto b = g.add_node();
  const auto c = g.add_node();
  g.add_edge(a, b);
  EXPECT_TRUE(g.reachable(a, b));
  EXPECT_FALSE(g.reachable(a, c));
  EXPECT_EQ(g.component_count(), 2u);
  g.add_edge(b, c);
  EXPECT_EQ(g.distance(a, c), 2u);
}

}  // namespace
}  // namespace portland::topo
