// k-ary fat-tree topology description (Al-Fares et al., the multi-rooted
// tree PortLand targets).
//
// For even k >= 2:
//   * k pods; each pod has k/2 edge switches and k/2 aggregation switches;
//   * each edge switch connects k/2 hosts (down) and all k/2 aggregation
//     switches in its pod (up);
//   * (k/2)^2 core switches; core (i, j) connects to every pod's
//     aggregation switch at position i, so each aggregation switch at
//     position i reaches k/2 cores; each core has exactly one link per pod;
//   * k^3/4 hosts total.
//
// Port conventions (these define the PMAC `port` field and the forwarding
// logic's up/down split):
//   * edge switch: ports [0, k/2) face hosts — host at port p gets PMAC
//     port byte p; ports [k/2, k) are uplinks, uplink (k/2 + a) connects to
//     the pod's aggregation switch at position a;
//   * aggregation switch at position a: ports [0, k/2) are downlinks, port
//     e connects to the pod's edge switch at position e; ports [k/2, k) are
//     uplinks, uplink (k/2 + j) connects to core (a, j);
//   * core (i, j): port p connects to pod p.
//
// The description is pure data; `instantiate()` wires devices created by
// caller-supplied factories, so the same description backs PortLand
// fabrics, baseline Ethernet networks, and standalone analysis.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/link.h"
#include "sim/network.h"

namespace portland::topo {

enum class NodeKind { kHost, kEdge, kAggregation, kCore };

[[nodiscard]] const char* to_string(NodeKind kind);

/// Pod value used for core switches (they belong to no pod).
constexpr std::uint16_t kNoPod = 0xFFFF;

struct NodeSpec {
  NodeKind kind = NodeKind::kHost;
  std::string name;
  std::uint16_t pod = kNoPod;  // hosts/edge/agg: pod number; cores: kNoPod
  std::uint8_t position = 0;   // edge/agg: index in pod; host: its edge's
                               // position; core: group index i
  std::uint8_t port = 0;       // host: its port on the edge switch;
                               // core: index j within group i
};

struct LinkSpec {
  std::size_t node_a = 0;  // index into nodes()
  std::size_t node_b = 0;
  sim::PortId port_a = 0;
  sim::PortId port_b = 0;
};

class FatTree {
 public:
  /// k must be even and >= 2.
  explicit FatTree(int k);

  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] std::size_t pods() const { return static_cast<std::size_t>(k_); }
  [[nodiscard]] std::size_t hosts_per_edge() const {
    return static_cast<std::size_t>(k_) / 2;
  }
  [[nodiscard]] std::size_t edge_per_pod() const {
    return static_cast<std::size_t>(k_) / 2;
  }
  [[nodiscard]] std::size_t agg_per_pod() const {
    return static_cast<std::size_t>(k_) / 2;
  }
  [[nodiscard]] std::size_t num_hosts() const {
    return pods() * edge_per_pod() * hosts_per_edge();
  }
  [[nodiscard]] std::size_t num_edge() const { return pods() * edge_per_pod(); }
  [[nodiscard]] std::size_t num_agg() const { return pods() * agg_per_pod(); }
  [[nodiscard]] std::size_t num_core() const {
    return (static_cast<std::size_t>(k_) / 2) * (static_cast<std::size_t>(k_) / 2);
  }
  [[nodiscard]] std::size_t num_switches() const {
    return num_edge() + num_agg() + num_core();
  }
  /// Switch<->switch links of a k-ary fat tree: k/2 * k/2 edge-agg and as
  /// many agg-core links per pod (the candidates for link failures).
  [[nodiscard]] static std::size_t num_fabric_links(int k) {
    const std::size_t half = static_cast<std::size_t>(k) / 2;
    return 2 * static_cast<std::size_t>(k) * half * half;
  }

  [[nodiscard]] const std::vector<NodeSpec>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<LinkSpec>& links() const { return links_; }

  /// Pod-aware shard plan for the parallel engine: pod p is shard p; core
  /// switches (and the fabric manager, by fabric-wiring convention) share
  /// the extra shard `core_shard()`.
  [[nodiscard]] std::size_t shard_count() const { return pods() + 1; }
  [[nodiscard]] sim::ShardId core_shard() const {
    return static_cast<sim::ShardId>(pods());
  }
  [[nodiscard]] sim::ShardId shard_of(const NodeSpec& spec) const {
    return spec.pod == kNoPod ? core_shard()
                              : static_cast<sim::ShardId>(spec.pod);
  }

  /// Index helpers into nodes(). Hosts first, then edge, agg, core.
  [[nodiscard]] std::size_t host_index(std::size_t pod, std::size_t edge_pos,
                                       std::size_t host_port) const;
  [[nodiscard]] std::size_t edge_index(std::size_t pod, std::size_t pos) const;
  [[nodiscard]] std::size_t agg_index(std::size_t pod, std::size_t pos) const;
  [[nodiscard]] std::size_t core_index(std::size_t group,
                                       std::size_t member) const;

 private:
  int k_;
  std::vector<NodeSpec> nodes_;
  std::vector<LinkSpec> links_;
};

/// Handles to the devices and links created by `instantiate`.
struct BuiltFatTree {
  std::vector<sim::Device*> hosts;
  std::vector<sim::Device*> edges;
  std::vector<sim::Device*> aggs;
  std::vector<sim::Device*> cores;
  /// Host<->edge access links, indexed like FatTree host indices.
  std::vector<sim::Link*> host_links;
  /// Switch<->switch fabric links.
  std::vector<sim::Link*> fabric_links;

  [[nodiscard]] std::vector<sim::Device*> all_switches() const;
};

/// Creates a device for `spec`; must add the right number of ports
/// (1 for hosts, k for switches) before returning.
using DeviceFactory = std::function<sim::Device&(const NodeSpec& spec)>;

/// Instantiates the topology into `net`, creating devices via the
/// factories and wiring every link per the conventions above.
[[nodiscard]] BuiltFatTree instantiate(const FatTree& tree, sim::Network& net,
                                       const DeviceFactory& make_host,
                                       const DeviceFactory& make_switch,
                                       sim::Link::Config host_link = {},
                                       sim::Link::Config fabric_link = {});

}  // namespace portland::topo
