#include "topo/fat_tree.h"

#include <cassert>
#include <stdexcept>

#include "common/strings.h"

namespace portland::topo {

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kHost:
      return "host";
    case NodeKind::kEdge:
      return "edge";
    case NodeKind::kAggregation:
      return "agg";
    case NodeKind::kCore:
      return "core";
  }
  return "?";
}

FatTree::FatTree(int k) : k_(k) {
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument("fat-tree k must be even and >= 2");
  }
  const std::size_t half = static_cast<std::size_t>(k) / 2;

  // Bulk reservation: a k=64 tree has 70k nodes and 200k links — growing
  // these vectors by doubling churns hundreds of MB of reallocation.
  nodes_.reserve(num_hosts() + num_edge() + num_agg() + num_core());
  links_.reserve(num_hosts() + num_fabric_links(k));

  // Hosts.
  for (std::size_t pod = 0; pod < pods(); ++pod) {
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t p = 0; p < half; ++p) {
        NodeSpec n;
        n.kind = NodeKind::kHost;
        n.name = str_format("host-p%zu-e%zu-h%zu", pod, e, p);
        n.pod = static_cast<std::uint16_t>(pod);
        n.position = static_cast<std::uint8_t>(e);
        n.port = static_cast<std::uint8_t>(p);
        nodes_.push_back(std::move(n));
      }
    }
  }
  // Edge switches.
  for (std::size_t pod = 0; pod < pods(); ++pod) {
    for (std::size_t e = 0; e < half; ++e) {
      NodeSpec n;
      n.kind = NodeKind::kEdge;
      n.name = str_format("edge-p%zu-%zu", pod, e);
      n.pod = static_cast<std::uint16_t>(pod);
      n.position = static_cast<std::uint8_t>(e);
      nodes_.push_back(std::move(n));
    }
  }
  // Aggregation switches.
  for (std::size_t pod = 0; pod < pods(); ++pod) {
    for (std::size_t a = 0; a < half; ++a) {
      NodeSpec n;
      n.kind = NodeKind::kAggregation;
      n.name = str_format("agg-p%zu-%zu", pod, a);
      n.pod = static_cast<std::uint16_t>(pod);
      n.position = static_cast<std::uint8_t>(a);
      nodes_.push_back(std::move(n));
    }
  }
  // Core switches: group i (which agg position they serve), member j.
  for (std::size_t i = 0; i < half; ++i) {
    for (std::size_t j = 0; j < half; ++j) {
      NodeSpec n;
      n.kind = NodeKind::kCore;
      n.name = str_format("core-%zu-%zu", i, j);
      n.pod = kNoPod;
      n.position = static_cast<std::uint8_t>(i);
      n.port = static_cast<std::uint8_t>(j);
      nodes_.push_back(std::move(n));
    }
  }

  // Host <-> edge links: host's single port 0 to edge port p.
  for (std::size_t pod = 0; pod < pods(); ++pod) {
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t p = 0; p < half; ++p) {
        links_.push_back(LinkSpec{host_index(pod, e, p), edge_index(pod, e),
                                  /*port_a=*/0, /*port_b=*/p});
      }
    }
  }
  // Edge <-> aggregation: edge uplink (half + a) to agg downlink e.
  for (std::size_t pod = 0; pod < pods(); ++pod) {
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t a = 0; a < half; ++a) {
        links_.push_back(LinkSpec{edge_index(pod, e), agg_index(pod, a),
                                  /*port_a=*/half + a, /*port_b=*/e});
      }
    }
  }
  // Aggregation <-> core: agg (pos a) uplink (half + j) to core (a, j)
  // port pod.
  for (std::size_t pod = 0; pod < pods(); ++pod) {
    for (std::size_t a = 0; a < half; ++a) {
      for (std::size_t j = 0; j < half; ++j) {
        links_.push_back(LinkSpec{agg_index(pod, a), core_index(a, j),
                                  /*port_a=*/half + j, /*port_b=*/pod});
      }
    }
  }
}

std::size_t FatTree::host_index(std::size_t pod, std::size_t edge_pos,
                                std::size_t host_port) const {
  const std::size_t half = static_cast<std::size_t>(k_) / 2;
  assert(pod < pods() && edge_pos < half && host_port < half);
  return (pod * half + edge_pos) * half + host_port;
}

std::size_t FatTree::edge_index(std::size_t pod, std::size_t pos) const {
  const std::size_t half = static_cast<std::size_t>(k_) / 2;
  assert(pod < pods() && pos < half);
  return num_hosts() + pod * half + pos;
}

std::size_t FatTree::agg_index(std::size_t pod, std::size_t pos) const {
  const std::size_t half = static_cast<std::size_t>(k_) / 2;
  assert(pod < pods() && pos < half);
  return num_hosts() + num_edge() + pod * half + pos;
}

std::size_t FatTree::core_index(std::size_t group, std::size_t member) const {
  const std::size_t half = static_cast<std::size_t>(k_) / 2;
  assert(group < half && member < half);
  return num_hosts() + num_edge() + num_agg() + group * half + member;
}

std::vector<sim::Device*> BuiltFatTree::all_switches() const {
  std::vector<sim::Device*> out;
  out.reserve(edges.size() + aggs.size() + cores.size());
  out.insert(out.end(), edges.begin(), edges.end());
  out.insert(out.end(), aggs.begin(), aggs.end());
  out.insert(out.end(), cores.begin(), cores.end());
  return out;
}

BuiltFatTree instantiate(const FatTree& tree, sim::Network& net,
                         const DeviceFactory& make_host,
                         const DeviceFactory& make_switch,
                         sim::Link::Config host_link,
                         sim::Link::Config fabric_link) {
  BuiltFatTree built;
  built.hosts.reserve(tree.num_hosts());
  built.edges.reserve(tree.num_edge());
  built.aggs.reserve(tree.num_agg());
  built.cores.reserve(tree.num_core());
  built.host_links.reserve(tree.num_hosts());
  built.fabric_links.reserve(tree.links().size() - tree.num_hosts());
  std::vector<sim::Device*> by_index;
  by_index.reserve(tree.nodes().size());

  for (const NodeSpec& spec : tree.nodes()) {
    sim::Device& dev =
        spec.kind == NodeKind::kHost ? make_host(spec) : make_switch(spec);
    by_index.push_back(&dev);
    switch (spec.kind) {
      case NodeKind::kHost:
        assert(dev.port_count() >= 1);
        built.hosts.push_back(&dev);
        break;
      case NodeKind::kEdge:
        assert(dev.port_count() >= static_cast<std::size_t>(tree.k()));
        built.edges.push_back(&dev);
        break;
      case NodeKind::kAggregation:
        built.aggs.push_back(&dev);
        break;
      case NodeKind::kCore:
        built.cores.push_back(&dev);
        break;
    }
  }

  for (const LinkSpec& ls : tree.links()) {
    const bool access = tree.nodes()[ls.node_a].kind == NodeKind::kHost ||
                        tree.nodes()[ls.node_b].kind == NodeKind::kHost;
    sim::Link& link =
        net.connect(*by_index[ls.node_a], ls.port_a, *by_index[ls.node_b],
                    ls.port_b, access ? host_link : fabric_link);
    if (access) {
      built.host_links.push_back(&link);
    } else {
      built.fabric_links.push_back(&link);
    }
  }
  return built;
}

}  // namespace portland::topo
