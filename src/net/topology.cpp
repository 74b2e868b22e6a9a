#include "net/topology.hpp"

#include <cassert>

namespace pythia::net {

NodeId Topology::add_host(std::string name, int rack) {
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  nodes_.push_back(Node{id, NodeKind::kHost, std::move(name), rack});
  out_.emplace_back();
  node_group_.push_back(kCoreGroup);
  // Node ids grow with every add, so appending keeps hosts_ ascending.
  host_index_.push_back(static_cast<std::uint32_t>(hosts_.size()));
  hosts_.push_back(id);
  return id;
}

NodeId Topology::add_switch(std::string name, int rack) {
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  nodes_.push_back(Node{id, NodeKind::kSwitch, std::move(name), rack});
  out_.emplace_back();
  node_group_.push_back(kCoreGroup);
  host_index_.push_back(kNoHost);
  return id;
}

void Topology::set_node_group(NodeId n, std::int32_t group) {
  assert(n.valid() && n.value() < nodes_.size());
  assert(group >= kCoreGroup);
  node_group_[n.value()] = group;
}

LinkId Topology::add_link(NodeId src, NodeId dst, util::BitsPerSec capacity) {
  assert(src.valid() && src.value() < nodes_.size());
  assert(dst.valid() && dst.value() < nodes_.size());
  assert(src != dst);
  assert(capacity.bps() > 0.0);
  const LinkId id{static_cast<std::uint32_t>(links_.size())};
  links_.push_back(Link{id, src, dst, capacity});
  out_[src.value()].push_back(id);
  return id;
}

LinkId Topology::add_duplex(NodeId a, NodeId b, util::BitsPerSec capacity) {
  const LinkId forward = add_link(a, b, capacity);
  add_link(b, a, capacity);
  return forward;
}

std::vector<NodeId> Topology::switches() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::kSwitch) out.push_back(n.id);
  }
  return out;
}

std::optional<LinkId> Topology::find_link(NodeId src, NodeId dst) const {
  for (LinkId l : out_links(src)) {
    if (links_[l.value()].dst == dst) return l;
  }
  return std::nullopt;
}

std::uint32_t Topology::address_of(NodeId n) const {
  const auto& node = nodes_[n.value()];
  const auto rack = static_cast<std::uint32_t>(node.rack < 0 ? 255 : node.rack);
  return (10u << 24) | ((rack & 0xffu) << 16) | (n.value() & 0xffffu);
}

bool Topology::validate_path(NodeId src, NodeId dst,
                             const std::vector<LinkId>& path) const {
  if (path.empty()) return src == dst;
  NodeId cursor = src;
  for (LinkId l : path) {
    if (!l.valid() || l.value() >= links_.size()) return false;
    const Link& link = links_[l.value()];
    if (link.src != cursor) return false;
    cursor = link.dst;
  }
  return cursor == dst;
}

Topology make_two_rack(const TwoRackConfig& cfg) {
  assert(cfg.servers_per_rack > 0);
  assert(cfg.inter_rack_links > 0);
  Topology topo;
  const NodeId tor0 = topo.add_switch("tor-0", 0);
  const NodeId tor1 = topo.add_switch("tor-1", 1);
  topo.set_node_group(tor0, 0);
  topo.set_node_group(tor1, 1);
  for (std::size_t r = 0; r < 2; ++r) {
    const NodeId tor = r == 0 ? tor0 : tor1;
    for (std::size_t s = 0; s < cfg.servers_per_rack; ++s) {
      const NodeId host = topo.add_host(
          "server-" + std::to_string(r * cfg.servers_per_rack + s),
          static_cast<int>(r));
      topo.set_node_group(host, static_cast<std::int32_t>(r));
      topo.add_duplex(host, tor, cfg.host_link);
    }
  }
  // Each parallel inter-rack cable gets its own pass-through "wire" switch so
  // that k-shortest-path routing enumerates the cables as distinct paths, the
  // way an OpenFlow rule selects a distinct ToR egress port.
  for (std::size_t i = 0; i < cfg.inter_rack_links; ++i) {
    const NodeId wire = topo.add_switch("wire-" + std::to_string(i));
    topo.add_duplex(tor0, wire, cfg.inter_rack_capacity);
    topo.add_duplex(wire, tor1, cfg.inter_rack_capacity);
  }
  return topo;
}

Topology make_leaf_spine(const LeafSpineConfig& cfg) {
  assert(cfg.racks > 0 && cfg.servers_per_rack > 0 && cfg.spines > 0);
  Topology topo;
  std::vector<NodeId> tors;
  tors.reserve(cfg.racks);
  for (std::size_t r = 0; r < cfg.racks; ++r) {
    tors.push_back(topo.add_switch("tor-" + std::to_string(r),
                                   static_cast<int>(r)));
    topo.set_node_group(tors.back(), static_cast<std::int32_t>(r));
  }
  std::vector<NodeId> spines;
  spines.reserve(cfg.spines);
  for (std::size_t s = 0; s < cfg.spines; ++s) {
    spines.push_back(topo.add_switch("spine-" + std::to_string(s)));
  }
  for (std::size_t r = 0; r < cfg.racks; ++r) {
    for (std::size_t s = 0; s < cfg.servers_per_rack; ++s) {
      const NodeId host = topo.add_host(
          "server-" + std::to_string(r * cfg.servers_per_rack + s),
          static_cast<int>(r));
      topo.set_node_group(host, static_cast<std::int32_t>(r));
      topo.add_duplex(host, tors[r], cfg.host_link);
    }
  }
  for (NodeId tor : tors) {
    for (NodeId spine : spines) {
      topo.add_duplex(tor, spine, cfg.uplink);
    }
  }
  return topo;
}

Topology make_fat_tree(const FatTreeConfig& cfg) {
  assert(cfg.k >= 2 && cfg.k % 2 == 0 && "fat-tree arity must be even");
  const std::size_t k = cfg.k;
  const std::size_t half = k / 2;
  const std::size_t hosts_per_edge =
      cfg.hosts_per_edge == 0 ? half : cfg.hosts_per_edge;
  Topology topo;

  std::vector<NodeId> cores;
  cores.reserve(half * half);
  for (std::size_t c = 0; c < half * half; ++c) {
    cores.push_back(topo.add_switch("core-" + std::to_string(c)));
  }

  std::size_t host_seq = 0;
  for (std::size_t pod = 0; pod < k; ++pod) {
    std::vector<NodeId> edges;
    std::vector<NodeId> aggs;
    edges.reserve(half);
    aggs.reserve(half);
    const auto pod_group = static_cast<std::int32_t>(pod);
    for (std::size_t e = 0; e < half; ++e) {
      const int rack = static_cast<int>(pod * half + e);
      edges.push_back(topo.add_switch(
          "edge-" + std::to_string(pod) + "-" + std::to_string(e), rack));
      topo.set_node_group(edges.back(), pod_group);
    }
    for (std::size_t a = 0; a < half; ++a) {
      aggs.push_back(topo.add_switch("agg-" + std::to_string(pod) + "-" +
                                     std::to_string(a)));
      topo.set_node_group(aggs.back(), pod_group);
    }
    for (std::size_t e = 0; e < half; ++e) {
      const int rack = static_cast<int>(pod * half + e);
      for (std::size_t h = 0; h < hosts_per_edge; ++h) {
        const NodeId host =
            topo.add_host("server-" + std::to_string(host_seq++), rack);
        topo.set_node_group(host, pod_group);
        topo.add_duplex(host, edges[e], cfg.host_link);
      }
      for (std::size_t a = 0; a < half; ++a) {
        topo.add_duplex(edges[e], aggs[a], cfg.edge_agg);
      }
    }
    for (std::size_t a = 0; a < half; ++a) {
      for (std::size_t c = 0; c < half; ++c) {
        topo.add_duplex(aggs[a], cores[a * half + c], cfg.agg_core);
      }
    }
  }
  return topo;
}

std::vector<NodeId> hosts_under(const Topology& topo, NodeId edge_switch) {
  std::vector<NodeId> out;
  for (LinkId l : topo.out_links(edge_switch)) {
    const NodeId dst = topo.link(l).dst;
    if (topo.node(dst).kind == NodeKind::kHost) out.push_back(dst);
  }
  return out;
}

}  // namespace pythia::net
