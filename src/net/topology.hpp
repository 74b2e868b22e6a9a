// Datacenter topology graph: hosts, switches, directed capacitated links.
//
// Links are directed (a duplex cable is two Link records) because shuffle
// traffic and background load are directional; the paper's Fig. 1b loads are
// per-port egress utilizations.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "net/types.hpp"
#include "util/units.hpp"

namespace pythia::net {

enum class NodeKind : std::uint8_t { kHost, kSwitch };

struct Node {
  NodeId id;
  NodeKind kind = NodeKind::kHost;
  std::string name;
  /// Rack index for hosts/ToR switches; -1 for core/spine switches.
  int rack = -1;
};

struct Link {
  LinkId id;
  NodeId src;
  NodeId dst;
  util::BitsPerSec capacity;
};

class Topology {
 public:
  NodeId add_host(std::string name, int rack);
  NodeId add_switch(std::string name, int rack = -1);
  /// Adds a single directed link. Throws std::invalid_argument for an
  /// endpoint outside the topology, a self-loop, or a capacity that is not
  /// finite and positive.
  LinkId add_link(NodeId src, NodeId dst, util::BitsPerSec capacity);
  /// Adds both directions; returns the forward link id.
  LinkId add_duplex(NodeId a, NodeId b, util::BitsPerSec capacity);

  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[id.value()]; }
  [[nodiscard]] const Link& link(LinkId id) const { return links_[id.value()]; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }

  /// Outgoing links of `n`, in insertion order (deterministic).
  [[nodiscard]] const std::vector<LinkId>& out_links(NodeId n) const {
    return out_[n.value()];
  }

  /// Every host in ascending NodeId order. A host's position here is its
  /// dense host index (host_index()).
  [[nodiscard]] const std::vector<NodeId>& hosts() const { return hosts_; }
  [[nodiscard]] std::vector<NodeId> switches() const;

  /// Sentinel host_index() of a switch or of an id outside the topology.
  static constexpr std::uint32_t kNoHost =
      std::numeric_limits<std::uint32_t>::max();
  /// Dense index of host `n` in [0, hosts().size()): the ascending-NodeId
  /// rank, so walking the index walks hosts in NodeId order. Per-host and
  /// per-host-pair tables (routing, collector) key on it.
  [[nodiscard]] std::uint32_t host_index(NodeId n) const {
    return n.value() < host_index_.size() ? host_index_[n.value()] : kNoHost;
  }

  /// First link src->dst if one exists.
  [[nodiscard]] std::optional<LinkId> find_link(NodeId src, NodeId dst) const;

  /// A synthetic IPv4-style address for a node (10.rack.x.y), used in
  /// 5-tuples for ECMP hashing.
  [[nodiscard]] std::uint32_t address_of(NodeId n) const;

  // --- partition metadata (collector pod queues) --------------------------
  //
  // Nodes are partitioned into locality groups: one group per fat-tree pod
  // (or leaf-spine rack / two-rack rack), with core/spine/wire switches left
  // in the shared "core" group (`kCoreGroup`). The collector's cohort
  // intent pipelines use it as the pod: each admitted intent is queued
  // under its source host's group. Topologies without assignments put every
  // host in the core group, so they get a single pod queue.

  /// Sentinel group for nodes outside every locality group (cores/spines).
  static constexpr std::int32_t kCoreGroup = -1;

  /// Assigns `n` to locality group `group` (>= 0) or back to the core group.
  void set_node_group(NodeId n, std::int32_t group);
  /// Group of `n`; kCoreGroup when unassigned.
  [[nodiscard]] std::int32_t node_group(NodeId n) const {
    return node_group_[n.value()];
  }

  /// True if `path` is a contiguous link chain from `src` to `dst`.
  [[nodiscard]] bool validate_path(NodeId src, NodeId dst,
                                   const std::vector<LinkId>& path) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_;
  std::vector<std::int32_t> node_group_;
  std::vector<NodeId> hosts_;
  std::vector<std::uint32_t> host_index_;  // node id → host index or kNoHost
};

/// The paper's testbed: two racks of `servers_per_rack` hosts, one ToR each,
/// and `inter_rack_links` parallel duplex links between the ToRs (each
/// materialized through its own "wire" switch so that multi-path routing sees
/// distinct node-disjoint paths, matching OpenFlow port-level forwarding).
struct TwoRackConfig {
  std::size_t servers_per_rack = 5;
  std::size_t inter_rack_links = 2;
  util::BitsPerSec host_link = util::BitsPerSec{10e9};
  util::BitsPerSec inter_rack_capacity = util::BitsPerSec{10e9};
};
/// Throws std::invalid_argument naming the field, before building anything,
/// when a count is 0 or a capacity is not finite and positive (so do
/// make_leaf_spine and make_fat_tree).
Topology make_two_rack(const TwoRackConfig& cfg);

/// Leaf-spine fabric: `racks` ToRs, each host attaches to its ToR, every ToR
/// attaches to all `spines` spine switches — `spines` equal-cost inter-rack
/// paths between any two racks. Used by the topology ablation.
struct LeafSpineConfig {
  std::size_t racks = 2;
  std::size_t servers_per_rack = 5;
  std::size_t spines = 2;
  util::BitsPerSec host_link = util::BitsPerSec{10e9};
  util::BitsPerSec uplink = util::BitsPerSec{10e9};
};
Topology make_leaf_spine(const LeafSpineConfig& cfg);

/// Canonical k-ary fat-tree (Al-Fares et al.): k pods, each with k/2 edge
/// (ToR) and k/2 aggregation switches wired as a complete bipartite graph,
/// (k/2)² core switches, and aggregation switch `a` of every pod attached to
/// cores [a·k/2, (a+1)·k/2). Each edge switch serves `hosts_per_edge` hosts
/// (the canonical tree uses k/2; fewer keeps big-k sweeps tractable). Rack
/// index = pod·(k/2) + edge position, so rack-granular aggregation works
/// unchanged. `k` must be even and ≥ 2.
struct FatTreeConfig {
  std::size_t k = 4;
  std::size_t hosts_per_edge = 0;  // 0 = canonical k/2
  util::BitsPerSec host_link = util::BitsPerSec{10e9};
  util::BitsPerSec edge_agg = util::BitsPerSec{10e9};
  util::BitsPerSec agg_core = util::BitsPerSec{10e9};
};
Topology make_fat_tree(const FatTreeConfig& cfg);

/// Hosts attached to `edge` (helper for benchmarks iterating a fat-tree).
[[nodiscard]] std::vector<NodeId> hosts_under(const Topology& topo,
                                              NodeId edge_switch);

}  // namespace pythia::net
