// Reference k-shortest-paths for the routing oracle: the hop-count Dijkstra
// and hashed-dedupe Yen that net::shortest_path / net::k_shortest_paths used
// before they moved onto a level-synchronous BFS. Tests and benches reach it;
// production code does not, so the routing suites check the table against
// code the table does not share.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"

namespace pythia::net::reference {

namespace detail {

/// Dijkstra state entry; ordering makes the search deterministic: fewer hops
/// first, then smaller node id.
struct QueueEntry {
  std::size_t dist;
  NodeId node;
  friend bool operator>(const QueueEntry& a, const QueueEntry& b) {
    if (a.dist != b.dist) return a.dist > b.dist;
    return a.node.value() > b.node.value();
  }
};

/// FNV-1a over a link-id sequence; collisions are resolved by full sequence
/// equality wherever this is used.
inline std::uint64_t link_seq_hash(const std::vector<LinkId>& links) {
  std::uint64_t h = 1469598103934665603ull;
  for (LinkId l : links) {
    h ^= l.value();
    h *= 1099511628211ull;
  }
  return h;
}

struct LinkSeqHash {
  std::size_t operator()(const std::vector<LinkId>& links) const noexcept {
    return static_cast<std::size_t>(link_seq_hash(links));
  }
};

}  // namespace detail

/// Shortest path by hop count with deterministic tie-breaking (smaller link
/// ids win). Returns nullopt when disconnected.
inline std::optional<Path> shortest_path(
    const Topology& topo, NodeId src, NodeId dst,
    const std::unordered_set<LinkId>& banned_links = {},
    const std::unordered_set<NodeId>& banned_nodes = {}) {
  assert(src.valid() && dst.valid());
  if (src == dst) return Path{};
  if (banned_nodes.contains(src) || banned_nodes.contains(dst)) {
    return std::nullopt;
  }

  constexpr std::size_t kInf = SIZE_MAX;
  std::vector<std::size_t> dist(topo.node_count(), kInf);
  std::vector<LinkId> parent_link(topo.node_count());
  std::priority_queue<detail::QueueEntry, std::vector<detail::QueueEntry>,
                      std::greater<detail::QueueEntry>>
      frontier;
  dist[src.value()] = 0;
  frontier.push(detail::QueueEntry{0, src});

  while (!frontier.empty()) {
    const auto [d, u] = frontier.top();
    frontier.pop();
    if (d > dist[u.value()]) continue;
    if (u == dst) break;
    for (LinkId l : topo.out_links(u)) {
      if (banned_links.contains(l)) continue;
      const Link& link = topo.link(l);
      if (banned_nodes.contains(link.dst)) continue;
      const std::size_t nd = d + 1;
      // Strict < keeps the first (smallest link id, since out_links is in
      // insertion order and we expand in id order) equal-length parent.
      if (nd < dist[link.dst.value()]) {
        dist[link.dst.value()] = nd;
        parent_link[link.dst.value()] = l;
        frontier.push(detail::QueueEntry{nd, link.dst});
      }
    }
  }

  if (dist[dst.value()] == kInf) return std::nullopt;
  Path path;
  for (NodeId cursor = dst; cursor != src;) {
    const LinkId l = parent_link[cursor.value()];
    path.links.push_back(l);
    cursor = topo.link(l).src;
  }
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

/// Yen's algorithm: up to `k` loop-free shortest paths in nondecreasing
/// hop-count order. When `touched_links` is non-null, every link of every
/// candidate path the run generated (chosen or not) is appended to it.
inline std::vector<Path> k_shortest_paths(
    const Topology& topo, NodeId src, NodeId dst, std::size_t k,
    const std::unordered_set<LinkId>& banned_links = {},
    std::vector<LinkId>* touched_links = nullptr) {
  std::vector<Path> result;
  if (k == 0) return result;
  auto first = reference::shortest_path(topo, src, dst, banned_links);
  if (!first) return result;
  if (touched_links != nullptr) {
    touched_links->insert(touched_links->end(), first->links.begin(),
                          first->links.end());
  }
  result.push_back(std::move(*first));

  // Candidate pool ordered by (hops, link-id sequence) for determinism.
  auto path_less = [](const Path& a, const Path& b) {
    if (a.hops() != b.hops()) return a.hops() < b.hops();
    return std::lexicographical_compare(
        a.links.begin(), a.links.end(), b.links.begin(), b.links.end(),
        [](LinkId x, LinkId y) { return x.value() < y.value(); });
  };
  std::vector<Path> candidates;
  // Link sequences already in result or candidates.
  std::unordered_set<std::vector<LinkId>, detail::LinkSeqHash> seen;
  seen.insert(result.front().links);

  // One scratch banned set shared by every spur computation; spur-specific
  // insertions are rolled back after each shortest_path call.
  std::unordered_set<LinkId> spur_banned = banned_links;
  std::vector<LinkId> spur_added;

  while (result.size() < k) {
    const Path& prev = result.back();
    // Spur from every prefix of the previous path. The banned-node set grows
    // with the prefix (root nodes except the spur node stay banned).
    std::unordered_set<NodeId> banned_nodes;
    NodeId spur_node = src;
    for (std::size_t i = 0; i < prev.links.size(); ++i) {
      if (i > 0) {
        banned_nodes.insert(spur_node);
        spur_node = topo.link(prev.links[i - 1]).dst;
      }
      const auto root_begin = prev.links.begin();
      const auto root_end = root_begin + static_cast<std::ptrdiff_t>(i);
      spur_added.clear();
      for (const Path& p : result) {
        if (p.links.size() > i && std::equal(root_begin, root_end,
                                             p.links.begin())) {
          if (spur_banned.insert(p.links[i]).second) {
            spur_added.push_back(p.links[i]);
          }
        }
      }

      auto spur = reference::shortest_path(topo, spur_node, dst,
                                           spur_banned, banned_nodes);
      for (LinkId l : spur_added) spur_banned.erase(l);
      if (!spur) continue;
      Path total;
      total.links.reserve(i + spur->links.size());
      total.links.insert(total.links.end(), root_begin, root_end);
      total.links.insert(total.links.end(), spur->links.begin(),
                         spur->links.end());
      if (!seen.insert(total.links).second) continue;
      if (touched_links != nullptr) {
        touched_links->insert(touched_links->end(), total.links.begin(),
                              total.links.end());
      }
      candidates.push_back(std::move(total));
    }
    if (candidates.empty()) break;
    auto best = std::min_element(candidates.begin(), candidates.end(),
                                 path_less);
    result.push_back(std::move(*best));
    candidates.erase(best);
  }
  return result;
}

}  // namespace pythia::net::reference
