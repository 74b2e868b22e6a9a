#include "net/routing.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "sim/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace pythia::net {

namespace {

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

constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// FNV-1a over a link-id sequence; collisions are resolved by full sequence
/// equality wherever this is used.
std::uint64_t link_seq_hash(const std::vector<LinkId>& links) {
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

/// Mints a PathId, stamping the pool generation in debug builds so stale
/// resolution after PathPool::clear() aborts instead of reading garbage.
PathId make_path_id(std::uint32_t idx, [[maybe_unused]] std::uint32_t gen) {
  PathId id{idx};
#ifndef NDEBUG
  id.debug_set_generation(gen);
#endif
  return id;
}

}  // namespace

std::optional<Path> shortest_path(
    const Topology& topo, NodeId src, NodeId dst,
    const std::unordered_set<LinkId>& banned_links,
    const std::unordered_set<NodeId>& banned_nodes) {
  assert(src.valid() && dst.valid());
  if (src == dst) return Path{};
  if (banned_nodes.contains(src) || banned_nodes.contains(dst)) {
    return std::nullopt;
  }

  constexpr std::size_t kInf = SIZE_MAX;
  std::vector<std::size_t> dist(topo.node_count(), kInf);
  std::vector<LinkId> parent_link(topo.node_count());
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      frontier;
  dist[src.value()] = 0;
  frontier.push(QueueEntry{0, src});

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
        frontier.push(QueueEntry{nd, link.dst});
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

std::vector<Path> k_shortest_paths(
    const Topology& topo, NodeId src, NodeId dst, std::size_t k,
    const std::unordered_set<LinkId>& banned_links,
    std::vector<LinkId>* touched_links) {
  std::vector<Path> result;
  if (k == 0) return result;
  auto first = shortest_path(topo, src, dst, banned_links);
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
  // Link sequences already in result or candidates — replaces the quadratic
  // std::find scans over both containers with one hashed lookup.
  std::unordered_set<std::vector<LinkId>, LinkSeqHash> seen;
  seen.insert(result.front().links);

  // One scratch banned set shared by every spur computation instead of a
  // fresh copy of banned_links per spur; spur-specific insertions are rolled
  // back after each shortest_path call.
  std::unordered_set<LinkId> spur_banned = banned_links;
  std::vector<LinkId> spur_added;

  while (result.size() < k) {
    const Path& prev = result.back();
    // Spur from every prefix of the previous path. The banned-node set grows
    // with the prefix (root nodes except the spur node stay banned), so it
    // is built incrementally instead of from scratch per spur.
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

      auto spur = shortest_path(topo, spur_node, dst, spur_banned,
                                banned_nodes);
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

PathId PathPool::intern(Path path) {
  const std::uint64_t h = link_seq_hash(path.links);
  auto& bucket = index_[h];
  for (std::uint32_t id : bucket) {
    if (paths_[id].links == path.links) return make_path_id(id, generation_);
  }
  const auto id = static_cast<std::uint32_t>(paths_.size());
  paths_.push_back(std::move(path));
  bucket.push_back(id);
  return make_path_id(id, generation_);
}

void PathPool::clear() {
  paths_.clear();
  index_.clear();
  ++generation_;
}

std::vector<Path> PathSet::materialize() const {
  std::vector<Path> out;
  out.reserve(ids_->size());
  for (PathId id : *ids_) out.push_back(pool_->path(id));
  return out;
}

RoutingGraph::RoutingGraph(const Topology& topo, std::size_t k,
                           BuildMode build, util::ThreadPool* pool)
    : k_(k), build_(build) {
  if (build_ == BuildMode::kEager && pool != nullptr) {
    // Parallel cold build: index, then fan the per-pair Yen runs across the
    // pool. materialize_all interns in canonical slot order on this thread,
    // so the result — including every PathId value — matches a serial build.
    topo_ = &topo;
    index_topology(topo);
    ++counters_.full_rebuilds;
    materialize_all(pool);
  } else {
    rebuild(topo, {}, RebuildMode::kFull);
  }
}

void RoutingGraph::rebuild(const Topology& topo,
                           const std::unordered_set<LinkId>& banned_links,
                           RebuildMode mode) {
  const bool same_topology = topo_ == &topo &&
                             node_count_ == topo.node_count() &&
                             link_count_ == topo.link_count();
  if (same_topology && banned_links == banned_) {
    // No-op delta: same topology, same banned set — in any mode the table
    // could not change. Return before copying the banned set or bumping
    // rebuild counters; only the no-op count moves (pinned by unit test).
    ++counters_.noop_rebuilds;
    return;
  }
  if (!same_topology) {
    // A different (or resized) topology invalidates every interned id.
    if (topo_ != nullptr) pool_.clear();
    topo_ = &topo;
    index_topology(topo);
  }
  // Switch-level runs are valid for one banned set only.
  attach_cache_ = {};
  if (same_topology && mode == RebuildMode::kIncremental) {
    rebuild_incremental(banned_links);
  } else {
    rebuild_full(banned_links);
  }
  banned_ = banned_links;
  // An eager table is complete, so nothing reads the runs before the next
  // rebuild drops them anyway.
  if (build_ == BuildMode::kEager) attach_cache_ = {};
}

void RoutingGraph::index_topology(const Topology& topo) {
  node_count_ = topo.node_count();
  link_count_ = topo.link_count();
  hosts_ = topo.hosts();
  host_slot_.assign(node_count_, kNotHost);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    host_slot_[hosts_[i].value()] = static_cast<std::uint32_t>(i);
  }
  table_.assign(hosts_.size() * hosts_.size(), {});
  pair_links_.assign(table_.size(), {});
  link_pairs_.assign(link_count_, {});
  materialized_.assign(table_.size(), 0);
  materialized_count_ = 0;
  in_links_.assign(node_count_, {});
  for (const Link& l : topo.links()) {
    in_links_[l.dst.value()].push_back(l.id);
  }

  // Stub hosts: one uplink and one downlink, both to the same switch.
  access_.assign(hosts_.size(), Access{});
  attach_nodes_.clear();
  std::vector<std::uint32_t> attach_index(node_count_, kNotHost);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const auto& out = topo.out_links(hosts_[i]);
    const auto& in = in_links_[hosts_[i].value()];
    if (out.size() != 1 || in.size() != 1) continue;
    const NodeId sw = topo.link(out.front()).dst;
    if (topo.link(in.front()).src != sw ||
        topo.node(sw).kind != NodeKind::kSwitch) {
      continue;
    }
    std::uint32_t& a = attach_index[sw.value()];
    if (a == kNotHost) {
      a = static_cast<std::uint32_t>(attach_nodes_.size());
      attach_nodes_.push_back(sw);
    }
    access_[i] = Access{out.front(), in.front(), a};
  }
}

void RoutingGraph::rebuild_full(const std::unordered_set<LinkId>& banned) {
  ++counters_.full_rebuilds;
  for (auto& slots : link_pairs_) slots.clear();
  for (std::size_t slot = 0; slot < table_.size(); ++slot) {
    table_[slot].clear();
    pair_links_[slot].clear();
    materialized_[slot] = 0;
  }
  materialized_count_ = 0;
  if (build_ == BuildMode::kLazy) return;  // pairs recompute on first query
  for (std::size_t slot = 0; slot < table_.size(); ++slot) {
    if (diagonal(slot)) continue;  // src == dst
    recompute_pair(slot, banned);
  }
}

// Incremental rebuild recomputes only pairs the banned-set delta can affect;
// every other pair's cached k-best set is *exactly* what a full rebuild
// would produce (the differential tests exercise this):
//
//  - Newly banned link m: a pair can only change if m was touched by its
//    last Yen run (any generated candidate, chosen or not). If no spur
//    Dijkstra result used m, every Dijkstra in the rerun returns the same
//    path (removing an edge unused by the returned path cannot change the
//    deterministic parent selection along it — dists and relative pop order
//    of the nodes on the path are preserved), so the whole run replays
//    byte-identically.
//  - Restored link l = (u → v): any candidate the rerun generates that did
//    not exist before implies an s ⇝ u → v ⇝ t walk of the same hop count,
//    so its length is ≥ lb = dist(s, u) + 1 + dist(v, t) on the new graph.
//    If the pair already has k candidates and lb exceeds the k-th's hops,
//    no new or changed candidate can displace a chosen one and the result
//    set is unchanged. (Unchosen long candidates may differ; they are also
//    irrelevant to future deltas for the same hop-bound reason.)
void RoutingGraph::rebuild_incremental(
    const std::unordered_set<LinkId>& banned) {
  ++counters_.incremental_rebuilds;
  std::vector<LinkId> added;    // newly failed links
  std::vector<LinkId> removed;  // restored links
  // pythia-lint: allow(unordered-iter) set difference; `added` is sorted
  // below before it drives any rebuild decision
  for (LinkId l : banned) {
    if (!banned_.contains(l)) added.push_back(l);
  }
  // pythia-lint: allow(unordered-iter) set difference; `removed` is sorted
  // below before it drives any rebuild decision
  for (LinkId l : banned_) {
    if (!banned.contains(l)) removed.push_back(l);
  }
  const std::size_t H = hosts_.size();
  const std::size_t total_pairs = H < 2 ? 0 : H * (H - 1);
  // An empty delta cannot reach here: rebuild() early-returns when the
  // banned set is unchanged, and set equality is exactly "no delta".
  assert(!(added.empty() && removed.empty()));
  std::sort(added.begin(), added.end());
  std::sort(removed.begin(), removed.end());

  std::vector<char> affected(table_.size(), 0);
  for (LinkId l : added) {
    for (std::uint32_t slot : link_pairs_[l.value()]) affected[slot] = 1;
  }

  if (!removed.empty()) {
    std::vector<std::uint32_t> dist_to_u;
    std::vector<std::uint32_t> dist_from_v;
    for (LinkId l : removed) {
      const Link& link = topo_->link(l);
      bfs_hops(link.src, /*reverse=*/true, banned, dist_to_u);
      bfs_hops(link.dst, /*reverse=*/false, banned, dist_from_v);
      for (std::size_t ai = 0; ai < H; ++ai) {
        const std::uint32_t du = dist_to_u[hosts_[ai].value()];
        if (du == kUnreachable) continue;
        for (std::size_t bi = 0; bi < H; ++bi) {
          if (bi == ai) continue;
          const std::size_t slot = pair_slot(
              static_cast<std::uint32_t>(ai), static_cast<std::uint32_t>(bi));
          if (affected[slot] != 0) continue;
          // Lazy: a pair with no current candidates has nothing a restored
          // link could stale-ify; it recomputes on next query anyway.
          if (build_ == BuildMode::kLazy && materialized_[slot] == 0) {
            continue;
          }
          const std::uint32_t dv = dist_from_v[hosts_[bi].value()];
          if (dv == kUnreachable) continue;
          const auto& ids = table_[slot];
          if (ids.size() < k_) {
            // Starved or partitioned pair: the restored link may add paths.
            affected[slot] = 1;
            continue;
          }
          const std::size_t lb =
              static_cast<std::size_t>(du) + 1 + static_cast<std::size_t>(dv);
          if (lb <= pool_.path(ids.back()).hops()) affected[slot] = 1;
        }
      }
    }
  }

  if (build_ == BuildMode::kLazy) {
    // Affected pairs are dropped, not recomputed — the next query (if any
    // ever comes) recomputes under the then-current banned set. Surviving
    // materialized pairs are the reuse win.
    for (std::size_t slot = 0; slot < table_.size(); ++slot) {
      if (affected[slot] != 0) invalidate_pair(slot);
    }
    counters_.pairs_reused += materialized_count_;
    return;
  }

  std::size_t recomputed = 0;
  for (std::size_t slot = 0; slot < table_.size(); ++slot) {
    if (affected[slot] == 0) continue;
    recompute_pair(slot, banned);
    ++recomputed;
  }
  counters_.pairs_reused += total_pairs - recomputed;
}

void RoutingGraph::run_yen(NodeId src, NodeId dst,
                           const std::unordered_set<LinkId>& banned,
                           PairScratch& out) const {
  out.found = k_shortest_paths(*topo_, src, dst, k_, banned, &out.touched);
  std::sort(out.touched.begin(), out.touched.end());
  out.touched.erase(std::unique(out.touched.begin(), out.touched.end()),
                    out.touched.end());
}

std::size_t RoutingGraph::attach_pair(std::size_t slot) const {
  const std::size_t H = hosts_.size();
  const std::uint32_t a = access_[slot / H].attach;
  const std::uint32_t b = access_[slot % H].attach;
  if (a == kNotHost || b == kNotHost) return kNoAttachPair;
  return static_cast<std::size_t>(a) * attach_nodes_.size() + b;
}

std::optional<RoutingGraph::PairScratch>& RoutingGraph::attach_entry(
    std::size_t ap) const {
  if (attach_cache_.empty()) {
    attach_cache_.resize(attach_nodes_.size() * attach_nodes_.size());
  }
  return attach_cache_[ap];
}

// A stub pair's candidates are uplink + (each switch-level candidate) +
// downlink, with touched = switch-level touched ∪ {uplink, downlink}; a
// banned access link leaves the pair empty with nothing touched. This is
// the host-level Yen run exactly (docs/architecture.md): neither stub can be
// a transit node, so that run's first and last spur searches always come
// back empty and every other search is the switch-level one plus the two
// access links. Hosts on one switch get the single up+down path because a
// switch's run to itself yields the one empty chain.
void RoutingGraph::compute_pair(std::size_t slot,
                                const std::unordered_set<LinkId>& banned,
                                PairScratch& out) const {
  const std::size_t H = hosts_.size();
  const std::size_t ap = attach_pair(slot);
  if (ap == kNoAttachPair) {
    run_yen(hosts_[slot / H], hosts_[slot % H], banned, out);
    return;
  }
  const LinkId up = access_[slot / H].up;
  const LinkId down = access_[slot % H].down;
  if (banned.contains(up) || banned.contains(down)) return;
  std::optional<PairScratch>& mid = attach_entry(ap);
  if (!mid) {
    const std::size_t A = attach_nodes_.size();
    run_yen(attach_nodes_[ap / A], attach_nodes_[ap % A], banned,
            mid.emplace());
    ++counters_.attach_pairs_computed;
  }
  if (mid->found.empty()) return;
  out.found.reserve(mid->found.size());
  for (const Path& p : mid->found) {
    Path& full = out.found.emplace_back();
    full.links.reserve(p.links.size() + 2);
    full.links.push_back(up);
    full.links.insert(full.links.end(), p.links.begin(), p.links.end());
    full.links.push_back(down);
  }
  out.touched.reserve(mid->touched.size() + 2);
  out.touched.assign(mid->touched.begin(), mid->touched.end());
  for (const LinkId l : {up, down}) {
    out.touched.insert(
        std::lower_bound(out.touched.begin(), out.touched.end(), l), l);
  }
}

void RoutingGraph::commit_pair(std::size_t slot, PairScratch&& scratch) const {
  std::vector<PathId> ids;
  ids.reserve(scratch.found.size());
  for (Path& p : scratch.found) ids.push_back(pool_.intern(std::move(p)));
  set_pair(slot, std::move(ids), std::move(scratch.touched));
  if (materialized_[slot] == 0) {
    materialized_[slot] = 1;
    ++materialized_count_;
  }
  ++counters_.pairs_recomputed;
}

void RoutingGraph::recompute_pair(
    std::size_t slot, const std::unordered_set<LinkId>& banned) const {
  PairScratch scratch;
  compute_pair(slot, banned, scratch);
  commit_pair(slot, std::move(scratch));
}

void RoutingGraph::invalidate_pair(std::size_t slot) {
  if (materialized_[slot] == 0) return;
  // The candidate list goes; the stored touched union stays as the diff
  // witness set_pair needs when the pair is eventually recomputed (and as a
  // conservative reverse-index entry for future added-link scans).
  table_[slot].clear();
  materialized_[slot] = 0;
  --materialized_count_;
  ++counters_.pairs_invalidated;
}

void RoutingGraph::ensure_pair(std::size_t slot) const {
  if (materialized_[slot] != 0 || diagonal(slot)) return;
  recompute_pair(slot, banned_);
  ++counters_.lazy_materializations;
}

void RoutingGraph::set_pair(std::size_t slot, std::vector<PathId> ids,
                            std::vector<LinkId> touched) const {
  const std::vector<LinkId>& old_links = pair_links_[slot];
  const auto slot32 = static_cast<std::uint32_t>(slot);
  for (LinkId l : old_links) {
    if (!std::binary_search(touched.begin(), touched.end(), l)) {
      std::erase(link_pairs_[l.value()], slot32);
    }
  }
  for (LinkId l : touched) {
    if (!std::binary_search(old_links.begin(), old_links.end(), l)) {
      link_pairs_[l.value()].push_back(slot32);
    }
  }
  // Assigning in place keeps the inner vector object (and therefore any
  // outstanding PathSet view of this pair) valid.
  table_[slot] = std::move(ids);
  pair_links_[slot] = std::move(touched);
}

void RoutingGraph::bfs_hops(NodeId origin, bool reverse,
                            const std::unordered_set<LinkId>& banned,
                            std::vector<std::uint32_t>& dist) const {
  dist.assign(node_count_, kUnreachable);
  std::vector<NodeId> queue;
  queue.reserve(node_count_);
  queue.push_back(origin);
  dist[origin.value()] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const std::uint32_t d = dist[u.value()];
    const auto& links = reverse ? in_links_[u.value()] : topo_->out_links(u);
    for (LinkId l : links) {
      if (banned.contains(l)) continue;
      const Link& link = topo_->link(l);
      const NodeId next = reverse ? link.src : link.dst;
      if (dist[next.value()] != kUnreachable) continue;
      dist[next.value()] = d + 1;
      queue.push_back(next);
    }
  }
}

void RoutingGraph::materialize_all(util::ThreadPool* pool) {
  std::vector<std::uint32_t> todo;  // unmaterialized slots, canonical order
  for (std::size_t slot = 0; slot < table_.size(); ++slot) {
    if (materialized_[slot] == 0 && !diagonal(slot)) {
      todo.push_back(static_cast<std::uint32_t>(slot));
    }
  }
  if (todo.empty()) return;
  // Parallel: first run the distinct Yen computations `todo` needs across
  // the pool — each uncached attachment pair some stub pair with live
  // access links derives from, then every non-stub pair — into private
  // scratch. Workers only read shared state (topology, banned set — both
  // frozen for the duration); caching and interning happen after
  // wait_idle() on this thread, walking `todo` in ascending slot order, so
  // the PathId sequence is byte-identical to computing the slots serially.
  std::vector<PairScratch> scratch;
  std::size_t next = 0;  // scratch index of the next non-stub slot
  if (pool != nullptr && pool->thread_count() > 1) {
    const std::size_t H = hosts_.size();
    const std::size_t A = attach_nodes_.size();
    std::vector<std::pair<NodeId, NodeId>> runs;
    std::vector<std::size_t> attach_runs;  // cache index of runs[i]
    std::vector<char> queued(A * A, 0);
    for (std::uint32_t slot : todo) {
      const std::size_t ap = attach_pair(slot);
      if (ap == kNoAttachPair || banned_.contains(access_[slot / H].up) ||
          banned_.contains(access_[slot % H].down) || queued[ap] != 0 ||
          attach_entry(ap)) {
        continue;
      }
      queued[ap] = 1;
      runs.emplace_back(attach_nodes_[ap / A], attach_nodes_[ap % A]);
      attach_runs.push_back(ap);
    }
    for (std::uint32_t slot : todo) {
      if (attach_pair(slot) == kNoAttachPair) {
        runs.emplace_back(hosts_[slot / H], hosts_[slot % H]);
      }
    }
    scratch.resize(runs.size());
    const std::size_t chunk =
        std::max<std::size_t>(1, runs.size() / (pool->thread_count() * 8));
    for (std::size_t begin = 0; begin < runs.size(); begin += chunk) {
      const std::size_t end = std::min(begin + chunk, runs.size());
      pool->submit([this, &runs, &scratch, begin, end] {
        for (std::size_t i = begin; i < end; ++i) {
          run_yen(runs[i].first, runs[i].second, banned_, scratch[i]);
        }
      });
    }
    pool->wait_idle();  // happens-before: workers' scratch writes visible
    for (std::size_t i = 0; i < attach_runs.size(); ++i) {
      attach_entry(attach_runs[i]).emplace(std::move(scratch[i]));
      ++counters_.attach_pairs_computed;
    }
    next = attach_runs.size();
  }
  for (std::uint32_t slot : todo) {
    if (next < scratch.size() && attach_pair(slot) == kNoAttachPair) {
      commit_pair(slot, std::move(scratch[next++]));
    } else {
      recompute_pair(slot, banned_);  // stub pairs derive from the cache
    }
  }
  attach_cache_ = {};  // every pair is materialized: no reader is left
}

PathSet RoutingGraph::paths(NodeId src_host, NodeId dst_host) const {
  const std::uint32_t a = host_slot(src_host);
  const std::uint32_t b = host_slot(dst_host);
  assert(a != kNotHost && b != kNotHost &&
         "RoutingGraph::paths endpoints must be hosts of this topology");
  if (a == kNotHost || b == kNotHost) {
    static const std::vector<PathId> kNoIds;
    return {&kNoIds, &pool_};
  }
  const std::size_t slot = pair_slot(a, b);
  ensure_pair(slot);
  return {&table_[slot], &pool_};
}

bool RoutingGraph::is_host_pair(NodeId src_host, NodeId dst_host) const {
  return host_slot(src_host) != kNotHost && host_slot(dst_host) != kNotHost;
}

bool RoutingGraph::has_paths(NodeId src_host, NodeId dst_host) const {
  const std::uint32_t a = host_slot(src_host);
  const std::uint32_t b = host_slot(dst_host);
  if (a == kNotHost || b == kNotHost) return false;
  const std::size_t slot = pair_slot(a, b);
  ensure_pair(slot);
  return !table_[slot].empty();
}

std::size_t RoutingGraph::pairs_using(LinkId l) const {
  assert(l.valid() && l.value() < link_pairs_.size());
  return link_pairs_[l.value()].size();
}

void RoutingGraph::encode_counters(sim::StateEncoder& enc) const {
  // Rebuild-strategy observability: kIncremental/kFull and kLazy/kEager
  // produce identical tables but different work splits, so these live in
  // their own snapshot section the cross-arm bisection skips.
  enc.put_u64(counters_.full_rebuilds);
  enc.put_u64(counters_.incremental_rebuilds);
  enc.put_u64(counters_.pairs_recomputed);
  enc.put_u64(counters_.pairs_reused);
  enc.put_u64(counters_.noop_rebuilds);
  enc.put_u64(counters_.pairs_invalidated);
  enc.put_u64(counters_.lazy_materializations);
  enc.put_u64(counters_.attach_pairs_computed);
  enc.put_u64(static_cast<std::uint64_t>(materialized_count_));
}

void RoutingGraph::encode_state(sim::StateEncoder& enc) const {
  enc.put_u32(kStateVersion);
  enc.put_u64(static_cast<std::uint64_t>(k_));

  // Per-pair candidate link chains in canonical slot order — not raw pool
  // ids. Interning order tracks query order in lazy mode, so pool ids would
  // make two behaviorally identical runs encode different bytes; the chains
  // themselves are a pure function of (topology, banned set, k).
  // Unmaterialized pairs are computed right here for the same reason: the
  // forced work cannot perturb behavior, it only advances the rebuild-work
  // counters (observability section, excluded from cross-arm comparison).
  enc.put_u32(static_cast<std::uint32_t>(table_.size()));
  for (std::size_t slot = 0; slot < table_.size(); ++slot) {
    ensure_pair(slot);
    const auto& ids = table_[slot];
    enc.put_u32(static_cast<std::uint32_t>(ids.size()));
    for (PathId id : ids) {
      const Path& p = pool_.path(id);
      enc.put_u32(static_cast<std::uint32_t>(p.links.size()));
      for (LinkId l : p.links) enc.put_u32(l.value());
    }
  }

  std::vector<std::uint32_t> ban_ids;
  ban_ids.reserve(banned_.size());
  // pythia-lint: allow(unordered-iter) key collection only; sorted below
  for (LinkId l : banned_) ban_ids.push_back(l.value());
  std::sort(ban_ids.begin(), ban_ids.end());
  enc.put_u32(static_cast<std::uint32_t>(ban_ids.size()));
  for (std::uint32_t l : ban_ids) enc.put_u32(l);
}

}  // namespace pythia::net
