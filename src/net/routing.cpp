#include "net/routing.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
#include <stdexcept>

#include "sim/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace pythia::net {

namespace {

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

/// The members of `set` with ids below `universe`, ascending: a membership
/// scan, so the result never depends on the hash table's iteration order.
template <typename IdT>
std::vector<IdT> sorted_members(const std::unordered_set<IdT>& set,
                                std::size_t universe) {
  std::vector<IdT> out;
  for (std::uint32_t i = 0; i < universe && out.size() < set.size(); ++i) {
    if (set.contains(IdT{i})) out.push_back(IdT{i});
  }
  return out;
}

}  // namespace

void PathSearch::begin(const Topology& topo,
                       std::span<const LinkId> excluded_links) {
  if (seen_.size() < topo.node_count()) {
    seen_.resize(topo.node_count(), 0);
    parent_.resize(topo.node_count());
  }
  if (link_ban_.size() < topo.link_count()) {
    link_ban_.resize(topo.link_count(), 0);
  }
  ban_ = ++epoch_;
  for (LinkId l : excluded_links) {
    if (l.value() < topo.link_count()) link_ban_[l.value()] = ban_;
  }
}

// Equivalent to the hop-count Dijkstra that pops (hops, node id) in
// ascending order and relaxes with strict `<`. Every node at hop d is
// discovered while level d − 1 expands, so the Dijkstra pops level d in
// ascending id once level d − 1 is done — the order this loop expands it in
// — and a node's first discovery fixes its parent in both. Stopping at dst's
// discovery changes nothing: its parent and every parent on its chain are
// already final.
bool PathSearch::bfs(const Topology& topo, NodeId src, NodeId dst,
                     std::uint64_t visit) {
  seen_[src.value()] = visit;
  level_.assign(1, src);
  while (!level_.empty()) {
    next_.clear();
    for (const NodeId u : level_) {
      for (const LinkId l : topo.out_links(u)) {
        if (link_ban_[l.value()] == ban_) continue;
        const NodeId v = topo.link(l).dst;
        if (seen_[v.value()] == visit) continue;
        seen_[v.value()] = visit;
        parent_[v.value()] = l;
        if (v == dst) return true;
        next_.push_back(v);
      }
    }
    std::sort(next_.begin(), next_.end());
    level_.swap(next_);
  }
  return false;
}

void PathSearch::append_path(const Topology& topo, NodeId src, NodeId dst,
                             std::vector<LinkId>& out) {
  const std::size_t from = out.size();
  for (NodeId cursor = dst; cursor != src;) {
    const LinkId l = parent_[cursor.value()];
    out.push_back(l);
    cursor = topo.link(l).src;
  }
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(from), out.end());
}

bool PathSearch::pending(const std::vector<LinkId>& links) const {
  for (const Candidate& c : cands_) {
    const auto have = candidate(c);
    if (std::equal(have.begin(), have.end(), links.begin(), links.end())) {
      return true;
    }
  }
  return false;
}

std::optional<Path> PathSearch::shortest_path(
    const Topology& topo, NodeId src, NodeId dst,
    std::span<const LinkId> excluded_links,
    std::span<const NodeId> excluded_nodes) {
  assert(src.valid() && dst.valid());
  if (src == dst) return Path{};
  for (NodeId n : excluded_nodes) {
    if (n == src || n == dst) return std::nullopt;
  }
  begin(topo, excluded_links);
  const std::uint64_t visit = ++epoch_;
  for (NodeId n : excluded_nodes) {
    if (n.value() < topo.node_count()) seen_[n.value()] = visit;
  }
  if (!bfs(topo, src, dst, visit)) return std::nullopt;
  Path path;
  append_path(topo, src, dst, path.links);
  return path;
}

std::vector<Path> PathSearch::k_shortest_paths(
    const Topology& topo, NodeId src, NodeId dst, std::size_t k,
    std::span<const LinkId> excluded_links,
    std::vector<LinkId>* touched_links) {
  std::vector<Path> result;
  if (k == 0) return result;
  if (src == dst) {
    result.emplace_back();
    return result;
  }
  begin(topo, excluded_links);
  if (!bfs(topo, src, dst, ++epoch_)) return result;
  append_path(topo, src, dst, result.emplace_back().links);
  if (touched_links != nullptr) {
    touched_links->insert(touched_links->end(), result.front().links.begin(),
                          result.front().links.end());
  }
  cand_links_.clear();
  cands_.clear();

  while (result.size() < k) {
    const Path& prev = result.back();
    // Spur from every prefix of the previous path: the root's nodes before
    // the spur node are banned, and so is the next link of every chosen
    // path that shares the root.
    for (std::size_t i = 0; i < prev.links.size(); ++i) {
      const NodeId spur_node = topo.link(prev.links[i]).src;
      const auto root_end = prev.links.begin() + static_cast<std::ptrdiff_t>(i);
      spur_banned_.clear();
      for (const Path& p : result) {
        if (p.links.size() > i &&
            std::equal(prev.links.begin(), root_end, p.links.begin())) {
          const LinkId l = p.links[i];
          if (link_ban_[l.value()] != ban_) {
            link_ban_[l.value()] = ban_;
            spur_banned_.push_back(l);
          }
        }
      }
      const std::uint64_t visit = ++epoch_;
      for (auto it = prev.links.begin(); it != root_end; ++it) {
        seen_[topo.link(*it).src.value()] = visit;
      }
      const bool found = bfs(topo, spur_node, dst, visit);
      for (LinkId l : spur_banned_) link_ban_[l.value()] = 0;
      if (!found) continue;
      total_.assign(prev.links.begin(), root_end);
      append_path(topo, spur_node, dst, total_);
      // No chosen path can equal root + spur: one sharing the root has its
      // next link banned for this spur, and the spur is never empty
      // (spur_node != dst on a loop-free path). So only pending candidates
      // can repeat it.
      if (pending(total_)) continue;
      if (touched_links != nullptr) {
        touched_links->insert(touched_links->end(), total_.begin(),
                              total_.end());
      }
      cands_.push_back(Candidate{static_cast<std::uint32_t>(cand_links_.size()),
                                 static_cast<std::uint32_t>(total_.size())});
      cand_links_.insert(cand_links_.end(), total_.begin(), total_.end());
    }
    if (cands_.empty()) break;
    // Fewest hops, then smallest link-id sequence. Candidates are distinct,
    // so the minimum is unique and the store's order does not matter.
    std::size_t best = 0;
    for (std::size_t c = 1; c < cands_.size(); ++c) {
      const auto challenger = candidate(cands_[c]);
      const auto incumbent = candidate(cands_[best]);
      if (challenger.size() != incumbent.size()
              ? challenger.size() < incumbent.size()
              : std::lexicographical_compare(challenger.begin(),
                                             challenger.end(),
                                             incumbent.begin(),
                                             incumbent.end())) {
        best = c;
      }
    }
    const auto chosen = candidate(cands_[best]);
    result.emplace_back().links.assign(chosen.begin(), chosen.end());
    cands_[best] = cands_.back();
    cands_.pop_back();
  }
  return result;
}

std::optional<Path> shortest_path(
    const Topology& topo, NodeId src, NodeId dst,
    const std::unordered_set<LinkId>& banned_links,
    const std::unordered_set<NodeId>& banned_nodes) {
  return PathSearch{}.shortest_path(
      topo, src, dst, sorted_members(banned_links, topo.link_count()),
      sorted_members(banned_nodes, topo.node_count()));
}

std::vector<Path> k_shortest_paths(
    const Topology& topo, NodeId src, NodeId dst, std::size_t k,
    const std::unordered_set<LinkId>& banned_links,
    std::vector<LinkId>* touched_links) {
  return PathSearch{}.k_shortest_paths(
      topo, src, dst, k, sorted_members(banned_links, topo.link_count()),
      touched_links);
}

void PathPool::grow() {
  std::vector<Slot> old = std::move(index_);
  index_.assign(std::max<std::size_t>(16, old.size() * 2), Slot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
  const std::size_t mask = index_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kEmpty) continue;
    std::size_t i = home(s.hash);
    while (index_[i].id != kEmpty) i = (i + 1) & mask;
    index_[i] = s;
  }
}

PathId PathPool::intern(Path path) {
  if ((paths_.size() + 1) * 2 > index_.size()) grow();
  const std::uint64_t h = link_seq_hash(path.links);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(h);; i = (i + 1) & mask) {
    Slot& slot = index_[i];
    if (slot.id == kEmpty) {
      slot = Slot{h, static_cast<std::uint32_t>(paths_.size())};
      paths_.push_back(std::move(path));
      return PathId{slot.id};
    }
    if (slot.hash == h && paths_[slot.id].links == path.links) {
      return PathId{slot.id};
    }
  }
}

std::vector<Path> PathSet::materialize() const {
  std::vector<Path> out;
  out.reserve(ids_->size());
  for (PathId id : *ids_) out.push_back(pool_->path(id));
  return out;
}

RoutingGraph::RoutingGraph(const Topology& topo, std::size_t k,
                           BuildMode /*build*/)
    : topo_(&topo), k_(k) {
  if (k_ == 0) {
    throw std::invalid_argument(
        "RoutingGraph needs k >= 1 candidate paths per host pair");
  }
  const std::size_t nodes = topo.node_count();
  const std::vector<NodeId>& hosts = topo.hosts();
  table_.assign(hosts.size() * hosts.size(), {});
  pair_links_.assign(table_.size(), {});
  link_pairs_.assign(topo.link_count(), {});
  materialized_.assign(table_.size(), 0);
  in_links_.assign(nodes, {});
  for (const Link& l : topo.links()) {
    in_links_[l.dst.value()].push_back(l.id);
  }

  // Stub hosts: one uplink and one downlink, both to the same switch.
  access_.assign(hosts.size(), Access{});
  std::vector<std::uint32_t> attach_index(nodes, kNotHost);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const auto& out = topo.out_links(hosts[i]);
    const auto& in = in_links_[hosts[i].value()];
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

// A rebuild drops only the materialized pairs the banned-set delta can
// affect; every other pair's k-best set is *exactly* what a fresh Yen run
// under the new banned set would produce (the routing suites check every
// pair against direct k_shortest_paths calls):
//
//  - Newly banned link m: a pair can only change if m was touched by its
//    last Yen run (any generated candidate, chosen or not). If no spur
//    search result used m, every search in the rerun returns the same path:
//    removing an edge the returned path does not use changes neither the
//    hop level of any node on that path nor the ascending-id order in which
//    the BFS expands each level before it, so each of those nodes is still
//    first discovered through the same parent link. The whole run replays
//    byte-identically.
//  - Restored link l = (u → v): any candidate the rerun generates that did
//    not exist before implies an s ⇝ u → v ⇝ t walk of the same hop count,
//    so its length is ≥ lb = dist(s, u) + 1 + dist(v, t) on the new graph.
//    If the pair already has k candidates and lb exceeds the k-th's hops,
//    no new or changed candidate can displace a chosen one and the result
//    set is unchanged. (Unchosen long candidates may differ; they are also
//    irrelevant to future deltas for the same hop-bound reason.)
void RoutingGraph::rebuild(const std::unordered_set<LinkId>& banned_links) {
  std::vector<LinkId> next = sorted_members(banned_links, topo_->link_count());
  if (next == banned_) {
    // No-op delta: the table could not change. Return before touching any
    // state or rebuild counter; only the no-op count moves (pinned by unit
    // test).
    ++counters_.noop_rebuilds;
    return;
  }
  ++counters_.incremental_rebuilds;
  // Switch-level runs are valid for one banned set only.
  attach_cache_ = {};
  std::vector<LinkId> added;    // newly failed links
  std::vector<LinkId> removed;  // restored links
  std::set_difference(next.begin(), next.end(), banned_.begin(),
                      banned_.end(), std::back_inserter(added));
  std::set_difference(banned_.begin(), banned_.end(), next.begin(),
                      next.end(), std::back_inserter(removed));
  banned_ = std::move(next);

  std::vector<char> affected(table_.size(), 0);
  for (LinkId l : added) {
    for (std::uint32_t slot : link_pairs_[l.value()]) affected[slot] = 1;
  }

  const std::vector<NodeId>& hosts = this->hosts();
  const std::size_t H = hosts.size();
  std::vector<std::uint32_t> dist_to_u;
  std::vector<std::uint32_t> dist_from_v;
  for (LinkId l : removed) {
    const Link& link = topo_->link(l);
    bfs_hops(link.src, /*reverse=*/true, dist_to_u);
    bfs_hops(link.dst, /*reverse=*/false, dist_from_v);
    for (std::size_t ai = 0; ai < H; ++ai) {
      const std::uint32_t du = dist_to_u[hosts[ai].value()];
      if (du == kUnreachable) continue;
      for (std::size_t bi = 0; bi < H; ++bi) {
        const std::size_t slot = pair_slot(static_cast<std::uint32_t>(ai),
                                           static_cast<std::uint32_t>(bi));
        // An unmaterialized pair (the diagonal included) has nothing a
        // restored link could stale-ify; it computes on its next query.
        if (affected[slot] != 0 || materialized_[slot] == 0) continue;
        const std::uint32_t dv = dist_from_v[hosts[bi].value()];
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

  // Affected pairs are dropped, not recomputed — the next query (if any
  // ever comes) recomputes under the then-current banned set. Surviving
  // materialized pairs are the reuse win.
  for (std::size_t slot = 0; slot < table_.size(); ++slot) {
    if (affected[slot] != 0) invalidate_pair(slot);
  }
  counters_.pairs_reused += materialized_count_;
}

void RoutingGraph::run_yen(NodeId src, NodeId dst, PathSearch& search,
                           PairScratch& out) const {
  out.found = search.k_shortest_paths(*topo_, src, dst, k_, banned_,
                                      &out.touched);
  std::sort(out.touched.begin(), out.touched.end());
  out.touched.erase(std::unique(out.touched.begin(), out.touched.end()),
                    out.touched.end());
}

std::size_t RoutingGraph::attach_pair(std::size_t slot) const {
  const std::size_t H = hosts().size();
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
void RoutingGraph::compute_pair(std::size_t slot, PairScratch& out) const {
  const std::size_t H = hosts().size();
  const std::size_t ap = attach_pair(slot);
  if (ap == kNoAttachPair) {
    run_yen(hosts()[slot / H], hosts()[slot % H], search_, out);
    return;
  }
  const LinkId up = access_[slot / H].up;
  const LinkId down = access_[slot % H].down;
  if (banned(up) || banned(down)) return;
  std::optional<PairScratch>& mid = attach_entry(ap);
  if (!mid) {
    const std::size_t A = attach_nodes_.size();
    run_yen(attach_nodes_[ap / A], attach_nodes_[ap % A], search_,
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

void RoutingGraph::recompute_pair(std::size_t slot) const {
  PairScratch scratch;
  compute_pair(slot, scratch);
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
  recompute_pair(slot);
  ++counters_.lazy_materializations;
}

void RoutingGraph::set_pair(std::size_t slot, std::vector<PathId> ids,
                            std::vector<LinkId> touched) const {
  // Both lists are sorted by link, so one merge walk diffs them. A link the
  // pair leaves drops the slot by swap-and-pop; the slot moved into its
  // place finds the link in its own sorted list by binary search and takes
  // the new position. No reader depends on a reverse list's order.
  std::vector<PairLink>& old_links = pair_links_[slot];
  std::vector<PairLink> next;
  next.reserve(touched.size());
  const auto slot32 = static_cast<std::uint32_t>(slot);
  auto old_it = old_links.begin();
  for (LinkId l : touched) {
    for (; old_it != old_links.end() && old_it->link < l; ++old_it) {
      drop_pair_link(*old_it);
    }
    if (old_it != old_links.end() && old_it->link == l) {
      next.push_back(*old_it++);
    } else {
      auto& pairs = link_pairs_[l.value()];
      next.push_back({l, static_cast<std::uint32_t>(pairs.size())});
      pairs.push_back(slot32);
    }
  }
  for (; old_it != old_links.end(); ++old_it) drop_pair_link(*old_it);
  // Assigning in place keeps the inner vector object (and therefore any
  // outstanding PathSet view of this pair) valid.
  table_[slot] = std::move(ids);
  old_links = std::move(next);
}

void RoutingGraph::drop_pair_link(PairLink entry) const {
  auto& pairs = link_pairs_[entry.link.value()];
  const std::uint32_t moved = pairs.back();
  pairs[entry.pos] = moved;
  pairs.pop_back();
  if (entry.pos == pairs.size()) return;  // it was the last one
  auto& links = pair_links_[moved];
  const auto it = std::lower_bound(
      links.begin(), links.end(), entry.link,
      [](const PairLink& p, LinkId l) { return p.link < l; });
  assert(it != links.end() && it->link == entry.link);
  it->pos = entry.pos;
}

void RoutingGraph::bfs_hops(NodeId origin, bool reverse,
                            std::vector<std::uint32_t>& dist) const {
  const std::size_t nodes = topo_->node_count();
  dist.assign(nodes, kUnreachable);
  std::vector<NodeId> queue;
  queue.reserve(nodes);
  queue.push_back(origin);
  dist[origin.value()] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const std::uint32_t d = dist[u.value()];
    const auto& links = reverse ? in_links_[u.value()] : topo_->out_links(u);
    for (LinkId l : links) {
      if (banned(l)) continue;
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
    const std::vector<NodeId>& hosts = this->hosts();
    const std::size_t H = hosts.size();
    const std::size_t A = attach_nodes_.size();
    std::vector<std::pair<NodeId, NodeId>> runs;
    std::vector<std::size_t> attach_runs;  // cache index of runs[i]
    std::vector<char> queued(A * A, 0);
    for (std::uint32_t slot : todo) {
      const std::size_t ap = attach_pair(slot);
      if (ap == kNoAttachPair || banned(access_[slot / H].up) ||
          banned(access_[slot % H].down) || queued[ap] != 0 ||
          attach_entry(ap)) {
        continue;
      }
      queued[ap] = 1;
      runs.emplace_back(attach_nodes_[ap / A], attach_nodes_[ap % A]);
      attach_runs.push_back(ap);
    }
    for (std::uint32_t slot : todo) {
      if (attach_pair(slot) == kNoAttachPair) {
        runs.emplace_back(hosts[slot / H], hosts[slot % H]);
      }
    }
    scratch.resize(runs.size());
    const std::size_t chunk =
        std::max<std::size_t>(1, runs.size() / (pool->thread_count() * 8));
    for (std::size_t begin = 0; begin < runs.size(); begin += chunk) {
      const std::size_t end = std::min(begin + chunk, runs.size());
      pool->submit([this, &runs, &scratch, begin, end] {
        PathSearch search;  // per task: workers share no search state
        for (std::size_t i = begin; i < end; ++i) {
          run_yen(runs[i].first, runs[i].second, search, scratch[i]);
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
      recompute_pair(slot);  // stub pairs derive from the cache
    }
  }
  attach_cache_ = {};  // every pair is materialized: no reader is left
}

PathSet RoutingGraph::paths(NodeId src_host, NodeId dst_host) const {
  const std::uint32_t a = topo_->host_index(src_host);
  const std::uint32_t b = topo_->host_index(dst_host);
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
  return topo_->host_index(src_host) != kNotHost &&
         topo_->host_index(dst_host) != kNotHost;
}

bool RoutingGraph::has_paths(NodeId src_host, NodeId dst_host) const {
  const std::uint32_t a = topo_->host_index(src_host);
  const std::uint32_t b = topo_->host_index(dst_host);
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
  // Rebuild-work observability: runs that query pairs in a different order
  // produce identical tables but different work splits, so these live in
  // their own snapshot section the cross-arm bisection skips.
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
  // k and the banned set name the table: each pair's candidates are a pure
  // function of (topology, banned set, k), and the config fingerprint pins
  // the topology. Encoding the candidates themselves would mean computing
  // the pairs no query reached yet, which would make a capture cost a cold
  // build and move routing.counters.
  enc.put_u32(kStateVersion);
  enc.put_u64(static_cast<std::uint64_t>(k_));
  enc.put_u32(static_cast<std::uint32_t>(banned_.size()));
  for (LinkId l : banned_) enc.put_u32(l.value());
}

}  // namespace pythia::net
