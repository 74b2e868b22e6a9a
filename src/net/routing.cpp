#include "net/routing.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <iterator>
#include <stdexcept>

#include "sim/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace pythia::net {

namespace {

constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// FNV-1a over a path's link sequence, however the view splits it;
/// collisions are resolved by full sequence equality wherever this is used.
std::uint64_t link_seq_hash(const PathView& path) {
  std::uint64_t h = 1469598103934665603ull;
  const auto step = [&h](LinkId l) {
    h ^= l.value();
    h *= 1099511628211ull;
  };
  if (path.lead().valid()) step(path.lead());
  for (LinkId l : path.middle()) step(l);
  if (path.trail().valid()) step(path.trail());
  return h;
}

/// The index tag of a hash: the top 32 bits of hash · 2^64/φ.
std::uint32_t hash_tag(std::uint64_t hash) {
  return static_cast<std::uint32_t>((hash * 0x9E3779B97F4A7C15ull) >> 32);
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
  PathList found;
  k_shortest_paths(topo, src, dst, k, excluded_links, found, touched_links);
  std::vector<Path> result(found.size());
  for (std::size_t i = 0; i < found.size(); ++i) {
    result[i].links.assign(found[i].begin(), found[i].end());
  }
  return result;
}

void PathSearch::k_shortest_paths(const Topology& topo, NodeId src,
                                  NodeId dst, std::size_t k,
                                  std::span<const LinkId> excluded_links,
                                  PathList& out,
                                  std::vector<LinkId>* touched_links) {
  out.clear();
  if (k == 0) return;
  if (src == dst) {
    out.push({});
    return;
  }
  begin(topo, excluded_links);
  if (!bfs(topo, src, dst, ++epoch_)) return;
  append_path(topo, src, dst, out.links);
  out.ends.push_back(static_cast<std::uint32_t>(out.links.size()));
  if (touched_links != nullptr) {
    touched_links->insert(touched_links->end(), out.links.begin(),
                          out.links.end());
  }
  cand_links_.clear();
  cands_.clear();

  while (out.size() < k) {
    // `out` does not grow until the spur searches are done, so this view of
    // the previous path stays valid through them.
    const std::span<const LinkId> prev = out[out.size() - 1];
    // Spur from every prefix of the previous path: the root's nodes before
    // the spur node are banned, and so is the next link of every chosen
    // path that shares the root.
    for (std::size_t i = 0; i < prev.size(); ++i) {
      const NodeId spur_node = topo.link(prev[i]).src;
      const std::span<const LinkId> root = prev.first(i);
      spur_banned_.clear();
      for (std::size_t c = 0; c < out.size(); ++c) {
        const std::span<const LinkId> p = out[c];
        if (p.size() > i && std::equal(root.begin(), root.end(), p.begin())) {
          const LinkId l = p[i];
          if (link_ban_[l.value()] != ban_) {
            link_ban_[l.value()] = ban_;
            spur_banned_.push_back(l);
          }
        }
      }
      const std::uint64_t visit = ++epoch_;
      for (const LinkId l : root) seen_[topo.link(l).src.value()] = visit;
      const bool found = bfs(topo, spur_node, dst, visit);
      for (LinkId l : spur_banned_) link_ban_[l.value()] = 0;
      if (!found) continue;
      total_.assign(root.begin(), root.end());
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
    out.push(candidate(cands_[best]));
    cands_[best] = cands_.back();
    cands_.pop_back();
  }
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
  shift_ = 32 - static_cast<unsigned>(std::countr_zero(index_.size()));
  const std::size_t mask = index_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kEmpty) continue;
    std::size_t i = home(s.tag);
    while (index_[i].id != kEmpty) i = (i + 1) & mask;
    index_[i] = s;
  }
}

PathPool::Slot& PathPool::find(const PathView& probe, std::uint32_t tag) {
  if ((entries_.size() + 1) * 2 > index_.size()) grow();
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(tag);; i = (i + 1) & mask) {
    Slot& slot = index_[i];
    if (slot.id == kEmpty ||
        (slot.tag == tag && path(PathId{slot.id}) == probe)) {
      return slot;
    }
  }
}

PathId PathPool::add(Slot& slot, std::uint32_t tag, Entry entry) {
  slot = Slot{tag, static_cast<std::uint32_t>(entries_.size())};
  entries_.push_back(entry);
  return PathId{slot.id};
}

PathId PathPool::intern(const PathView& links) {
  const std::uint32_t tag = hash_tag(link_seq_hash(links));
  Slot& slot = find(links, tag);
  if (slot.id != kEmpty) return PathId{slot.id};
  const auto at = static_cast<std::uint32_t>(links_.size());
  const auto n = static_cast<std::uint32_t>(links.size());
  // A sub-run of a pooled path lies in links_ itself, which growing moves:
  // copy it by offset.
  const std::span<const LinkId> mid = links.middle();
  const std::less<const LinkId*> before;
  const bool inside = !mid.empty() && !before(mid.data(), links_.data()) &&
                      before(mid.data(), links_.data() + links_.size());
  const auto from = inside ? mid.data() - links_.data() : 0;
  links_.resize(at + n);
  auto out = links_.begin() + at;
  if (links.lead().valid()) *out++ = links.lead();
  out = inside ? std::copy_n(links_.begin() + from, mid.size(), out)
               : std::copy(mid.begin(), mid.end(), out);
  if (links.trail().valid()) *out = links.trail();
  return add(slot, tag, Entry{at, kPlain, n});
}

PathId PathPool::intern(LinkId lead, PathId middle, LinkId trail) {
  assert(lead.valid() && trail.valid());
  assert(middle.valid() && middle.value() < entries_.size());
  const Entry& mid = entries_[middle.value()];
  assert(mid.mid == kPlain && "a composite's middle is a plain path");
  const PathView probe(lead, run(mid), trail);
  const std::uint32_t tag = hash_tag(link_seq_hash(probe));
  Slot& slot = find(probe, tag);
  if (slot.id != kEmpty) return PathId{slot.id};
  return add(slot, tag, Entry{lead.value(), middle.value(), trail.value()});
}

std::vector<Path> PathSet::materialize() const {
  std::vector<Path> out;
  out.reserve(size());
  for (PathId id : ids()) out.push_back(Path{pool_->path(id).to_vector()});
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
  rows_.resize(hosts.size() * hosts.size());
  materialized_.resize(rows_.size(), 0);
  in_links_.assign(nodes, {});
  for (const Link& l : topo.links()) {
    in_links_[l.dst.value()].push_back(l.id);
  }

  // Stub hosts (one uplink and one downlink, both to the same switch) take
  // that switch as their endpoint; every other host is its own.
  access_.assign(hosts.size(), Access{});
  std::vector<std::uint32_t> endpoint_of(nodes, kNotHost);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    NodeId end = hosts[i];
    const auto& out = topo.out_links(hosts[i]);
    const auto& in = in_links_[hosts[i].value()];
    if (out.size() == 1 && in.size() == 1) {
      const NodeId sw = topo.link(out.front()).dst;
      if (topo.link(in.front()).src == sw &&
          topo.node(sw).kind == NodeKind::kSwitch) {
        end = sw;
        access_[i].up = out.front();
        access_[i].down = in.front();
      }
    }
    std::uint32_t& e = endpoint_of[end.value()];
    if (e == kNotHost) {
      e = static_cast<std::uint32_t>(endpoints_.size());
      endpoints_.push_back(end);
    }
    access_[i].endpoint = e;
  }
}

// A rebuild drops only the runs the banned-set delta can affect and the
// materialized pairs on them; every other run, and every pair on it, holds
// *exactly* what a fresh Yen run under the new banned set would produce
// (the routing suites check every pair against direct k_shortest_paths
// calls):
//
//  - Newly banned link m: a run can only change if m was touched by it (any
//    generated candidate, chosen or not). If no spur search result used m,
//    every search in the rerun returns the same path: removing an edge the
//    returned path does not use changes neither the hop level of any node on
//    that path nor the ascending-id order in which the BFS expands each
//    level before it, so each of those nodes is still first discovered
//    through the same parent link. The whole run replays byte-identically.
//  - Restored link l = (u → v): any candidate the rerun generates that did
//    not exist before implies an s ⇝ u → v ⇝ t walk of the same hop count,
//    so its length is ≥ lb = dist(s, u) + 1 + dist(v, t) on the new graph.
//    If the run already has k candidates and lb exceeds the k-th's hops, no
//    new or changed candidate can displace a chosen one and the result set
//    is unchanged. (Unchosen long candidates may differ; they are also
//    irrelevant to future deltas for the same hop-bound reason.)
//
// A stub end adds one hop to both sides of each comparison, so judging the
// run drops exactly the pairs on it that judging each host pair would. The
// exception is a pair whose own access link changed: it is dropped whatever
// its run does (a banned access link leaves it no candidates).
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
  std::vector<LinkId> added;    // newly failed links
  std::vector<LinkId> removed;  // restored links
  std::set_difference(next.begin(), next.end(), banned_.begin(),
                      banned_.end(), std::back_inserter(added));
  std::set_difference(banned_.begin(), banned_.end(), next.begin(),
                      next.end(), std::back_inserter(removed));
  banned_ = std::move(next);

  std::vector<char> reached(runs_.size(), 0);  // per run: drop it
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    if (!runs_[r]) continue;
    const std::vector<LinkId>& touched = runs_[r]->touched;
    reached[r] = std::any_of(added.begin(), added.end(), [&](LinkId l) {
      return std::binary_search(touched.begin(), touched.end(), l);
    });
  }
  const std::size_t E = endpoints_.size();
  std::vector<std::uint32_t> dist_to_u;
  std::vector<std::uint32_t> dist_from_v;
  for (LinkId l : removed) {
    const Link& link = topo_->link(l);
    bfs_hops(link.src, /*reverse=*/true, dist_to_u);
    bfs_hops(link.dst, /*reverse=*/false, dist_from_v);
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      if (!runs_[r] || reached[r] != 0) continue;
      const std::uint32_t du = dist_to_u[endpoints_[r / E].value()];
      const std::uint32_t dv = dist_from_v[endpoints_[r % E].value()];
      if (du == kUnreachable || dv == kUnreachable) continue;
      // A starved or partitioned run may gain paths from the restored link.
      const PathList& found = runs_[r]->found;
      const std::size_t lb =
          static_cast<std::size_t>(du) + 1 + static_cast<std::size_t>(dv);
      if (found.size() < k_ || lb <= found[found.size() - 1].size()) {
        reached[r] = 1;
      }
    }
  }

  // Dropped pairs are not recomputed — the next query (if any ever comes)
  // recomputes under the then-current banned set. Surviving materialized
  // pairs are the reuse win.
  const auto access_changed = [&added, &removed](LinkId l) {
    return std::binary_search(added.begin(), added.end(), l) ||
           std::binary_search(removed.begin(), removed.end(), l);
  };
  for (std::size_t slot = 0; slot < rows_.size(); ++slot) {
    if (materialized_[slot] == 0) continue;
    if (access_changed(source(slot).up) ||
        access_changed(destination(slot).down) ||
        (access_live(slot) && reached[run_index(slot)] != 0)) {
      invalidate_pair(slot);
    }
  }
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    if (reached[r] != 0) runs_[r].reset();
  }
  counters_.pairs_reused += materialized_count_;
  compact_paths();
}

void RoutingGraph::run_yen(std::size_t run, PathSearch& search,
                           Run& out) const {
  const std::size_t E = endpoints_.size();
  out.touched.clear();
  search.k_shortest_paths(*topo_, endpoints_[run / E], endpoints_[run % E],
                          k_, banned_, out.found, &out.touched);
  std::sort(out.touched.begin(), out.touched.end());
  out.touched.erase(std::unique(out.touched.begin(), out.touched.end()),
                    out.touched.end());
}

RoutingGraph::Run& RoutingGraph::ensure_run(std::size_t run) const {
  if (runs_.empty()) runs_.resize(endpoints_.size() * endpoints_.size());
  std::optional<Run>& entry = runs_[run];
  if (!entry) {
    run_yen(run, search_, entry.emplace());
    ++counters_.attach_pairs_computed;
  }
  return *entry;
}

// A pair's candidates are its uplink if the source is a stub, then each
// candidate of its endpoints' run, then its downlink if the destination is
// a stub; its touched links are the run's union plus those access links. A
// banned access link leaves the pair empty with nothing touched. This is the
// host-level Yen run exactly (docs/architecture.md): a stub cannot be a
// transit node, so that run's spur searches at a stub source and at a stub
// destination's attachment switch always come back empty and every other
// search is the endpoint-level one plus the access links. Stubs on one
// switch get the single up+down path because a switch's run to itself yields
// the one empty chain.
void RoutingGraph::commit_pair(std::size_t slot) const {
  // An unmaterialized pair holds no candidates (an invalidated pair's are
  // already dead), so the new ones go to the arena's end.
  Extent& ids = rows_[slot];
  assert(ids.size == 0);
  ids.at = static_cast<std::uint32_t>(path_arena_.size());
  if (access_live(slot)) {
    Run& run = ensure_run(run_index(slot));
    const LinkId up = source(slot).up;
    const LinkId down = destination(slot).down;
    if (up.valid() && down.valid()) {
      // Interning the middles here, in commit order, gives serial and
      // parallel fills the same ids.
      if (run.middles.empty()) {
        for (std::size_t i = 0; i < run.found.size(); ++i) {
          run.middles.push_back(pool_.intern(run.found[i]));
        }
      }
      for (const PathId middle : run.middles) {
        path_arena_.push_back(pool_.intern(up, middle, down));
      }
    } else {
      for (std::size_t i = 0; i < run.found.size(); ++i) {
        path_arena_.push_back(pool_.intern(PathView(up, run.found[i], down)));
      }
    }
  }
  ids.size = static_cast<std::uint32_t>(path_arena_.size() - ids.at);
  materialized_[slot] = 1;
  ++materialized_count_;
  ++counters_.pairs_recomputed;
}

void RoutingGraph::invalidate_pair(std::size_t slot) {
  path_dead_ += rows_[slot].size;
  rows_[slot].size = 0;
  materialized_[slot] = 0;
  --materialized_count_;
  ++counters_.pairs_invalidated;
}

void RoutingGraph::ensure_pair(std::size_t slot) const {
  if (materialized_[slot] != 0 || diagonal(slot)) return;
  commit_pair(slot);
  ++counters_.lazy_materializations;
}

void RoutingGraph::compact_paths() {
  if (path_dead_ * 2 <= path_arena_.size()) return;
  std::vector<PathId> packed;
  packed.reserve(path_arena_.size() - path_dead_);
  for (Extent& row : rows_) {
    const auto from = path_arena_.begin() + row.at;
    row.at = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), from, from + row.size);
  }
  path_arena_ = std::move(packed);
  path_dead_ = 0;
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
  for (std::size_t slot = 0; slot < rows_.size(); ++slot) {
    if (materialized_[slot] == 0 && !diagonal(slot)) {
      todo.push_back(static_cast<std::uint32_t>(slot));
    }
  }
  if (todo.empty()) return;
  // Parallel: first run every endpoint run a pair of `todo` with live access
  // links needs and the table lacks across the pool, into private scratch.
  // Workers only read shared state (topology, endpoints, banned set — all
  // frozen for the duration); the runs are installed and the pairs interned
  // after wait_idle() on this thread, walking `todo` in ascending slot
  // order, so the PathId sequence is byte-identical to computing the slots
  // serially.
  if (pool != nullptr && pool->thread_count() > 1) {
    if (runs_.empty()) runs_.resize(endpoints_.size() * endpoints_.size());
    std::vector<std::size_t> needed;
    std::vector<char> queued(runs_.size(), 0);
    for (std::uint32_t slot : todo) {
      const std::size_t r = run_index(slot);
      if (!access_live(slot) || runs_[r] || queued[r] != 0) continue;
      queued[r] = 1;
      needed.push_back(r);
    }
    std::vector<Run> scratch(needed.size());
    const std::size_t chunk =
        std::max<std::size_t>(1, needed.size() / (pool->thread_count() * 8));
    for (std::size_t begin = 0; begin < needed.size(); begin += chunk) {
      const std::size_t end = std::min(begin + chunk, needed.size());
      pool->submit([this, &needed, &scratch, begin, end] {
        PathSearch search;  // per task: workers share no search state
        for (std::size_t i = begin; i < end; ++i) {
          run_yen(needed[i], search, scratch[i]);
        }
      });
    }
    pool->wait_idle();  // happens-before: workers' scratch writes visible
    for (std::size_t i = 0; i < needed.size(); ++i) {
      runs_[needed[i]].emplace(std::move(scratch[i]));
      ++counters_.attach_pairs_computed;
    }
  }
  for (std::uint32_t slot : todo) commit_pair(slot);
}

PathSet RoutingGraph::paths(NodeId src_host, NodeId dst_host) const {
  const std::uint32_t a = topo_->host_index(src_host);
  const std::uint32_t b = topo_->host_index(dst_host);
  assert(a != kNotHost && b != kNotHost &&
         "RoutingGraph::paths endpoints must be hosts of this topology");
  if (a == kNotHost || b == kNotHost) {
    static const Extent kNoPaths;
    return {&path_arena_, &kNoPaths, &pool_};
  }
  const std::size_t slot = pair_slot(a, b);
  ensure_pair(slot);
  return {&path_arena_, &rows_[slot], &pool_};
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
  return rows_[slot].size != 0;
}

std::size_t RoutingGraph::pairs_using(LinkId l) const {
  assert(l.valid() && l.value() < topo_->link_count());
  std::size_t n = 0;
  for (std::size_t slot = 0; slot < rows_.size(); ++slot) {
    // A pair with candidates has live access links and a run; one without
    // touched nothing.
    if (rows_[slot].size == 0) continue;
    const std::vector<LinkId>& touched = runs_[run_index(slot)]->touched;
    if (l == source(slot).up || l == destination(slot).down ||
        std::binary_search(touched.begin(), touched.end(), l)) {
      ++n;
    }
  }
  return n;
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
