// Multi-path routing: hop-count Dijkstra, Yen's k-shortest paths, and the
// RoutingGraph cache the controller keeps per host pair (paper §IV: computed
// at startup, recomputed only on topology-change events — off the data path).
//
// Paths are interned in a PathPool: the graph stores PathId handles instead
// of link-vector copies, a reverse index LinkId → {host pairs using it} lets
// rebuild() recompute only the pairs a failed/restored link can affect, and
// the control plane (controller/allocator) passes ids on the per-flow hot
// path instead of copying/comparing link vectors.
//
// Construction comes in two flavors (BuildMode), both provably identical to
// the classic eager build because a pair's Yen candidate set is a pure
// function of (topology, banned set, k) — query order cannot change results:
//  - kEager: every pair computed up front (optionally fanned across a
//    util::ThreadPool via materialize_all, which interns results in
//    canonical slot order so PathId assignment matches a serial build).
//  - kLazy: pairs computed on first paths()/has_paths() query; rebuild()
//    merely *invalidates* affected materialized pairs instead of recomputing
//    them. At warehouse scale most host pairs never carry a shuffle flow, so
//    this removes the cold-build wall entirely.
//
// Either way, a pair of *stub* hosts (each wired to the fabric by exactly one
// uplink and one downlink, both to the same switch) does not run Yen itself:
// its candidates are the source's uplink, then each candidate of one cached
// Yen run between the two attachment switches, then the destination's
// downlink. A stub host is never a transit node, so this is exactly the
// host-level Yen result — same candidates, same order, same touched links
// (the argument is in docs/architecture.md). Every host pair on a rack pair
// shares that one switch-level run.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"

namespace pythia::sim {
class StateEncoder;
}

namespace pythia::util {
class ThreadPool;
}

namespace pythia::net {

/// A loop-free path as a link chain; endpoints are implied by the links.
struct Path {
  std::vector<LinkId> links;

  [[nodiscard]] std::size_t hops() const { return links.size(); }
  friend bool operator==(const Path&, const Path&) = default;
};

/// Shortest path by hop count with deterministic tie-breaking (smaller link
/// ids win). `banned_links` / `banned_nodes` support Yen's spur computation
/// and failure simulation. Returns nullopt when disconnected.
std::optional<Path> shortest_path(
    const Topology& topo, NodeId src, NodeId dst,
    const std::unordered_set<LinkId>& banned_links = {},
    const std::unordered_set<NodeId>& banned_nodes = {});

/// Yen's algorithm: up to `k` loop-free shortest paths in nondecreasing
/// hop-count order (deterministic ordering among equal-length paths).
/// `banned_links` are excluded entirely (failed links). When
/// `touched_links` is non-null, every link of every candidate path the run
/// generated (chosen or not) is appended to it — the routing graph's
/// incremental rebuild keys its reverse index on this union, because a
/// banned link that appears only in an *unchosen* candidate can still flip
/// the deterministic tie-break of a later spur computation.
std::vector<Path> k_shortest_paths(
    const Topology& topo, NodeId src, NodeId dst, std::size_t k,
    const std::unordered_set<LinkId>& banned_links = {},
    std::vector<LinkId>* touched_links = nullptr);

/// Append-only intern table for paths. Interning the same link sequence
/// twice yields the same PathId, and `path(id)` references are stable for
/// the lifetime of the pool (deque storage never relocates elements), so the
/// control plane can hold `const Path*` across rebuilds on one topology.
class PathPool {
 public:
  PathId intern(Path path);

  [[nodiscard]] const Path& path(PathId id) const {
    assert(id.valid() && id.value() < paths_.size());
#ifndef NDEBUG
    // A stale id outlived a clear() (topology switch): resolving it would
    // silently return some other topology's path. Debug builds abort here;
    // release keeps the historical unchecked-index behavior.
    assert(id.debug_generation() == generation_ &&
           "stale PathId resolved after PathPool::clear (topology switch)");
#endif
    return paths_[id.value()];
  }
  [[nodiscard]] std::size_t size() const { return paths_.size(); }

  /// Drops every interned path; outstanding ids become invalid (and debug
  /// builds assert if one is later resolved — see generation()). Only called
  /// when the routing graph switches to a different topology.
  void clear();

  /// Bumped by every clear(); ids minted before the bump are stale. Debug
  /// builds stamp the generation into each returned PathId.
  [[nodiscard]] std::uint32_t generation() const { return generation_; }

 private:
  std::deque<Path> paths_;
  // Hash of the link sequence → pool ids with that hash (collisions resolved
  // by full sequence equality in intern()).
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index_;
  std::uint32_t generation_ = 0;
};

/// Non-owning view of one host pair's candidate paths: an id vector in the
/// routing table plus the pool that resolves them. Indexing returns the
/// interned `const Path&` (pool storage is stable), so existing callers that
/// range-for over candidates and keep `&path` work unchanged. The view
/// itself tracks the live table: after a rebuild it sees the new candidate
/// set; call `materialize()` to snapshot instead.
class PathSet {
 public:
  PathSet(const std::vector<PathId>* ids, const PathPool* pool)
      : ids_(ids), pool_(pool) {}

  [[nodiscard]] std::size_t size() const { return ids_->size(); }
  [[nodiscard]] bool empty() const { return ids_->empty(); }
  [[nodiscard]] const Path& operator[](std::size_t i) const {
    return pool_->path((*ids_)[i]);
  }
  [[nodiscard]] PathId id(std::size_t i) const { return (*ids_)[i]; }
  [[nodiscard]] const std::vector<PathId>& ids() const { return *ids_; }
  [[nodiscard]] const PathPool& pool() const { return *pool_; }

  /// Deep copy of the current candidates; survives later rebuilds that
  /// shrink or reorder the live set.
  [[nodiscard]] std::vector<Path> materialize() const;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Path;
    using difference_type = std::ptrdiff_t;
    using pointer = const Path*;
    using reference = const Path&;

    const Path& operator*() const { return set_->operator[](i_); }
    const Path* operator->() const { return &**this; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      auto copy = *this;
      ++i_;
      return copy;
    }
    friend bool operator==(const const_iterator&, const const_iterator&) =
        default;

   private:
    friend class PathSet;
    const_iterator(const PathSet* set, std::size_t i) : set_(set), i_(i) {}
    const PathSet* set_;
    std::size_t i_;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, ids_->size()}; }

 private:
  const std::vector<PathId>* ids_;
  const PathPool* pool_;
};

/// How rebuild() reacts to a banned-set change on an unchanged topology.
enum class RebuildMode : std::uint8_t {
  /// Recompute only host pairs a newly banned/restored link can affect
  /// (reverse index + BFS hop bound); the default and byte-identical to
  /// kFull — proven by the differential tests.
  kIncremental,
  /// Legacy behavior: re-run Yen for every host pair. Kept as the baseline
  /// the differential tests and the routing_scaling bench compare against.
  kFull,
};

/// When a RoutingGraph computes each host pair's candidates.
enum class BuildMode : std::uint8_t {
  /// Classic behavior: every pair Yen-computed at construction / rebuild.
  kEager,
  /// Pairs computed on first query; rebuild() invalidates affected
  /// materialized pairs instead of recomputing them. Identical observable
  /// results (per-pair Yen is pure in topology + banned set), proven by the
  /// differential tests in tests/net/test_routing_lazy.cpp.
  kLazy,
};

/// Observability for rebuild work (the routing_scaling bench reports the
/// recomputed/reused split per failure event).
struct RoutingCounters {
  std::uint64_t full_rebuilds = 0;
  std::uint64_t incremental_rebuilds = 0;
  std::uint64_t pairs_recomputed = 0;
  std::uint64_t pairs_reused = 0;
  /// rebuild() calls that were no-op deltas (same topology, same banned set)
  /// and returned without touching any state.
  std::uint64_t noop_rebuilds = 0;
  /// Lazy mode: materialized pairs dropped by a rebuild delta (recomputed
  /// only if queried again).
  std::uint64_t pairs_invalidated = 0;
  /// Lazy mode: pairs computed on first query (subset of pairs_recomputed).
  std::uint64_t lazy_materializations = 0;
  /// Yen runs between two attachment switches, the shared middle section of
  /// every stub-host pair's candidates. At most (attachment switches)² per
  /// banned set, however many host pairs derive from them.
  std::uint64_t attach_pairs_computed = 0;
};

/// Precomputed k-shortest paths for every host pair. The SDN topology
/// service rebuilds it when the physical topology changes (link failure);
/// incremental mode touches only affected pairs.
class RoutingGraph {
 public:
  /// kEager computes every pair up front (pass `pool` to fan the per-pair
  /// Yen runs across worker threads; interning stays on this thread in
  /// canonical slot order, so the result — including PathId values — is
  /// byte-identical to a serial build). kLazy defers each pair to its first
  /// query and ignores `pool`.
  explicit RoutingGraph(const Topology& topo, std::size_t k,
                        BuildMode build = BuildMode::kEager,
                        util::ThreadPool* pool = nullptr);

  /// Equal-candidate path set for an ordered host pair; non-empty for every
  /// connected pair. In lazy mode this materializes the pair on first use.
  /// Precondition: both are hosts in this topology (asserted
  /// in debug; release returns an empty set — use has_paths()/is_host_pair()
  /// to distinguish "partitioned" from "not a host").
  [[nodiscard]] PathSet paths(NodeId src_host, NodeId dst_host) const;

  /// True iff both nodes are hosts of the current topology (a valid key for
  /// the table, whether or not it currently has candidates).
  [[nodiscard]] bool is_host_pair(NodeId src_host, NodeId dst_host) const;

  /// True iff the ordered pair is a host pair with at least one cached path
  /// (false means partitioned — or not hosts at all; see is_host_pair()).
  /// In lazy mode this materializes the pair on first use.
  [[nodiscard]] bool has_paths(NodeId src_host, NodeId dst_host) const;

  /// Computes every not-yet-materialized pair. With a thread pool, the Yen
  /// runs (switch-level runs for stub pairs, host-level runs for the rest)
  /// execute concurrently into private scratch; host pairs are then derived
  /// and interned on the calling thread in canonical slot order — the PathId
  /// sequence (part of the determinism contract) is identical to computing
  /// the same pairs serially. Without one (or with a single-threaded pool),
  /// runs serially.
  void materialize_all(util::ThreadPool* pool = nullptr);

  /// Ordered host pairs whose candidates are currently computed. Equals the
  /// full pair count for an eager graph; grows with queries in lazy mode.
  [[nodiscard]] std::size_t pairs_materialized() const {
    return materialized_count_;
  }
  [[nodiscard]] BuildMode build_mode() const { return build_; }

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const PathPool& pool() const { return pool_; }
  [[nodiscard]] const RoutingCounters& counters() const { return counters_; }

  /// Interns an externally built path (e.g. composed rack chains) into the
  /// shared pool so the rest of the control plane can pass ids around.
  PathId intern(Path path) { return pool_.intern(std::move(path)); }
  [[nodiscard]] const Path& path(PathId id) const { return pool_.path(id); }

  /// Number of ordered host pairs whose last Yen run *touched* `l` — i.e.
  /// any generated candidate (chosen or not) traversed it. This is the set
  /// an incremental rebuild recomputes when `l` fails; the bench uses it to
  /// pick a worst-case victim link.
  [[nodiscard]] std::size_t pairs_using(LinkId l) const;

  /// Recomputes the table, excluding `banned_links` (failed links) from
  /// every path — the controller's topology-update service calls this on
  /// link-failure/restore events. kIncremental recomputes (lazy: invalidates)
  /// only pairs the banned-set delta can affect; a different/resized
  /// topology always forces a full rebuild (and invalidates pool ids). A
  /// no-op delta (same topology, same banned set) returns immediately,
  /// bumping only the noop_rebuilds counter.
  void rebuild(const Topology& topo,
               const std::unordered_set<LinkId>& banned_links = {},
               RebuildMode mode = RebuildMode::kIncremental);

  /// Serializes the routing state for snapshots (section version
  /// kStateVersion): per-pair candidate link chains in slot order plus the
  /// banned set (sorted). Chains — not raw pool ids — keep the section
  /// independent of interning order, which in lazy mode depends on query
  /// order; every unmaterialized pair is materialized first (pure per-pair
  /// computation, so this cannot perturb behavior), making lazy, eager, and
  /// parallel-built graphs byte-identical here.
  void encode_state(sim::StateEncoder& enc) const;

  /// Leading u32 of the encode_state section; bumped when the routing
  /// section layout changes (v2: slot-order link chains replaced the v1
  /// pool-id dump — see docs/checkpoint.md).
  static constexpr std::uint32_t kStateVersion = 2;

  /// Rebuild-work counters, serialized as their own snapshot section:
  /// contracted-identical arms (incremental vs. full rebuild) agree on
  /// encode_state but legitimately differ here, so divergence bisection
  /// compares behavioral sections only (see Snapshot::describe_divergence).
  void encode_counters(sim::StateEncoder& enc) const;

 private:
  static constexpr std::uint32_t kNotHost =
      std::numeric_limits<std::uint32_t>::max();

  static constexpr std::size_t kNoAttachPair =
      std::numeric_limits<std::size_t>::max();

  /// One Yen result before interning: private scratch a worker thread can
  /// fill without touching shared graph state. `touched` is sorted and
  /// deduplicated.
  struct PairScratch {
    std::vector<Path> found;
    std::vector<LinkId> touched;
  };

  /// A host's access links when it is a stub: its only uplink and only
  /// downlink, both to attachment switch `attach` (index into
  /// attach_nodes_). `attach` is kNotHost for every other host.
  struct Access {
    LinkId up;
    LinkId down;
    std::uint32_t attach = kNotHost;
  };

  [[nodiscard]] std::uint32_t host_slot(NodeId n) const {
    return n.value() < host_slot_.size() ? host_slot_[n.value()] : kNotHost;
  }
  [[nodiscard]] std::size_t pair_slot(std::uint32_t a, std::uint32_t b) const {
    return static_cast<std::size_t>(a) * hosts_.size() + b;
  }
  [[nodiscard]] bool diagonal(std::size_t slot) const {
    return slot / hosts_.size() == slot % hosts_.size();
  }

  void index_topology(const Topology& topo);
  void rebuild_full(const std::unordered_set<LinkId>& banned);
  void rebuild_incremental(const std::unordered_set<LinkId>& banned);
  /// Pure Yen run between two nodes into scratch: reads only the topology
  /// and the banned set, writes only `out` — safe to fan across worker
  /// threads.
  void run_yen(NodeId src, NodeId dst,
               const std::unordered_set<LinkId>& banned,
               PairScratch& out) const;
  /// Attachment-cache index a pair of stub hosts derives its candidates
  /// from; kNoAttachPair when either host is not a stub.
  [[nodiscard]] std::size_t attach_pair(std::size_t slot) const;
  /// The attachment-pair cache entry, allocating the table on first use.
  std::optional<PairScratch>& attach_entry(std::size_t ap) const;
  /// One host pair's candidates under `banned`: host-to-host Yen, or for a
  /// stub pair the composition over the (cached) switch-level run. Not
  /// thread-safe for stub pairs — it may fill the attachment cache.
  void compute_pair(std::size_t slot, const std::unordered_set<LinkId>& banned,
                    PairScratch& out) const;
  /// Interns a scratch result and installs it (PathId assignment happens
  /// here, on the calling thread — never on workers). const because it
  /// mutates only the lazy-cache members below.
  void commit_pair(std::size_t slot, PairScratch&& scratch) const;
  /// compute_pair + commit_pair for one slot.
  void recompute_pair(std::size_t slot,
                      const std::unordered_set<LinkId>& banned) const;
  /// Lazy mode: drops a materialized pair's candidates (the next query
  /// recomputes them under the then-current banned set). Keeps the stored
  /// touched union as the diff witness for the eventual re-commit.
  void invalidate_pair(std::size_t slot);
  /// Materializes `slot` if it is an unmaterialized off-diagonal pair.
  void ensure_pair(std::size_t slot) const;
  /// Replaces a pair's candidates and touched-link union, updating the
  /// link → pairs reverse index by diffing old and new unions. `touched`
  /// must be sorted and deduplicated. const: lazy-cache members only.
  void set_pair(std::size_t slot, std::vector<PathId> ids,
                std::vector<LinkId> touched) const;
  /// Hop-count BFS from `origin` over non-banned links; `reverse` walks
  /// links backwards (distance *to* origin). Fills `dist` (kUnreachable for
  /// disconnected nodes).
  void bfs_hops(NodeId origin, bool reverse,
                const std::unordered_set<LinkId>& banned,
                std::vector<std::uint32_t>& dist) const;

  // pythia-lint: allow(snapshot-skip, group) construction-time derivations
  // of the (fingerprinted) topology: wiring, host maps, reverse adjacency,
  // stub access links, and sizes rebuild identically in the restored
  // process. k_ and banned_ ARE encoded.
  const Topology* topo_ = nullptr;
  std::size_t k_ = 0;
  BuildMode build_ = BuildMode::kEager;
  std::vector<NodeId> hosts_;
  std::vector<std::uint32_t> host_slot_;  // node id → host index or kNotHost
  std::vector<std::vector<LinkId>> in_links_;  // reverse adjacency for BFS
  std::unordered_set<LinkId> banned_;          // banned set of last rebuild
  std::size_t node_count_ = 0;
  std::size_t link_count_ = 0;
  std::vector<Access> access_;        // per host slot
  std::vector<NodeId> attach_nodes_;  // attachment switch index → node

  // Lazy cache: logically-const queries (paths/has_paths/encode_state)
  // materialize pairs on demand, so these are mutable. Every materialized
  // entry equals the pure per-pair Yen result under the current banned set —
  // query order cannot change what is stored, only when.
  // pythia-lint: allow(snapshot-skip, group) the touched unions, reverse
  // index, and materialization flags are re-derived from the encoded pool_
  // and table_ on restore; by the invariant above their contents are a pure
  // function of what is stored, never of query order.
  mutable PathPool pool_;
  // Dense table: slot = host_slot(src) * H + host_slot(dst).
  mutable std::vector<std::vector<PathId>> table_;
  // Per-slot sorted union of links touched by the pair's last Yen run.
  mutable std::vector<std::vector<LinkId>> pair_links_;
  // Reverse index: link id → slots whose last Yen run touched it.
  mutable std::vector<std::vector<std::uint32_t>> link_pairs_;
  // Per-slot flag: candidates computed and current (off-diagonal only).
  mutable std::vector<char> materialized_;
  mutable std::size_t materialized_count_ = 0;
  mutable RoutingCounters counters_;

  // pythia-lint: allow(snapshot-skip) derived cache: switch-level Yen runs
  // under the current banned set (dense attach × attach, allocated on first
  // use, dropped by every rebuild that changes the banned set and once every
  // pair is materialized); a restored graph recomputes an entry on the next
  // stub-pair query that needs it.
  mutable std::vector<std::optional<PairScratch>> attach_cache_;
};

}  // namespace pythia::net
