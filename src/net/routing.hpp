// Multi-path routing: hop-count shortest paths on a level-synchronous BFS,
// Yen's k-shortest paths, and the RoutingGraph cache the controller keeps
// per host pair (paper §IV: computed at startup, recomputed only on
// topology-change events — off the data path).
//
// Hops have unit weight, so the BFS returns exactly the path a hop-count
// Dijkstra with (hops, node id) pop order and strict-`<` relaxation would:
// it expands each level in ascending node id, follows out-links in insertion
// order, and lets the first discovery of a node fix its parent. Every search,
// and so every Yen candidate, its order and its touched links, is a pure
// function of (topology, banned set, endpoints, k). A PathSearch keeps the
// search state (epoch-stamped marks, parents, level buffers) across calls,
// so a warm search allocates only the paths it returns.
//
// Paths are interned in a PathPool: the graph stores PathId handles instead
// of link-vector copies, a reverse index LinkId → {host pairs using it} lets
// rebuild() drop only the pairs a failed/restored link can affect, and the
// control plane (controller/allocator) passes ids on the per-flow hot path
// instead of copying/comparing link vectors. No host pair owns a heap
// object: each slot of the dense pair table is an offset and a count into
// one shared arena of candidate ids and one of touched links.
//
// The table is lazy: a pair is computed on its first paths()/has_paths()
// query, and rebuild() merely *invalidates* the affected materialized pairs.
// A pair's Yen candidate set is a pure function of (topology, banned set, k),
// so query order changes only when a pair is computed, never what it holds.
// At warehouse scale most host pairs never carry a shuffle flow, so this
// removes the cold-build wall entirely; materialize_all() fills the whole
// table (optionally across a util::ThreadPool) when a caller needs it.
//
// A pair of *stub* hosts (each wired to the fabric by exactly one uplink and
// one downlink, both to the same switch) does not run Yen itself: its
// candidates are the source's uplink, then each candidate of one cached Yen
// run between the two attachment switches, then the destination's downlink.
// A stub host is never a transit node, so this is exactly the host-level Yen
// result — same candidates, same order, same touched links (the argument is
// in docs/architecture.md). Every host pair on a rack pair shares that one
// switch-level run, and the pool stores each of its candidates as a
// composite entry (uplink, switch-level PathId, downlink): a rack pair's
// middles are interned once, by the first stub pair that commits them.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
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

/// Read-only view of one path's links: an optional leading link, a
/// contiguous middle run and an optional trailing link, in that order. A
/// plain path is its middle alone; a pool's composite path (a stub pair's
/// candidate) leads with the source's uplink and trails with the
/// destination's downlink around its switch-level middle. A view borrows
/// storage it does not own: a pool view is valid only until the next intern
/// into that pool, which may move the arena. Read it and let it go; never
/// keep one.
class PathView {
 public:
  PathView() = default;
  explicit PathView(std::span<const LinkId> links) : middle_(links) {}
  /// A view of a Path's links, as std::string_view views a std::string.
  PathView(const Path& path) : middle_(path.links) {}
  PathView(LinkId lead, std::span<const LinkId> middle, LinkId trail)
      : lead_(lead), middle_(middle), trail_(trail) {}

  [[nodiscard]] std::size_t size() const {
    return middle_.size() + (lead_.valid() ? 1 : 0) + (trail_.valid() ? 1 : 0);
  }
  [[nodiscard]] LinkId operator[](std::size_t i) const {
    assert(i < size());
    if (lead_.valid()) {
      if (i == 0) return lead_;
      --i;
    }
    return i < middle_.size() ? middle_[i] : trail_;
  }
  /// The leading link, or an invalid id when the view has none.
  [[nodiscard]] LinkId lead() const { return lead_; }
  [[nodiscard]] std::span<const LinkId> middle() const { return middle_; }
  /// The trailing link, or an invalid id when the view has none.
  [[nodiscard]] LinkId trail() const { return trail_; }
  /// The links as an owning vector (a flow's path, a rack chain).
  [[nodiscard]] std::vector<LinkId> to_vector() const {
    std::vector<LinkId> out;
    out.reserve(size());
    if (lead_.valid()) out.push_back(lead_);
    out.insert(out.end(), middle_.begin(), middle_.end());
    if (trail_.valid()) out.push_back(trail_);
    return out;
  }

  class const_iterator;
  [[nodiscard]] const_iterator begin() const;
  [[nodiscard]] const_iterator end() const;

 private:
  LinkId lead_;
  std::span<const LinkId> middle_;
  LinkId trail_;
};

/// Walks a PathView by position. It holds a copy of the view, so it does
/// not dangle when the view object it came from goes; iterators compare by
/// position only.
class PathView::const_iterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = LinkId;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = LinkId;

  const_iterator() = default;
  LinkId operator*() const { return view_[i_]; }
  const_iterator& operator++() {
    ++i_;
    return *this;
  }
  const_iterator operator++(int) {
    auto copy = *this;
    ++i_;
    return copy;
  }
  friend bool operator==(const const_iterator& a, const const_iterator& b) {
    return a.i_ == b.i_;
  }

 private:
  friend class PathView;
  const_iterator(const PathView& view, std::size_t i) : view_(view), i_(i) {}
  PathView view_;
  std::size_t i_ = 0;
};

inline PathView::const_iterator PathView::begin() const { return {*this, 0}; }
inline PathView::const_iterator PathView::end() const {
  return {*this, size()};
}

/// Equal link sequences, however each side is split.
inline bool operator==(const PathView& a, const PathView& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}
inline bool operator==(const PathView& a, std::span<const LinkId> b) {
  return a == PathView(b);
}

/// Paths stored back to back: path i is links[ends[i − 1], ends[i]), the
/// first starting at 0. A list reused across searches allocates only when it
/// outgrows every earlier one.
struct PathList {
  std::vector<LinkId> links;
  std::vector<std::uint32_t> ends;

  [[nodiscard]] std::size_t size() const { return ends.size(); }
  [[nodiscard]] bool empty() const { return ends.empty(); }
  [[nodiscard]] std::span<const LinkId> operator[](std::size_t i) const {
    const std::uint32_t begin = i == 0 ? 0 : ends[i - 1];
    return {links.data() + begin, ends[i] - begin};
  }
  void push(std::span<const LinkId> path) {
    links.insert(links.end(), path.begin(), path.end());
    ends.push_back(static_cast<std::uint32_t>(links.size()));
  }
  void clear() {
    links.clear();
    ends.clear();
  }
};

/// Reusable state for hop-count path searches: epoch-stamped banned-link
/// and visited marks, parent links, the BFS level buffers and Yen's
/// candidate store, grown to the topology on first use. The caller owns it;
/// one instance must not be shared between threads.
class PathSearch {
 public:
  /// Shortest path by hop count with deterministic tie-breaking (the parent
  /// expanded first wins, then the out-link inserted first) that uses no
  /// link of `excluded_links` and enters no node of `excluded_nodes`. Returns
  /// nullopt when disconnected, the empty path when src == dst. Excluded ids
  /// outside the topology are ignored: no path can use them anyway.
  std::optional<Path> shortest_path(
      const Topology& topo, NodeId src, NodeId dst,
      std::span<const LinkId> excluded_links = {},
      std::span<const NodeId> excluded_nodes = {});

  /// Yen's algorithm: up to `k` loop-free shortest paths in nondecreasing
  /// hop-count order, ties broken by link-id sequence. No path uses a link
  /// of `excluded_links` (failed links). When `touched_links` is non-null,
  /// every link of every candidate path the run generated (chosen or not)
  /// is appended to it — the routing graph's incremental rebuild keys its
  /// reverse index on this union, because a banned link that appears only
  /// in an *unchosen* candidate can still flip the deterministic tie-break
  /// of a later spur computation.
  std::vector<Path> k_shortest_paths(
      const Topology& topo, NodeId src, NodeId dst, std::size_t k,
      std::span<const LinkId> excluded_links = {},
      std::vector<LinkId>* touched_links = nullptr);

  /// The same search writing the chosen paths, in order, into `out` (cleared
  /// first): a warm search on a reused list allocates nothing.
  void k_shortest_paths(const Topology& topo, NodeId src, NodeId dst,
                        std::size_t k, std::span<const LinkId> excluded_links,
                        PathList& out,
                        std::vector<LinkId>* touched_links = nullptr);

 private:
  /// A Yen candidate: `size` links of cand_links_ starting at `begin`.
  struct Candidate {
    std::uint32_t begin;
    std::uint32_t size;
  };

  /// Sizes the marks to `topo` and stamps `excluded_links` with a fresh ban_.
  void begin(const Topology& topo, std::span<const LinkId> excluded_links);
  /// Level-synchronous BFS from src over links not stamped ban_, entering
  /// no node already stamped `visit` (the caller stamps banned nodes first).
  /// Stops at the first discovery of dst; true iff dst was reached.
  bool bfs(const Topology& topo, NodeId src, NodeId dst, std::uint64_t visit);
  /// Appends the src → dst chain of the last successful bfs() to `out`.
  void append_path(const Topology& topo, NodeId src, NodeId dst,
                   std::vector<LinkId>& out);
  /// True iff `links` equals a pending candidate.
  [[nodiscard]] bool pending(const std::vector<LinkId>& links) const;
  [[nodiscard]] std::span<const LinkId> candidate(const Candidate& c) const {
    return {cand_links_.data() + c.begin, c.size};
  }

  std::uint64_t epoch_ = 0;  // last stamp handed out; stamps never repeat
  std::uint64_t ban_ = 0;    // link_ban_ value meaning "banned this call"
  std::vector<std::uint64_t> link_ban_;  // link id → stamp
  std::vector<std::uint64_t> seen_;      // node id → stamp of last visit
  std::vector<LinkId> parent_;           // node id → discovering link
  std::vector<NodeId> level_;
  std::vector<NodeId> next_;
  std::vector<LinkId> spur_banned_;  // links banned for one spur search
  std::vector<LinkId> total_;        // root + spur of the candidate in hand
  std::vector<LinkId> cand_links_;
  std::vector<Candidate> cands_;
};

/// PathSearch::shortest_path on a one-off PathSearch.
std::optional<Path> shortest_path(
    const Topology& topo, NodeId src, NodeId dst,
    const std::unordered_set<LinkId>& banned_links = {},
    const std::unordered_set<NodeId>& banned_nodes = {});

/// PathSearch::k_shortest_paths on a one-off PathSearch.
std::vector<Path> k_shortest_paths(
    const Topology& topo, NodeId src, NodeId dst, std::size_t k,
    const std::unordered_set<LinkId>& banned_links = {},
    std::vector<LinkId>* touched_links = nullptr);

/// Append-only intern table for paths that holds no heap object per path.
/// A plain path is a run of one flat link arena; a composite path (a stub
/// pair's candidate) is a 12-byte entry naming its leading link, the PathId
/// of its switch-level middle (a plain path) and its trailing link, so the
/// stub pairs of one rack pair share their middles' links. Ids are canonical
/// per link sequence: whichever route interns a sequence (a span, a
/// composite, a sub-run of a pooled path) gets the id it first got, so
/// equality of ids is equality of paths. `path(id)` returns a PathView that
/// is valid until the next intern.
class PathPool {
 public:
  /// Interns a link sequence, copying it only when it is new to the pool.
  /// `links` may point into the pool's own arena (a sub-run of a pooled
  /// path).
  PathId intern(std::span<const LinkId> links);
  PathId intern(const Path& path) { return intern(std::span(path.links)); }
  /// Interns `lead`, then the links of `middle`, then `trail`, storing a
  /// new sequence as one composite entry. Precondition: both ends are valid
  /// and `middle` is a plain entry (a switch-level path interned from a
  /// span: no composite, which begins at a host, can equal one). So a pool
  /// view is either plain (a middle alone) or composite (both ends valid).
  PathId intern(LinkId lead, PathId middle, LinkId trail);

  [[nodiscard]] PathView path(PathId id) const {
    assert(id.valid() && id.value() < entries_.size());
    const Entry& e = entries_[id.value()];
    if (e.mid == kPlain) return PathView(run(e));
    return {LinkId{e.first}, run(entries_[e.mid]), LinkId{e.last}};
  }
  /// The middle of a composite entry: the path between its leading and
  /// trailing links. Invalid for a plain entry.
  [[nodiscard]] PathId middle(PathId id) const {
    assert(id.valid() && id.value() < entries_.size());
    const std::uint32_t mid = entries_[id.value()].mid;
    return mid == kPlain ? PathId{} : PathId{mid};
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Heap bytes the pool holds: its arena, entries and index, at capacity.
  [[nodiscard]] std::size_t bytes() const {
    return links_.capacity() * sizeof(LinkId) +
           entries_.capacity() * sizeof(Entry) +
           index_.capacity() * sizeof(Slot);
  }

 private:
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kPlain = kEmpty;

  /// A plain path (mid == kPlain) is `last` links of links_ from `first`; a
  /// composite is link `first`, then plain path `mid`, then link `last`.
  struct Entry {
    std::uint32_t first;
    std::uint32_t mid;
    std::uint32_t last;
  };
  /// An index slot: the top 32 bits of the sequence's hash · 2^64/φ, whose
  /// top bits are also its home, and the path's id.
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = kEmpty;
  };

  /// A plain entry's links; subspan bounds-checks the run against the
  /// arena under _GLIBCXX_ASSERTIONS.
  [[nodiscard]] std::span<const LinkId> run(const Entry& plain) const {
    return std::span<const LinkId>(links_).subspan(plain.first, plain.last);
  }
  /// Index slot holding `probe`'s sequence, or the empty slot where it
  /// belongs; grows the index first when one more path would pass half full.
  Slot& find(const PathView& probe, std::uint32_t tag);
  /// Fills `slot` with a new entry and returns its id.
  PathId add(Slot& slot, std::uint32_t tag, Entry entry);
  /// Doubles the index (16 slots at first) and reinserts every entry.
  void grow();
  [[nodiscard]] std::size_t home(std::uint32_t tag) const {
    return static_cast<std::size_t>(tag) >> shift_;
  }

  std::vector<LinkId> links_;
  std::vector<Entry> entries_;
  // Open-addressing index over entries_ with linear probing and a
  // power-of-two capacity kept at most half full. Collisions are resolved
  // by full sequence equality.
  std::vector<Slot> index_;
  unsigned shift_ = 32;  // 32 − log2(index_.size())
};

/// A run of `size` consecutive arena entries starting at `at`.
struct Extent {
  std::uint32_t at = 0;
  std::uint32_t size = 0;
};

/// Non-owning view of one host pair's candidate paths: the pair's extent in
/// the routing table's id arena plus the pool that resolves the ids.
/// Indexing returns the candidate's PathView, which is valid until the next
/// intern into the pool (another pair's first touch): read it, or keep its
/// id. Every access reads the extent's offset and count afresh, so the set
/// tracks the live table: other pairs' first touches may move the arena,
/// and after a rebuild that drops the pair the set is empty until the next
/// paths() query recomputes it. Call `materialize()` to snapshot instead.
class PathSet {
 public:
  PathSet(const std::vector<PathId>* arena, const Extent* extent,
          const PathPool* pool)
      : arena_(arena), extent_(extent), pool_(pool) {}

  [[nodiscard]] std::size_t size() const { return extent_->size; }
  [[nodiscard]] bool empty() const { return extent_->size == 0; }
  [[nodiscard]] PathView operator[](std::size_t i) const {
    return pool_->path(id(i));
  }
  [[nodiscard]] PathId id(std::size_t i) const {
    assert(i < extent_->size);
    return (*arena_)[extent_->at + i];
  }
  [[nodiscard]] std::span<const PathId> ids() const {
    return {arena_->data() + extent_->at, extent_->size};
  }
  [[nodiscard]] const PathPool& pool() const { return *pool_; }

  /// Deep copy of the current candidates; survives later rebuilds that
  /// shrink or reorder the live set.
  [[nodiscard]] std::vector<Path> materialize() const;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PathView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = PathView;

    PathView operator*() const { return set_->operator[](i_); }
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
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

 private:
  const std::vector<PathId>* arena_;
  const Extent* extent_;
  const PathPool* pool_;
};

/// The table is always lazy. The enum remains only because callers outside
/// this module (bench/e2e/trace.cpp) still name its one enumerator; the
/// constructor ignores it.
enum class BuildMode : std::uint8_t { kLazy };

/// Observability for rebuild work (the routing_scaling bench reports the
/// recomputed/reused split per failure event).
struct RoutingCounters {
  /// rebuild() calls that changed the banned set.
  std::uint64_t incremental_rebuilds = 0;
  std::uint64_t pairs_recomputed = 0;
  std::uint64_t pairs_reused = 0;
  /// rebuild() calls that were no-op deltas (same banned set) and returned
  /// without touching any state.
  std::uint64_t noop_rebuilds = 0;
  /// Materialized pairs dropped by a rebuild delta (recomputed only if
  /// queried again).
  std::uint64_t pairs_invalidated = 0;
  /// Pairs computed one at a time on first query (a subset of
  /// pairs_recomputed; materialize_all's pairs are the rest).
  std::uint64_t lazy_materializations = 0;
  /// Yen runs between two attachment switches, the shared middle section of
  /// every stub-host pair's candidates. At most (attachment switches)² per
  /// banned set, however many host pairs derive from them.
  std::uint64_t attach_pairs_computed = 0;
};

/// k-shortest paths for every host pair of one topology, computed on
/// demand. The SDN topology service rebuilds it when a link fails or is
/// restored; a rebuild drops only the pairs the banned-set delta can affect.
class RoutingGraph {
 public:
  /// Indexes `topo` (which must outlive the graph) and computes nothing: every
  /// pair waits for its first query or for materialize_all(). Throws
  /// std::invalid_argument when k == 0, which would leave every pair without
  /// candidates. The BuildMode argument is accepted and ignored.
  explicit RoutingGraph(const Topology& topo, std::size_t k,
                        BuildMode build = BuildMode::kLazy);

  /// Equal-candidate path set for an ordered host pair; non-empty for every
  /// connected pair. Materializes the pair on first use.
  /// Precondition: both are hosts in this topology (asserted
  /// in debug; release returns an empty set — use has_paths()/is_host_pair()
  /// to distinguish "partitioned" from "not a host").
  [[nodiscard]] PathSet paths(NodeId src_host, NodeId dst_host) const;

  /// True iff both nodes are hosts of the topology (a valid key for the
  /// table, whether or not it currently has candidates).
  [[nodiscard]] bool is_host_pair(NodeId src_host, NodeId dst_host) const;

  /// True iff the ordered pair is a host pair with at least one cached path
  /// (false means partitioned — or not hosts at all; see is_host_pair()).
  /// Materializes the pair on first use.
  [[nodiscard]] bool has_paths(NodeId src_host, NodeId dst_host) const;

  /// Computes every not-yet-materialized pair. With a thread pool, the Yen
  /// runs (switch-level runs for stub pairs, host-level runs for the rest)
  /// execute concurrently, each pool task on its own PathSearch, into
  /// private scratch; host pairs are then derived and interned on the
  /// calling thread in canonical slot order — the PathId sequence (part of
  /// the determinism contract) is identical to computing the same pairs
  /// serially. Without one (or with a single-threaded pool), runs serially.
  void materialize_all(util::ThreadPool* pool = nullptr);

  /// Ordered host pairs whose candidates are currently computed; grows with
  /// queries, shrinks when a rebuild invalidates pairs.
  [[nodiscard]] std::size_t pairs_materialized() const {
    return materialized_count_;
  }

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const PathPool& pool() const { return pool_; }
  [[nodiscard]] const RoutingCounters& counters() const { return counters_; }

  /// Interns an externally built path (e.g. composed rack chains) into the
  /// shared pool so the rest of the control plane can pass ids around.
  PathId intern(std::span<const LinkId> links) { return pool_.intern(links); }
  /// The path's links, valid until the next intern (see PathView).
  [[nodiscard]] PathView path(PathId id) const { return pool_.path(id); }

  /// Number of ordered host pairs whose last Yen run *touched* `l` — i.e.
  /// any generated candidate (chosen or not) traversed it. This is the set
  /// a rebuild invalidates when `l` fails; the bench uses it to pick a
  /// worst-case victim link. Counts materialized pairs only (plus invalidated
  /// ones, whose stored union stays as the diff witness).
  [[nodiscard]] std::size_t pairs_using(LinkId l) const;

  /// Switches the table to `banned_links` (failed links), which no path may
  /// use — the controller's topology-update service calls this on
  /// link-failure/restore events. Drops only the materialized pairs the
  /// banned-set delta can affect; they recompute on their next query. An
  /// unchanged banned set returns immediately, bumping only noop_rebuilds.
  void rebuild(const std::unordered_set<LinkId>& banned_links);

  /// Serializes the routing state for snapshots (section version
  /// kStateVersion): k and the sorted banned set. Every table entry is a
  /// pure function of (topology, banned set, k) and the config fingerprint
  /// pins the topology, so these name the table without computing it. The
  /// bytes do not depend on which pairs were queried, in what order, or on
  /// how many threads filled them, and encoding reads no cache.
  void encode_state(sim::StateEncoder& enc) const;

  /// Leading u32 of the encode_state section; bumped when the routing
  /// section layout changes (v2: slot-order link chains replaced the v1
  /// pool-id dump; v3: k and the banned set replaced the chains — see
  /// docs/checkpoint.md).
  static constexpr std::uint32_t kStateVersion = 3;

  /// Rebuild-work counters, serialized as their own snapshot section: runs
  /// that query pairs in a different order agree on encode_state but
  /// legitimately differ here, so divergence bisection compares behavioral
  /// sections only (see Snapshot::describe_divergence).
  void encode_counters(sim::StateEncoder& enc) const;

 private:
  static constexpr std::uint32_t kNotHost = Topology::kNoHost;

  static constexpr std::size_t kNoAttachPair =
      std::numeric_limits<std::size_t>::max();

  /// One pair's result before interning: scratch a worker thread can fill
  /// without touching shared graph state. `touched` is sorted and
  /// deduplicated. A stub pair's candidates are not in `found`: they wrap
  /// each candidate of attachment pair `via`'s cached run in the pair's
  /// access links.
  struct PairScratch {
    PathList found;
    std::vector<LinkId> touched;
    std::size_t via = kNoAttachPair;
  };

  /// A switch-level Yen run shared by the stub pairs of one attachment
  /// pair, and its candidates' pool ids once a commit needed them.
  struct AttachRun {
    PairScratch yen;
    std::vector<PathId> middles;
  };

  /// A host's access links when it is a stub: its only uplink and only
  /// downlink, both to attachment switch `attach` (index into
  /// attach_nodes_). `attach` is kNotHost for every other host.
  struct Access {
    LinkId up;
    LinkId down;
    std::uint32_t attach = kNotHost;
  };

  /// A link a pair's last Yen run touched, and the pair's position in the
  /// link's reverse list.
  struct PairLink {
    LinkId link;
    std::uint32_t pos;
  };

  /// One host pair's slot: its candidates in path_arena_, its touched links
  /// in link_arena_, and the link entries a recompute may rewrite in place
  /// (`link_room` ≥ links.size).
  struct PairRow {
    Extent paths;
    Extent links;
    std::uint32_t link_room = 0;
  };

  [[nodiscard]] const std::vector<NodeId>& hosts() const {
    return topo_->hosts();
  }
  [[nodiscard]] std::size_t pair_slot(std::uint32_t a, std::uint32_t b) const {
    return static_cast<std::size_t>(a) * hosts().size() + b;
  }
  [[nodiscard]] bool diagonal(std::size_t slot) const {
    return slot / hosts().size() == slot % hosts().size();
  }
  [[nodiscard]] bool banned(LinkId l) const {
    return std::binary_search(banned_.begin(), banned_.end(), l);
  }
  [[nodiscard]] std::span<PairLink> pair_links(std::size_t slot) const {
    const Extent e = rows_[slot].links;
    return {link_arena_.data() + e.at, e.size};
  }

  /// Pure Yen run between two nodes under banned_ into scratch: reads only
  /// the topology and the banned set, writes only `search` and `out` — safe
  /// to fan across worker threads that each own a PathSearch.
  void run_yen(NodeId src, NodeId dst, PathSearch& search,
               PairScratch& out) const;
  /// Attachment-cache index a pair of stub hosts derives its candidates
  /// from; kNoAttachPair when either host is not a stub.
  [[nodiscard]] std::size_t attach_pair(std::size_t slot) const;
  /// The attachment-pair cache entry, allocating the table on first use.
  std::optional<AttachRun>& attach_entry(std::size_t ap) const;
  /// One host pair's candidates under banned_ into `out` (cleared first):
  /// host-to-host Yen, or for a stub pair the composition over the (cached)
  /// switch-level run. Not thread-safe: it runs on search_ and may fill the
  /// attachment cache.
  void compute_pair(std::size_t slot, PairScratch& out) const;
  /// Interns a scratch result and installs it as the slot's candidates and
  /// touched links (PathId assignment happens here, on the calling thread —
  /// never on workers; a stub pair's switch-level middles are interned here
  /// too, by the first stub pair that commits them). const because it
  /// mutates only the lazy-cache members below.
  void commit_pair(std::size_t slot, const PairScratch& scratch) const;
  /// compute_pair + commit_pair for one slot, through scratch_.
  void recompute_pair(std::size_t slot) const;
  /// Drops a materialized pair's candidates (the next query recomputes them
  /// under the then-current banned set). Keeps the stored touched union as
  /// the diff witness for the eventual re-commit.
  void invalidate_pair(std::size_t slot);
  /// Materializes `slot` if it is an unmaterialized off-diagonal pair.
  void ensure_pair(std::size_t slot) const;
  /// Replaces a pair's touched-link union, updating the link → pairs reverse
  /// index by diffing old and new unions. `touched` must be sorted and
  /// deduplicated. const: lazy-cache members only.
  void set_pair_links(std::size_t slot, std::span<const LinkId> touched) const;
  /// Removes one pair from a link's reverse list by swap-and-pop.
  void drop_pair_link(PairLink entry) const;
  /// Rewrites each arena whose dead entries outnumber its live ones with
  /// only the live extents, in slot order.
  void compact_arenas();
  /// Hop-count BFS from `origin` over links outside banned_; `reverse`
  /// walks links backwards (distance *to* origin). Fills `dist`
  /// (kUnreachable for disconnected nodes).
  void bfs_hops(NodeId origin, bool reverse,
                std::vector<std::uint32_t>& dist) const;

  // pythia-lint: allow(snapshot-skip, group) construction-time derivations
  // of the (fingerprinted) topology: wiring, reverse adjacency and stub
  // access links rebuild identically in the restored process. k_ and
  // banned_ ARE encoded. Host pairs are keyed on the topology's dense host
  // index (Topology::host_index).
  const Topology* topo_ = nullptr;
  std::size_t k_ = 0;
  std::vector<std::vector<LinkId>> in_links_;  // reverse adjacency for BFS
  std::vector<LinkId> banned_;  // banned set of last rebuild, sorted
  std::vector<Access> access_;        // per host slot
  std::vector<NodeId> attach_nodes_;  // attachment switch index → node

  // Lazy cache: logically-const queries (paths/has_paths) materialize pairs
  // on demand, so these are mutable. Every materialized entry equals the
  // pure per-pair Yen result under the current banned set — query order
  // cannot change what is stored, only when.
  // pythia-lint: allow(snapshot-skip, group) a cache of the per-pair
  // function that the encoded k_ and banned_ name; restore replays the run,
  // which materializes the same pairs in the same order. The work counters
  // and the materialized count go to encode_counters.
  mutable PathPool pool_;
  // Dense table: slot = host_index(src) * H + host_index(dst).
  mutable std::vector<PairRow> rows_;
  // Candidate ids of every slot, each slot's run in candidate order.
  mutable std::vector<PathId> path_arena_;
  // Touched-link union of every slot's last Yen run, each slot's run sorted
  // by link, with the slot's position in that link's reverse list.
  mutable std::vector<PairLink> link_arena_;
  // Arena entries outside every live extent (an abandoned or shrunk run).
  mutable std::size_t path_dead_ = 0;
  mutable std::size_t link_dead_ = 0;
  // Reverse index: link id → slots whose last Yen run touched it, unordered.
  mutable std::vector<std::vector<std::uint32_t>> link_pairs_;
  // Per-slot flag: candidates computed and current (off-diagonal only).
  mutable std::vector<char> materialized_;
  mutable std::size_t materialized_count_ = 0;
  mutable RoutingCounters counters_;

  // pythia-lint: allow(snapshot-skip) derived cache: switch-level Yen runs
  // under the current banned set (dense attach × attach, allocated on first
  // use, dropped by every rebuild that changes the banned set and once every
  // pair is materialized); a restored graph recomputes an entry on the next
  // stub-pair query that needs it, and re-interning its middles finds the
  // ids they had.
  mutable std::vector<std::optional<AttachRun>> attach_cache_;
  // pythia-lint: allow(snapshot-skip, group) search and first-touch scratch
  // for lazy queries, fill-before-read on every use; they hold no state
  // between queries.
  mutable PathSearch search_;
  mutable PairScratch scratch_;
  mutable std::vector<PairLink> links_scratch_;
};

}  // namespace pythia::net
