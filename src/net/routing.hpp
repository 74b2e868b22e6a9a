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
// of link-vector copies, and the control plane (controller/allocator) passes
// ids on the per-flow hot path instead of copying/comparing link vectors.
//
// The only search state is one Yen run per ordered pair of *endpoints*. A
// *stub* host (wired to the fabric by exactly one uplink and one downlink,
// both to the same switch) has its attachment switch as its endpoint; every
// other host is its own endpoint. A host pair's candidates are the source's
// uplink if it is a stub, then each candidate of its endpoints' run, then
// the destination's downlink if it is a stub. A stub host is never a transit
// node, so this is exactly the host-level Yen result — same candidates, same
// order, same touched links beyond the access links (the argument is in
// docs/architecture.md). Every host pair on a rack pair shares that one run.
// A pair of two stubs interns each candidate as a composite entry (uplink,
// the run candidate's PathId, downlink), the run's middles being interned
// once by the first such pair that commits them; any other pair interns
// its candidates as plain spans. No host pair owns a heap object: a slot of
// the dense pair table is an offset and a count into one shared arena of
// candidate ids, plus a materialized flag.
//
// The table is lazy: a pair is computed on its first paths()/has_paths()
// query, and rebuild() merely *invalidates* the materialized pairs on the
// runs a failed/restored link can affect (judged from each run's touched
// links and candidates). A pair's Yen candidate set is a pure function of
// (topology, banned set, k), so query order changes only when a pair is
// computed, never what it holds. At warehouse scale most host pairs never
// carry a shuffle flow, so this removes the cold-build wall entirely;
// materialize_all() fills the whole table (optionally across a
// util::ThreadPool) when a caller needs it.
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
  /// invalidation on this union, because a banned link that appears only
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
  /// Interns a link sequence as a plain entry, copying it only when it is
  /// new to the pool. The view's middle may point into the pool's own arena
  /// (a sub-run of a pooled path).
  PathId intern(const PathView& links);
  PathId intern(std::span<const LinkId> links) {
    return intern(PathView(links));
  }
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
  /// Yen runs between two endpoints (attachment switches of stub hosts,
  /// other hosts themselves), the shared middle section of every host pair's
  /// candidates. At most (endpoints)² per banned set, however many host
  /// pairs derive from them; a run a rebuild does not reach is kept.
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

  /// Computes every not-yet-materialized pair. With a thread pool, the
  /// endpoint runs those pairs need and the table lacks execute
  /// concurrently, each pool task on its own PathSearch, into private
  /// scratch; host pairs are then derived and interned on the calling thread
  /// in canonical slot order — the PathId sequence (part of the determinism
  /// contract) is identical to computing the same pairs serially. Without
  /// one (or with a single-threaded pool), runs serially.
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

  /// Number of materialized host pairs whose Yen run *touched* `l` — i.e.
  /// any generated candidate (chosen or not) traversed it: the pairs with
  /// candidates whose access links or endpoint run's touched union hold it.
  /// This is the set a rebuild invalidates when `l` fails; the bench uses it
  /// to pick a worst-case victim link. A scan over the table.
  [[nodiscard]] std::size_t pairs_using(LinkId l) const;

  /// Switches the table to `banned_links` (failed links), which no path may
  /// use — the controller's topology-update service calls this on
  /// link-failure/restore events. Drops only the endpoint runs the
  /// banned-set delta can affect, the materialized pairs on them, and the
  /// materialized pairs whose own access link changed; they recompute on
  /// their next query. An unchanged banned set returns immediately, bumping
  /// only noop_rebuilds.
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

  /// The Yen run between two endpoints under banned_: its candidates in
  /// order, their touched-link union (every link of every generated
  /// candidate, sorted and deduplicated), and the candidates' pool ids once
  /// a pair of two stubs committed them as middles.
  struct Run {
    PathList found;
    std::vector<LinkId> touched;
    std::vector<PathId> middles;
  };

  /// A host's endpoint (index into endpoints_) and, when the host is a stub,
  /// its only uplink and only downlink, both to the attachment switch that
  /// is its endpoint. A host that is not a stub is its own endpoint and has
  /// invalid access links, which no banned set holds.
  struct Access {
    LinkId up;
    LinkId down;
    std::uint32_t endpoint = kNotHost;
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
  [[nodiscard]] const Access& source(std::size_t slot) const {
    return access_[slot / hosts().size()];
  }
  [[nodiscard]] const Access& destination(std::size_t slot) const {
    return access_[slot % hosts().size()];
  }
  /// The index of the run a host pair derives its candidates from.
  [[nodiscard]] std::size_t run_index(std::size_t slot) const {
    return static_cast<std::size_t>(source(slot).endpoint) *
               endpoints_.size() +
           destination(slot).endpoint;
  }
  /// True iff neither of the pair's access links is banned; a pair with a
  /// banned one has no candidates and touches nothing.
  [[nodiscard]] bool access_live(std::size_t slot) const {
    return !banned(source(slot).up) && !banned(destination(slot).down);
  }

  /// Pure Yen run `run` under banned_ into `out`: reads only the topology,
  /// the endpoints and the banned set, writes only `search` and `out` — safe
  /// to fan across worker threads that each own a PathSearch.
  void run_yen(std::size_t run, PathSearch& search, Run& out) const;
  /// The run, computed on search_ first if the table lacks it (allocating
  /// the table on first use). Not thread-safe.
  Run& ensure_run(std::size_t run) const;
  /// Derives one unmaterialized pair's candidates from its run, interns
  /// them (PathId assignment happens here, on the calling thread — never on
  /// workers; a stub pair's middles are interned here too, by the first
  /// pair of two stubs that commits them) and marks the pair materialized.
  /// const because it mutates only the lazy-cache members below.
  void commit_pair(std::size_t slot) const;
  /// Drops a materialized pair's candidates (the next query recomputes them
  /// under the then-current banned set).
  void invalidate_pair(std::size_t slot);
  /// Materializes `slot` if it is an unmaterialized off-diagonal pair.
  void ensure_pair(std::size_t slot) const;
  /// Rewrites the candidate arena with only the live extents, in slot
  /// order, once its dead entries outnumber its live ones.
  void compact_paths();
  /// Hop-count BFS from `origin` over links outside banned_; `reverse`
  /// walks links backwards (distance *to* origin). Fills `dist`
  /// (kUnreachable for disconnected nodes).
  void bfs_hops(NodeId origin, bool reverse,
                std::vector<std::uint32_t>& dist) const;

  // pythia-lint: allow(snapshot-skip, group) construction-time derivations
  // of the (fingerprinted) topology: wiring, reverse adjacency, stub access
  // links and endpoints rebuild identically in the restored process. k_ and
  // banned_ ARE encoded. Host pairs are keyed on the topology's dense host
  // index (Topology::host_index).
  const Topology* topo_ = nullptr;
  std::size_t k_ = 0;
  std::vector<std::vector<LinkId>> in_links_;  // reverse adjacency for BFS
  std::vector<LinkId> banned_;  // banned set of last rebuild, sorted
  std::vector<Access> access_;     // per host slot
  std::vector<NodeId> endpoints_;  // endpoint index → node

  // Lazy cache: logically-const queries (paths/has_paths) materialize pairs
  // and runs on demand, so these are mutable. Every materialized entry
  // equals the pure per-pair Yen result under the current banned set, and
  // every run the pure per-endpoint-pair one — query order cannot change
  // what is stored, only when.
  // pythia-lint: allow(snapshot-skip, group) a cache of the per-pair
  // function that the encoded k_ and banned_ name; restore replays the run,
  // which materializes the same pairs in the same order, and re-interning a
  // run's middles finds the ids they had. The work counters and the
  // materialized count go to encode_counters.
  mutable PathPool pool_;
  // Dense table: slot = host_index(src) * H + host_index(dst) → the slot's
  // candidate ids in path_arena_.
  mutable std::vector<Extent> rows_;
  mutable std::vector<PathId> path_arena_;
  // Arena entries outside every live extent (a dropped pair's candidates).
  mutable std::size_t path_dead_ = 0;
  // Per-slot flag: candidates computed and current (off-diagonal only).
  mutable std::vector<char> materialized_;
  mutable std::size_t materialized_count_ = 0;
  mutable RoutingCounters counters_;
  // Endpoint runs under the current banned set, dense endpoint × endpoint,
  // allocated on first use; rebuild() drops the runs it reaches.
  mutable std::vector<std::optional<Run>> runs_;

  // pythia-lint: allow(snapshot-skip) search scratch for lazy queries,
  // fill-before-read on every use; it holds no state between queries.
  mutable PathSearch search_;
};

}  // namespace pythia::net
