// Heap cost of the routing table's host-pair layout.
//
// This binary replaces the global operator new/delete with counting
// versions: allocations, requested bytes, frees, and the usable bytes of
// every block allocated and freed (malloc_usable_size). Counting is off
// except inside an AllocWindow, so gtest's own bookkeeping never shows up in
// a measurement.
// The topology is the end-to-end Nutch fabric: a 32×8 leaf-spine with four
// spines (256 hosts, 65 536 host-pair slots), k = 4.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"

namespace {

bool g_counting = false;
std::size_t g_allocs = 0;
std::size_t g_bytes = 0;
std::size_t g_frees = 0;
std::size_t g_usable_allocated = 0;
std::size_t g_usable_freed = 0;

}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (g_counting) {
    ++g_allocs;
    g_bytes += n;
    g_usable_allocated += malloc_usable_size(p);
  }
  return p;
}
void operator delete(void* p) noexcept {
  if (p != nullptr && g_counting) {
    ++g_frees;
    g_usable_freed += malloc_usable_size(p);
  }
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace pythia::net {
namespace {

/// Counts allocations, requested bytes and frees made while it is alive.
class AllocWindow {
 public:
  AllocWindow() {
    g_allocs = 0;
    g_bytes = 0;
    g_frees = 0;
    g_usable_allocated = 0;
    g_usable_freed = 0;
    g_counting = true;
  }
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;
  ~AllocWindow() { g_counting = false; }
  [[nodiscard]] std::size_t allocs() const { return g_allocs; }
  [[nodiscard]] std::size_t bytes() const { return g_bytes; }
  [[nodiscard]] std::size_t frees() const { return g_frees; }
  /// Usable bytes allocated in the window and not freed in it.
  [[nodiscard]] std::size_t live() const {
    return g_usable_allocated - g_usable_freed;
  }
};

constexpr std::size_t kPaths = 4;
/// Heap bytes per host-pair slot at construction: an 8-byte candidate
/// extent and a 1-byte materialized flag, ~9.3 in all here. A slot that also
/// held its touched-link extent and room cost ~21.6.
constexpr std::size_t kBytesPerSlot = 12;
/// Allocations per first-touched pair. Paths own no heap object, so all of
/// them are shared growth: the pool's arena, entries and index, the
/// candidate-id arena, and the 32 endpoint runs with the run table, ~0.27
/// here. Per-link reverse lists of touched pairs, grown one entry at a
/// time, made it ~1.30; a pool path that owned its link vector added ~3.9.
constexpr double kAllocsPerPair = 0.5;
/// Heap bytes a first touch retains per pair: ~190 here, of which the pool
/// is ~113 (its index ~64) and the run table most of the rest. A per-pair
/// touched-link union with its entries in per-link reverse lists retained
/// ~377; paths that each owned a link vector, a deque slot and 2–4 16-byte
/// index slots retained ~567.
constexpr double kRetainedPerPair = 250.0;
/// The pool's share: ~113 bytes per pair here, 12 per candidate entry and
/// 2–4 8-byte index slots per entry, with the rack pair's middles once.
constexpr double kPoolPerPair = 128.0;

Topology nutch_fabric() {
  LeafSpineConfig cfg;
  cfg.racks = 32;
  cfg.servers_per_rack = 8;
  cfg.spines = 4;
  return make_leaf_spine(cfg);
}

/// Every pair from the 8 hosts of the first rack: 2 040 pairs, which share
/// the 32 switch-level runs from their leaf (one of them to itself).
std::vector<std::pair<NodeId, NodeId>> sample_pairs(const Topology& topo) {
  const auto& hosts = topo.hosts();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t s = 0; s < 8; ++s) {
    const NodeId src = hosts[s];
    for (NodeId dst : hosts) {
      if (dst != src) pairs.emplace_back(src, dst);
    }
  }
  return pairs;
}

TEST(RoutingAlloc, ConstructionCostsAtMost12BytesPerSlot) {
  const Topology topo = nutch_fabric();
  const std::size_t slots = topo.hosts().size() * topo.hosts().size();
  ASSERT_EQ(slots, 65'536u);
  std::size_t bytes = 0;
  {
    AllocWindow window;
    const RoutingGraph graph(topo, kPaths);
    bytes = window.bytes();
  }
  std::printf("construction: %zu B, %.2f B per slot\n", bytes,
              static_cast<double>(bytes) / static_cast<double>(slots));
  EXPECT_LE(bytes, kBytesPerSlot * slots);
}

// A first touch interns the pair's candidates into shared arenas: a stub
// pair's candidates are 12-byte pool entries over its rack pair's run
// middles, and its touched links are its run's, so it allocates only when a
// shared structure grows or its rack pair's run is new. A per-pair or
// per-path heap object (a link vector, a candidate-id list, a touched-link
// list) would add at least one allocation per pair and break the first
// bound; the others bound what the pairs, the runs and the pool keep.
TEST(RoutingAlloc, FirstTouchAllocatesOnlySharedGrowth) {
  const Topology topo = nutch_fabric();
  const RoutingGraph graph(topo, kPaths);
  const auto pairs = sample_pairs(topo);
  ASSERT_EQ(pairs.size(), 2'040u);
  std::size_t allocs = 0;
  std::size_t live = 0;
  {
    AllocWindow window;
    for (const auto& [src, dst] : pairs) (void)graph.paths(src, dst);
    allocs = window.allocs();
    live = window.live();
  }
  ASSERT_EQ(graph.pairs_materialized(), pairs.size());
  ASSERT_EQ(graph.counters().attach_pairs_computed, 32u);
  const auto n = static_cast<double>(pairs.size());
  const double per_pair = static_cast<double>(allocs) / n;
  const double retained = static_cast<double>(live) / n;
  std::printf("first touch: %zu allocations, %.2f per pair; %zu B retained, "
              "%.1f B per pair (%zu paths, pool %zu B)\n",
              allocs, per_pair, live, retained, graph.pool().size(),
              graph.pool().bytes());
  EXPECT_LT(per_pair, kAllocsPerPair);
  EXPECT_LT(retained, kRetainedPerPair);
  EXPECT_LT(static_cast<double>(graph.pool().bytes()) / n, kPoolPerPair);
}

TEST(RoutingAlloc, SecondTouchAllocatesNothing) {
  const Topology topo = nutch_fabric();
  const RoutingGraph graph(topo, kPaths);
  const auto pairs = sample_pairs(topo);
  for (const auto& [src, dst] : pairs) (void)graph.paths(src, dst);
  AllocWindow window;
  std::size_t candidates = 0;
  for (const auto& [src, dst] : pairs) {
    candidates += graph.paths(src, dst).size();
    EXPECT_TRUE(graph.has_paths(src, dst));
  }
  EXPECT_EQ(window.allocs(), 0u);
  EXPECT_EQ(window.frees(), 0u);
  EXPECT_GT(candidates, pairs.size());
}

}  // namespace
}  // namespace pythia::net
