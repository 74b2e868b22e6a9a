// Heap cost of the routing table's host-pair layout.
//
// This binary replaces the global operator new/delete with counting
// versions (allocations and bytes). Counting is off except inside an
// AllocWindow, so gtest's own bookkeeping never shows up in a measurement.
// The topology is the end-to-end Nutch fabric: a 32×8 leaf-spine with four
// spines (256 hosts, 65 536 host-pair slots), k = 4.
#include <gtest/gtest.h>

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

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) {
    ++g_allocs;
    g_bytes += n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p != nullptr && g_counting) ++g_frees;
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr && g_counting) ++g_frees;
  std::free(p);
}

namespace pythia::net {
namespace {

/// Counts allocations, requested bytes and frees made while it is alive.
class AllocWindow {
 public:
  AllocWindow() {
    g_allocs = 0;
    g_bytes = 0;
    g_frees = 0;
    g_counting = true;
  }
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;
  ~AllocWindow() { g_counting = false; }
  [[nodiscard]] std::size_t allocs() const { return g_allocs; }
  [[nodiscard]] std::size_t bytes() const { return g_bytes; }
  [[nodiscard]] std::size_t frees() const { return g_frees; }
};

constexpr std::size_t kPaths = 4;
/// Allocations per first-touched pair beyond the paths the pool gains. The
/// shared structures' growth (the pool's deque blocks and index, both
/// arenas, the per-link reverse lists) costs ~1.4 here; table rows that
/// held per-pair vectors cost ~5.4.
constexpr double kOverheadPerPair = 2.0;

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

TEST(RoutingAlloc, ConstructionCostsAtMost24BytesPerSlot) {
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
  EXPECT_LE(bytes, 24 * slots);
}

// A first touch interns the pair's candidates and records its touched links
// in shared arenas: beyond the paths the pool gains (each owns its link
// vector), it allocates only when a shared structure grows. A per-pair
// vector (a candidate-id list, a touched-link list, a scratch result) would
// add at least one allocation per pair and break the bound.
TEST(RoutingAlloc, FirstTouchAllocatesLittleBeyondNewPaths) {
  const Topology topo = nutch_fabric();
  const RoutingGraph graph(topo, kPaths);
  const auto pairs = sample_pairs(topo);
  ASSERT_EQ(pairs.size(), 2'040u);
  std::size_t allocs = 0;
  {
    AllocWindow window;
    for (const auto& [src, dst] : pairs) (void)graph.paths(src, dst);
    allocs = window.allocs();
  }
  const std::size_t gained = graph.pool().size();
  ASSERT_EQ(graph.pairs_materialized(), pairs.size());
  ASSERT_EQ(graph.counters().attach_pairs_computed, 32u);
  const double per_pair =
      static_cast<double>(allocs) / static_cast<double>(pairs.size());
  const double overhead =
      static_cast<double>(allocs - gained) / static_cast<double>(pairs.size());
  std::printf("first touch: %zu allocations, %.2f per pair (%zu paths "
              "gained, %.2f per pair beyond them)\n",
              allocs, per_pair, gained, overhead);
  EXPECT_GE(allocs, gained);
  EXPECT_LT(overhead, kOverheadPerPair);
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
