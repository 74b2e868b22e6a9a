// Lockstep check of the production hop-count searches (net::PathSearch and
// the free shortest_path / k_shortest_paths over it: level-synchronous BFS,
// epoch-stamped marks, flat candidate store) against the reference Dijkstra
// and hashed-dedupe Yen (yen_reference.hpp), on random multigraphs whose
// host and switch ids interleave, under random banned links and nodes, for
// k in {1, 2, 4, 8, 16}. Paths must agree link for link and the touched
// unions must agree as sets. The searches reuse one PathSearch across every
// query and topology, so stale stamps or undersized scratch would show.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/yen_reference.hpp"
#include "util/random.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;

/// `nodes` nodes of random kinds (so host ids interleave with switch ids), a
/// duplex chain through them in shuffled order so most pairs connect, then
/// `extra` random links: duplex or one-way, often doubled into parallel
/// links, so equal-hop ties are everywhere.
Topology random_multigraph(util::Xoshiro256& rng, std::size_t nodes,
                           std::size_t extra) {
  Topology topo;
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < nodes; ++i) {
    ids.push_back(rng.below(3) == 0
                      ? topo.add_host("h" + std::to_string(i), 0)
                      : topo.add_switch("s" + std::to_string(i)));
  }
  std::vector<NodeId> chain = ids;
  for (std::size_t i = chain.size(); i > 1; --i) {
    std::swap(chain[i - 1], chain[rng.below(i)]);
  }
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    topo.add_duplex(chain[i], chain[i + 1], BitsPerSec{1e9});
  }
  for (std::size_t e = 0; e < extra; ++e) {
    const NodeId a = ids[rng.below(ids.size())];
    const NodeId b = ids[rng.below(ids.size())];
    if (a == b) continue;
    const std::size_t copies = rng.below(3) == 0 ? 2 : 1;
    for (std::size_t c = 0; c < copies; ++c) {
      if (rng.below(4) == 0) {
        topo.add_link(a, b, BitsPerSec{1e9});
      } else {
        topo.add_duplex(a, b, BitsPerSec{1e9});
      }
    }
  }
  return topo;
}

NodeId random_node(util::Xoshiro256& rng, const Topology& topo) {
  return NodeId{static_cast<std::uint32_t>(rng.below(topo.node_count()))};
}

template <typename IdT>
std::unordered_set<IdT> random_subset(util::Xoshiro256& rng,
                                      std::size_t universe,
                                      std::size_t count) {
  std::unordered_set<IdT> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.insert(IdT{static_cast<std::uint32_t>(rng.below(universe))});
  }
  return out;
}

template <typename IdT>
std::vector<IdT> sorted(const std::unordered_set<IdT>& set) {
  std::vector<IdT> out(set.begin(), set.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<LinkId> sorted_unique(std::vector<LinkId> links) {
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

void expect_same_paths(const std::vector<Path>& got,
                       const std::vector<Path>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].links, want[i].links) << what << " path " << i;
  }
}

class BfsLockstep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsLockstep, ShortestPathMatchesReference) {
  util::Xoshiro256 rng(GetParam());
  PathSearch search;
  for (int round = 0; round < 16; ++round) {
    const Topology topo =
        random_multigraph(rng, 6 + rng.below(26), rng.below(48));
    for (int q = 0; q < 30; ++q) {
      const NodeId src = random_node(rng, topo);
      const NodeId dst = random_node(rng, topo);
      const auto links = random_subset<LinkId>(rng, topo.link_count(),
                                               rng.below(5));
      const auto nodes = random_subset<NodeId>(rng, topo.node_count(),
                                               rng.below(3));
      const std::string what = "seed " + std::to_string(GetParam()) +
                               " round " + std::to_string(round) + " query " +
                               std::to_string(q);
      const auto want = reference::shortest_path(topo, src, dst, links, nodes);
      const auto got = search.shortest_path(topo, src, dst, sorted(links),
                                            sorted(nodes));
      const auto free_got = shortest_path(topo, src, dst, links, nodes);
      ASSERT_EQ(got.has_value(), want.has_value()) << what;
      ASSERT_EQ(free_got.has_value(), want.has_value()) << what;
      if (want) {
        ASSERT_EQ(got->links, want->links) << what;
        ASSERT_EQ(free_got->links, want->links) << what;
      }
    }
  }
}

TEST_P(BfsLockstep, KShortestPathsMatchReference) {
  util::Xoshiro256 rng(GetParam());
  PathSearch search;
  for (int round = 0; round < 12; ++round) {
    const Topology topo =
        random_multigraph(rng, 6 + rng.below(22), rng.below(40));
    for (int q = 0; q < 12; ++q) {
      const NodeId src = random_node(rng, topo);
      const NodeId dst = random_node(rng, topo);
      const auto banned = random_subset<LinkId>(rng, topo.link_count(),
                                                rng.below(4));
      for (const std::size_t k : {1, 2, 4, 8, 16}) {
        const std::string what = "seed " + std::to_string(GetParam()) +
                                 " round " + std::to_string(round) +
                                 " query " + std::to_string(q) + " k " +
                                 std::to_string(k);
        std::vector<LinkId> want_touched;
        const auto want = reference::k_shortest_paths(topo, src, dst, k,
                                                      banned, &want_touched);
        std::vector<LinkId> got_touched;
        const auto got = search.k_shortest_paths(topo, src, dst, k,
                                                 sorted(banned), &got_touched);
        ASSERT_NO_FATAL_FAILURE(expect_same_paths(got, want, what));
        ASSERT_EQ(sorted_unique(got_touched), sorted_unique(want_touched))
            << what;
        ASSERT_NO_FATAL_FAILURE(expect_same_paths(
            k_shortest_paths(topo, src, dst, k, banned), want, what));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfsLockstep, ::testing::Values(3, 41, 977));

}  // namespace
}  // namespace pythia::net
