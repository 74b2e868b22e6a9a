#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/routing_oracle.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;

Topology diamond() {
  // a -> {x, y} -> b : two 2-hop paths.
  Topology topo;
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", 1);
  const NodeId x = topo.add_switch("x");
  const NodeId y = topo.add_switch("y");
  topo.add_duplex(a, x, BitsPerSec{1e9});
  topo.add_duplex(a, y, BitsPerSec{1e9});
  topo.add_duplex(x, b, BitsPerSec{1e9});
  topo.add_duplex(y, b, BitsPerSec{1e9});
  return topo;
}

TEST(ShortestPath, TrivialAndSelf) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  const auto self = shortest_path(topo, hosts[0], hosts[0]);
  ASSERT_TRUE(self.has_value());
  EXPECT_TRUE(self->links.empty());

  const auto p = shortest_path(topo, hosts[0], hosts[1]);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->hops(), 2u);
  EXPECT_TRUE(topo.validate_path(hosts[0], hosts[1], p->links));
}

TEST(ShortestPath, RespectsBannedLinks) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  const auto first = shortest_path(topo, hosts[0], hosts[1]);
  ASSERT_TRUE(first.has_value());
  const auto second = shortest_path(topo, hosts[0], hosts[1],
                                    {first->links.front()});
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(first->links, second->links);
  // Banning both first hops disconnects the pair.
  const auto none = shortest_path(
      topo, hosts[0], hosts[1],
      {first->links.front(), second->links.front()});
  EXPECT_FALSE(none.has_value());
}

TEST(ShortestPath, RespectsBannedNodes) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  const auto switches = topo.switches();
  const auto p = shortest_path(topo, hosts[0], hosts[1], {},
                               {switches[0], switches[1]});
  EXPECT_FALSE(p.has_value());
}

TEST(ShortestPath, DeterministicTieBreak) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  const auto a = shortest_path(topo, hosts[0], hosts[1]);
  const auto b = shortest_path(topo, hosts[0], hosts[1]);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->links, b->links);
}

TEST(KShortest, FindsBothDiamondPaths) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  const auto paths = k_shortest_paths(topo, hosts[0], hosts[1], 4);
  ASSERT_EQ(paths.size(), 2u);  // only two loop-free paths exist
  EXPECT_EQ(paths[0].hops(), 2u);
  EXPECT_EQ(paths[1].hops(), 2u);
  EXPECT_NE(paths[0].links, paths[1].links);
  for (const auto& p : paths) {
    EXPECT_TRUE(topo.validate_path(hosts[0], hosts[1], p.links));
  }
}

TEST(KShortest, TwoRackParallelCables) {
  TwoRackConfig cfg;
  cfg.inter_rack_links = 3;
  const Topology topo = make_two_rack(cfg);
  const auto hosts = topo.hosts();
  const NodeId src = hosts[0];
  const NodeId dst = hosts[9];
  const auto paths = k_shortest_paths(topo, src, dst, 8);
  // Three parallel cables -> exactly three 4-hop inter-rack paths.
  ASSERT_EQ(paths.size(), 3u);
  std::set<std::vector<LinkId>> unique;
  for (const auto& p : paths) {
    EXPECT_EQ(p.hops(), 4u);
    EXPECT_TRUE(topo.validate_path(src, dst, p.links));
    unique.insert(p.links);
  }
  EXPECT_EQ(unique.size(), 3u);
}

TEST(KShortest, SameRackSinglePath) {
  const Topology topo = make_two_rack({});
  const auto hosts = topo.hosts();
  const auto paths = k_shortest_paths(topo, hosts[0], hosts[1], 4);
  ASSERT_EQ(paths.size(), 1u);  // via the shared ToR only
  EXPECT_EQ(paths[0].hops(), 2u);
}

TEST(KShortest, NondecreasingLengths) {
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 2;
  cfg.spines = 4;
  const Topology topo = make_leaf_spine(cfg);
  const auto hosts = topo.hosts();
  const auto paths = k_shortest_paths(topo, hosts[0], hosts[3], 16);
  ASSERT_GE(paths.size(), 4u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].hops(), paths[i - 1].hops());
  }
}

TEST(KShortest, KZeroAndDisconnected) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  EXPECT_TRUE(k_shortest_paths(topo, hosts[0], hosts[1], 0).empty());

  Topology island;
  const NodeId a = island.add_host("a", 0);
  const NodeId b = island.add_host("b", 1);
  EXPECT_TRUE(k_shortest_paths(island, a, b, 3).empty());
}

TEST(RoutingGraph, PrecomputesAllHostPairs) {
  const Topology topo = make_two_rack({});
  const RoutingGraph rg(topo, 2);
  const auto hosts = topo.hosts();
  for (NodeId a : hosts) {
    for (NodeId b : hosts) {
      if (a == b) continue;
      const auto& paths = rg.paths(a, b);
      ASSERT_FALSE(paths.empty()) << a.value() << "->" << b.value();
      const bool cross_rack = topo.node(a).rack != topo.node(b).rack;
      EXPECT_EQ(paths.size(), cross_rack ? 2u : 1u);
    }
  }
  EXPECT_EQ(rg.k(), 2u);
}

TEST(PathPool, InternDeduplicatesAndIdsStayValid) {
  const Topology topo = diamond();
  const auto hosts = topo.hosts();
  const auto paths = k_shortest_paths(topo, hosts[0], hosts[1], 4);
  ASSERT_EQ(paths.size(), 2u);

  PathPool pool;
  const PathId a = pool.intern(paths[0]);
  const PathId b = pool.intern(paths[1]);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
  // Interning the same link sequence again returns the same id.
  EXPECT_EQ(pool.intern(paths[0]), a);
  EXPECT_EQ(pool.intern(paths[1]), b);
  EXPECT_EQ(pool.size(), 2u);

  // Ids stay valid as the pool grows past several arena and index
  // reallocations; a view re-read by id shows the same links.
  for (int i = 0; i < 1000; ++i) {
    Path p;
    p.links.push_back(LinkId{static_cast<std::uint32_t>(i + 100)});
    pool.intern(std::move(p));
  }
  EXPECT_EQ(pool.path(a).to_vector(), paths[0].links);
  EXPECT_EQ(pool.path(b).to_vector(), paths[1].links);
}

// One id per link sequence, whichever route interns it: a full span, a
// composite (lead, middle id, trail) entry, or a sub-run of a pooled path.
TEST(PathPool, OneIdPerSequenceAcrossInternRoutes) {
  const std::vector<LinkId> middle{LinkId{7}, LinkId{8}, LinkId{9}};
  const std::vector<LinkId> full{LinkId{1}, LinkId{7}, LinkId{8}, LinkId{9},
                                 LinkId{2}};
  {
    // Composite first: the span and the stripped chain find its entries.
    PathPool pool;
    const PathId mid = pool.intern(middle);
    const PathId whole = pool.intern(LinkId{1}, mid, LinkId{2});
    EXPECT_NE(whole, mid);
    EXPECT_EQ(pool.middle(whole), mid);
    EXPECT_FALSE(pool.middle(mid).valid());
    EXPECT_EQ(pool.path(whole).to_vector(), full);
    EXPECT_EQ(pool.intern(full), whole);
    EXPECT_EQ(pool.intern(pool.path(whole).middle()), mid);
    EXPECT_EQ(pool.intern(LinkId{1}, mid, LinkId{2}), whole);
    EXPECT_EQ(pool.size(), 2u);
  }
  {
    // Span first: the composite route returns the plain entry's id, and
    // stripping it interns the chain from the pool's own arena.
    PathPool pool;
    const PathId whole = pool.intern(full);
    const PathView view = pool.path(whole);
    const PathId chain = pool.intern(view.middle().subspan(1, 3));
    EXPECT_EQ(pool.path(chain).to_vector(), middle);
    EXPECT_EQ(pool.intern(LinkId{1}, chain, LinkId{2}), whole);
    EXPECT_FALSE(pool.middle(whole).valid());
    EXPECT_EQ(pool.size(), 2u);
  }
}

// Two hosts on one switch: their middle is the switch's empty run to itself,
// so the composite is just the uplink and the downlink.
TEST(PathPool, EmptyMiddleOfSameSwitchPair) {
  PathPool pool;
  const PathId empty = pool.intern(std::span<const LinkId>{});
  EXPECT_EQ(pool.path(empty).size(), 0u);
  const PathId both = pool.intern(LinkId{3}, empty, LinkId{4});
  const PathView view = pool.path(both);
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], LinkId{3});
  EXPECT_EQ(view[1], LinkId{4});
  EXPECT_TRUE(view.middle().empty());
  EXPECT_EQ(pool.intern(std::vector<LinkId>{LinkId{3}, LinkId{4}}), both);
  EXPECT_EQ(pool.intern(std::span<const LinkId>{}), empty);

  // The routing table stores a same-switch stub pair the same way.
  const Topology topo = make_two_rack({});
  const RoutingGraph graph(topo, 2);
  const auto hosts = topo.hosts();
  const auto set = graph.paths(hosts[0], hosts[1]);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0].size(), 2u);
  const PathId middle = graph.pool().middle(set.id(0));
  ASSERT_TRUE(middle.valid());
  EXPECT_EQ(graph.path(middle).size(), 0u);
}

// A view is valid only until the next intern; re-reading by id after many
// later interns, which move the arena, gives the same links.
TEST(PathPool, ViewReReadAfterLaterInterns) {
  LeafSpineConfig cfg;
  cfg.racks = 8;
  cfg.servers_per_rack = 4;
  cfg.spines = 4;
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph graph(topo, 4);
  const auto hosts = topo.hosts();
  const auto first = graph.paths(hosts.front(), hosts.back());
  ASSERT_FALSE(first.empty());
  std::vector<std::vector<LinkId>> before;
  for (const PathView p : first) before.push_back(p.to_vector());
  const std::size_t pool_before = graph.pool().size();
  for (NodeId dst : hosts) {
    for (NodeId src : hosts) {
      if (src != dst) (void)graph.paths(src, dst);
    }
  }
  ASSERT_GT(graph.pool().size(), pool_before);
  ASSERT_EQ(first.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(first[i].to_vector(), before[i]);
    EXPECT_TRUE(topo.validate_path(hosts.front(), hosts.back(), before[i]));
  }
}

TEST(RoutingGraph, HasPathsAndHostPairQueries) {
  const Topology topo = make_two_rack({});
  const RoutingGraph rg(topo, 2);
  const auto hosts = topo.hosts();
  const auto switches = topo.switches();

  EXPECT_TRUE(rg.is_host_pair(hosts[0], hosts[9]));
  EXPECT_TRUE(rg.has_paths(hosts[0], hosts[9]));
  // Switches are not hosts: no precomputed entry exists.
  EXPECT_FALSE(rg.is_host_pair(hosts[0], switches[0]));
  EXPECT_FALSE(rg.has_paths(hosts[0], switches[0]));
  EXPECT_FALSE(rg.is_host_pair(switches[0], switches[1]));
  // The diagonal is a valid host pair with no paths computed for it.
  EXPECT_TRUE(rg.is_host_pair(hosts[0], hosts[0]));
  EXPECT_FALSE(rg.has_paths(hosts[0], hosts[0]));
}

TEST(RoutingGraph, PathsOnUnknownPairDiesInDebug) {
  const Topology topo = make_two_rack({});
  const RoutingGraph rg(topo, 2);
  const auto hosts = topo.hosts();
  const auto switches = topo.switches();
#ifndef NDEBUG
  EXPECT_DEATH((void)rg.paths(hosts[0], switches[0]), "must be hosts");
#else
  EXPECT_TRUE(rg.paths(hosts[0], switches[0]).empty());
#endif
}

TEST(RoutingGraph, RejectsZeroK) {
  // k = 0 would leave every pair without candidates, and a restore after a
  // failure would read the last candidate of an empty list.
  const Topology topo = make_two_rack({});
  EXPECT_THROW((void)RoutingGraph(topo, 0), std::invalid_argument);
  EXPECT_NO_THROW((void)RoutingGraph(topo, 1));
}

TEST(RoutingGraph, IncrementalMatchesOracleOnBanAndRestore) {
  TwoRackConfig cfg;
  cfg.inter_rack_links = 3;
  const Topology topo = make_two_rack(cfg);
  RoutingGraph rg(topo, 4);
  const auto hosts = topo.hosts();

  // Ban one inter-rack cable, then a second, then restore both.
  const LinkId victim = rg.paths(hosts[0], hosts[9])[0][1];
  const LinkId second = rg.paths(hosts[0], hosts[9])[1][1];
  rg.materialize_all();
  const std::vector<std::unordered_set<LinkId>> steps = {
      {victim}, {victim, second}, {second}, {}};
  for (const auto& banned : steps) {
    rg.rebuild(banned);
    oracle::expect_matches_oracle(rg, oracle::run_oracle(topo, 4, banned),
                                  false, "ban/restore");
  }
  // The table actually took the fast path and reused work.
  EXPECT_EQ(rg.counters().incremental_rebuilds, steps.size());
  EXPECT_GT(rg.counters().pairs_reused, 0u);
}

TEST(RoutingGraph, IncrementalNoopRebuildRecomputesNothing) {
  const Topology topo = make_two_rack({});
  RoutingGraph rg(topo, 2);
  const auto before = rg.counters();
  rg.rebuild({});  // same (empty) ban set
  const auto after = rg.counters();
  // A no-op delta early-returns: no recomputation, no rebuild-counter bump,
  // no reuse credit — only the dedicated noop counter moves.
  EXPECT_EQ(after.pairs_recomputed, before.pairs_recomputed);
  EXPECT_EQ(after.incremental_rebuilds, before.incremental_rebuilds);
  EXPECT_EQ(after.pairs_reused, before.pairs_reused);
  EXPECT_EQ(after.noop_rebuilds, before.noop_rebuilds + 1);
}

TEST(RoutingGraph, PairsUsingReverseIndex) {
  const Topology topo = make_two_rack({});
  RoutingGraph rg(topo, 2);
  rg.materialize_all();  // the index covers materialized pairs only
  const auto hosts = topo.hosts();
  // Links are directional: a rack0->rack1 cable is in the candidate set of
  // every rack0->rack1 pair (both cables, since k=2 enumerates both), while
  // host 0's outbound access link is touched only by pairs sourced there.
  const LinkId cable = rg.paths(hosts[0], hosts[9])[0][1];
  const LinkId access = rg.paths(hosts[0], hosts[9])[0][0];
  EXPECT_EQ(rg.pairs_using(cable), 25u);  // 5 x 5 rack0 -> rack1 pairs
  EXPECT_EQ(rg.pairs_using(access), 9u);  // host0 -> each other host
}

}  // namespace
}  // namespace pythia::net
