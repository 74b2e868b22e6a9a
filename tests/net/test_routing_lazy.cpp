// The lazy routing table against the independent oracle
// (routing_oracle.hpp): whatever mix of paths() queries, link fail/restore
// churn, and snapshot encoding a run performs, every pair it reads must equal
// a direct k_shortest_paths call under the current banned set, and
// encode_state must not depend on which pairs were queried. A parallel
// materialize_all must also be *byte*-identical to a serial one, PathId
// values included (interning order is part of the determinism contract).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/routing_oracle.hpp"
#include "net/topology.hpp"
#include "sim/snapshot.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace pythia::net {
namespace {

using oracle::expect_matches_oracle;
using oracle::expect_pair_matches;
using oracle::Oracle;
using oracle::oracle_state;
using oracle::OracleCache;
using oracle::run_oracle;

std::vector<std::uint8_t> encoded_state(const RoutingGraph& rg) {
  sim::StateEncoder enc;
  rg.encode_state(enc);
  return enc.take();
}

Topology small_fat_tree() {
  FatTreeConfig cfg;
  cfg.k = 4;
  return make_fat_tree(cfg);
}

TEST(LazyRouting, ConstructionDoesNoYenWork) {
  const Topology topo = small_fat_tree();
  const RoutingGraph rg(topo, 4);
  EXPECT_EQ(rg.pairs_materialized(), 0u);
  EXPECT_EQ(rg.counters().pairs_recomputed, 0u);
  EXPECT_EQ(rg.pool().size(), 0u);
}

TEST(LazyRouting, FirstQueryMaterializesAndMatchesOracle) {
  const Topology topo = small_fat_tree();
  const Oracle clean = run_oracle(topo, 4, {});
  const RoutingGraph lazy(topo, 4);
  const auto hosts = topo.hosts();

  // Query in deliberately scrambled order: results must not depend on it.
  std::vector<std::pair<NodeId, NodeId>> order;
  for (NodeId s : hosts) {
    for (NodeId d : hosts) {
      if (s != d) order.emplace_back(s, d);
    }
  }
  util::Xoshiro256 rng(7);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::size_t seen = 0;
  for (const auto& [s, d] : order) {
    expect_pair_matches(lazy, s, d, clean.pair(s, d), "scrambled");
    ++seen;
    EXPECT_EQ(lazy.pairs_materialized(), seen);
  }
  EXPECT_EQ(lazy.counters().lazy_materializations, order.size());
}

TEST(LazyRouting, HasPathsMaterializesOnDemand) {
  const Topology topo = make_two_rack({});
  const RoutingGraph lazy(topo, 2);
  const auto hosts = topo.hosts();
  EXPECT_EQ(lazy.pairs_materialized(), 0u);
  EXPECT_TRUE(lazy.has_paths(hosts[0], hosts[9]));
  EXPECT_EQ(lazy.pairs_materialized(), 1u);
}

TEST(LazyRouting, EncodeStateIndependentOfCoverage) {
  const Topology topo = small_fat_tree();
  const auto hosts = topo.hosts();

  // Untouched, partially queried, and fully materialized graphs must all
  // encode the same bytes (encode_state forces materialization in slot
  // order).
  const RoutingGraph untouched(topo, 4);
  RoutingGraph partial(topo, 4);
  (void)partial.paths(hosts[3], hosts[11]);
  (void)partial.paths(hosts[8], hosts[1]);
  RoutingGraph complete(topo, 4);
  complete.materialize_all();

  const auto reference = oracle_state(run_oracle(topo, 4, {}), 4, {});
  EXPECT_EQ(encoded_state(untouched), reference);
  EXPECT_EQ(encoded_state(partial), reference);
  EXPECT_EQ(encoded_state(complete), reference);
  // Encoding materialized everything as a side effect.
  EXPECT_EQ(untouched.pairs_materialized(), complete.pairs_materialized());
}

TEST(LazyRouting, RebuildInvalidatesInsteadOfRecomputing) {
  const Topology topo = small_fat_tree();
  RoutingGraph lazy(topo, 4);
  const auto hosts = topo.hosts();

  // Materialize one cross-pod pair, then fail a link on its first path.
  const auto before = lazy.paths(hosts.front(), hosts.back());
  ASSERT_FALSE(before.empty());
  const LinkId victim = before[0].links[1];
  std::unordered_set<LinkId> banned{victim};

  const auto recomputed_before = lazy.counters().pairs_recomputed;
  lazy.rebuild(banned);
  // The rebuild itself did no Yen work — it only dropped the affected pair.
  EXPECT_EQ(lazy.counters().pairs_recomputed, recomputed_before);
  EXPECT_GE(lazy.counters().pairs_invalidated, 1u);
  EXPECT_EQ(lazy.pairs_materialized(), 0u);

  expect_matches_oracle(lazy, run_oracle(topo, 4, banned), false,
                        "after failure");
}

/// A rebuild with an unchanged banned set touches nothing but the noop
/// counter.
TEST(LazyRouting, NoopRebuildBumpsOnlyNoopCounter) {
  const Topology topo = make_two_rack({});
  RoutingGraph rg(topo, 2);
  (void)rg.paths(topo.hosts()[0], topo.hosts()[9]);
  const RoutingCounters before = rg.counters();
  rg.rebuild({});  // same (empty) banned set
  rg.rebuild({});
  const RoutingCounters after = rg.counters();
  EXPECT_EQ(after.noop_rebuilds, before.noop_rebuilds + 2);
  EXPECT_EQ(after.incremental_rebuilds, before.incremental_rebuilds);
  EXPECT_EQ(after.pairs_recomputed, before.pairs_recomputed);
  EXPECT_EQ(after.pairs_reused, before.pairs_reused);
  EXPECT_EQ(after.pairs_invalidated, before.pairs_invalidated);
}

/// Randomized interleavings of queries, churn, and snapshot capture: every
/// answer the lazy graph gives must match direct Yen under the banned set of
/// the moment, and a capture must encode the oracle's table for that set.
class LazyChurnInterleaving : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LazyChurnInterleaving, MatchesOracleUnderRandomOps) {
  const Topology topo = small_fat_tree();
  const auto hosts = topo.hosts();
  RoutingGraph lazy(topo, 4);
  util::Xoshiro256 rng(GetParam());

  std::vector<LinkId> cables;
  for (const auto& link : topo.links()) {
    if (topo.node(link.src).kind == NodeKind::kSwitch &&
        topo.node(link.dst).kind == NodeKind::kSwitch) {
      cables.push_back(link.id);
    }
  }
  std::unordered_set<LinkId> banned;
  OracleCache oracles(topo, 4);

  for (int step = 0; step < 60; ++step) {
    const std::string what = "step " + std::to_string(step);
    switch (rng.below(4)) {
      case 0: {  // toggle a cable (duplex, like the controller does)
        const LinkId l = cables[rng.below(cables.size())];
        const auto peer =
            topo.find_link(topo.link(l).dst, topo.link(l).src);
        if (banned.contains(l)) {
          banned.erase(l);
          if (peer) banned.erase(*peer);
        } else {
          banned.insert(l);
          if (peer) banned.insert(*peer);
        }
        lazy.rebuild(banned);
        break;
      }
      case 1: {  // snapshot capture must not depend on the query history
        ASSERT_EQ(encoded_state(lazy),
                  oracle_state(oracles.get(banned), 4, banned))
            << what;
        break;
      }
      default: {  // query a random pair
        const NodeId s = hosts[rng.below(hosts.size())];
        NodeId d = s;
        while (d == s) d = hosts[rng.below(hosts.size())];
        const auto want = k_shortest_paths(topo, s, d, 4, banned);
        ASSERT_EQ(lazy.has_paths(s, d), !want.empty()) << what;
        expect_pair_matches(lazy, s, d, want, what);
        break;
      }
    }
    if (HasFatalFailure()) return;
  }
  expect_matches_oracle(lazy, oracles.get(banned), false, "final");
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyChurnInterleaving,
                         ::testing::Values(1, 17, 404, 90210));

/// A parallel materialize_all must match a serial one bit-for-bit,
/// including the PathId values behind the table (interning order is the
/// contract — snapshot images embed behavior, and id-order divergence would
/// betray a scheduling dependence).
TEST(ParallelRouting, MaterializeAllMatchesSerialIncludingPathIds) {
  const Topology topo = small_fat_tree();
  RoutingGraph serial(topo, 4);
  serial.materialize_all();
  util::ThreadPool pool(4);
  RoutingGraph parallel(topo, 4);
  parallel.materialize_all(&pool);

  EXPECT_EQ(parallel.pool().size(), serial.pool().size());
  EXPECT_EQ(parallel.pairs_materialized(), serial.pairs_materialized());
  for (NodeId s : topo.hosts()) {
    for (NodeId d : topo.hosts()) {
      if (s == d) continue;
      const auto ps = serial.paths(s, d);
      const auto pp = parallel.paths(s, d);
      ASSERT_EQ(ps.size(), pp.size());
      for (std::size_t i = 0; i < ps.size(); ++i) {
        ASSERT_EQ(ps.id(i).value(), pp.id(i).value())
            << "pair " << s.value() << "->" << d.value() << " path " << i;
      }
    }
  }
  expect_matches_oracle(parallel, run_oracle(topo, 4, {}), true, "parallel");
  EXPECT_EQ(encoded_state(parallel), encoded_state(serial));
}

TEST(ParallelRouting, MaterializeAllFinishesALazyGraph) {
  const Topology topo = small_fat_tree();
  const auto hosts = topo.hosts();
  RoutingGraph lazy(topo, 4);
  // Partially materialize in an arbitrary order first: materialize_all must
  // only fill the gaps (slot order), never disturb what is already there.
  (void)lazy.paths(hosts[5], hosts[2]);
  (void)lazy.paths(hosts[0], hosts[15]);
  util::ThreadPool pool(4);
  lazy.materialize_all(&pool);
  EXPECT_EQ(lazy.pairs_materialized(), hosts.size() * (hosts.size() - 1));
  expect_matches_oracle(lazy, run_oracle(topo, 4, {}), true,
                        "materialize_all");
}

}  // namespace
}  // namespace pythia::net
