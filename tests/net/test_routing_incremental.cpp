// Incremental routing rebuilds against the independent oracle
// (routing_oracle.hpp): drive randomized link failure/restore sequences and
// require every pair the table returns to equal a direct reference Yen
// call under the banned set of the moment. This is the proof obligation
// behind rebuild()'s reverse index and restore hop bound — any divergence
// here means a rebuild kept a pair whose Yen run a banned/restored link can
// change.
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "net/routing.hpp"
#include "net/routing_oracle.hpp"
#include "net/topology.hpp"
#include "util/random.hpp"

namespace pythia::net {
namespace {

using oracle::expect_matches_oracle;
using oracle::expect_pair_matches;
using oracle::Oracle;
using oracle::OracleCache;

/// Runs `steps` random fail/restore events against two tables: `full`, read
/// in full after every step (so every pair is materialized when the next
/// rebuild arrives), and `sparse`, which only ever sees a handful of random
/// queries per step and so stays partially materialized throughout. Links
/// fail in duplex pairs (a physical cable takes both directions), which is
/// also what the controller does on handle_link_failure.
void run_churn(const Topology& topo, std::size_t k, std::uint64_t seed,
               int steps) {
  RoutingGraph full(topo, k);
  RoutingGraph sparse(topo, k);
  util::Xoshiro256 rng(seed);
  const auto hosts = topo.hosts();
  const std::uint64_t pairs = hosts.size() * (hosts.size() - 1);
  full.materialize_all();

  // Only switch-switch cables fail: losing a host's single access link just
  // disconnects it, which is legal but uninteresting churn.
  std::vector<LinkId> cables;
  for (const auto& link : topo.links()) {
    if (topo.node(link.src).kind == NodeKind::kSwitch &&
        topo.node(link.dst).kind == NodeKind::kSwitch) {
      cables.push_back(link.id);
    }
  }
  ASSERT_FALSE(cables.empty());

  std::unordered_set<LinkId> banned;
  OracleCache oracles(topo, k);
  for (int step = 0; step < steps; ++step) {
    const LinkId l = cables[rng.below(cables.size())];
    const auto peer = topo.find_link(topo.link(l).dst, topo.link(l).src);
    if (banned.contains(l)) {
      banned.erase(l);
      if (peer) banned.erase(*peer);
    } else {
      banned.insert(l);
      if (peer) banned.insert(*peer);
    }
    full.rebuild(banned);
    sparse.rebuild(banned);
    const Oracle& o = oracles.get(banned);
    const std::string what = "step " + std::to_string(step);
    expect_matches_oracle(full, o, false, what);
    for (int q = 0; q < 4; ++q) {
      const NodeId a = hosts[rng.below(hosts.size())];
      NodeId b = a;
      while (b == a) b = hosts[rng.below(hosts.size())];
      expect_pair_matches(sparse, a, b, o.pair(a, b), "sparse " + what);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(full.counters().incremental_rebuilds,
            static_cast<std::uint64_t>(steps));
  // The point of the exercise: the table skipped real work. Recomputing
  // every pair after each step would cost (steps + 1) * pairs Yen runs.
  EXPECT_GT(full.counters().pairs_reused, 0u);
  EXPECT_LT(full.counters().pairs_recomputed,
            static_cast<std::uint64_t>(steps + 1) * pairs);
  // And the sparse table never paid for pairs nobody asked about.
  EXPECT_LT(sparse.pairs_materialized(), full.pairs_materialized());
  // Final sweep: the sparse table, fully queried now, agrees everywhere.
  expect_matches_oracle(sparse, oracles.get(banned), false, "sparse final");
}

class FatTreeChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FatTreeChurn, MatchesOracle) {
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  run_churn(topo, 4, GetParam(), 12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FatTreeChurn,
                         ::testing::Values(1, 7, 42, 1234, 99999));

class LeafSpineChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LeafSpineChurn, MatchesOracle) {
  LeafSpineConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 3;
  cfg.spines = 3;
  const Topology topo = make_leaf_spine(cfg);
  run_churn(topo, 8, GetParam(), 16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeafSpineChurn,
                         ::testing::Values(3, 17, 2026));

TEST(FatTreeChurnDeep, ManyStepsOneSeed) {
  // One long trajectory: repeated fail/restore cycles exercise the restore
  // lower-bound pruning (stale long candidates, starved pairs) repeatedly.
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  run_churn(topo, 4, 0xC0FFEE, 40);
}

}  // namespace
}  // namespace pythia::net
