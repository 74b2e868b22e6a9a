// The routing table's stub-host decomposition against the independent
// oracle (routing_oracle.hpp): a pair of stub hosts derives its candidates
// from one Yen run between the two attachment switches instead of running
// Yen host to host, so every ordered host pair is checked against a direct
// reference Yen call on the hosts themselves — candidates link for link,
// and the link → pairs reverse index against the oracle's touched sets — on
// the paper topologies and on random graphs with multi-homed hosts and
// host↔host links (pairs that must fall back to host-level Yen). Bans reach
// the table cold, through incremental rebuilds of a full table, and through
// a table that only ever saw one query.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/routing.hpp"
#include "net/routing_oracle.hpp"
#include "net/topology.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace pythia::net {
namespace {

using oracle::expect_matches_oracle;
using oracle::Oracle;
using oracle::run_oracle;
using util::BitsPerSec;

/// First host with exactly one out-link (its uplink) — a stub on every
/// topology below.
LinkId some_uplink(const Topology& topo) {
  for (NodeId h : topo.hosts()) {
    if (topo.out_links(h).size() == 1) return topo.out_links(h).front();
  }
  ADD_FAILURE() << "no single-homed host";
  return LinkId{0};
}

LinkId reverse_of(const Topology& topo, LinkId l) {
  const auto peer = topo.find_link(topo.link(l).dst, topo.link(l).src);
  EXPECT_TRUE(peer.has_value());
  return peer.value_or(l);
}

/// The switch-switch link the most host pairs touch: failing it moves the
/// most switch-level runs.
LinkId busiest_core_link(const Topology& topo, const Oracle& clean) {
  LinkId best{0};
  std::size_t best_count = 0;
  for (const Link& l : topo.links()) {
    if (topo.node(l.src).kind != NodeKind::kSwitch ||
        topo.node(l.dst).kind != NodeKind::kSwitch) {
      continue;
    }
    if (clean.pairs_using[l.id.value()] > best_count) {
      best = l.id;
      best_count = clean.pairs_using[l.id.value()];
    }
  }
  EXPECT_GT(best_count, 0u) << "no switch-switch link on any candidate";
  return best;
}

/// The scenario list for one topology at k ∈ {1, 2, 4}: a clean table; each
/// ban (an uplink, a downlink, a core cable) applied to an unqueried table,
/// and to a full clean table whose rebuild must drop exactly the pairs the
/// ban affects, then restored; and a core-cable fail → restore on a table
/// that only ever saw one query.
void check_topology(const Topology& topo, const std::string& name) {
  const auto hosts = topo.hosts();
  for (const std::size_t k : {1UL, 2UL, 4UL}) {
    const std::string tag = name + " k=" + std::to_string(k);
    const Oracle clean = run_oracle(topo, k, {});
    const LinkId up = some_uplink(topo);
    const LinkId core = busiest_core_link(topo, clean);
    const std::vector<std::pair<std::string, std::unordered_set<LinkId>>>
        bans = {{"uplink", {up}},
                {"downlink", {reverse_of(topo, up)}},
                {"core", {core, reverse_of(topo, core)}}};

    {
      const RoutingGraph rg(topo, k);
      expect_matches_oracle(rg, clean, true, tag + " clean");
    }
    for (const auto& [what, banned] : bans) {
      const Oracle ban = run_oracle(topo, k, banned);
      {
        RoutingGraph rg(topo, k);
        rg.rebuild(banned);
        expect_matches_oracle(rg, ban, true, tag + " cold ban " + what);
      }
      // A pair the ban cannot affect replays its clean run exactly, touched
      // links included, so after the ban the reverse index must match the
      // oracle's too. A restore keeps a pair it proves unchanged together
      // with its ban-era touched union (a sound, documented witness, not the
      // clean run's), so after it only the candidates are compared.
      RoutingGraph rg(topo, k);
      rg.materialize_all();
      rg.rebuild(banned);
      expect_matches_oracle(rg, ban, true, tag + " banned " + what);
      rg.rebuild({});
      expect_matches_oracle(rg, clean, false, tag + " restored " + what);
    }
    const auto& core_ban = bans.back().second;
    RoutingGraph rg(topo, k);
    (void)rg.paths(hosts.front(), hosts.back());
    rg.rebuild(core_ban);
    (void)rg.paths(hosts.front(), hosts.back());
    rg.rebuild({});
    expect_matches_oracle(rg, clean, false, tag + " sparse fail->restore");
  }
}

TEST(RoutingDecomposition, TwoRack) {
  check_topology(make_two_rack({}), "two_rack");
}

TEST(RoutingDecomposition, LeafSpineIncludingSameRackPairs) {
  LeafSpineConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 3;
  cfg.spines = 3;
  check_topology(make_leaf_spine(cfg), "leaf_spine");
}

TEST(RoutingDecomposition, FatTreeK4) {
  FatTreeConfig cfg;
  cfg.k = 4;
  check_topology(make_fat_tree(cfg), "fat_tree_k4");
}

/// One host per edge switch: a bigger core than k4, and the shape where no
/// two host pairs share a switch-level run (k4 covers shared ones). More
/// hosts per edge would slow the sanitizer jobs without covering anything
/// new.
TEST(RoutingDecomposition, FatTreeK6) {
  FatTreeConfig cfg;
  cfg.k = 6;
  cfg.hosts_per_edge = 1;
  check_topology(make_fat_tree(cfg), "fat_tree_k6");
}

/// test_routing_properties' random graph (a switch ring, single-homed
/// hosts, random switch chords) plus the hosts the decomposition must leave
/// to host-level Yen: multi-homed hosts (two switches), hosts cabled to
/// another host as well as a switch, and a host whose only cable goes to
/// another host.
Topology random_mixed_topology(util::Xoshiro256& rng) {
  Topology topo;
  const std::size_t switches = 5;
  std::vector<NodeId> sw;
  for (std::size_t i = 0; i < switches; ++i) {
    sw.push_back(topo.add_switch("s" + std::to_string(i)));
  }
  for (std::size_t i = 0; i + 1 < switches; ++i) {
    topo.add_duplex(sw[i], sw[i + 1], BitsPerSec{1e9});
  }
  std::vector<NodeId> hosts;
  for (std::size_t i = 0; i < 5; ++i) {
    hosts.push_back(topo.add_host("h" + std::to_string(i),
                                  static_cast<int>(i % 2)));
    topo.add_duplex(hosts.back(), sw[rng.below(switches)], BitsPerSec{1e9});
  }
  // Multi-homed: a second uplink to a different switch.
  const NodeId multi = topo.add_host("multi", 0);
  const std::size_t first = rng.below(switches);
  topo.add_duplex(multi, sw[first], BitsPerSec{1e9});
  topo.add_duplex(multi, sw[(first + 1 + rng.below(switches - 1)) % switches],
                  BitsPerSec{1e9});
  // Host↔host: two stubs-to-be cabled to each other as well.
  const NodeId peer_a = topo.add_host("peer_a", 1);
  const NodeId peer_b = topo.add_host("peer_b", 1);
  topo.add_duplex(peer_a, sw[rng.below(switches)], BitsPerSec{1e9});
  topo.add_duplex(peer_b, sw[rng.below(switches)], BitsPerSec{1e9});
  topo.add_duplex(peer_a, peer_b, BitsPerSec{1e9});
  // A host whose only cable goes to another (single-homed) host.
  const NodeId leaf = topo.add_host("behind_h0", 0);
  topo.add_duplex(leaf, hosts.front(), BitsPerSec{1e9});
  for (std::size_t i = 0; i < 3; ++i) {
    const NodeId a = sw[rng.below(switches)];
    const NodeId b = sw[rng.below(switches)];
    if (a != b) topo.add_duplex(a, b, BitsPerSec{1e9});
  }
  return topo;
}

class RandomMixedTopology : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomMixedTopology, MatchesHostLevelYen) {
  util::Xoshiro256 rng(GetParam());
  check_topology(random_mixed_topology(rng),
                 "random seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMixedTopology,
                         ::testing::Range<std::uint64_t>(1, 13));

/// Parallel materialize_all fans the switch-level and non-stub runs across
/// workers but derives and interns on the calling thread in slot order: the
/// PathIds must equal a serial build's, clean and under a ban, and the table
/// must match the oracle.
TEST(RoutingDecomposition, ParallelMaterializeMatchesSerialPathIds) {
  util::Xoshiro256 rng(5);
  LeafSpineConfig ls;
  ls.racks = 5;
  ls.servers_per_rack = 3;
  ls.spines = 3;
  const std::vector<Topology> topos = {make_leaf_spine(ls),
                                       random_mixed_topology(rng)};
  util::ThreadPool pool(4);
  for (const Topology& topo : topos) {
    const std::unordered_set<LinkId> ban = {some_uplink(topo)};
    for (const auto& banned : {std::unordered_set<LinkId>{}, ban}) {
      RoutingGraph serial(topo, 4);
      serial.rebuild(banned);
      serial.materialize_all();
      RoutingGraph parallel(topo, 4);
      parallel.rebuild(banned);
      parallel.materialize_all(&pool);
      EXPECT_EQ(parallel.pool().size(), serial.pool().size());
      EXPECT_EQ(parallel.counters().attach_pairs_computed,
                serial.counters().attach_pairs_computed);
      expect_matches_oracle(parallel, run_oracle(topo, 4, banned), true,
                            "parallel");
      for (NodeId s : topo.hosts()) {
        for (NodeId d : topo.hosts()) {
          if (s == d) continue;
          const auto ps = serial.paths(s, d);
          const auto pp = parallel.paths(s, d);
          ASSERT_EQ(ps.size(), pp.size());
          for (std::size_t i = 0; i < ps.size(); ++i) {
            ASSERT_EQ(ps.id(i).value(), pp.id(i).value())
                << "pair " << s.value() << "->" << d.value() << " path "
                << i;
          }
        }
      }
    }
  }
}

/// The property the speedup rests on: a 32 × 8 leaf-spine has 65 280 host
/// pairs but only 32 attachment switches, so a full build makes at most
/// 32 × 32 switch-level Yen runs — serially or across a pool.
TEST(RoutingDecomposition, LeafSpine32x8NeedsAtMostSwitchPairRuns) {
  LeafSpineConfig cfg;
  cfg.racks = 32;
  cfg.servers_per_rack = 8;
  cfg.spines = 4;
  const Topology topo = make_leaf_spine(cfg);
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                              &pool}) {
    RoutingGraph rg(topo, 2);
    rg.materialize_all(p);
    EXPECT_EQ(rg.pairs_materialized(), 65'280u);
    EXPECT_EQ(rg.counters().pairs_recomputed, 65'280u);
    EXPECT_LE(rg.counters().attach_pairs_computed, 32u * 32u);
    EXPECT_GT(rg.counters().attach_pairs_computed, 0u);
  }
}

/// A rebuild that changes the banned set drops the switch-level runs: the
/// pairs recomputed after it see the new bans, not stale cached runs.
TEST(RoutingDecomposition, RebuildDropsSwitchLevelRuns) {
  LeafSpineConfig cfg;
  cfg.racks = 3;
  cfg.servers_per_rack = 2;
  cfg.spines = 2;
  const Topology topo = make_leaf_spine(cfg);
  const auto hosts = topo.hosts();
  RoutingGraph rg(topo, 2);
  const auto before = rg.paths(hosts.front(), hosts.back());
  ASSERT_EQ(before.size(), 2u);
  const LinkId spine_link = before[0][1];
  const std::uint64_t runs = rg.counters().attach_pairs_computed;

  const std::unordered_set<LinkId> banned = {spine_link,
                                             reverse_of(topo, spine_link)};
  rg.rebuild(banned);
  const auto after = rg.paths(hosts.front(), hosts.back());
  EXPECT_EQ(rg.counters().attach_pairs_computed, runs + 1);
  const Oracle oracle = run_oracle(topo, 2, banned);
  const auto& want = oracle.pair(hosts.front(), hosts.back());
  ASSERT_EQ(after.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(after[i].to_vector(), want[i].links);
    EXPECT_EQ(std::count(after[i].begin(), after[i].end(), spine_link), 0);
  }
}

}  // namespace
}  // namespace pythia::net
