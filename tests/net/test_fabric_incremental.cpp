// Differential validation of the incremental rate engine: every scenario is
// replayed on two fabrics — RateEngine::kIncremental vs kFullRecompute — and
// the observable outcomes (flow completion instants, sampled rates, delivered
// bytes) must match bit-for-bit. Both engines share the progressive-fill
// arithmetic and canonical orderings, so any divergence is a bug in the
// dirty-set component tracking. DenseComponentOracle runs the two fabrics in
// lockstep through a churn that crosses the dense-component fallback bound
// both ways and also compares every link's rate sums after every event.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "experiments/scenario.hpp"
#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"
#include "util/random.hpp"
#include "workloads/hibench.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;
using util::Duration;
using util::SimTime;

/// (sequence number, completion instant) — flow ids are recycled, so the
/// start sequence is the stable identity.
using CompletionLog = std::vector<std::pair<int, std::int64_t>>;

/// Runs a seeded churn scenario — staggered randomized flow starts, a CBR
/// pulse, a link failure/restore, mid-flight reroutes and weight changes —
/// and returns the completion log.
CompletionLog run_churn(RateEngine engine, std::uint64_t seed) {
  LeafSpineConfig cfg;
  cfg.racks = 3;
  cfg.servers_per_rack = 4;
  cfg.spines = 3;
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph routing(topo, cfg.spines);

  sim::Simulation sim(seed);
  Fabric fabric(sim, topo, FabricConfig{engine});
  util::Xoshiro256 rng(seed);
  const auto hosts = topo.hosts();

  CompletionLog log;

  // A handful of long-lived flows that survive to the reroute/weight events.
  std::vector<FlowId> pinned;
  for (int i = 0; i < 4; ++i) {
    const NodeId src = hosts[i];
    const NodeId dst = hosts[hosts.size() - 1 - i];
    const auto& paths = routing.paths(src, dst);
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{4'000'000'000};
    spec.path = paths[0].links;
    spec.weight = 1.0 + i;
    const int tag = 1000 + i;
    pinned.push_back(fabric.start_flow(spec, [&log, tag](FlowId, SimTime t) {
      log.emplace_back(tag, t.ns());
    }));
  }

  // Randomized short flows over the first two simulated seconds.
  constexpr int kFlows = 60;
  for (int i = 0; i < kFlows; ++i) {
    const auto at =
        SimTime{static_cast<std::int64_t>(rng.below(2'000'000'000))};
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    const auto& paths = routing.paths(src, dst);
    const auto path = paths[rng.below(paths.size())].links;
    const auto size =
        static_cast<std::int64_t>(1'000'000 + rng.below(400'000'000));
    const double weight = rng.uniform(0.5, 3.0);
    sim.at(at, [&fabric, &log, i, src, dst, path, size, weight] {
      FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = Bytes{size};
      spec.path = path;
      spec.weight = weight;
      fabric.start_flow(spec, [&log, i](FlowId, SimTime t) {
        log.emplace_back(i, t.ns());
      });
    });
  }

  // CBR pulse on a cross-rack path.
  const auto& cbr_paths = routing.paths(hosts[0], hosts[8]);
  sim.at(SimTime::from_seconds(0.3), [&fabric, &cbr_paths] {
    const CbrId id = fabric.start_cbr(cbr_paths[0].links, BitsPerSec{6e9});
    fabric.simulation().at(SimTime::from_seconds(1.2),
                           [&fabric, id] { fabric.stop_cbr(id); });
  });

  // Fail + restore one spine uplink.
  const LinkId victim = cbr_paths[1].links[1];
  sim.at(SimTime::from_seconds(0.5), [&fabric, victim] {
    fabric.fail_link(victim);
  });
  sim.at(SimTime::from_seconds(0.9), [&fabric, victim] {
    fabric.restore_link(victim);
  });

  // Reroute and reweight the pinned flows mid-flight.
  sim.at(SimTime::from_seconds(0.7), [&fabric, &routing, pinned] {
    for (FlowId f : pinned) {
      if (!fabric.flow_active(f)) continue;
      const auto& spec = fabric.flow(f).spec;
      const auto& alts = routing.paths(spec.src, spec.dst);
      fabric.reroute_flow(f, alts[alts.size() - 1].links);
    }
  });
  sim.at(SimTime::from_seconds(1.1), [&fabric, pinned] {
    for (FlowId f : pinned) {
      if (fabric.flow_active(f)) fabric.set_flow_weight(f, 2.5);
    }
  });

  sim.run();
  return log;
}

class IncrementalDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalDifferential, ChurnCompletionsBitIdentical) {
  const std::uint64_t seed = GetParam();
  const CompletionLog incremental = run_churn(RateEngine::kIncremental, seed);
  const CompletionLog full = run_churn(RateEngine::kFullRecompute, seed);
  ASSERT_EQ(incremental.size(), full.size());
  for (std::size_t i = 0; i < incremental.size(); ++i) {
    EXPECT_EQ(incremental[i].first, full[i].first) << "completion order @" << i;
    EXPECT_EQ(incremental[i].second, full[i].second)
        << "completion time of flow " << incremental[i].first;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferential,
                         ::testing::Values(1u, 2u, 7u, 42u, 1234u));

TEST(IncrementalDifferential, RatesBitIdenticalUnderSnapshots) {
  // Freeze both fabrics mid-churn at several instants and compare every
  // active flow's rate bitwise.
  for (const double at_s : {0.4, 0.8, 1.15}) {
    LeafSpineConfig cfg;
    cfg.racks = 2;
    cfg.servers_per_rack = 5;
    cfg.spines = 4;
    const Topology topo = make_leaf_spine(cfg);
    const RoutingGraph routing(topo, cfg.spines);
    auto build = [&](sim::Simulation& sim, Fabric& fabric) {
      util::Xoshiro256 rng(99);
      const auto hosts = topo.hosts();
      for (int i = 0; i < 40; ++i) {
        const NodeId src = hosts[rng.below(hosts.size())];
        NodeId dst = src;
        while (dst == src) dst = hosts[rng.below(hosts.size())];
        const auto& paths = routing.paths(src, dst);
        FlowSpec spec;
        spec.src = src;
        spec.dst = dst;
        spec.size = Bytes{static_cast<std::int64_t>(
            5'000'000 + rng.below(900'000'000))};
        spec.path = paths[rng.below(paths.size())].links;
        spec.weight = rng.uniform(0.5, 4.0);
        sim.at(SimTime{static_cast<std::int64_t>(rng.below(1'000'000'000))},
               [&fabric, spec] { fabric.start_flow(spec); });
      }
      sim.run_until(SimTime::from_seconds(at_s));
    };
    sim::Simulation sim_a;
    Fabric inc(sim_a, topo, FabricConfig{RateEngine::kIncremental});
    build(sim_a, inc);
    sim::Simulation sim_b;
    Fabric full(sim_b, topo, FabricConfig{RateEngine::kFullRecompute});
    build(sim_b, full);

    const auto active_a = inc.active_flows();
    const auto active_b = full.active_flows();
    ASSERT_EQ(active_a.size(), active_b.size());
    for (std::size_t i = 0; i < active_a.size(); ++i) {
      const auto& fa = inc.flow(active_a[i]);
      const auto& fb = full.flow(active_b[i]);
      EXPECT_TRUE(fa.rate == fb.rate)  // bitwise, not approximate
          << "flow " << i << " at t=" << at_s << ": " << fa.rate.bps()
          << " vs " << fb.rate.bps();
      EXPECT_EQ(fa.remaining_bytes, fb.remaining_bytes);
    }
  }
}

TEST(IncrementalDifferential, QuickstartSurfaceIdentical) {
  // The quickstart's scenario shape (two-rack, oversubscribed, sort job)
  // must complete at the exact same instant under both engines.
  auto run = [](RateEngine engine) {
    exp::ScenarioConfig cfg;
    cfg.seed = 42;
    cfg.scheduler = exp::SchedulerKind::kEcmp;
    cfg.background.oversubscription = 10.0;
    cfg.rate_engine = engine;
    exp::Scenario scenario(cfg);
    const auto result =
        scenario.run_job(workloads::sort_job(Bytes{2'000'000'000}, 4));
    return result.completion_time().ns();
  };
  EXPECT_EQ(run(RateEngine::kIncremental), run(RateEngine::kFullRecompute));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// What the dense-component churn saw on the incremental arm.
struct DenseChurnCoverage {
  int events = 0;
  int exact_fills_before_dense = 0;  // exact BFS fills, >= 16 active flows
  int dense_fills = 0;               // fills that took the dense fallback
  int exact_fills_after_dense = 0;   // the same, since the last dense fill
  int emptied_in_dense = 0;          // links emptied by a dense-fill event
};

/// Schedules the dense-component churn on one fabric. Two flows per host to
/// its two next rack neighbours give rack-sized components; a wave of
/// cross-rack flows then couples every rack through the spines into one
/// component holding most active flows, and its departures split it back
/// into rack-local ones. Weights come from {1, 2, 3} and capacities are
/// equal, so bottleneck ties are common and the fill's link order matters.
void schedule_dense_churn(sim::Simulation& sim, Fabric& fabric,
                          const Topology& topo, const RoutingGraph& routing,
                          std::size_t servers_per_rack, std::uint64_t seed,
                          CompletionLog& log) {
  util::Xoshiro256 rng(seed);
  const auto hosts = topo.hosts();
  const std::size_t racks = hosts.size() / servers_per_rack;
  int tag = 0;
  auto at = [&](double t_s, NodeId src, NodeId dst, std::int64_t size) {
    const auto& paths = routing.paths(src, dst);
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{size};
    spec.path = paths[rng.below(paths.size())].links;
    spec.cls = static_cast<FlowClass>(rng.below(4));
    spec.weight = 1.0 + static_cast<double>(rng.below(3));
    const int t = tag++;
    sim.at(SimTime::from_seconds(t_s), [&fabric, &log, spec, t] {
      fabric.start_flow(spec, [&log, t](FlowId, SimTime done) {
        log.emplace_back(t, done.ns());
      });
    });
  };

  // Rack-local flows, staggered over the first 0.2 s; they outlive the
  // cross-rack wave so the fabric ends with rack-sized components again.
  for (std::size_t r = 0; r < racks; ++r) {
    for (std::size_t s = 0; s < servers_per_rack; ++s) {
      const NodeId src = hosts[r * servers_per_rack + s];
      for (std::size_t hop = 1; hop <= 2; ++hop) {
        const NodeId dst =
            hosts[r * servers_per_rack + (s + hop) % servers_per_rack];
        at(rng.uniform(0.0, 0.2), src, dst,
           static_cast<std::int64_t>(1'500'000'000 + rng.below(1'500'000'000)));
      }
    }
  }
  // The cross-rack wave: starts over 0.3-0.5 s, short enough to drain
  // while the rack-local flows are still running.
  for (int i = 0; i < 28; ++i) {
    const std::size_t src_idx = rng.below(hosts.size());
    std::size_t dst_idx = src_idx;
    while (dst_idx / servers_per_rack == src_idx / servers_per_rack) {
      dst_idx = rng.below(hosts.size());
    }
    at(rng.uniform(0.3, 0.5), hosts[src_idx], hosts[dst_idx],
       static_cast<std::int64_t>(20'000'000 + rng.below(280'000'000)));
  }
  // A few late rack-local starts land after the wave has drained.
  for (int i = 0; i < 6; ++i) {
    const std::size_t r = rng.below(racks);
    const std::size_t s = rng.below(servers_per_rack);
    at(rng.uniform(3.0, 3.5), hosts[r * servers_per_rack + s],
       hosts[r * servers_per_rack + (s + 3) % servers_per_rack],
       static_cast<std::int64_t>(100'000'000 + rng.below(400'000'000)));
  }
  // Background CBR along one cross-rack path while the wave runs, so
  // utilization reads mix CBR and elastic load.
  const auto cbr_path = routing.paths(hosts[0], hosts.back())[0].links;
  sim.at(SimTime::from_seconds(0.35), [&fabric, cbr_path] {
    const CbrId id = fabric.start_cbr(cbr_path, BitsPerSec{3e9});
    fabric.simulation().at(SimTime::from_seconds(0.9),
                           [&fabric, id] { fabric.stop_cbr(id); });
  });
}

/// Runs the dense-component churn on an incremental and a full-recompute
/// fabric in lockstep, one event at a time, and after every event compares
/// completions, every active flow's rate bits, and every link's elastic,
/// per-class and utilization bits. Returns what the incremental arm covered.
DenseChurnCoverage run_dense_churn_lockstep(std::uint64_t seed) {
  LeafSpineConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 6;
  cfg.spines = 3;
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph routing(topo, cfg.spines);

  sim::Simulation sim_inc(seed);
  sim::Simulation sim_full(seed);
  Fabric inc(sim_inc, topo, FabricConfig{RateEngine::kIncremental});
  Fabric full(sim_full, topo, FabricConfig{RateEngine::kFullRecompute});
  CompletionLog log_inc;
  CompletionLog log_full;
  schedule_dense_churn(sim_inc, inc, topo, routing, cfg.servers_per_rack, seed,
                       log_inc);
  schedule_dense_churn(sim_full, full, topo, routing, cfg.servers_per_rack,
                       seed, log_full);

  DenseChurnCoverage cov;
  std::vector<char> busy(topo.link_count(), 0);
  while (true) {
    const FabricCounters before = inc.counters();
    const std::size_t ran_inc = sim_inc.run(1);
    const std::size_t ran_full = sim_full.run(1);
    EXPECT_EQ(ran_inc, ran_full);
    if (ran_inc == 0 || ran_full == 0) break;
    ++cov.events;
    const std::string where = "seed " + std::to_string(seed) + ", event " +
                              std::to_string(cov.events);
    EXPECT_EQ(sim_inc.now(), sim_full.now()) << where;
    EXPECT_EQ(log_inc, log_full) << where;

    const auto active_inc = inc.active_flows();
    const auto active_full = full.active_flows();
    EXPECT_EQ(active_inc, active_full) << where;
    if (active_inc != active_full) break;
    for (FlowId id : active_inc) {
      EXPECT_EQ(bits(inc.flow(id).rate.bps()), bits(full.flow(id).rate.bps()))
          << where << ", flow " << id.value();
    }

    const FabricCounters& after = inc.counters();
    const bool dense = after.full_fills > before.full_fills;
    for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
      const LinkId link{l};
      const double elastic = inc.link_elastic_rate(link).bps();
      EXPECT_EQ(bits(elastic), bits(full.link_elastic_rate(link).bps()))
          << where << ", link " << l;
      for (std::size_t c = 0; c < 4; ++c) {
        const auto cls = static_cast<FlowClass>(c);
        EXPECT_EQ(bits(inc.link_class_rate(link, cls).bps()),
                  bits(full.link_class_rate(link, cls).bps()))
            << where << ", link " << l << ", class " << c;
      }
      EXPECT_EQ(bits(inc.link_utilization(link)),
                bits(full.link_utilization(link)))
          << where << ", link " << l;
      const bool now_busy = !inc.flows_crossing(link).empty();
      if (busy[l] && !now_busy) {
        // The link's last flow just left: its sum must read exactly +0.0.
        EXPECT_EQ(bits(elastic), bits(0.0)) << where << ", link " << l;
        if (dense) ++cov.emptied_in_dense;
      }
      busy[l] = now_busy ? 1 : 0;
    }

    if (after.recomputes == before.recomputes ||
        after.flows_touched == before.flows_touched) {
      continue;  // no fill ran, or it had no flows to place
    }
    if (dense) {
      ++cov.dense_fills;
      cov.exact_fills_after_dense = 0;
    } else if (inc.active_flow_count() >= 16) {
      if (cov.dense_fills == 0) {
        ++cov.exact_fills_before_dense;
      } else {
        ++cov.exact_fills_after_dense;
      }
    }
  }
  EXPECT_EQ(log_inc.size(), inc.flows_started());
  return cov;
}

class DenseComponentOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DenseComponentOracle, EveryEventMatchesFullRecompute) {
  const DenseChurnCoverage cov = run_dense_churn_lockstep(GetParam());
  // The churn must cross the half-active bound in both directions and empty
  // a link inside a dense fill, or the comparisons above prove nothing new.
  EXPECT_GT(cov.exact_fills_before_dense, 0);
  EXPECT_GT(cov.dense_fills, 0);
  EXPECT_GT(cov.exact_fills_after_dense, 0);
  EXPECT_GT(cov.emptied_in_dense, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseComponentOracle,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST(IncrementalCounters, DenseComponentTouchesEveryBusyLink) {
  // Eight cross-rack flows share rack 0's spine uplink; eight rack-local
  // flows in rack 2 form eight one-flow components. A ninth cross-rack start
  // joins a component holding 9 of 17 active flows, so the fill takes the
  // dense fallback and touches every busy link and every active flow.
  LeafSpineConfig cfg;
  cfg.racks = 3;
  cfg.servers_per_rack = 8;
  cfg.spines = 1;
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph routing(topo, 1);
  sim::Simulation sim;
  Fabric fabric(sim, topo, FabricConfig{RateEngine::kIncremental});
  const auto hosts = topo.hosts();
  auto start = [&](NodeId src, NodeId dst) {
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{10'000'000'000};
    spec.path = routing.paths(src, dst)[0].links;
    fabric.start_flow(spec);
  };
  for (std::size_t i = 0; i < 8; ++i) start(hosts[i], hosts[8 + i]);
  for (std::size_t i = 0; i < 8; ++i) {
    const auto before = fabric.counters();
    start(hosts[16 + i], hosts[16 + (i + 1) % 8]);
    const auto after = fabric.counters();
    // Each rack-local start stays an exact one-flow component.
    EXPECT_EQ(after.flows_touched - before.flows_touched, 1u);
    EXPECT_EQ(after.full_fills, before.full_fills);
  }
  ASSERT_EQ(fabric.active_flow_count(), 16u);

  const auto before = fabric.counters();
  start(hosts[0], hosts[9]);
  const auto after = fabric.counters();
  std::size_t busy_links = 0;
  for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
    if (!fabric.flows_crossing(LinkId{l}).empty()) ++busy_links;
  }
  EXPECT_EQ(after.links_touched - before.links_touched, busy_links);
  EXPECT_EQ(after.flows_touched - before.flows_touched, 17u);
  EXPECT_EQ(after.full_fills - before.full_fills, 1u);
  EXPECT_LT(busy_links, topo.link_count());  // not a whole-fabric BFS
}

TEST(IncrementalCounters, DisjointComponentsStayUntouched) {
  // Two flows in different racks share no link; starting the second must not
  // revisit the first one's links.
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 4;
  cfg.spines = 2;
  const Topology topo = make_leaf_spine(cfg);
  sim::Simulation sim;
  Fabric fabric(sim, topo, FabricConfig{RateEngine::kIncremental});
  const auto hosts = topo.hosts();

  auto intra_rack = [&](NodeId a, NodeId b) {
    const NodeId tor = topo.link(topo.out_links(a)[0]).dst;
    return std::vector<LinkId>{*topo.find_link(a, tor),
                               *topo.find_link(tor, b)};
  };
  FlowSpec f1;
  f1.src = hosts[0];
  f1.dst = hosts[1];
  f1.size = Bytes{1'000'000'000};
  f1.path = intra_rack(hosts[0], hosts[1]);
  fabric.start_flow(f1);
  const auto after_first = fabric.counters();

  FlowSpec f2;
  f2.src = hosts[4];  // other rack
  f2.dst = hosts[5];
  f2.size = Bytes{1'000'000'000};
  f2.path = intra_rack(hosts[4], hosts[5]);
  fabric.start_flow(f2);
  const auto after_second = fabric.counters();

  // The second start dirtied exactly its own two links, and the component
  // closure contains exactly one flow.
  EXPECT_EQ(after_second.links_touched - after_first.links_touched, 2u);
  EXPECT_EQ(after_second.flows_touched - after_first.flows_touched, 1u);
  EXPECT_EQ(after_second.full_fills, after_first.full_fills);
}

TEST(IncrementalCounters, CleanRecomputeIsFree) {
  LeafSpineConfig cfg;
  const Topology topo = make_leaf_spine(cfg);
  sim::Simulation sim;
  Fabric fabric(sim, topo);
  const auto hosts = topo.hosts();
  const RoutingGraph routing(topo, 2);
  FlowSpec spec;
  spec.src = hosts[0];
  spec.dst = hosts[6];
  spec.size = Bytes{10'000'000'000};
  spec.path = routing.paths(spec.src, spec.dst)[0].links;
  fabric.start_flow(spec);

  const auto before = fabric.counters();
  fabric.settle_and_recompute();  // probe accounting point, nothing dirty
  const auto after = fabric.counters();
  EXPECT_EQ(after.links_touched, before.links_touched);
  EXPECT_EQ(after.flows_touched, before.flows_touched);
}

}  // namespace
}  // namespace pythia::net
