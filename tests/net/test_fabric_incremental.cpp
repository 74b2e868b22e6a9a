// Differential validation of the incremental rate engine: every scenario is
// replayed on two fabrics — RateEngine::kIncremental vs kFullRecompute — and
// the observable outcomes (flow completion instants, sampled rates, delivered
// bytes) must match bit-for-bit. Both engines share the progressive-fill
// arithmetic and canonical orderings, so any divergence is a bug in the
// dirty-set component tracking. DenseComponentOracle runs the two fabrics in
// lockstep through a churn that crosses the dense-component fallback bound
// both ways and also compares every link's rate sums after every event.
// WarmStartOracle does the same through a churn aimed at the dense fill's
// warm start, and checks every warm start's reused rounds against a
// reference progressive fill.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
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

/// Compares two fabrics run in lockstep after one event: completions, the
/// active set, every active flow's rate bits, and every link's elastic,
/// per-class and utilization bits. Returns false if the active sets differ.
bool expect_same_fabric(const Fabric& inc, const Fabric& full,
                        const CompletionLog& log_inc,
                        const CompletionLog& log_full,
                        const std::string& where) {
  EXPECT_EQ(log_inc, log_full) << where;
  const auto active = inc.active_flows();
  EXPECT_EQ(active, full.active_flows()) << where;
  if (active != full.active_flows()) return false;
  for (FlowId id : active) {
    EXPECT_EQ(bits(inc.flow(id).rate.bps()), bits(full.flow(id).rate.bps()))
        << where << ", flow " << id.value();
  }
  for (std::uint32_t l = 0; l < inc.topology().link_count(); ++l) {
    const LinkId link{l};
    EXPECT_EQ(bits(inc.link_elastic_rate(link).bps()),
              bits(full.link_elastic_rate(link).bps()))
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
  }
  return true;
}

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
    if (!expect_same_fabric(inc, full, log_inc, log_full, where)) break;

    const FabricCounters& after = inc.counters();
    const bool dense = after.full_fills > before.full_fills;
    for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
      const LinkId link{l};
      const bool now_busy = !inc.flows_crossing(link).empty();
      if (busy[l] && !now_busy) {
        // The link's last flow just left: its sum must read exactly +0.0.
        EXPECT_EQ(bits(inc.link_elastic_rate(link).bps()), bits(0.0))
            << where << ", link " << l;
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

/// The fabric state a progressive fill reads: every active flow's path and
/// weight by id, and every link's elastic headroom, CBR load and state.
struct FillInput {
  struct FlowIn {
    std::vector<LinkId> path;
    double weight = 1.0;
  };
  std::map<std::uint32_t, FlowIn> flows;
  std::vector<double> headroom;
  std::vector<double> cbr;
  std::vector<char> up;
};

FillInput fill_input(const Fabric& fabric) {
  FillInput in;
  for (FlowId id : fabric.active_flows()) {
    const Flow& f = fabric.flow(id);
    in.flows[id.value()] = {f.spec.path, f.spec.weight};
  }
  for (std::uint32_t l = 0; l < fabric.topology().link_count(); ++l) {
    in.headroom.push_back(fabric.link_residual_capacity(LinkId{l}).bps());
    in.cbr.push_back(fabric.link_cbr_load(LinkId{l}).bps());
    in.up.push_back(fabric.link_up(LinkId{l}) ? 1 : 0);
  }
  return in;
}

/// The links a mutation between two fill inputs dirtied: every link of a
/// started, completed or reweighted flow, both paths of a rerouted one, and
/// every link whose CBR load or up state changed.
std::vector<char> dirtied_links(const FillInput& before,
                                const FillInput& after) {
  std::vector<char> dirty(before.up.size(), 0);
  auto mark = [&dirty](const std::vector<LinkId>& path) {
    for (LinkId l : path) dirty[l.value()] = 1;
  };
  for (const auto& [id, f] : before.flows) {
    const auto it = after.flows.find(id);
    if (it == after.flows.end() || it->second.weight != f.weight) {
      mark(f.path);
    } else if (it->second.path != f.path) {
      mark(f.path);
      mark(it->second.path);
    }
  }
  for (const auto& [id, f] : after.flows) {
    if (!before.flows.contains(id)) mark(f.path);
  }
  for (std::size_t l = 0; l < dirty.size(); ++l) {
    if (before.cbr[l] != after.cbr[l] || before.up[l] != after.up[l]) {
      dirty[l] = 1;
    }
  }
  return dirty;
}

/// One round of a reference progressive fill.
struct RefRound {
  std::uint32_t bottleneck = 0;
  double share = 0.0;                 // as scanned, before the clamp
  std::vector<std::uint32_t> frozen;  // ascending flow ids
  bool dirty_tie_above = false;  // a dirty link ties `share` at a higher id
};

/// An independent weighted progressive fill over every link and flow, in
/// the operation order the fabric's fills share (ascending flow ids, first
/// lowest share in ascending link order), recording each round.
std::vector<RefRound> reference_fill(const FillInput& in,
                                     const std::vector<char>& dirty) {
  const std::size_t links = in.headroom.size();
  std::vector<double> residual = in.headroom;
  std::vector<double> weight(links, 0.0);
  std::vector<std::uint32_t> count(links, 0);
  for (const auto& [id, f] : in.flows) {
    for (LinkId l : f.path) {
      weight[l.value()] += f.weight;
      ++count[l.value()];
    }
  }
  auto share_of = [&](std::size_t l) {
    return residual[l] / std::max(weight[l], 1e-12);
  };
  std::set<std::uint32_t> fixed;
  std::vector<RefRound> rounds;
  while (fixed.size() < in.flows.size()) {
    RefRound round;
    round.share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < links; ++l) {
      if (count[l] == 0) continue;
      if (share_of(l) < round.share) {
        round.share = share_of(l);
        round.bottleneck = static_cast<std::uint32_t>(l);
      }
    }
    for (std::size_t l = round.bottleneck + 1; l < links; ++l) {
      if (dirty[l] && count[l] > 0 && share_of(l) == round.share) {
        round.dirty_tie_above = true;
      }
    }
    const double share = round.share < 0.0 ? 0.0 : round.share;
    for (const auto& [id, f] : in.flows) {
      if (fixed.contains(id)) continue;
      const bool crosses =
          std::any_of(f.path.begin(), f.path.end(), [&](LinkId l) {
            return l.value() == round.bottleneck;
          });
      if (!crosses) continue;
      fixed.insert(id);
      round.frozen.push_back(id);
      const double rate = share * f.weight;
      for (LinkId l : f.path) {
        const std::uint32_t lv = l.value();
        residual[lv] = std::max(0.0, residual[lv] - rate);
        weight[lv] = std::max(0.0, weight[lv] - f.weight);
        --count[lv];
      }
    }
    rounds.push_back(std::move(round));
  }
  return rounds;
}

bool same_round(const RefRound& a, const RefRound& b) {
  return a.bottleneck == b.bottleneck && bits(a.share) == bits(b.share) &&
         a.frozen == b.frozen;
}

/// How the warm starts of a churn ended, and which mutations they absorbed.
struct WarmStartCoverage {
  int warm_fills = 0;         // dense fills right after a dense fill
  int cold_after_component = 0;  // dense fills right after a component fill
  int reused_rounds = 0;
  int exit_dirty_bottleneck = 0;
  int exit_undercut = 0;      // a dirty link below the recorded share
  int exit_tie_lower_id = 0;  // a dirty link at it, with a lower id
  int passed_tie_higher_id = 0;  // one at it with a higher id: no exit
  int full_reuse = 0;            // every recorded round replayed
  int reroutes = 0;
  int reweights = 0;
  int cbr_starts = 0;
  int cbr_stops = 0;
  int link_fails = 0;
  int link_restores = 0;
  int recycled_slots = 0;
};

/// What one scheduled churn event does.
enum class ChurnOp {
  kStart,
  kQuietStart,
  kIsolatedStart,
  kReroute,
  kReweight,
  kCbr,
  kFail,
};

/// Schedules the warm-start churn on one fabric: long flows with weights
/// {1, 2, 3} over equal-capacity links (so shares tie exactly), then one
/// mutation every 20 ms. Host 23 stays idle, so no exact component fill
/// spans every link and `full_fills` counts dense fills only; hosts 5 and
/// 11 only ever carry "quiet" flows that join the dense component through
/// lightly loaded links; hosts 21 and 22 only exchange isolated rack-local
/// flows, whose fills are component fills. Decisions read the fabric, so
/// both lockstep arms make the same ones.
void schedule_warm_churn(sim::Simulation& sim, Fabric& fabric,
                         const RoutingGraph& routing, std::uint64_t seed,
                         CompletionLog& log) {
  const auto hosts = fabric.topology().hosts();
  std::vector<NodeId> churn_hosts;
  for (std::size_t h = 0; h < 21; ++h) {
    if (h != 5 && h != 11) churn_hosts.push_back(hosts[h]);
  }
  auto start = [&fabric, &routing, &log](util::Xoshiro256& rng, NodeId src,
                                         NodeId dst, std::int64_t size) {
    const auto& paths = routing.paths(src, dst);
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{size};
    spec.path = paths[rng.below(paths.size())].links;
    spec.cls = static_cast<FlowClass>(rng.below(4));
    spec.weight = 1.0 + static_cast<double>(rng.below(3));
    const int tag = static_cast<int>(fabric.flows_started());
    fabric.start_flow(spec, [&log, tag](FlowId, SimTime done) {
      log.emplace_back(tag, done.ns());
    });
  };
  auto pick_pair = [churn_hosts](util::Xoshiro256& rng) {
    const NodeId src = churn_hosts[rng.below(churn_hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = churn_hosts[rng.below(churn_hosts.size())];
    return std::pair{src, dst};
  };

  util::Xoshiro256 plan(seed);
  for (int i = 0; i < 24; ++i) {
    const std::uint64_t s = plan();
    sim.at(SimTime::from_seconds(0.01 * i), [=] {
      util::Xoshiro256 rng(s);
      const auto [src, dst] = pick_pair(rng);
      start(rng, src, dst,
            static_cast<std::int64_t>(3'000'000'000 + rng.below(2'000'000'000)));
    });
  }
  const std::vector<ChurnOp> menu = {
      ChurnOp::kStart,   ChurnOp::kStart,    ChurnOp::kStart,
      ChurnOp::kQuietStart, ChurnOp::kIsolatedStart, ChurnOp::kReroute,
      ChurnOp::kReroute, ChurnOp::kReweight, ChurnOp::kReweight,
      ChurnOp::kCbr,     ChurnOp::kFail};
  for (int i = 0; i < 150; ++i) {
    const ChurnOp op = menu[plan.below(menu.size())];
    const std::uint64_t s = plan();
    const SimTime at = SimTime::from_seconds(0.3 + 0.02 * i);
    sim.at(at, [=, &fabric, &routing] {
      util::Xoshiro256 rng(s);
      const auto active = fabric.active_flows();
      switch (op) {
        case ChurnOp::kStart: {
          const auto [src, dst] = pick_pair(rng);
          start(rng, src, dst,
                static_cast<std::int64_t>(20'000'000 + rng.below(200'000'000)));
          break;
        }
        case ChurnOp::kQuietStart:
          start(rng, hosts[5], hosts[11],
                static_cast<std::int64_t>(10'000'000 + rng.below(30'000'000)));
          break;
        case ChurnOp::kIsolatedStart:
          start(rng, hosts[21], hosts[22],
                static_cast<std::int64_t>(5'000'000 + rng.below(20'000'000)));
          break;
        case ChurnOp::kReroute: {
          if (active.empty()) break;
          const FlowId id = active[rng.below(active.size())];
          const Flow& f = fabric.flow(id);
          const auto& paths = routing.paths(f.spec.src, f.spec.dst);
          const auto& path = paths[rng.below(paths.size())].links;
          if (path != f.spec.path) fabric.reroute_flow(id, path);
          break;
        }
        case ChurnOp::kReweight: {
          if (active.empty()) break;
          const FlowId id = active[rng.below(active.size())];
          const double w = fabric.flow(id).spec.weight;
          fabric.set_flow_weight(id, w == 3.0 ? 1.0 : w + 1.0);
          break;
        }
        case ChurnOp::kCbr: {
          const auto [src, dst] = pick_pair(rng);
          const auto& paths = routing.paths(src, dst);
          const CbrId id = fabric.start_cbr(
              paths[rng.below(paths.size())].links,
              BitsPerSec{1e9 + 1e9 * static_cast<double>(rng.below(3))});
          fabric.simulation().after(Duration::from_seconds(0.07),
                                    [&fabric, id] { fabric.stop_cbr(id); });
          break;
        }
        case ChurnOp::kFail: {
          // A leaf-spine link: the last 2 * racks * spines links.
          const std::size_t n = fabric.topology().link_count();
          const LinkId victim{
              static_cast<std::uint32_t>(n - 1 - rng.below(24))};
          fabric.fail_link(victim);
          fabric.simulation().after(Duration::from_seconds(0.05),
                                    [&fabric, victim] {
                                      fabric.restore_link(victim);
                                    });
          break;
        }
      }
    });
  }
}

/// Runs the warm-start churn on an incremental and a full-recompute fabric
/// in lockstep. After every event it compares completions, every flow's
/// rate bits and every link's elastic, per-class and utilization bits.
/// After every dense fill it checks the fill's rounds against a reference
/// fill: a warm start must reuse exactly the recorded rounds before the
/// first one whose bottleneck is dirty or that the current state no longer
/// repeats, and every other dense fill must start cold.
void run_warm_churn_lockstep(std::uint64_t seed, WarmStartCoverage& cov) {
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
  schedule_warm_churn(sim_inc, inc, routing, seed, log_inc);
  schedule_warm_churn(sim_full, full, routing, seed, log_full);

  enum class LastFill { kNone, kComponent, kDense };
  LastFill last = LastFill::kNone;
  std::vector<RefRound> record;  // reference rounds of the last dense fill
  std::set<std::uint32_t> used_slots;
  FillInput before = fill_input(inc);
  for (int event = 1;; ++event) {
    const FabricCounters c0 = inc.counters();
    const std::size_t ran_inc = sim_inc.run(1);
    const std::size_t ran_full = sim_full.run(1);
    EXPECT_EQ(ran_inc, ran_full);
    if (ran_inc == 0 || ran_full == 0) break;
    const std::string where =
        "seed " + std::to_string(seed) + ", event " + std::to_string(event);
    EXPECT_EQ(sim_inc.now(), sim_full.now()) << where;
    if (!expect_same_fabric(inc, full, log_inc, log_full, where)) return;

    const FabricCounters& c1 = inc.counters();
    const FillInput after = fill_input(inc);
    const std::vector<char> dirty = dirtied_links(before, after);
    const std::uint64_t reused = c1.reused_rounds - c0.reused_rounds;
    const std::uint64_t ran = c1.fill_rounds - c0.fill_rounds;
    ASSERT_LE(c1.recomputes - c0.recomputes, 1u) << where;
    if (c1.links_touched == c0.links_touched) {  // no fill ran
      EXPECT_EQ(reused, 0u) << where;
      before = after;
      continue;
    }
    bool recycled = false;
    for (const auto& [id, f] : after.flows) {
      if (before.flows.contains(id)) continue;
      recycled = recycled || used_slots.contains(id);
      used_slots.insert(id);
    }
    if (c1.full_fills == c0.full_fills) {
      EXPECT_EQ(reused, 0u) << where;  // component fills never replay
      last = LastFill::kComponent;
      before = after;
      continue;
    }

    const std::vector<RefRound> now = reference_fill(after, dirty);
    for (const RefRound& round : now) {
      for (std::uint32_t id : round.frozen) {
        const double share = round.share < 0.0 ? 0.0 : round.share;
        EXPECT_EQ(bits(inc.flow(FlowId{id}).rate.bps()),
                  bits(share * after.flows.at(id).weight))
            << where << ": the reference fill disagrees, flow " << id;
      }
    }
    EXPECT_EQ(ran + reused, now.size()) << where;
    if (last != LastFill::kDense) {
      EXPECT_EQ(reused, 0u) << where << ": a cold dense fill reused rounds";
      if (last == LastFill::kComponent) ++cov.cold_after_component;
    } else {
      ++cov.warm_fills;
      std::size_t k = 0;
      while (k < record.size() && k < now.size() &&
             !dirty[record[k].bottleneck] && same_round(record[k], now[k])) {
        ++k;
      }
      EXPECT_EQ(reused, k) << where << " (recorded " << record.size()
                           << " rounds, now " << now.size() << ")";
      cov.reused_rounds += static_cast<int>(reused);
      if (k == record.size()) {
        ++cov.full_reuse;
      } else if (dirty[record[k].bottleneck]) {
        ++cov.exit_dirty_bottleneck;
      } else if (k < now.size() && dirty[now[k].bottleneck]) {
        if (now[k].share < record[k].share) {
          ++cov.exit_undercut;
        } else {
          EXPECT_EQ(bits(now[k].share), bits(record[k].share)) << where;
          EXPECT_LT(now[k].bottleneck, record[k].bottleneck) << where;
          ++cov.exit_tie_lower_id;
        }
      } else {
        ADD_FAILURE() << where << ": round " << k
                      << " diverged with a clean bottleneck";
      }
      if (std::any_of(now.begin(), now.begin() + static_cast<std::ptrdiff_t>(k),
                      [](const RefRound& r) { return r.dirty_tie_above; })) {
        ++cov.passed_tie_higher_id;
      }
      // One mutation per event: count the fills each kind fed.
      bool cbr_start = false;
      bool cbr_stop = false;
      bool fail = false;
      bool restore = false;
      for (std::size_t l = 0; l < dirty.size(); ++l) {
        cbr_start = cbr_start || before.cbr[l] < after.cbr[l];
        cbr_stop = cbr_stop || before.cbr[l] > after.cbr[l];
        fail = fail || (before.up[l] && !after.up[l]);
        restore = restore || (!before.up[l] && after.up[l]);
      }
      bool reroute = false;
      bool reweight = false;
      for (const auto& [id, f] : before.flows) {
        const auto it = after.flows.find(id);
        if (it == after.flows.end()) continue;
        reroute = reroute || it->second.path != f.path;
        reweight = reweight || it->second.weight != f.weight;
      }
      cov.cbr_starts += cbr_start;
      cov.cbr_stops += cbr_stop;
      cov.link_fails += fail;
      cov.link_restores += restore;
      cov.reroutes += reroute;
      cov.reweights += reweight;
      cov.recycled_slots += recycled;
    }
    last = LastFill::kDense;
    record = now;
    before = after;
  }
  EXPECT_EQ(log_inc.size(), inc.flows_started()) << "seed " << seed;
}

TEST(WarmStartOracle, EveryEventMatchesFullRecompute) {
  WarmStartCoverage cov;
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u}) {
    run_warm_churn_lockstep(seed, cov);
  }
  // Every exit of the replay, and every kind of mutation, must have been
  // exercised between two dense fills, or the comparisons prove nothing.
  EXPECT_GT(cov.warm_fills, 0);
  EXPECT_GT(cov.reused_rounds, 0);
  EXPECT_GT(cov.exit_dirty_bottleneck, 0);
  EXPECT_GT(cov.exit_undercut, 0);
  EXPECT_GT(cov.exit_tie_lower_id, 0);
  EXPECT_GT(cov.passed_tie_higher_id, 0);
  EXPECT_GT(cov.full_reuse, 0);
  EXPECT_GT(cov.reroutes, 0);
  EXPECT_GT(cov.reweights, 0);
  EXPECT_GT(cov.cbr_starts, 0);
  EXPECT_GT(cov.cbr_stops, 0);
  EXPECT_GT(cov.link_fails, 0);
  EXPECT_GT(cov.link_restores, 0);
  EXPECT_GT(cov.recycled_slots, 0);
  EXPECT_GT(cov.cold_after_component, 0);
}

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

TEST(IncrementalCounters, WarmStartReusesUnaffectedRounds) {
  // Sixteen cross-rack flows, one per host pair, over 10 Gb/s host links
  // and a spine that never binds: one dense component whose fill runs
  // sixteen rounds, round k freezing flow k on its uplink (all shares tie,
  // so the lowest link id wins). Halving flow k's weight doubles the share
  // of its own links only, so a warm start replays rounds 0..k-1 and runs
  // the rest. An isolated rack-local start in between is a component fill,
  // which drops the record: the next dense fill starts cold.
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 18;
  cfg.spines = 1;
  cfg.uplink = BitsPerSec{1e12};
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph routing(topo, 1);
  sim::Simulation sim_inc;
  sim::Simulation sim_full;
  Fabric inc(sim_inc, topo, FabricConfig{RateEngine::kIncremental});
  Fabric full(sim_full, topo, FabricConfig{RateEngine::kFullRecompute});
  const auto hosts = topo.hosts();
  std::vector<FlowId> cross;
  auto start = [&](NodeId src, NodeId dst) {
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{10'000'000'000};
    spec.path = routing.paths(src, dst)[0].links;
    full.start_flow(spec);
    return inc.start_flow(spec);
  };
  for (std::size_t i = 0; i < 16; ++i) {
    cross.push_back(start(hosts[i], hosts[18 + i]));
  }
  struct Step {
    std::uint64_t dense_fills;
    std::uint64_t reused;
    std::uint64_t ran;
    std::uint64_t oracle_ran;
  };
  auto step = [&](auto mutate) {
    const FabricCounters a0 = inc.counters();
    const FabricCounters b0 = full.counters();
    mutate();
    const FabricCounters& a1 = inc.counters();
    const FabricCounters& b1 = full.counters();
    for (FlowId id : inc.active_flows()) {
      EXPECT_EQ(bits(inc.flow(id).rate.bps()), bits(full.flow(id).rate.bps()))
          << "flow " << id.value();
    }
    return Step{a1.full_fills - a0.full_fills,
                a1.reused_rounds - a0.reused_rounds,
                a1.fill_rounds - a0.fill_rounds,
                b1.fill_rounds - b0.fill_rounds};
  };
  auto halve = [&](std::size_t k) {
    return step([&, k] {
      inc.set_flow_weight(cross[k], 0.5);
      full.set_flow_weight(cross[k], 0.5);
    });
  };

  const Step late = halve(15);
  EXPECT_EQ(late.dense_fills, 1u);
  EXPECT_EQ(late.oracle_ran, 16u);
  EXPECT_EQ(late.reused, 15u);
  EXPECT_EQ(late.ran, 1u);

  const Step isolated = step([&] { start(hosts[16], hosts[17]); });
  EXPECT_EQ(isolated.dense_fills, 0u);
  EXPECT_EQ(isolated.reused, 0u);

  const Step cold = halve(14);
  EXPECT_EQ(cold.dense_fills, 1u);
  EXPECT_EQ(cold.oracle_ran, 17u);
  EXPECT_EQ(cold.reused, 0u);
  EXPECT_EQ(cold.ran, 17u);

  const Step warm = halve(13);
  EXPECT_EQ(warm.dense_fills, 1u);
  EXPECT_EQ(warm.reused, 13u);
  EXPECT_EQ(warm.reused + warm.ran, warm.oracle_ran);
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
