// Validation of the fabric's warm fill. Every churn runs one fabric, one
// event at a time, and after every event compares each active flow's rate
// and each link's elastic, per-class and utilization bits with a reference
// progressive fill of the same state (net/maxmin_oracle.hpp), and checks
// the max-min certificate (net/maxmin_certificate.hpp). DenseComponentOracle
// drives a churn whose components merge and split; WarmStartOracle drives
// one aimed at the record walk and also checks each fill's replayed and
// live rounds against the walk that reference fills imply. The oracle only
// reads the fabric's own state, so it cannot see a completion deadline that
// is lost or late: completion logs, cut images and remaining bytes are
// pinned as FNV-1a hashes recorded when the warm fill and a full refill
// over every link agreed on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "experiments/scenario.hpp"
#include "net/fabric.hpp"
#include "net/maxmin_certificate.hpp"
#include "net/maxmin_oracle.hpp"
#include "net/routing.hpp"
#include "sim/image_hash.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "util/random.hpp"
#include "workloads/hibench.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;
using util::Duration;
using util::SimTime;
using maxmin::FillInput;
using maxmin::RefRound;
using maxmin::fill_input;
using maxmin::reference_fill;

/// (sequence number, completion instant) — flow ids are recycled, so the
/// start sequence is the stable identity.
using CompletionLog = std::vector<std::pair<int, std::int64_t>>;

/// Runs the simulation one event at a time up to `until`, checking the
/// fabric against the oracle and the certificate after each; returns the
/// number of events run.
int run_checked(sim::Simulation& sim, const Fabric& fabric, SimTime until,
                const std::string& where) {
  int events = 0;
  while (true) {
    const auto pending = sim.queue().pending_events();
    if (pending.empty() || pending.front().at > until) break;
    sim.run(1);
    ++events;
    const std::string at = where + ", event " + std::to_string(events);
    certificate::expect_matches_oracle(fabric, at);
    certificate::expect_maxmin(fabric, at);
  }
  return events;
}

/// Runs a seeded churn scenario — staggered randomized flow starts, a CBR
/// pulse, a link failure/restore, mid-flight reroutes and weight changes —
/// checking every event, and returns the completion log.
CompletionLog run_churn(std::uint64_t seed) {
  LeafSpineConfig cfg;
  cfg.racks = 3;
  cfg.servers_per_rack = 4;
  cfg.spines = 3;
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph routing(topo, cfg.spines);

  sim::Simulation sim(seed);
  Fabric fabric(sim, topo);
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
    spec.path = paths[0].to_vector();
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
    const auto path = paths[rng.below(paths.size())].to_vector();
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
    const CbrId id =
        fabric.start_cbr(cbr_paths[0].to_vector(), BitsPerSec{6e9});
    fabric.simulation().at(SimTime::from_seconds(1.2),
                           [&fabric, id] { fabric.stop_cbr(id); });
  });

  // Fail + restore one spine uplink.
  const LinkId victim = cbr_paths[1][1];
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
      fabric.reroute_flow(f, alts[alts.size() - 1].to_vector());
    }
  });
  sim.at(SimTime::from_seconds(1.1), [&fabric, pinned] {
    for (FlowId f : pinned) {
      if (fabric.flow_active(f)) fabric.set_flow_weight(f, 2.5);
    }
  });

  run_checked(sim, fabric, SimTime::max(), "seed " + std::to_string(seed));
  EXPECT_EQ(log.size(), fabric.flows_started());
  return log;
}

/// A churn seed and the FNV-1a of its completion log.
struct PinnedSeed {
  std::uint64_t seed;
  std::uint64_t completions;
};

class IncrementalDifferential : public ::testing::TestWithParam<PinnedSeed> {
};

TEST_P(IncrementalDifferential, ChurnCompletionsBitIdentical) {
  const PinnedSeed p = GetParam();
  const CompletionLog log = run_churn(p.seed);
  ASSERT_FALSE(log.empty());
  const std::uint64_t h = sim::completion_log_hash(log);
  EXPECT_EQ(h, p.completions) << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferential,
                         ::testing::Values(
                             PinnedSeed{1, 0x91e23d9d672d5aa5},
                             PinnedSeed{2, 0x512eb18637932a65},
                             PinnedSeed{7, 0xcfd39e8dba583d58},
                             PinnedSeed{42, 0x837f4b63cc238499},
                             PinnedSeed{1234, 0x1254871ae04e5f6e}));

TEST(IncrementalDifferential, RatesBitIdenticalUnderSnapshots) {
  // Freeze the fabric mid-churn at several instants, checking every event
  // on the way, and pin every active flow's rate and remaining bytes.
  const std::pair<double, std::uint64_t> cuts[] = {
      {0.4, 0x89c6df2c7f1bb77b},
      {0.8, 0x58b49089cf6c4cf9},
      {1.15, 0xb1df6c6c9768fc9d}};
  for (const auto& [at_s, pin] : cuts) {
    LeafSpineConfig cfg;
    cfg.racks = 2;
    cfg.servers_per_rack = 5;
    cfg.spines = 4;
    const Topology topo = make_leaf_spine(cfg);
    const RoutingGraph routing(topo, cfg.spines);
    sim::Simulation sim;
    Fabric fabric(sim, topo);
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
      spec.path = paths[rng.below(paths.size())].to_vector();
      spec.weight = rng.uniform(0.5, 4.0);
      sim.at(SimTime{static_cast<std::int64_t>(rng.below(1'000'000'000))},
             [&fabric, spec] { fabric.start_flow(spec); });
    }
    const SimTime at = SimTime::from_seconds(at_s);
    run_checked(sim, fabric, at, "t=" + std::to_string(at_s));
    sim.run_until(at);

    sim::StateEncoder enc;
    for (FlowId id : fabric.active_flows()) {
      enc.put_u32(id.value());
      enc.put_f64(fabric.flow(id).rate.bps());
      enc.put_f64(fabric.remaining_bytes(id));
    }
    EXPECT_EQ(sim::fnv1a(enc.bytes()), pin)
        << "t=" << at_s << ": " << std::hex << sim::fnv1a(enc.bytes());
  }
}

TEST(IncrementalDifferential, QuickstartSurfaceIdentical) {
  // The quickstart's scenario shape (two-rack, oversubscribed, sort job)
  // completes at the instant pinned when both fills agreed on it.
  exp::ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.scheduler = exp::SchedulerKind::kEcmp;
  cfg.background.oversubscription = 10.0;
  exp::Scenario scenario(cfg);
  const auto result =
      scenario.run_job(workloads::sort_job(Bytes{2'000'000'000}, 4));
  EXPECT_EQ(result.completion_time().ns(), 15'217'362'435);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// What the dense-component churn saw.
struct DenseChurnCoverage {
  int events = 0;
  int warm_fills = 0;  // fills that replayed recorded rounds
  int emptied = 0;     // links a fill emptied
  CompletionLog log;
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
    spec.path = paths[rng.below(paths.size())].to_vector();
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
  const auto cbr_path = routing.paths(hosts[0], hosts.back())[0].to_vector();
  sim.at(SimTime::from_seconds(0.35), [&fabric, cbr_path] {
    const CbrId id = fabric.start_cbr(cbr_path, BitsPerSec{3e9});
    fabric.simulation().at(SimTime::from_seconds(0.9),
                           [&fabric, id] { fabric.stop_cbr(id); });
  });
}

/// Runs the dense-component churn one event at a time, and after every
/// event checks the fabric against the oracle and the certificate. Returns
/// what the churn covered and its completion log.
DenseChurnCoverage run_dense_churn(std::uint64_t seed) {
  LeafSpineConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 6;
  cfg.spines = 3;
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph routing(topo, cfg.spines);

  sim::Simulation sim(seed);
  Fabric inc(sim, topo);
  DenseChurnCoverage cov;
  schedule_dense_churn(sim, inc, topo, routing, cfg.servers_per_rack, seed,
                       cov.log);

  std::vector<char> busy(topo.link_count(), 0);
  while (true) {
    const FabricCounters before = inc.counters();
    if (sim.run(1) == 0) break;
    ++cov.events;
    const std::string where = "seed " + std::to_string(seed) + ", event " +
                              std::to_string(cov.events);
    certificate::expect_matches_oracle(inc, where);
    certificate::expect_maxmin(inc, where);

    const FabricCounters& after = inc.counters();
    const bool filled = after.links_touched > before.links_touched;
    for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
      const LinkId link{l};
      const bool now_busy = !inc.flows_crossing(link).empty();
      if (busy[l] && !now_busy) {
        // The link's last flow just left: its sum must read exactly +0.0.
        EXPECT_EQ(bits(inc.link_elastic_rate(link).bps()), bits(0.0))
            << where << ", link " << l;
        if (filled) ++cov.emptied;
      }
      busy[l] = now_busy ? 1 : 0;
    }
    if (after.reused_rounds > before.reused_rounds) ++cov.warm_fills;
  }
  EXPECT_EQ(cov.log.size(), inc.flows_started());
  return cov;
}

class DenseComponentOracle : public ::testing::TestWithParam<PinnedSeed> {};

TEST_P(DenseComponentOracle, EveryEventMatchesOracle) {
  const PinnedSeed p = GetParam();
  const DenseChurnCoverage cov = run_dense_churn(p.seed);
  const std::uint64_t h = sim::completion_log_hash(cov.log);
  EXPECT_EQ(h, p.completions) << std::hex << h;
  // The churn must replay recorded rounds and empty a link inside a fill,
  // or the comparisons above prove nothing new.
  EXPECT_GT(cov.events, 0);
  EXPECT_GT(cov.warm_fills, 0);
  EXPECT_GT(cov.emptied, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseComponentOracle,
                         ::testing::Values(
                             PinnedSeed{1, 0x7a3a726c73b1f36b},
                             PinnedSeed{2, 0x6388cf4361a52c9c},
                             PinnedSeed{3, 0xfb4994550d8f83b2},
                             PinnedSeed{5, 0xbc6ef429016a019f},
                             PinnedSeed{8, 0x56d9b70814127932}));

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

bool same_round(const RefRound& a, const RefRound& b) {
  return a.bottleneck == b.bottleneck && bits(a.share) == bits(b.share) &&
         a.frozen == b.frozen;
}

/// One fill's rounds as the record walk must classify them, derived from
/// reference fills alone: `record` holds the previous fill's rounds, `now`
/// this fill's, and `dirty` the links the change dirtied.
struct WalkModel {
  int replayed = 0;
  int live = 0;
  int superseded = 0;
  std::size_t live_flows = 0;  // flows the live rounds froze
  std::size_t affected = 0;    // |A| at the end
  int replay_after_live = 0;   // a replay after a live round
  int replay_on_affected = 0;  // a replay whose freezes cross A
  int tie_replay_won = 0;      // equal shares, the recorded id lower
  int tie_live_won = 0;        // equal shares, the A link's id lower
};

WalkModel model_walk(const std::vector<RefRound>& record,
                     const std::vector<RefRound>& now,
                     const std::vector<char>& dirty, const std::string& where) {
  WalkModel m;
  std::vector<char> affected = dirty;
  auto join = [&affected](const RefRound& r) {
    for (std::uint32_t l : r.touched) affected[l] = 1;
  };
  std::size_t k = 0;
  auto supersede = [&] {
    for (; k < record.size() && affected[record[k].bottleneck]; ++k) {
      join(record[k]);
      ++m.superseded;
    }
  };
  for (std::size_t i = 0; i < now.size(); ++i) {
    supersede();
    // A's lowest (share, id) link with unfixed flows before round i.
    std::uint32_t low = 0;
    double low_share = std::numeric_limits<double>::infinity();
    for (std::uint32_t l = 0; l < affected.size(); ++l) {
      if (affected[l] && now[i].link_shares[l] < low_share) {
        low = l;
        low_share = now[i].link_shares[l];
      }
    }
    const bool tie = k < record.size() && low_share == record[k].share;
    if (k < record.size() && same_round(record[k], now[i])) {
      m.tie_replay_won += tie;
      m.replay_after_live += m.live > 0;
      m.replay_on_affected +=
          std::any_of(record[k].touched.begin(), record[k].touched.end(),
                      [&affected](std::uint32_t l) { return affected[l]; });
      ++m.replayed;
      ++k;
    } else {
      EXPECT_TRUE(affected[now[i].bottleneck])
          << where << ": round " << i << " ran outside the affected set";
      EXPECT_EQ(now[i].bottleneck, low) << where << ", round " << i;
      m.tie_live_won += tie;
      join(now[i]);
      ++m.live;
      m.live_flows += now[i].frozen.size();
    }
  }
  supersede();
  EXPECT_EQ(k, record.size())
      << where << ": a recorded round was neither replayed nor superseded";
  m.affected = static_cast<std::size_t>(
      std::count(affected.begin(), affected.end(), 1));
  return m;
}

/// What the record walks of a churn covered, and which mutations fed a fill
/// that replayed rounds.
struct WarmStartCoverage {
  int warm_fills = 0;  // fills that replayed at least one round
  int reused_rounds = 0;
  int superseded = 0;
  int replay_after_live = 0;
  int replay_on_affected = 0;
  int tie_replay_won = 0;
  int tie_live_won = 0;
  int full_reuse = 0;  // every recorded round replayed
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
/// mutation every 20 ms. Hosts 5 and 11 only ever carry "quiet" flows that
/// join the busy links through lightly loaded ones; hosts 21 and 22 only
/// exchange isolated rack-local flows, which every other round outlives.
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
    spec.path = paths[rng.below(paths.size())].to_vector();
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
          const auto& path = paths[rng.below(paths.size())].to_vector();
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
              paths[rng.below(paths.size())].to_vector(),
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

/// Runs the warm-start churn one event at a time. After every event it
/// checks the fabric against the oracle and the certificate. After every
/// fill it checks the fill's round count against a reference fill, and its
/// replayed and live rounds, |A| and live freezes against the walk the
/// reference fills of this and the previous fill imply. Completions go to
/// `log`.
void run_warm_churn(std::uint64_t seed, WarmStartCoverage& cov,
                    CompletionLog& log) {
  LeafSpineConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 6;
  cfg.spines = 3;
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph routing(topo, cfg.spines);

  sim::Simulation sim(seed);
  Fabric inc(sim, topo);
  schedule_warm_churn(sim, inc, routing, seed, log);

  bool have_record = false;
  std::vector<RefRound> record;  // reference rounds of the last fill
  std::set<std::uint32_t> used_slots;
  FillInput before = fill_input(inc);
  for (int event = 1;; ++event) {
    const FabricCounters c0 = inc.counters();
    if (sim.run(1) == 0) break;
    const std::string where =
        "seed " + std::to_string(seed) + ", event " + std::to_string(event);
    certificate::expect_matches_oracle(inc, where);
    certificate::expect_maxmin(inc, where);

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

    const std::vector<RefRound> now = reference_fill(after);
    EXPECT_EQ(ran + reused, now.size()) << where;
    if (c1.full_fills != c0.full_fills) {
      // Only the first fill has no record; it runs every round live.
      EXPECT_FALSE(have_record) << where;
      EXPECT_EQ(reused, 0u) << where;
    } else {
      ASSERT_TRUE(have_record) << where;
      // At least the rounds before the first one the change reaches, and
      // at most the recorded rounds that recur unchanged.
      std::size_t prefix = 0;
      while (prefix < record.size() && prefix < now.size() &&
             !dirty[record[prefix].bottleneck] &&
             same_round(record[prefix], now[prefix])) {
        ++prefix;
      }
      const auto recurring = static_cast<std::size_t>(std::count_if(
          record.begin(), record.end(), [&now](const RefRound& r) {
            return std::any_of(now.begin(), now.end(),
                               [&r](const RefRound& n) {
                                 return same_round(r, n);
                               });
          }));
      EXPECT_LE(prefix, reused) << where;
      EXPECT_LE(reused, recurring) << where;

      const WalkModel m = model_walk(record, now, dirty, where);
      EXPECT_EQ(reused, static_cast<std::uint64_t>(m.replayed)) << where;
      EXPECT_EQ(ran, static_cast<std::uint64_t>(m.live)) << where;
      EXPECT_EQ(c1.flows_touched - c0.flows_touched, m.live_flows) << where;
      EXPECT_EQ(c1.links_touched - c0.links_touched, m.affected) << where;
      cov.superseded += m.superseded;
      cov.replay_after_live += m.replay_after_live;
      cov.replay_on_affected += m.replay_on_affected;
      cov.tie_replay_won += m.tie_replay_won;
      cov.tie_live_won += m.tie_live_won;
    }
    if (reused > 0) {
      ++cov.warm_fills;
      cov.reused_rounds += static_cast<int>(reused);
      cov.full_reuse += reused == record.size();
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
    have_record = true;
    record = now;
    before = after;
  }
  EXPECT_EQ(log.size(), inc.flows_started()) << "seed " << seed;
}

TEST(WarmStartOracle, EveryEventMatchesOracle) {
  WarmStartCoverage cov;
  for (const PinnedSeed p : {PinnedSeed{1, 0x493d928995d4190a},
                             PinnedSeed{2, 0x33c0187d2f25bbf9},
                             PinnedSeed{3, 0xa428b66063c59d7d},
                             PinnedSeed{5, 0x82dd0068aa46cf4f},
                             PinnedSeed{8, 0x13f7c72c46795456}}) {
    CompletionLog log;
    run_warm_churn(p.seed, cov, log);
    const std::uint64_t h = sim::completion_log_hash(log);
    EXPECT_EQ(h, p.completions) << "seed " << p.seed << ": " << std::hex << h;
  }
  // Every branch of the walk, and every kind of mutation feeding a fill that
  // replayed rounds, must have been exercised, or the comparisons prove
  // nothing.
  EXPECT_GT(cov.warm_fills, 0);
  EXPECT_GT(cov.reused_rounds, 0);
  EXPECT_GT(cov.superseded, 0);
  EXPECT_GT(cov.replay_after_live, 0);
  EXPECT_GT(cov.replay_on_affected, 0);
  EXPECT_GT(cov.tie_replay_won, 0);
  EXPECT_GT(cov.tie_live_won, 0);
  EXPECT_GT(cov.full_reuse, 0);
  EXPECT_GT(cov.reroutes, 0);
  EXPECT_GT(cov.reweights, 0);
  EXPECT_GT(cov.cbr_starts, 0);
  EXPECT_GT(cov.cbr_stops, 0);
  EXPECT_GT(cov.link_fails, 0);
  EXPECT_GT(cov.link_restores, 0);
  EXPECT_GT(cov.recycled_slots, 0);
}

TEST(IncrementalCounters, AffectedSetIsWhatTheChangeReaches) {
  // Eight cross-rack flows share rack 0's spine uplink; eight rack-local
  // flows in rack 2 each own their two links. A ninth cross-rack start
  // reaches the uplink, so the round that froze the cross flows is
  // superseded and they refreeze live; the rack-local rounds all replay.
  LeafSpineConfig cfg;
  cfg.racks = 3;
  cfg.servers_per_rack = 8;
  cfg.spines = 1;
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph routing(topo, 1);
  sim::Simulation sim;
  Fabric fabric(sim, topo);
  const auto hosts = topo.hosts();
  auto start = [&](NodeId src, NodeId dst) {
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{10'000'000'000};
    spec.path = routing.paths(src, dst)[0].to_vector();
    return fabric.start_flow(spec);
  };
  std::vector<FlowId> cross;
  for (std::size_t i = 0; i < 8; ++i) {
    cross.push_back(start(hosts[i], hosts[8 + i]));
  }
  std::vector<FlowId> local;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto before = fabric.counters();
    local.push_back(start(hosts[16 + i], hosts[16 + (i + 1) % 8]));
    const auto after = fabric.counters();
    // Each rack-local start freezes only itself live, on its own two links.
    EXPECT_EQ(after.flows_touched - before.flows_touched, 1u);
    EXPECT_EQ(after.links_touched - before.links_touched, 2u);
    EXPECT_EQ(after.full_fills, before.full_fills);
  }
  ASSERT_EQ(fabric.active_flow_count(), 16u);
  std::vector<std::uint64_t> local_rates;
  for (FlowId id : local) {
    local_rates.push_back(bits(fabric.flow(id).rate.bps()));
  }

  const auto before = fabric.counters();
  cross.push_back(start(hosts[0], hosts[9]));
  const auto after = fabric.counters();
  std::set<std::uint32_t> cross_links;
  for (FlowId id : cross) {
    for (LinkId l : fabric.flow_path(id)) cross_links.insert(l.value());
  }
  EXPECT_EQ(after.links_touched - before.links_touched, cross_links.size());
  EXPECT_EQ(after.flows_touched - before.flows_touched, cross.size());
  EXPECT_EQ(after.fill_rounds - before.fill_rounds, 1u);
  EXPECT_EQ(after.reused_rounds - before.reused_rounds, local.size());
  EXPECT_EQ(after.full_fills, before.full_fills);
  for (std::size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(bits(fabric.flow(local[i]).rate.bps()), local_rates[i]);
  }
}

TEST(IncrementalCounters, WarmStartReusesUnaffectedRounds) {
  // Sixteen cross-rack flows, one per host pair, over 10 Gb/s host links
  // and a spine that never binds: one fill of sixteen rounds, round k
  // freezing flow k on its uplink (all shares tie, so the lowest link id
  // wins). Halving flow k's weight doubles the share of its own host links
  // only: round k is superseded, every other recorded round replays (those
  // after it land on the shared spine links), and one live round refreezes
  // flow k last. An isolated rack-local start replays every recorded round
  // around its own live one.
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 18;
  cfg.spines = 1;
  cfg.uplink = BitsPerSec{1e12};
  const Topology topo = make_leaf_spine(cfg);
  const RoutingGraph routing(topo, 1);
  sim::Simulation sim;
  Fabric inc(sim, topo);
  const auto hosts = topo.hosts();
  std::vector<FlowId> cross;
  auto start = [&](NodeId src, NodeId dst) {
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{10'000'000'000};
    spec.path = routing.paths(src, dst)[0].to_vector();
    return inc.start_flow(spec);
  };
  for (std::size_t i = 0; i < 16; ++i) {
    cross.push_back(start(hosts[i], hosts[18 + i]));
  }
  struct Step {
    std::uint64_t full_fills;
    std::uint64_t reused;
    std::uint64_t ran;
    std::uint64_t flows_live;
    std::uint64_t oracle_ran;
  };
  auto step = [&](auto mutate) {
    const FabricCounters a0 = inc.counters();
    mutate();
    const FabricCounters& a1 = inc.counters();
    certificate::expect_matches_oracle(inc, "step");
    return Step{a1.full_fills - a0.full_fills,
                a1.reused_rounds - a0.reused_rounds,
                a1.fill_rounds - a0.fill_rounds,
                a1.flows_touched - a0.flows_touched,
                reference_fill(fill_input(inc)).size()};
  };
  auto halve = [&](std::size_t k) {
    return step([&, k] { inc.set_flow_weight(cross[k], 0.5); });
  };

  const Step late = halve(15);
  EXPECT_EQ(late.full_fills, 0u);
  EXPECT_EQ(late.oracle_ran, 16u);
  EXPECT_EQ(late.reused, 15u);
  EXPECT_EQ(late.ran, 1u);
  EXPECT_EQ(late.flows_live, 1u);

  const Step isolated = step([&] { start(hosts[16], hosts[17]); });
  EXPECT_EQ(isolated.oracle_ran, 17u);
  EXPECT_EQ(isolated.reused, 16u);
  EXPECT_EQ(isolated.ran, 1u);
  EXPECT_EQ(isolated.flows_live, 1u);

  const Step early = halve(3);
  EXPECT_EQ(early.oracle_ran, 17u);
  EXPECT_EQ(early.reused, 16u);
  EXPECT_EQ(early.ran, 1u);
  EXPECT_EQ(early.flows_live, 1u);
}

TEST(IncrementalCounters, DisjointComponentsStayUntouched) {
  // Two flows in different racks share no link; starting the second must
  // replay the first one's round and freeze only the second live.
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 4;
  cfg.spines = 2;
  const Topology topo = make_leaf_spine(cfg);
  sim::Simulation sim;
  Fabric fabric(sim, topo);
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
  const FlowId first = fabric.start_flow(f1);
  const auto after_first = fabric.counters();
  const std::uint64_t first_rate = bits(fabric.flow(first).rate.bps());

  FlowSpec f2;
  f2.src = hosts[4];  // other rack
  f2.dst = hosts[5];
  f2.size = Bytes{1'000'000'000};
  f2.path = intra_rack(hosts[4], hosts[5]);
  fabric.start_flow(f2);
  const auto after_second = fabric.counters();

  // The second start affected exactly its own two links and froze only its
  // own flow live; the first flow's one round replayed.
  EXPECT_EQ(after_second.links_touched - after_first.links_touched, 2u);
  EXPECT_EQ(after_second.flows_touched - after_first.flows_touched, 1u);
  EXPECT_EQ(after_second.fill_rounds - after_first.fill_rounds, 1u);
  EXPECT_EQ(after_second.reused_rounds - after_first.reused_rounds, 1u);
  EXPECT_EQ(after_second.full_fills, after_first.full_fills);
  EXPECT_EQ(bits(fabric.flow(first).rate.bps()), first_rate);
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
  spec.path = routing.paths(spec.src, spec.dst)[0].to_vector();
  fabric.start_flow(spec);

  const auto before = fabric.counters();
  fabric.settle_and_recompute();  // probe accounting point, nothing dirty
  const auto after = fabric.counters();
  EXPECT_EQ(after.links_touched, before.links_touched);
  EXPECT_EQ(after.flows_touched, before.flows_touched);
}

}  // namespace
}  // namespace pythia::net
