// End-to-end behaviour of the assembled Pythia middleware on a live job.
#include "core/pythia_system.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>

#include "net/netflow.hpp"
#include "test_fixtures.hpp"

namespace pythia::core {
namespace {

using pythia::testing::TestCluster;
using pythia::testing::small_job;
using util::Bytes;

TEST(PythiaSystem, InstrumentationTracksEveryMapAndReducer) {
  TestCluster cluster;
  PythiaSystem pythia(*cluster.sim, *cluster.engine, *cluster.controller);
  cluster.run(small_job(10, 4));
  EXPECT_EQ(pythia.instrumentation().decode_events(), 10u);
  EXPECT_EQ(pythia.instrumentation().intents_emitted(), 10u);
  EXPECT_EQ(pythia.collector().intents_received(), 10u * 4u);
  EXPECT_GT(pythia.instrumentation().control_bytes_sent().count(), 0);
}

TEST(PythiaSystem, RejectsBadFlowWeightClamp) {
  // std::clamp is undefined for min > max, and a weight of 0 starves a flow.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> bad[] = {
      {4.0, 2.0}, {0.0, 8.0}, {-1.0, 8.0}, {nan, 8.0}, {0.25, inf},
      {0.25, nan}};
  for (const auto& [lo, hi] : bad) {
    TestCluster cluster;
    PythiaConfig cfg;
    cfg.weighted_flows = true;
    cfg.min_flow_weight = lo;
    cfg.max_flow_weight = hi;
    EXPECT_THROW(
        PythiaSystem(*cluster.sim, *cluster.engine, *cluster.controller, cfg),
        std::invalid_argument)
        << lo << ", " << hi;
  }
  TestCluster cluster;
  PythiaConfig cfg;
  cfg.weighted_flows = true;
  cfg.min_flow_weight = 2.0;
  cfg.max_flow_weight = 2.0;
  PythiaSystem pythia(*cluster.sim, *cluster.engine, *cluster.controller, cfg);
  cluster.run(small_job(4, 2));
  EXPECT_GT(pythia.instrumentation().intents_emitted(), 0u);
}

TEST(PythiaSystem, EarlyIntentsAreHeldForReducers) {
  // With slow-start at 100% of maps, every intent beats every reducer.
  hadoop::ClusterConfig cfg;
  cfg.reduce_slowstart = 1.0;
  TestCluster cluster(1, {}, cfg);
  PythiaSystem pythia(*cluster.sim, *cluster.engine, *cluster.controller);
  cluster.run(small_job(8, 3));
  // Intents from the last map wave can race the reducer-start notification
  // by a heartbeat; all earlier ones must have been held.
  EXPECT_GE(pythia.collector().intents_held_for_reducer(), 7u * 3u);
  EXPECT_LE(pythia.collector().intents_held_for_reducer(), 8u * 3u);
}

TEST(PythiaSystem, InstallsRulesForCrossRackAggregates) {
  TestCluster cluster;
  PythiaSystem pythia(*cluster.sim, *cluster.engine, *cluster.controller);
  cluster.run(small_job(10, 4));
  EXPECT_GT(pythia.allocator().allocations(), 0u);
  EXPECT_GT(cluster.controller->rules_installed(), 0u);
  EXPECT_GT(cluster.controller->flow_mod_messages(),
            cluster.controller->rules_installed());
}

TEST(PythiaSystem, OutstandingVolumeDrainsToZero) {
  TestCluster cluster;
  PythiaSystem pythia(*cluster.sim, *cluster.engine, *cluster.controller);
  cluster.run(small_job(10, 4));
  // After the job, retired fetches should have cleared nearly all the
  // predicted volume (the overhead model rounds slightly conservatively,
  // leaving at most a tiny residue per pair).
  for (const auto& link : cluster.topo.links()) {
    EXPECT_LT(pythia.allocator().link_outstanding(link.id).as_double(),
              64'000'000.0 * 0.1)
        << "link " << link.id.value();
  }
}

TEST(PythiaSystem, PredictionLeadsTheWire) {
  TestCluster cluster;
  net::NetFlowProbe probe;
  cluster.fabric->add_observer(&probe);
  PythiaSystem pythia(*cluster.sim, *cluster.engine, *cluster.controller);

  hadoop::JobSpec job = small_job(20, 5);
  cluster.run(job);

  // For every server that sourced shuffle traffic, the predicted cumulative
  // curve must never lag the measured one, and the predicted total must
  // over-estimate the wire within the paper's band (3-7%).
  int compared = 0;
  for (net::NodeId server : probe.observed_sources()) {
    const auto& predicted = pythia.collector().predicted_curve(server);
    const auto& measured = probe.curve(server);
    if (predicted.empty() || measured.empty()) continue;
    ++compared;

    std::vector<net::VolumePoint> pred_curve;
    pred_curve.reserve(predicted.size());
    for (const auto& p : predicted) {
      pred_curve.push_back(net::VolumePoint{p.at, p.cumulative});
    }
    // Sample the measured curve: prediction-at-time >= measured-at-time.
    for (const auto& m : measured) {
      const double pred_v = net::curve_value_at(pred_curve, m.at);
      EXPECT_GE(pred_v, m.cumulative.as_double() * 0.999)
          << "server " << server.value() << " at " << m.at.seconds();
    }
    const double over = predicted.back().cumulative.as_double() /
                        measured.back().cumulative.as_double();
    EXPECT_GT(over, 1.0);
    EXPECT_LT(over, 1.10);
  }
  EXPECT_GT(compared, 0);
}

TEST(PythiaSystem, SpeedsUpSkewedShuffleUnderAsymmetricLoad) {
  // The headline effect at test scale: asymmetric background + ECMP
  // misplacement vs. Pythia's predictive packing.
  auto run = [](bool with_pythia) {
    net::TwoRackConfig topo_cfg;
    TestCluster cluster(3, topo_cfg);
    // 1:10 oversubscription on path 0 only (worst case asymmetry).
    const auto hosts = cluster.topo.hosts();
    const auto& paths = cluster.controller->routing().paths(hosts[0], hosts[9]);
    for (const auto* pair : {&paths}) {
      const auto full = (*pair)[0].to_vector();
      std::vector<net::LinkId> chain{full.begin() + 1, full.end() - 1};
      cluster.fabric->start_cbr(chain, util::BitsPerSec{9e9});
    }
    std::unique_ptr<PythiaSystem> pythia;
    if (with_pythia) {
      pythia = std::make_unique<PythiaSystem>(*cluster.sim, *cluster.engine,
                                              *cluster.controller);
    }
    // A network-bound job: large blocks so each fetch is hundreds of MB and
    // fast map/reduce functions so the shuffle dominates the critical path.
    hadoop::JobSpec job = small_job(24, 6);
    job.input = Bytes{24LL * 1'000'000'000};
    job.block = Bytes{1'000'000'000};
    job.map_rate = util::BitsPerSec{8e9};     // 1 GB/s
    job.reduce_rate = util::BitsPerSec{16e9}; // 2 GB/s
    return cluster.run(job).completion_time().seconds();
  };
  const double ecmp = run(false);
  const double pythia = run(true);
  EXPECT_LT(pythia, ecmp);
}

}  // namespace
}  // namespace pythia::core
