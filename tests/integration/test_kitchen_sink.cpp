// Kitchen-sink integration: every optional feature enabled simultaneously —
// Pythia with criticality + rack wildcards + proportional flow weights,
// speculative execution, straggler and failure injection, HDFS write-back,
// a mid-run link failure with recovery, and a multi-job trace — on one
// shared cluster. Guards against feature-interplay regressions.
#include <gtest/gtest.h>

#include "experiments/metrics.hpp"
#include "experiments/scenario.hpp"
#include "net/netflow.hpp"
#include "workloads/trace.hpp"

namespace pythia::exp {
namespace {

class KitchenSink : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KitchenSink, EverythingOnStillConservesAndCompletes) {
  ScenarioConfig cfg;
  cfg.seed = GetParam();
  cfg.scheduler = SchedulerKind::kPythia;
  cfg.background.oversubscription = 10.0;
  cfg.enable_netflow = true;
  cfg.pythia.weighted_flows = true;
  cfg.pythia.collector.criticality_aware = true;
  cfg.pythia.allocator.aggregation = core::Aggregation::kRackPair;
  cfg.cluster.speculative_execution = true;
  cfg.cluster.straggler_probability = 0.1;
  cfg.cluster.straggler_slowdown = 6.0;
  cfg.cluster.map_failure_probability = 0.1;
  Scenario scenario(cfg);

  // A small trace of heterogeneous jobs with HDFS write-back.
  workloads::TraceConfig trace_cfg;
  trace_cfg.jobs = 4;
  trace_cfg.max_input = util::Bytes{6'000'000'000LL};
  trace_cfg.mean_interarrival = util::Duration::seconds_i(15);
  auto trace = workloads::generate_trace(trace_cfg, cfg.seed);
  for (auto& entry : trace) entry.spec.dfs_replication = 2;

  std::vector<hadoop::JobResult> results(trace.size());
  std::size_t done = 0;
  for (std::size_t j = 0; j < trace.size(); ++j) {
    scenario.simulation().at(trace[j].submit_at, [&, j] {
      scenario.engine().submit(trace[j].spec,
                               [&results, &done, j](
                                   const hadoop::JobResult& r) {
                                 results[j] = r;
                                 ++done;
                               });
    });
  }

  // Kill one inter-rack cable mid-run, restore later.
  const auto& paths = scenario.controller().routing().paths(
      scenario.servers()[0], scenario.servers()[9]);
  const net::LinkId victim = paths[1][1];
  scenario.simulation().after(util::Duration::seconds_i(25), [&] {
    scenario.controller().handle_link_failure(victim);
  });
  scenario.simulation().after(util::Duration::seconds_i(60), [&] {
    scenario.controller().handle_link_restore(victim);
  });

  scenario.simulation().run();

  // Every job completed with exact structural accounting.
  ASSERT_EQ(done, trace.size());
  std::int64_t total_shuffle_payload = 0;
  for (std::size_t j = 0; j < results.size(); ++j) {
    const auto& r = results[j];
    EXPECT_EQ(r.maps.size(), trace[j].spec.num_maps()) << r.name;
    EXPECT_EQ(r.reducers.size(), trace[j].spec.num_reducers) << r.name;
    EXPECT_EQ(r.fetches.size(),
              trace[j].spec.num_maps() * trace[j].spec.num_reducers)
        << r.name;
    for (const auto& red : r.reducers) {
      EXPECT_GT(red.finished, red.shuffle_done) << r.name;
    }
    total_shuffle_payload += r.remote_shuffle_bytes().count();
    const auto metrics = compute_shuffle_metrics(r);
    EXPECT_GT(metrics.aggregate_shuffle_goodput_bps, 0.0) << r.name;
  }

  // The network moved at least the shuffle payload (plus HDFS replicas),
  // fully drained, and left no residual rates.
  EXPECT_GT(scenario.fabric().bytes_delivered().count(),
            total_shuffle_payload);
  EXPECT_EQ(scenario.fabric().active_flow_count(), 0u);
  EXPECT_EQ(scenario.simulation().queue().pending(), 0u);
  for (const auto& link : scenario.topology().links()) {
    EXPECT_DOUBLE_EQ(scenario.fabric().link_elastic_rate(link.id).bps(), 0.0);
    EXPECT_TRUE(scenario.fabric().link_up(link.id));
  }

  // NetFlow's shuffle-port accounting matches the fetch records exactly.
  std::int64_t netflow_total = 0;
  for (net::NodeId src : scenario.netflow()->observed_sources()) {
    netflow_total += scenario.netflow()->sourced_bytes(src).count();
  }
  EXPECT_NEAR(static_cast<double>(netflow_total),
              static_cast<double>(total_shuffle_payload),
              static_cast<double>(trace.size()) * 1e5);

  // Control plane saw real activity from every subsystem.
  EXPECT_GT(scenario.controller().rules_installed(), 0u);
  EXPECT_GE(scenario.controller().topology_rebuilds(), 2u);
  EXPECT_GT(scenario.pythia()->collector().intents_received(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KitchenSink, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace pythia::exp
