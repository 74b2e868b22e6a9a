// Rack-pair aggregation (paper §IV: forwarding-state conservation) and
// criticality-aware batch ordering.
#include <gtest/gtest.h>

#include "core/pythia_system.hpp"
#include "experiments/sweep.hpp"
#include "test_fixtures.hpp"
#include "workloads/hibench.hpp"

namespace pythia::core {
namespace {

using pythia::testing::TestCluster;
using pythia::testing::small_job;
using util::Bytes;

TEST(RackAggregation, ControllerComposesWildcardPaths) {
  net::Topology topo = net::make_two_rack({});
  sim::Simulation sim;
  net::Fabric fabric(sim, topo);
  sdn::Controller ctl(sim, fabric, topo);
  const auto hosts = topo.hosts();

  const auto& paths = ctl.routing().paths(hosts[0], hosts[9]);
  net::Path chain;
  const auto full = paths[1].to_vector();
  chain.links.assign(full.begin() + 1, full.end() - 1);
  ctl.install_rack_path(0, 1, chain);
  sim.run();
  ASSERT_NE(ctl.active_rack_chain(0, 1), nullptr);
  EXPECT_EQ(ctl.active_rack_chain(1, 0), nullptr);  // directional

  // Every rack-0 -> rack-1 host pair resolves through the chain.
  for (std::size_t s = 0; s < 5; ++s) {
    for (std::size_t d = 5; d < 10; ++d) {
      const net::FiveTuple t{1, 2, 50060,
                             static_cast<std::uint16_t>(30000 + s * 10 + d),
                             6};
      const auto& p = ctl.resolve(hosts[s], hosts[d], t);
      EXPECT_TRUE(topo.validate_path(hosts[s], hosts[d], p.to_vector()));
      // Middle hops are exactly the installed chain.
      ASSERT_EQ(p.size(), chain.links.size() + 2);
      for (std::size_t i = 0; i < chain.links.size(); ++i) {
        EXPECT_EQ(p[i + 1], chain.links[i]);
      }
    }
  }
  // Same-rack traffic is untouched by the wildcard.
  const net::FiveTuple t{1, 2, 50060, 30000, 6};
  EXPECT_EQ(ctl.resolve(hosts[0], hosts[1], t).size(), 2u);
}

TEST(RackAggregation, HostRuleTakesPrecedenceOverWildcard) {
  net::Topology topo = net::make_two_rack({});
  sim::Simulation sim;
  net::Fabric fabric(sim, topo);
  sdn::Controller ctl(sim, fabric, topo);
  const auto hosts = topo.hosts();
  const auto& paths = ctl.routing().paths(hosts[0], hosts[9]);

  net::Path chain;
  const auto full = paths[1].to_vector();
  chain.links.assign(full.begin() + 1, full.end() - 1);
  ctl.install_rack_path(0, 1, chain);
  ctl.install_path_id(hosts[0], hosts[9], paths.id(0));
  sim.run();

  const net::FiveTuple t{1, 2, 50060, 30000, 6};
  EXPECT_EQ(ctl.resolve(hosts[0], hosts[9], t), paths[0]);
  // Other pairs still use the wildcard.
  EXPECT_EQ(ctl.resolve(hosts[1], hosts[9], t)[1], chain.links[0]);
}

TEST(RackAggregation, UsesFarFewerRulesThanServerPairs) {
  auto rules_for = [](Aggregation policy) {
    exp::ScenarioConfig cfg;
    cfg.seed = 3;
    cfg.scheduler = exp::SchedulerKind::kPythia;
    cfg.background.oversubscription = 10.0;
    cfg.pythia.allocator.aggregation = policy;
    exp::Scenario scenario(cfg);
    scenario.run_job(
        workloads::sort_job(Bytes{12LL * 1000 * 1000 * 1000}, 8));
    return std::pair{scenario.controller().rules_installed(),
                     scenario.controller().flow_mod_messages()};
  };
  const auto [server_rules, server_mods] = rules_for(Aggregation::kServerPair);
  const auto [rack_rules, rack_mods] = rules_for(Aggregation::kRackPair);
  EXPECT_GT(server_rules, rack_rules * 5);
  EXPECT_GT(server_mods, rack_mods);
  EXPECT_GE(rack_rules, 2u);  // one wildcard per direction, possibly rewaves
}

TEST(RackAggregation, JobStillBeatsEcmp) {
  exp::ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.background.oversubscription = 10.0;
  const auto job = workloads::sort_job(Bytes{12LL * 1000 * 1000 * 1000}, 8);

  cfg.scheduler = exp::SchedulerKind::kEcmp;
  const double ecmp = exp::run_completion_seconds(cfg, job);

  cfg.scheduler = exp::SchedulerKind::kPythia;
  cfg.pythia.allocator.aggregation = Aggregation::kRackPair;
  const double rack = exp::run_completion_seconds(cfg, job);
  EXPECT_LT(rack, ecmp);
}

TEST(Criticality, HotDestinationAllocatedFirst) {
  TestCluster cluster;
  Allocator alloc(*cluster.controller);
  CollectorConfig ccfg;
  ccfg.criticality_aware = true;
  Collector collector(*cluster.sim, alloc, ccfg);
  const auto& hosts = cluster.topo.hosts();

  // dst hosts[9] already has heavy outstanding volume (critical reducer);
  // dst hosts[8] has none. Updates in one batch: the *smaller* one feeding
  // the hot destination must be packed first (gets the emptier path).
  collector.reducer_located(0, 0, hosts[9]);
  collector.reducer_located(0, 1, hosts[8]);
  ShuffleIntent big;
  big.job_serial = 0;
  big.reduce_index = 0;
  big.src_server = hosts[0];
  big.predicted_wire_bytes = Bytes{900'000'000};
  collector.ingest(big);
  cluster.sim->run();  // first batch: establishes hosts[9] as the hot dst
  EXPECT_GT(collector.destination_outstanding(hosts[9]).count(), 0);

  ShuffleIntent to_hot = big;
  to_hot.src_server = hosts[1];
  to_hot.predicted_wire_bytes = Bytes{100'000'000};
  ShuffleIntent to_cold = big;
  to_cold.reduce_index = 1;
  to_cold.src_server = hosts[2];
  to_cold.predicted_wire_bytes = Bytes{500'000'000};
  collector.ingest(to_hot);
  collector.ingest(to_cold);
  cluster.sim->run();

  // Volume-only FFD would allocate to_cold (500 MB) first. Criticality puts
  // to_hot first: its pair must share the path already carrying the hot
  // destination's earlier aggregate... which the drain-time packing then
  // steers AWAY from — so to_hot lands on the opposite inter-rack path of
  // the first 900 MB aggregate, and to_cold (allocated later) balances on
  // the remaining one.
  const auto* hot_rule = cluster.controller->active_rule(hosts[1], hosts[9]);
  const auto* first_rule = cluster.controller->active_rule(hosts[0], hosts[9]);
  ASSERT_NE(hot_rule, nullptr);
  ASSERT_NE(first_rule, nullptr);
  EXPECT_NE(cluster.controller->path(hot_rule->path_id)[1],
            cluster.controller->path(first_rule->path_id)[1]);
}

TEST(Criticality, CanBeDisabled) {
  TestCluster cluster;
  Allocator alloc(*cluster.controller);
  CollectorConfig ccfg;
  ccfg.criticality_aware = false;
  Collector collector(*cluster.sim, alloc, ccfg);
  const auto& hosts = cluster.topo.hosts();
  collector.reducer_located(0, 0, hosts[9]);
  ShuffleIntent i;
  i.job_serial = 0;
  i.reduce_index = 0;
  i.src_server = hosts[0];
  i.predicted_wire_bytes = Bytes{1'000'000};
  collector.ingest(i);
  cluster.sim->run();
  EXPECT_EQ(alloc.allocations(), 1u);
}

}  // namespace
}  // namespace pythia::core
