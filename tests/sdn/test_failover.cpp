// Controller topology-update service: link failure and recovery (paper §IV
// claims fault tolerance through routing-graph updates on failure events).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "experiments/scenario.hpp"
#include "sdn/controller.hpp"
#include "sim/simulation.hpp"
#include "workloads/hibench.hpp"

namespace pythia::sdn {
namespace {

using net::FiveTuple;
using net::FlowClass;
using net::FlowSpec;
using net::LinkId;
using net::NodeId;
using util::Bytes;
using util::Duration;
using util::SimTime;

constexpr std::int64_t kGB = 1'000'000'000;

struct Fixture {
  net::Topology topo = net::make_two_rack({});
  sim::Simulation sim;
  net::Fabric fabric{sim, topo};
  Controller controller{sim, fabric, topo};
  NodeId src, dst;

  Fixture() {
    const auto hosts = topo.hosts();
    src = hosts[0];
    dst = hosts[9];
  }
};

TEST(Failover, RoutingGraphDropsFailedPath) {
  Fixture f;
  const auto paths = f.controller.routing().paths(f.src, f.dst).materialize();
  ASSERT_EQ(paths.size(), 2u);
  const LinkId inter0 = paths[0].links[1];

  f.controller.handle_link_failure(inter0);
  EXPECT_EQ(f.controller.routing().paths(f.src, f.dst).size(), 1u);
  EXPECT_EQ(f.controller.topology_rebuilds(), 1u);
  EXPECT_EQ(f.controller.failed_links().size(), 2u);  // both directions

  f.controller.handle_link_restore(inter0);
  EXPECT_EQ(f.controller.routing().paths(f.src, f.dst).size(), 2u);
  EXPECT_TRUE(f.controller.failed_links().empty());
}

TEST(Failover, RulesOnFailedPathArePurged) {
  Fixture f;
  const auto paths = f.controller.routing().paths(f.src, f.dst).materialize();
  f.controller.install_path_id(f.src, f.dst,
                               f.controller.intern_path(paths[0].links));
  f.sim.run();
  ASSERT_NE(f.controller.active_rule(f.src, f.dst), nullptr);

  f.controller.handle_link_failure(paths[0].links[1]);
  EXPECT_EQ(f.controller.active_rule(f.src, f.dst), nullptr);
  // Resolution falls back to ECMP over the surviving path.
  const FiveTuple t{1, 2, 50060, 31000, 6};
  const auto& resolved = f.controller.resolve(f.src, f.dst, t);
  EXPECT_EQ(resolved.to_vector(), paths[1].links);
}

TEST(Failover, StrandedFlowsAreReroutedAndComplete) {
  Fixture f;
  const auto paths = f.controller.routing().paths(f.src, f.dst).materialize();
  FlowSpec spec;
  spec.src = f.src;
  spec.dst = f.dst;
  spec.size = Bytes{10 * kGB};
  spec.path = paths[0].links;
  spec.tuple = FiveTuple{1, 2, 50060, 31000, 6};
  spec.cls = FlowClass::kShuffle;
  double done = -1.0;
  const net::FlowId flow = f.fabric.start_flow(
      spec, [&](net::FlowId, SimTime at) { done = at.seconds(); });

  f.sim.after(Duration::seconds_i(2), [&] {
    f.controller.handle_link_failure(paths[0].links[1]);
  });
  f.sim.run();
  EXPECT_EQ(f.fabric.flow(flow).spec.path, paths[1].links);
  // 2 s on path 0 (2.5 GB), remaining 7.5 GB on path 1 at 1.25 GB/s.
  EXPECT_NEAR(done, 8.0, 1e-6);
}

TEST(Failover, RulesSurviveUnrelatedFailure) {
  Fixture f;
  const auto paths = f.controller.routing().paths(f.src, f.dst).materialize();
  f.controller.install_path_id(f.src, f.dst,
                               f.controller.intern_path(paths[1].links));
  f.sim.run();
  f.controller.handle_link_failure(paths[0].links[1]);
  EXPECT_NE(f.controller.active_rule(f.src, f.dst), nullptr);
}

TEST(Failover, SwitchFailureKillsAllItsPaths) {
  Fixture f;
  // Fail one of the two "wire" switches carrying an inter-rack cable.
  const auto paths = f.controller.routing().paths(f.src, f.dst).materialize();
  const net::NodeId wire = f.topo.link(paths[0].links[1]).dst;
  ASSERT_EQ(f.topo.node(wire).kind, net::NodeKind::kSwitch);

  f.controller.handle_switch_failure(wire);
  EXPECT_EQ(f.controller.routing().paths(f.src, f.dst).size(), 1u);
  // All four adjacent directed links are down.
  EXPECT_EQ(f.controller.failed_links().size(), 4u);
  for (net::LinkId l : f.controller.failed_links()) {
    EXPECT_FALSE(f.fabric.link_up(l));
  }

  f.controller.handle_switch_restore(wire);
  EXPECT_TRUE(f.controller.failed_links().empty());
  EXPECT_EQ(f.controller.routing().paths(f.src, f.dst).size(), 2u);
}

TEST(Failover, InstallOverFailedLinkIsRefused) {
  Fixture f;
  const auto paths = f.controller.routing().paths(f.src, f.dst).materialize();
  f.controller.handle_link_failure(paths[0].links[1]);
  // A stale scheduler asks for the dead path: the controller must refuse.
  f.controller.install_path_id(f.src, f.dst,
                               f.controller.intern_path(paths[0].links));
  f.sim.run();
  EXPECT_EQ(f.controller.active_rule(f.src, f.dst), nullptr);
  EXPECT_EQ(f.controller.rules_installed(), 0u);
}

TEST(Failover, SwitchDeathPurgesRulesThroughIt) {
  Fixture f;
  const auto paths = f.controller.routing().paths(f.src, f.dst).materialize();
  // One rule over each inter-rack wire switch; killing one switch must purge
  // exactly the rule whose path traverses it.
  const net::NodeId host2 = f.topo.hosts()[1];
  f.controller.install_path_id(
      f.src, f.dst, f.controller.intern_path(paths[0].links), Bytes{1000});
  f.controller.install_path_id(
      host2, f.dst, f.controller.routing().paths(host2, f.dst).id(1),
      Bytes{1000});
  f.sim.run();
  ASSERT_NE(f.controller.active_rule(f.src, f.dst), nullptr);
  ASSERT_NE(f.controller.active_rule(host2, f.dst), nullptr);

  const net::NodeId wire = f.topo.link(paths[0].links[1]).dst;
  ASSERT_EQ(f.topo.node(wire).kind, net::NodeKind::kSwitch);
  f.controller.handle_switch_failure(wire);

  EXPECT_EQ(f.controller.active_rule(f.src, f.dst), nullptr);
  EXPECT_NE(f.controller.active_rule(host2, f.dst), nullptr);
  // The dead switch's flow-table entries are released with the rule.
  EXPECT_EQ(f.controller.table_occupancy(wire), 0u);
  // Resolution for the purged pair falls back to ECMP on the survivor.
  const FiveTuple t{1, 2, 50060, 31000, 6};
  EXPECT_EQ(f.controller.resolve(f.src, f.dst, t).to_vector(), paths[1].links);
}

TEST(Failover, JobCompletesAcrossSwitchDeath) {
  for (const auto kind :
       {exp::SchedulerKind::kEcmp, exp::SchedulerKind::kPythia}) {
    exp::ScenarioConfig cfg;
    cfg.seed = 6;
    cfg.scheduler = kind;
    exp::Scenario scenario(cfg);

    // Kill a wire switch mid-shuffle; restore it 40 s later.
    const auto& paths = scenario.controller().routing().paths(
        scenario.servers()[0], scenario.servers()[9]);
    const net::NodeId wire =
        scenario.topology().link(paths[1][1]).dst;
    scenario.simulation().after(Duration::seconds_i(20), [&] {
      scenario.controller().handle_switch_failure(wire);
    });
    scenario.simulation().after(Duration::seconds_i(60), [&] {
      scenario.controller().handle_switch_restore(wire);
    });

    const auto job = workloads::sort_job(Bytes{12LL * 1000 * 1000 * 1000}, 8);
    const auto result = scenario.run_job(job);
    EXPECT_GT(result.completion_time().seconds(), 0.0)
        << exp::scheduler_name(kind);
    EXPECT_EQ(result.reducers.size(), job.num_reducers)
        << exp::scheduler_name(kind);
    EXPECT_GE(scenario.controller().topology_rebuilds(), 2u)
        << exp::scheduler_name(kind);
  }
}

// Both inter-rack cables die 3 s into a sort: no path is left between the
// racks, so the next cross-rack fetch has no candidate to select. Holding
// such a fetch until a restore is not modelled; the run must stop with an
// error that names the partitioned pair, in every build type, instead of
// dividing by zero in ECMP's hash.
TEST(Failover, PartitionedFetchStopsWithAnErrorNamingThePair) {
  for (const auto kind :
       {exp::SchedulerKind::kEcmp, exp::SchedulerKind::kPythia}) {
    exp::ScenarioConfig cfg;
    cfg.scheduler = kind;
    exp::Scenario scenario(cfg);
    const auto paths = scenario.controller()
                           .routing()
                           .paths(scenario.servers()[0], scenario.servers()[9])
                           .materialize();
    ASSERT_EQ(paths.size(), 2u);
    scenario.simulation().after(Duration::seconds_i(3), [&] {
      for (const net::Path& p : paths) {
        scenario.controller().handle_link_failure(p.links[1]);
      }
    });
    const auto job = workloads::sort_job(Bytes{4 * kGB}, 8);
    try {
      (void)scenario.run_job(job);
      ADD_FAILURE() << exp::scheduler_name(kind) << ": the job completed";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("no path from server-"), std::string::npos)
          << exp::scheduler_name(kind) << ": " << what;
      EXPECT_NE(what.find(" to server-"), std::string::npos)
          << exp::scheduler_name(kind) << ": " << what;
    }
  }
}

class FailoverJob : public ::testing::TestWithParam<exp::SchedulerKind> {};

TEST_P(FailoverJob, JobCompletesAcrossMidShuffleLinkFailure) {
  exp::ScenarioConfig cfg;
  cfg.seed = 6;
  cfg.scheduler = GetParam();
  cfg.background.oversubscription = 5.0;
  exp::Scenario scenario(cfg);

  // Fail one inter-rack cable 20 s in (mid-job), restore at 60 s.
  const auto& paths = scenario.controller().routing().paths(
      scenario.servers()[0], scenario.servers()[9]);
  const LinkId victim = paths[1][1];
  scenario.simulation().after(Duration::seconds_i(20), [&] {
    scenario.controller().handle_link_failure(victim);
  });
  scenario.simulation().after(Duration::seconds_i(60), [&] {
    scenario.controller().handle_link_restore(victim);
  });

  const auto job =
      workloads::sort_job(Bytes{12LL * 1000 * 1000 * 1000}, 8);
  const auto result = scenario.run_job(job);
  EXPECT_GT(result.completion_time().seconds(), 0.0);
  EXPECT_EQ(result.maps.size(), job.num_maps());
  EXPECT_GE(scenario.controller().topology_rebuilds(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, FailoverJob,
    ::testing::Values(exp::SchedulerKind::kEcmp, exp::SchedulerKind::kPythia,
                      exp::SchedulerKind::kHedera,
                      exp::SchedulerKind::kStaticOracle),
    [](const auto& info) { return exp::scheduler_name(info.param); });

}  // namespace
}  // namespace pythia::sdn
