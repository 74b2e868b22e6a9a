#include "sdn/controller.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/simulation.hpp"

namespace pythia::sdn {
namespace {

using net::FiveTuple;
using net::FlowClass;
using net::FlowSpec;
using net::NodeId;
using net::Path;
using util::BitsPerSec;
using util::Bytes;
using util::Duration;

struct Fixture {
  net::Topology topo = net::make_two_rack({});
  sim::Simulation sim;
  net::Fabric fabric{sim, topo};
  NodeId src, dst;

  Fixture() {
    const auto hosts = topo.hosts();
    src = hosts[0];
    dst = hosts[9];
  }

  Controller make_controller(ControllerConfig cfg = {}) {
    return Controller(sim, fabric, topo, cfg);
  }
};

TEST(Controller, RejectsZeroKPaths) {
  // k = 0 leaves every pair without candidates: background placement would
  // install nothing and ECMP would compute hash % 0.
  Fixture f;
  ControllerConfig cfg;
  cfg.k_paths = 0;
  EXPECT_THROW((void)f.make_controller(cfg), std::invalid_argument);
  cfg.k_paths = 1;
  EXPECT_NO_THROW((void)f.make_controller(cfg));
}

TEST(Controller, ResolveFallsBackToEcmp) {
  Fixture f;
  auto ctl = f.make_controller();
  const FiveTuple t{1, 2, 50060, 31000, 6};
  const Path& p = ctl.resolve(f.src, f.dst, t);
  EXPECT_TRUE(f.topo.validate_path(f.src, f.dst, p.links));
  EXPECT_EQ(ctl.rules_installed(), 0u);
}

TEST(Controller, RuleInstallHasLatency) {
  Fixture f;
  ControllerConfig cfg;
  cfg.rule_install_latency = Duration::millis(4);
  auto ctl = f.make_controller(cfg);
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  ASSERT_EQ(paths.size(), 2u);

  ctl.install_path(f.src, f.dst, paths[1]);
  EXPECT_EQ(ctl.rules_installed(), 1u);
  // Not yet active: install latency has not elapsed.
  EXPECT_EQ(ctl.active_rule(f.src, f.dst), nullptr);

  f.sim.run_until(util::SimTime::from_seconds(0.003));
  EXPECT_EQ(ctl.active_rule(f.src, f.dst), nullptr);
  f.sim.run_until(util::SimTime::from_seconds(0.005));
  const PathRule* rule = ctl.active_rule(f.src, f.dst);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->path->links, paths[1].links);

  // Resolve now returns the rule's path regardless of the hash.
  for (std::uint16_t port = 0; port < 32; ++port) {
    const FiveTuple t{1, 2, 50060, port, 6};
    EXPECT_EQ(ctl.resolve(f.src, f.dst, t).links, paths[1].links);
  }
}

TEST(Controller, RuleIsDirectional) {
  Fixture f;
  auto ctl = f.make_controller();
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  ctl.install_path(f.src, f.dst, paths[0]);
  f.sim.run();
  EXPECT_NE(ctl.active_rule(f.src, f.dst), nullptr);
  EXPECT_EQ(ctl.active_rule(f.dst, f.src), nullptr);
}

TEST(Controller, RemoveRuleRevertsToEcmp) {
  Fixture f;
  auto ctl = f.make_controller();
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  ctl.install_path(f.src, f.dst, paths[1]);
  f.sim.run();
  ASSERT_NE(ctl.active_rule(f.src, f.dst), nullptr);
  ctl.remove_rule(f.src, f.dst);
  EXPECT_EQ(ctl.active_rule(f.src, f.dst), nullptr);
}

TEST(Controller, ReinstallSupersedesPending) {
  Fixture f;
  auto ctl = f.make_controller();
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  ctl.install_path(f.src, f.dst, paths[0]);
  ctl.install_path(f.src, f.dst, paths[1]);  // supersedes before activation
  f.sim.run();
  const PathRule* rule = ctl.active_rule(f.src, f.dst);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->path->links, paths[1].links);
  EXPECT_EQ(ctl.rules_installed(), 2u);
}

TEST(Controller, FlowModsCountSwitchHops) {
  Fixture f;
  auto ctl = f.make_controller();
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  // Inter-rack path: host->tor0->wire->tor1->host = 3 switch-sourced links.
  ctl.install_path(f.src, f.dst, paths[0]);
  EXPECT_EQ(ctl.flow_mod_messages(), 3u);
}

TEST(Controller, RuleActivationReroutesActiveFlows) {
  Fixture f;
  ControllerConfig cfg;
  cfg.rule_install_latency = Duration::millis(4);
  auto ctl = f.make_controller(cfg);
  const auto& paths = ctl.routing().paths(f.src, f.dst);

  // Start a shuffle flow on path 0, then install a rule for path 1.
  FlowSpec spec;
  spec.src = f.src;
  spec.dst = f.dst;
  spec.size = Bytes{100'000'000'000LL};
  spec.path = paths[0].links;
  spec.tuple = FiveTuple{1, 2, 50060, 31000, 6};
  spec.cls = FlowClass::kShuffle;
  const net::FlowId flow = f.fabric.start_flow(spec);

  ctl.install_path(f.src, f.dst, paths[1]);
  f.sim.run_until(util::SimTime::from_seconds(0.01));
  EXPECT_EQ(f.fabric.flow(flow).spec.path, paths[1].links);
}

TEST(Controller, RerouteOnInstallCanBeDisabled) {
  Fixture f;
  ControllerConfig cfg;
  cfg.reroute_active_flows_on_install = false;
  auto ctl = f.make_controller(cfg);
  const auto& paths = ctl.routing().paths(f.src, f.dst);

  FlowSpec spec;
  spec.src = f.src;
  spec.dst = f.dst;
  spec.size = Bytes{100'000'000'000LL};
  spec.path = paths[0].links;
  spec.tuple = FiveTuple{1, 2, 50060, 31000, 6};
  spec.cls = FlowClass::kShuffle;
  const net::FlowId flow = f.fabric.start_flow(spec);

  ctl.install_path(f.src, f.dst, paths[1]);
  f.sim.run_until(util::SimTime::from_seconds(0.01));
  EXPECT_EQ(f.fabric.flow(flow).spec.path, paths[0].links);
}

TEST(Controller, SnapshotSeparatesBackgroundFromShuffle) {
  Fixture f;
  auto ctl = f.make_controller();
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  const net::LinkId inter = paths[0].links[1];  // tor0 -> wire link

  // 4 Gbps of CBR background plus a shuffle flow on the same path.
  std::vector<net::LinkId> chain{paths[0].links.begin() + 1,
                                 paths[0].links.end() - 1};
  f.fabric.start_cbr(chain, BitsPerSec{4e9});
  FlowSpec spec;
  spec.src = f.src;
  spec.dst = f.dst;
  spec.size = Bytes{100'000'000'000LL};
  spec.path = paths[0].links;
  spec.tuple = FiveTuple{1, 2, 50060, 31000, 6};
  spec.cls = FlowClass::kShuffle;
  f.fabric.start_flow(spec);

  // Shuffle flow gets the residual 6 Gbps.
  EXPECT_NEAR(ctl.snapshot_load(inter).bps(), 10e9, 1e3);
  EXPECT_NEAR(ctl.snapshot_background_load(inter).bps(), 4e9, 1e3);
  EXPECT_NEAR(ctl.snapshot_utilization(inter), 1.0, 1e-6);
}

TEST(Controller, SnapshotIsSampleAndHold) {
  Fixture f;
  ControllerConfig cfg;
  cfg.link_stats_period = Duration::seconds_i(1);
  auto ctl = f.make_controller(cfg);
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  const net::LinkId inter = paths[0].links[1];

  // First query: snapshot of an idle network.
  EXPECT_DOUBLE_EQ(ctl.snapshot_load(inter).bps(), 0.0);

  // Load appears, but within the stats period the snapshot stays stale.
  std::vector<net::LinkId> chain{paths[0].links.begin() + 1,
                                 paths[0].links.end() - 1};
  f.fabric.start_cbr(chain, BitsPerSec{5e9});
  EXPECT_DOUBLE_EQ(ctl.snapshot_load(inter).bps(), 0.0);

  // After the period elapses, a query refreshes the snapshot.
  f.sim.run_until(util::SimTime::from_seconds(1.5));
  EXPECT_NEAR(ctl.snapshot_load(inter).bps(), 5e9, 1e3);
  EXPECT_GE(ctl.stats_refreshes(), 2u);
}

TEST(Controller, PathAvailableIsBottleneck) {
  Fixture f;
  auto ctl = f.make_controller();
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  std::vector<net::LinkId> chain{paths[0].links.begin() + 1,
                                 paths[0].links.end() - 1};
  f.fabric.start_cbr(chain, BitsPerSec{9e9});
  EXPECT_NEAR(ctl.snapshot_path_available(paths[0]).bps(), 1e9, 1e3);
  EXPECT_NEAR(ctl.snapshot_path_available(paths[1]).bps(), 10e9, 1e3);
}

}  // namespace
}  // namespace pythia::sdn
