#include "sdn/hedera_app.hpp"

#include <gtest/gtest.h>

#include "sim/simulation.hpp"

namespace pythia::sdn {
namespace {

using net::FiveTuple;
using net::FlowClass;
using net::FlowSpec;
using net::NodeId;
using util::BitsPerSec;
using util::Bytes;
using util::Duration;
using util::SimTime;

struct Fixture {
  net::Topology topo = net::make_two_rack({});
  sim::Simulation sim;
  net::Fabric fabric{sim, topo};
  Controller controller;
  NodeId src, dst;

  explicit Fixture(ControllerConfig cfg = {})
      : controller(sim, fabric, topo, cfg) {
    const auto hosts = topo.hosts();
    src = hosts[0];
    dst = hosts[9];
  }

  net::FlowId start_shuffle(net::PathView path, std::int64_t bytes,
                            std::uint16_t port) {
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{bytes};
    spec.path = path.to_vector();
    spec.tuple = FiveTuple{1, 2, 50060, port, 6};
    spec.cls = FlowClass::kShuffle;
    return fabric.start_flow(spec);
  }
};

TEST(Hedera, ReroutesElephantOffLoadedPath) {
  Fixture f;
  HederaConfig cfg;
  cfg.poll_period = Duration::seconds_i(1);
  HederaApp hedera(f.controller, cfg);

  const auto& paths = f.controller.routing().paths(f.src, f.dst);
  ASSERT_EQ(paths.size(), 2u);
  // Load path 0 with 9.5 Gbps of background.
  const auto full = paths[0].to_vector();
  std::vector<net::LinkId> chain{full.begin() + 1, full.end() - 1};
  f.fabric.start_cbr(chain, BitsPerSec{9.5e9});

  // A big shuffle flow unluckily lands (ECMP-style) on the loaded path.
  const net::FlowId flow =
      f.start_shuffle(paths[0], 50'000'000'000LL, 31000);
  EXPECT_NEAR(f.fabric.flow(flow).rate.bps(), 0.5e9, 1e3);

  // Give Hedera a couple of scheduling rounds.
  f.sim.run_until(SimTime::from_seconds(5.0));
  EXPECT_GE(hedera.scheduling_rounds(), 1u);
  EXPECT_GE(hedera.elephants_rerouted(), 1u);
  EXPECT_EQ(f.fabric.flow(flow).spec.path, paths[1].to_vector());
  // On the clean path the flow now runs at full NIC rate.
  EXPECT_NEAR(f.fabric.flow(flow).rate.bps(), 10e9, 1e3);
}

TEST(Hedera, IgnoresNonShuffleTraffic) {
  Fixture f;
  HederaConfig cfg;
  cfg.poll_period = Duration::seconds_i(1);
  HederaApp hedera(f.controller, cfg);

  const auto& paths = f.controller.routing().paths(f.src, f.dst);
  FlowSpec spec;
  spec.src = f.src;
  spec.dst = f.dst;
  spec.size = Bytes{50'000'000'000LL};
  spec.path = paths[0].to_vector();
  spec.tuple = FiveTuple{1, 2, 9999, 31000, 6};
  spec.cls = FlowClass::kOther;  // not shuffle
  f.fabric.start_flow(spec);

  f.sim.run_until(SimTime::from_seconds(5.0));
  EXPECT_EQ(hedera.scheduling_rounds(), 0u);  // never armed
  EXPECT_EQ(hedera.elephants_rerouted(), 0u);
}

TEST(Hedera, QuiescesAfterTrafficEnds) {
  Fixture f;
  HederaConfig cfg;
  cfg.poll_period = Duration::seconds_i(1);
  HederaApp hedera(f.controller, cfg);

  const auto& paths = f.controller.routing().paths(f.src, f.dst);
  f.start_shuffle(paths[1], 1'000'000'000LL, 31000);  // ~0.8 s at 10 Gbps

  // The simulation must drain (no perpetual polling) once flows are gone.
  f.sim.run();
  EXPECT_EQ(f.fabric.active_flow_count(), 0u);
  EXPECT_GE(hedera.scheduling_rounds(), 1u);
  const auto rounds = hedera.scheduling_rounds();
  // Nothing further scheduled.
  EXPECT_EQ(f.sim.queue().pending(), 0u);
  EXPECT_EQ(hedera.scheduling_rounds(), rounds);
}

TEST(Hedera, MiceAreLeftOnTheirPath) {
  Fixture f;
  HederaConfig cfg;
  cfg.poll_period = Duration::millis(100);
  cfg.elephant_fraction = 0.10;
  HederaApp hedera(f.controller, cfg);

  const auto& paths = f.controller.routing().paths(f.src, f.dst);
  // Many concurrent small flows on path 0 share 10 Gbps -> each ~0.6 Gbps,
  // under the 1 Gbps elephant threshold... use 16 flows (0.625 Gbps each).
  std::vector<net::FlowId> flows;
  for (int i = 0; i < 16; ++i) {
    flows.push_back(f.start_shuffle(paths[0], 40'000'000'000LL,
                                    static_cast<std::uint16_t>(31000 + i)));
  }
  f.sim.run_until(SimTime::from_seconds(0.35));
  // No starvation, each flow healthy but below threshold -> no reroutes.
  EXPECT_EQ(hedera.elephants_rerouted(), 0u);
  for (net::FlowId id : flows) {
    EXPECT_EQ(f.fabric.flow(id).spec.path, paths[0].to_vector());
  }
}

}  // namespace
}  // namespace pythia::sdn
