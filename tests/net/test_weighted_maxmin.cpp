// Weighted max-min fairness in the fluid fabric.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;
using util::SimTime;

constexpr std::int64_t kGB = 1'000'000'000;

struct Chain {
  Topology topo;
  NodeId h0, h1;
  Path forward;

  explicit Chain(double cap_bps = 8e9) {
    h0 = topo.add_host("h0", 0);
    h1 = topo.add_host("h1", 1);
    const NodeId sw = topo.add_switch("sw");
    topo.add_duplex(h0, sw, BitsPerSec{cap_bps});
    topo.add_duplex(sw, h1, BitsPerSec{cap_bps});
    forward = *shortest_path(topo, h0, h1);
  }

  FlowSpec flow(std::int64_t bytes, double weight, std::uint16_t port) {
    FlowSpec spec;
    spec.src = h0;
    spec.dst = h1;
    spec.size = Bytes{bytes};
    spec.path = forward.links;
    spec.tuple = FiveTuple{1, 2, kShufflePort, port, 6};
    spec.weight = weight;
    return spec;
  }
};

TEST(WeightedMaxMin, RatesProportionalToWeights) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  const FlowId heavy = fabric.start_flow(c.flow(100 * kGB, 3.0, 1));
  const FlowId light = fabric.start_flow(c.flow(100 * kGB, 1.0, 2));
  // 8 Gbps split 3:1.
  EXPECT_NEAR(fabric.flow(heavy).rate.bps(), 6e9, 1.0);
  EXPECT_NEAR(fabric.flow(light).rate.bps(), 2e9, 1.0);
}

TEST(WeightedMaxMin, StartFlowRejectsBadWeights) {
  // A weight of 0 would freeze the flow at rate 0 forever; a non-finite one
  // poisons every share on its path. Neither may reach the fabric.
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  for (const double w : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(fabric.start_flow(c.flow(kGB, w, 1)), std::invalid_argument)
        << "weight " << w;
  }
  EXPECT_EQ(fabric.flows_started(), 0u);
  EXPECT_EQ(fabric.active_flow_count(), 0u);
  const FlowId ok = fabric.start_flow(c.flow(kGB, 1.0, 1));
  EXPECT_NEAR(fabric.flow(ok).rate.bps(), 8e9, 1.0);
}

TEST(WeightedMaxMin, SetFlowWeightRejectsBadWeights) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  const FlowId a = fabric.start_flow(c.flow(100 * kGB, 1.0, 1));
  const FlowId b = fabric.start_flow(c.flow(100 * kGB, 1.0, 2));
  for (const double w : {0.0, -2.0, -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(fabric.set_flow_weight(a, w), std::invalid_argument)
        << "weight " << w;
  }
  EXPECT_EQ(fabric.flow(a).spec.weight, 1.0);
  EXPECT_NEAR(fabric.flow(a).rate.bps(), 4e9, 1.0);
  EXPECT_NEAR(fabric.flow(b).rate.bps(), 4e9, 1.0);
}

TEST(WeightedMaxMin, UnitWeightsAreClassicMaxMin) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  const FlowId a = fabric.start_flow(c.flow(100 * kGB, 1.0, 1));
  const FlowId b = fabric.start_flow(c.flow(100 * kGB, 1.0, 2));
  EXPECT_NEAR(fabric.flow(a).rate.bps(), 4e9, 1.0);
  EXPECT_NEAR(fabric.flow(b).rate.bps(), 4e9, 1.0);
}

TEST(WeightedMaxMin, CompletionTimesScaleWithWeights) {
  // Equal-size flows, 4:1 weights: the heavy one finishes first; after it
  // drains, the light one gets the full link.
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  double heavy_done = 0.0;
  double light_done = 0.0;
  fabric.start_flow(c.flow(4 * kGB, 4.0, 1),
                    [&](FlowId, SimTime at) { heavy_done = at.seconds(); });
  fabric.start_flow(c.flow(4 * kGB, 1.0, 2),
                    [&](FlowId, SimTime at) { light_done = at.seconds(); });
  sim.run();
  // Heavy: 4 GB at 0.8 GB/s = 5 s. Light: 1 GB moved by then (0.2 GB/s),
  // remaining 3 GB at 1 GB/s -> 8 s total.
  EXPECT_NEAR(heavy_done, 5.0, 1e-6);
  EXPECT_NEAR(light_done, 8.0, 1e-6);
}

TEST(WeightedMaxMin, SetWeightMidFlight) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  const FlowId a = fabric.start_flow(c.flow(100 * kGB, 1.0, 1));
  const FlowId b = fabric.start_flow(c.flow(100 * kGB, 1.0, 2));
  EXPECT_NEAR(fabric.flow(a).rate.bps(), 4e9, 1.0);

  fabric.set_flow_weight(a, 7.0);
  EXPECT_NEAR(fabric.flow(a).rate.bps(), 7e9, 1.0);
  EXPECT_NEAR(fabric.flow(b).rate.bps(), 1e9, 1.0);

  // Resetting to equal weights restores the even split.
  fabric.set_flow_weight(a, 1.0);
  EXPECT_NEAR(fabric.flow(a).rate.bps(), 4e9, 1.0);
  EXPECT_NEAR(fabric.flow(b).rate.bps(), 4e9, 1.0);
}

TEST(WeightedMaxMin, WeightsInteractWithCbr) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  fabric.start_cbr(c.forward.links, BitsPerSec{4e9});  // residual 4 Gbps
  const FlowId heavy = fabric.start_flow(c.flow(100 * kGB, 3.0, 1));
  const FlowId light = fabric.start_flow(c.flow(100 * kGB, 1.0, 2));
  EXPECT_NEAR(fabric.flow(heavy).rate.bps(), 3e9, 1.0);
  EXPECT_NEAR(fabric.flow(light).rate.bps(), 1e9, 1.0);
}

TEST(WeightedMaxMin, MultiBottleneckWeighted) {
  // link1 (8 Gbps): A(w=2), B(w=1). link2 (3 Gbps): A(w=2), C(w=1).
  Topology topo;
  const NodeId n0 = topo.add_host("n0", 0);
  const NodeId n1 = topo.add_switch("n1");
  const NodeId n2 = topo.add_switch("n2");
  const NodeId n3 = topo.add_host("n3", 1);
  const LinkId l1 = topo.add_link(n0, n1, BitsPerSec{8e9});
  const LinkId l12 = topo.add_link(n1, n2, BitsPerSec{100e9});
  const LinkId l2 = topo.add_link(n2, n3, BitsPerSec{3e9});
  sim::Simulation sim;
  Fabric fabric(sim, topo);
  auto start = [&](std::vector<LinkId> path, double w, std::uint16_t port) {
    FlowSpec spec;
    spec.src = topo.link(path.front()).src;
    spec.dst = topo.link(path.back()).dst;
    spec.size = Bytes{100 * kGB};
    spec.path = std::move(path);
    spec.tuple = FiveTuple{1, 2, port, port, 6};
    spec.weight = w;
    return fabric.start_flow(spec);
  };
  const FlowId a = start({l1, l12, l2}, 2.0, 1);
  const FlowId b = start({l1, l12}, 1.0, 2);
  const FlowId cfl = start({l2}, 1.0, 3);
  // link2 fair share = 3/(2+1) = 1 Gbps/weight: A=2, C=1 Gbps; then B gets
  // link1's residual 8-2 = 6 Gbps.
  EXPECT_NEAR(fabric.flow(a).rate.bps(), 2e9, 1.0);
  EXPECT_NEAR(fabric.flow(cfl).rate.bps(), 1e9, 1.0);
  EXPECT_NEAR(fabric.flow(b).rate.bps(), 6e9, 1.0);
}

TEST(WeightedMaxMin, ConservationUnchanged) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  for (int i = 0; i < 6; ++i) {
    fabric.start_flow(
        c.flow(kGB, 0.5 + i, static_cast<std::uint16_t>(100 + i)));
  }
  sim.run();
  EXPECT_EQ(fabric.flows_completed(), 6u);
  EXPECT_EQ(fabric.bytes_delivered().count(), 6 * kGB);
}

}  // namespace
}  // namespace pythia::net
