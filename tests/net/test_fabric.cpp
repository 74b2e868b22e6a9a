#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include "net/routing.hpp"
#include "sim/simulation.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;
using util::Duration;
using util::SimTime;

constexpr std::int64_t kGB = 1'000'000'000;

/// host0 -- sw -- host1, all links `cap`.
struct Chain {
  Topology topo;
  NodeId h0, h1, sw;
  Path forward;

  explicit Chain(double cap_bps = 8e9) {
    h0 = topo.add_host("h0", 0);
    h1 = topo.add_host("h1", 1);
    sw = topo.add_switch("sw");
    topo.add_duplex(h0, sw, BitsPerSec{cap_bps});
    topo.add_duplex(sw, h1, BitsPerSec{cap_bps});
    forward = *shortest_path(topo, h0, h1);
  }
};

FlowSpec make_flow(const Chain& c, std::int64_t bytes,
                   std::uint16_t dst_port = 1000) {
  FlowSpec spec;
  spec.src = c.h0;
  spec.dst = c.h1;
  spec.size = Bytes{bytes};
  spec.path = c.forward.links;
  spec.tuple = FiveTuple{1, 2, kShufflePort, dst_port, 6};
  spec.cls = FlowClass::kShuffle;
  return spec;
}

TEST(Fabric, SingleFlowAnalyticCompletion) {
  Chain c;  // 8 Gbps end to end
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  SimTime done;
  fabric.start_flow(make_flow(c, kGB),
                    [&](FlowId, SimTime at) { done = at; });
  sim.run();
  // 1 GB at 8 Gbps (1 GB/s) == 1 s.
  EXPECT_NEAR(done.seconds(), 1.0, 1e-6);
  EXPECT_EQ(fabric.flows_completed(), 1u);
  EXPECT_EQ(fabric.bytes_delivered().count(), kGB);
}

TEST(Fabric, TwoEqualFlowsShareFairly) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    fabric.start_flow(make_flow(c, kGB, static_cast<std::uint16_t>(i)),
                      [&](FlowId, SimTime at) { done.push_back(at.seconds()); });
  }
  // While both are active each gets half.
  for (FlowId id : fabric.active_flows()) {
    EXPECT_NEAR(fabric.flow(id).rate.bps(), 4e9, 1.0);
  }
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-6);
  EXPECT_NEAR(done[1], 2.0, 1e-6);
}

TEST(Fabric, ShortFlowReleasesBandwidth) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  double long_done = 0.0;
  double short_done = 0.0;
  fabric.start_flow(make_flow(c, kGB, 1),
                    [&](FlowId, SimTime at) { long_done = at.seconds(); });
  fabric.start_flow(make_flow(c, kGB / 2, 2),
                    [&](FlowId, SimTime at) { short_done = at.seconds(); });
  sim.run();
  // Shared 0.5 GB/s each until the 0.5 GB flow drains at t=1; the 1 GB flow
  // then finishes its remaining 0.5 GB at full 1 GB/s: t=1.5.
  EXPECT_NEAR(short_done, 1.0, 1e-6);
  EXPECT_NEAR(long_done, 1.5, 1e-6);
}

TEST(Fabric, MaxMinAcrossTwoBottlenecks) {
  // link1 (8 Gbps): flows A and B; link2 (4 Gbps): flows A and C.
  Topology topo;
  const NodeId n0 = topo.add_host("n0", 0);
  const NodeId n1 = topo.add_switch("n1");
  const NodeId n2 = topo.add_switch("n2");
  const NodeId n3 = topo.add_host("n3", 1);
  const LinkId l1 = topo.add_link(n0, n1, BitsPerSec{8e9});
  const LinkId l12 = topo.add_link(n1, n2, BitsPerSec{100e9});
  const LinkId l2 = topo.add_link(n2, n3, BitsPerSec{4e9});

  sim::Simulation sim;
  Fabric fabric(sim, topo);
  auto start = [&](std::vector<LinkId> path, std::uint16_t port) {
    FlowSpec spec;
    spec.src = topo.link(path.front()).src;
    spec.dst = topo.link(path.back()).dst;
    spec.size = Bytes{100 * kGB};  // long-lived
    spec.path = std::move(path);
    spec.tuple = FiveTuple{1, 2, port, port, 6};
    return fabric.start_flow(spec);
  };
  const FlowId a = start({l1, l12, l2}, 1);
  const FlowId b = start({l1, l12}, 2);  // ends at n2: model as switch sink
  const FlowId cfl = start({l2}, 3);

  // Water-filling: bottleneck link2 share = 4/2 = 2 Gbps fixes A and C;
  // then B alone gets link1's residual 8 - 2 = 6 Gbps.
  EXPECT_NEAR(fabric.flow(a).rate.bps(), 2e9, 1.0);
  EXPECT_NEAR(fabric.flow(cfl).rate.bps(), 2e9, 1.0);
  EXPECT_NEAR(fabric.flow(b).rate.bps(), 6e9, 1.0);

  EXPECT_NEAR(fabric.link_elastic_rate(l1).bps(), 8e9, 1.0);
  EXPECT_NEAR(fabric.link_elastic_rate(l2).bps(), 4e9, 1.0);
  EXPECT_NEAR(fabric.link_utilization(l1), 1.0, 1e-9);
}

TEST(Fabric, CbrReducesElasticShare) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  fabric.start_cbr(c.forward.links, BitsPerSec{6e9});
  double done = 0.0;
  fabric.start_flow(make_flow(c, kGB),
                    [&](FlowId, SimTime at) { done = at.seconds(); });
  // Elastic flow gets 8 - 6 = 2 Gbps -> 0.25 GB/s -> 4 s for 1 GB.
  sim.run();
  EXPECT_NEAR(done, 4.0, 1e-6);
  EXPECT_NEAR(fabric.link_cbr_load(c.forward.links[0]).bps(), 6e9, 1.0);
  EXPECT_NEAR(fabric.link_residual_capacity(c.forward.links[0]).bps(), 2e9,
              1.0);
}

TEST(Fabric, CbrOverloadStarvesUntilReleased) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  const CbrId cbr = fabric.start_cbr(c.forward.links, BitsPerSec{9e9});
  double done = -1.0;
  const FlowId f = fabric.start_flow(
      make_flow(c, kGB), [&](FlowId, SimTime at) { done = at.seconds(); });
  EXPECT_DOUBLE_EQ(fabric.flow(f).rate.bps(), 0.0);
  EXPECT_DOUBLE_EQ(fabric.link_residual_capacity(c.forward.links[0]).bps(),
                   0.0);

  // Release the UDP blast at t=2s; flow then finishes 1 GB at 1 GB/s.
  sim.after(Duration::seconds_i(2), [&] { fabric.stop_cbr(cbr); });
  sim.run();
  EXPECT_NEAR(done, 3.0, 1e-6);
}

TEST(Fabric, UtilizationClampedUnderCbrOverload) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  fabric.start_cbr(c.forward.links, BitsPerSec{20e9});
  EXPECT_DOUBLE_EQ(fabric.link_utilization(c.forward.links[0]), 1.0);
}

TEST(Fabric, RerouteMovesTraffic) {
  // Diamond with a slow and a fast branch.
  Topology topo;
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", 1);
  const NodeId x = topo.add_switch("x");
  const NodeId y = topo.add_switch("y");
  const LinkId ax = topo.add_link(a, x, BitsPerSec{1e9});
  const LinkId xb = topo.add_link(x, b, BitsPerSec{1e9});
  const LinkId ay = topo.add_link(a, y, BitsPerSec{8e9});
  const LinkId yb = topo.add_link(y, b, BitsPerSec{8e9});

  sim::Simulation sim;
  Fabric fabric(sim, topo);
  FlowSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.size = Bytes{kGB};
  spec.path = {ax, xb};
  spec.tuple = FiveTuple{1, 2, 3, 4, 6};
  double done = 0.0;
  const FlowId f = fabric.start_flow(
      spec, [&](FlowId, SimTime at) { done = at.seconds(); });

  // After 2 s on the 1 Gbps branch (0.25 GB moved), hop to the 8 Gbps one.
  sim.after(Duration::seconds_i(2), [&] { fabric.reroute_flow(f, {ay, yb}); });
  sim.run();
  // Remaining 0.75 GB at 1 GB/s -> completes at 2.75 s.
  EXPECT_NEAR(done, 2.75, 1e-6);
  EXPECT_DOUBLE_EQ(fabric.link_elastic_rate(ax).bps(), 0.0);
}

TEST(Fabric, RerouteAtUnchangedRateKeepsDeadline) {
  // A reroute onto an equal-capacity path leaves the flow's rate unchanged,
  // so its absolute completion deadline must survive the move. Both
  // engines: the refill sets the same rate bits and must not drop the ETA.
  for (const RateEngine engine :
       {RateEngine::kIncremental, RateEngine::kFullRecompute}) {
    SCOPED_TRACE(engine == RateEngine::kIncremental ? "incremental" : "full");
    // 2 racks x 2 spines, 10 Gb/s everywhere: the two cross-rack paths
    // (one per spine) have equal capacity.
    const Topology topo = make_leaf_spine({});
    const RoutingGraph routing(topo, 2);
    const auto hosts = topo.hosts();
    const NodeId src = hosts.front();
    const NodeId dst = hosts.back();
    const auto& paths = routing.paths(src, dst);
    ASSERT_EQ(paths.size(), 2u);

    sim::Simulation sim;
    Fabric fabric(sim, topo, FabricConfig{.rate_engine = engine});
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{kGB};
    spec.path = paths[0].links;
    double done = 0.0;
    const FlowId f = fabric.start_flow(
        spec, [&](FlowId, SimTime at) { done = at.seconds(); });
    sim.at(SimTime::from_seconds(0.1),
           [&] { fabric.reroute_flow(f, paths[1].links); });
    sim.run();

    // 1 GB at 10 Gb/s on either path: done at 0.8 s, reroute or not.
    EXPECT_NEAR(done, 0.8, 1e-6);
    EXPECT_EQ(fabric.active_flow_count(), 0u);
    EXPECT_EQ(fabric.flows_completed(), 1u);
  }
}

TEST(Fabric, ZeroByteFlowCompletesAsync) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  bool done = false;
  fabric.start_flow(make_flow(c, 0), [&](FlowId, SimTime) { done = true; });
  EXPECT_FALSE(done);  // async, via the queue
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fabric.flows_completed(), 1u);
}

class CountingObserver final : public FabricObserver {
 public:
  std::int64_t moved = 0;
  int started = 0;
  int completed = 0;
  void on_flow_started(const Fabric&, FlowId, SimTime) override { ++started; }
  void on_bytes_moved(const Fabric&, FlowId, Bytes b, SimTime,
                      SimTime) override {
    moved += b.count();
  }
  void on_flow_completed(const Fabric&, FlowId, SimTime) override {
    ++completed;
  }
};

TEST(Fabric, ObserverSeesConservedBytes) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  CountingObserver obs;
  fabric.add_observer(&obs);
  fabric.start_flow(make_flow(c, kGB, 1));
  fabric.start_flow(make_flow(c, kGB / 4, 2));
  sim.run();
  EXPECT_EQ(obs.started, 2);
  EXPECT_EQ(obs.completed, 2);
  // Settle-granular accounting must conserve volume (rounding < 1 KB).
  EXPECT_NEAR(static_cast<double>(obs.moved),
              static_cast<double>(kGB + kGB / 4), 1e3);
}

TEST(Fabric, FlowStateAccessors) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  const FlowId f = fabric.start_flow(make_flow(c, kGB));
  EXPECT_TRUE(fabric.flow_active(f));
  EXPECT_EQ(fabric.active_flow_count(), 1u);
  EXPECT_EQ(fabric.flow(f).spec.size.count(), kGB);
  sim.run();
  EXPECT_FALSE(fabric.flow_active(f));
  EXPECT_TRUE(fabric.flow(f).completed);
  EXPECT_EQ(fabric.active_flow_count(), 0u);
  EXPECT_NEAR(fabric.flow(f).completed_at.seconds(), 1.0, 1e-6);
}

TEST(Fabric, CompletionCallbackCanStartNewFlow) {
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  double second_done = 0.0;
  fabric.start_flow(make_flow(c, kGB, 1), [&](FlowId, SimTime) {
    fabric.start_flow(make_flow(c, kGB, 2), [&](FlowId, SimTime at) {
      second_done = at.seconds();
    });
  });
  sim.run();
  EXPECT_NEAR(second_done, 2.0, 1e-6);
  EXPECT_EQ(fabric.flows_completed(), 2u);
}

}  // namespace
}  // namespace pythia::net
