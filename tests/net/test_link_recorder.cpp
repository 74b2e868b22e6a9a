#include "net/link_recorder.hpp"

#include <gtest/gtest.h>

#include "net/routing.hpp"
#include "sim/simulation.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;
using util::Duration;

constexpr std::int64_t kGB = 1'000'000'000;

struct Fixture {
  Topology topo = make_two_rack({});
  RoutingGraph routing{topo, 2};
  sim::Simulation sim;
  Fabric fabric{sim, topo};
  NodeId src, dst;
  LinkId inter0, inter1;

  Fixture() {
    const auto hosts = topo.hosts();
    src = hosts[0];
    dst = hosts[9];
    inter0 = routing.paths(src, dst)[0][1];
    inter1 = routing.paths(src, dst)[1][1];
  }

  void start(std::size_t path_idx, std::int64_t bytes) {
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{bytes};
    spec.path = routing.paths(src, dst)[path_idx].to_vector();
    spec.tuple = FiveTuple{1, 2, kShufflePort, 31000, 6};
    spec.cls = FlowClass::kShuffle;
    fabric.start_flow(spec);
  }
};

TEST(LinkRecorder, SamplesWhileTrafficIsLive) {
  Fixture f;
  LinkRecorder recorder(f.fabric, {f.inter0, f.inter1},
                        Duration::millis(100));
  f.start(0, 10 * kGB);  // 8 s at 10 Gbps
  f.sim.run();
  const auto& s0 = recorder.series(f.inter0);
  // ~80 samples over the 8 s transfer.
  EXPECT_GT(s0.size(), 60u);
  EXPECT_LT(s0.size(), 100u);
  for (std::size_t i = 1; i < s0.size(); ++i) {
    EXPECT_GT(s0[i].at, s0[i - 1].at);
  }
  // Fully utilized while the flow ran.
  EXPECT_NEAR(recorder.peak_utilization(f.inter0), 1.0, 1e-9);
  EXPECT_GT(recorder.mean_utilization(f.inter0), 0.9);
  // The other path stayed idle.
  EXPECT_DOUBLE_EQ(recorder.peak_utilization(f.inter1), 0.0);
}

TEST(LinkRecorder, DoesNotKeepSimulationAlive) {
  Fixture f;
  LinkRecorder recorder(f.fabric, {f.inter0}, Duration::millis(50));
  f.start(0, kGB);
  f.sim.run();  // must drain; a perpetual sampler would hang here
  EXPECT_EQ(f.sim.queue().pending(), 0u);
  EXPECT_FALSE(recorder.series(f.inter0).empty());
}

TEST(LinkRecorder, SeparatesCbrFromElastic) {
  Fixture f;
  LinkRecorder recorder(f.fabric, {f.inter0}, Duration::millis(100));
  const auto full = f.routing.paths(f.src, f.dst)[0].to_vector();
  std::vector<LinkId> chain{full.begin() + 1, full.end() - 1};
  f.fabric.start_cbr(chain, BitsPerSec{4e9});
  f.start(0, 3 * kGB);  // gets the residual 6 Gbps
  f.sim.run();
  const auto& s = recorder.series(f.inter0);
  ASSERT_FALSE(s.empty());
  EXPECT_NEAR(s.front().cbr.bps(), 4e9, 1.0);
  EXPECT_NEAR(s.front().elastic.bps(), 6e9, 1.0);
  EXPECT_NEAR(s.front().utilization, 1.0, 1e-9);
}

TEST(LinkRecorder, UnknownLinkYieldsEmptySeries) {
  Fixture f;
  LinkRecorder recorder(f.fabric, {f.inter0});
  EXPECT_TRUE(recorder.series(f.inter1).empty());
  EXPECT_DOUBLE_EQ(recorder.mean_utilization(f.inter1), 0.0);
}

}  // namespace
}  // namespace pythia::net
