// Link-failure behaviour of the fluid fabric and failure-aware routing.
#include <gtest/gtest.h>

#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;
using util::Duration;
using util::SimTime;

constexpr std::int64_t kGB = 1'000'000'000;

struct TwoPathFixture {
  Topology topo = make_two_rack({});
  RoutingGraph routing{topo, 2};
  sim::Simulation sim;
  Fabric fabric{sim, topo};
  NodeId src, dst;
  const Path* path0;
  const Path* path1;

  TwoPathFixture() {
    const auto hosts = topo.hosts();
    src = hosts[0];
    dst = hosts[9];
    path0 = &routing.paths(src, dst)[0];
    path1 = &routing.paths(src, dst)[1];
  }

  FlowId start(const Path& p, std::int64_t bytes, double* done = nullptr) {
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{bytes};
    spec.path = p.links;
    spec.tuple = FiveTuple{1, 2, kShufflePort, 31000, 6};
    spec.cls = FlowClass::kShuffle;
    return fabric.start_flow(spec, [done](FlowId, SimTime at) {
      if (done != nullptr) *done = at.seconds();
    });
  }
};

TEST(FabricFailure, FailedLinkStarvesFlows) {
  TwoPathFixture f;
  const FlowId flow = f.start(*f.path0, 10 * kGB);
  EXPECT_GT(f.fabric.flow(flow).rate.bps(), 0.0);

  const LinkId inter = f.path0->links[1];
  f.fabric.fail_link(inter);
  EXPECT_FALSE(f.fabric.link_up(inter));
  EXPECT_DOUBLE_EQ(f.fabric.flow(flow).rate.bps(), 0.0);
  EXPECT_DOUBLE_EQ(f.fabric.link_residual_capacity(inter).bps(), 0.0);
  // Flows on the other path are untouched.
  const FlowId other = f.start(*f.path1, 10 * kGB);
  EXPECT_GT(f.fabric.flow(other).rate.bps(), 0.0);
}

TEST(FabricFailure, RestoreResumesTransfer) {
  TwoPathFixture f;
  double done = -1.0;
  f.start(*f.path0, 10 * kGB, &done);  // 10 GB at 10 Gbps = 8 s
  const LinkId inter = f.path0->links[1];

  f.sim.after(Duration::seconds_i(2), [&] { f.fabric.fail_link(inter); });
  f.sim.after(Duration::seconds_i(5), [&] { f.fabric.restore_link(inter); });
  f.sim.run();
  // 2 s of transfer + 3 s stalled + remaining 7.5 GB at 1.25 GB/s = 6 s.
  EXPECT_NEAR(done, 11.0, 1e-6);
}

TEST(FabricFailure, FailIsIdempotent) {
  TwoPathFixture f;
  const LinkId inter = f.path0->links[1];
  f.fabric.fail_link(inter);
  f.fabric.fail_link(inter);
  f.fabric.restore_link(inter);
  f.fabric.restore_link(inter);
  EXPECT_TRUE(f.fabric.link_up(inter));
}

TEST(FabricFailure, FlowsCrossingReportsOnlyUsers) {
  TwoPathFixture f;
  const FlowId on0 = f.start(*f.path0, 10 * kGB);
  const FlowId on1 = f.start(*f.path1, 10 * kGB);
  const LinkId inter0 = f.path0->links[1];
  const auto crossing = f.fabric.flows_crossing(inter0);
  ASSERT_EQ(crossing.size(), 1u);
  EXPECT_EQ(crossing[0], on0);
  (void)on1;
}

TEST(RoutingBanned, KShortestExcludesBannedLinks) {
  TwoPathFixture f;
  const LinkId inter0 = f.path0->links[1];
  const auto paths =
      k_shortest_paths(f.topo, f.src, f.dst, 4, {inter0});
  ASSERT_EQ(paths.size(), 1u);  // only the second cable survives
  EXPECT_EQ(paths[0].links, f.path1->links);
}

TEST(RoutingBanned, RebuildWithBannedShrinksPathSets) {
  TwoPathFixture f;
  const LinkId inter0 = f.path0->links[1];
  f.routing.rebuild({inter0});
  EXPECT_EQ(f.routing.paths(f.src, f.dst).size(), 1u);
  // Same-rack pairs are unaffected.
  const auto hosts = f.topo.hosts();
  EXPECT_EQ(f.routing.paths(hosts[0], hosts[1]).size(), 1u);
  // Rebuild without bans restores both paths.
  f.routing.rebuild({});
  EXPECT_EQ(f.routing.paths(f.src, f.dst).size(), 2u);
}

}  // namespace
}  // namespace pythia::net
