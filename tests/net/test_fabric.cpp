#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "net/maxmin_certificate.hpp"
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
  // so its absolute completion deadline must survive the move: the refill
  // sets the same rate bits and must not drop the ETA. The oracle and the
  // certificate only see rates, so the completion instant is pinned too.
  // 2 racks x 2 spines, 10 Gb/s everywhere: the two cross-rack paths (one
  // per spine) have equal capacity.
  const Topology topo = make_leaf_spine({});
  const RoutingGraph routing(topo, 2);
  const auto hosts = topo.hosts();
  const NodeId src = hosts.front();
  const NodeId dst = hosts.back();
  const auto& paths = routing.paths(src, dst);
  ASSERT_EQ(paths.size(), 2u);

  sim::Simulation sim;
  Fabric fabric(sim, topo);
  FlowSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.size = Bytes{kGB};
  spec.path = paths[0].to_vector();
  std::int64_t done_ns = 0;
  const FlowId f = fabric.start_flow(
      spec, [&](FlowId, SimTime at) { done_ns = at.ns(); });
  sim.at(SimTime::from_seconds(0.1),
         [&] { fabric.reroute_flow(f, paths[1].to_vector()); });
  for (int event = 1; sim.run(1) > 0; ++event) {
    const std::string where = "event " + std::to_string(event);
    certificate::expect_matches_oracle(fabric, where);
    certificate::expect_maxmin(fabric, where);
  }

  // 1 GB at 10 Gb/s on either path: done at 0.8 s, reroute or not.
  EXPECT_EQ(done_ns, 800'000'000);
  EXPECT_EQ(fabric.active_flow_count(), 0u);
  EXPECT_EQ(fabric.flows_completed(), 1u);
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

// --- the completion path, checked against hand arithmetic ---

/// `n` host pairs, each joined by its own 8 Gb/s (1 GB/s) link.
struct DisjointLinks {
  Topology topo;
  std::vector<NodeId> src, dst;
  std::vector<LinkId> link;

  explicit DisjointLinks(int n) {
    for (int i = 0; i < n; ++i) {
      src.push_back(topo.add_host("s" + std::to_string(i), 0));
      dst.push_back(topo.add_host("d" + std::to_string(i), 1));
      link.push_back(topo.add_link(src.back(), dst.back(), BitsPerSec{8e9}));
    }
  }

  [[nodiscard]] FlowSpec flow(int i, std::int64_t bytes) const {
    FlowSpec spec;
    spec.src = src[i];
    spec.dst = dst[i];
    spec.size = Bytes{bytes};
    spec.path = {link[i]};
    spec.tuple = FiveTuple{1, 2, 3, static_cast<std::uint16_t>(i), 6};
    return spec;
  }
};

TEST(Fabric, EqualFlowsFinishInOneEventInIdOrder) {
  // A short flow on link 0 leaves first, and its swap-pop moves the last
  // started flow to the front of the active set. The four 1 GB flows, each
  // alone on its link at 1 GB/s, then finish at exactly 1 s in one
  // completion event, calling back in ascending id order.
  DisjointLinks net(5);
  sim::Simulation sim;
  Fabric fabric(sim, net.topo);
  std::vector<std::pair<FlowId, SimTime>> done;
  auto record = [&](FlowId id, SimTime at) { done.emplace_back(id, at); };
  fabric.start_flow(net.flow(0, kGB / 2), record);
  std::vector<FlowId> ids;
  for (int i = 1; i < 5; ++i) {
    ids.push_back(fabric.start_flow(net.flow(i, kGB), record));
  }
  sim.run();

  ASSERT_EQ(done.size(), 5u);
  EXPECT_EQ(done[0].second, SimTime{kGB / 2});  // 0.5 GB at 1 GB/s
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_EQ(done[i].first, ids[i - 1]);
    EXPECT_EQ(done[i].second, SimTime{kGB});  // 1 s, in ns
  }
  EXPECT_EQ(fabric.counters().completion_events, 2u);
}

TEST(Fabric, StarvedFlowWaitsThenFinishesOnTheCeiledInstant) {
  // 1 GB + 7 B at 3 Gb/s; the link dies at 0.3 s and comes back at 2 s.
  // The wait after the restore is no whole number of nanoseconds.
  Chain c(3e9);
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  const std::int64_t size = kGB + 7;
  SimTime done;
  const FlowId f = fabric.start_flow(make_flow(c, size),
                                     [&](FlowId, SimTime at) { done = at; });
  const double rate_bytes = 3e9 / 8.0;
  const double left = static_cast<double>(size) - rate_bytes * 0.3;
  sim.at(SimTime::from_seconds(0.3),
         [&] { fabric.fail_link(c.forward.links[0]); });
  sim.run_until(SimTime::from_seconds(0.3));
  EXPECT_EQ(fabric.flow(f).rate.bps(), 0.0);
  EXPECT_EQ(fabric.remaining_bytes(f), left);
  // Starved: nothing is armed, so nothing is pending in the queue.
  ASSERT_EQ(sim.queue().pending(), 0u);

  const SimTime restore = SimTime::from_seconds(2.0);
  sim.at(restore, [&] { fabric.restore_link(c.forward.links[0]); });
  sim.run_until(restore);
  EXPECT_TRUE(fabric.flow_active(f));
  EXPECT_EQ(fabric.remaining_bytes(f), left);
  sim.run();
  const double wait_ns = left / rate_bytes * 1e9;
  ASSERT_NE(wait_ns, std::ceil(wait_ns));
  EXPECT_EQ(done.ns(),
            restore.ns() + static_cast<std::int64_t>(std::ceil(wait_ns)));
}

TEST(Fabric, RemainingBytesIsTheSettledRemainder) {
  // A (1 GB) and B (0.5 GB) share 1 GB/s until B leaves at 1 s.
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  const FlowId a = fabric.start_flow(make_flow(c, kGB, 1));
  const FlowId b = fabric.start_flow(make_flow(c, kGB / 2, 2));
  const double half = 8e9 / 8.0 / 2.0;
  std::vector<double> seen;
  auto probe = [&](double at_s) {
    sim.at(SimTime::from_seconds(at_s), [&] {
      seen.push_back(fabric.remaining_bytes(a));  // as of the last settle
      fabric.settle_and_recompute();
      seen.push_back(fabric.remaining_bytes(a));
    });
  };
  probe(0.2);
  probe(1.2);
  sim.run();

  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], static_cast<double>(kGB));  // nothing settled since 0
  EXPECT_EQ(seen[1], static_cast<double>(kGB) - half * 0.2);
  // B's completion at 1 s settled A, which then runs alone at 1 GB/s.
  const double at_one = seen[1] - half * 0.8;
  EXPECT_EQ(seen[2], at_one);
  EXPECT_EQ(seen[3], at_one - 2.0 * half * 0.2);
  EXPECT_EQ(fabric.remaining_bytes(a), 0.0);
  EXPECT_EQ(fabric.remaining_bytes(b), 0.0);
}

TEST(Fabric, LateObserverSeesOnlyTheBytesAfterItJoined) {
  // 1 GB + 123 B at 1 GB/s; an observer joins right after a settle at
  // 0.3 s. Observers count whole delivered bytes, floor(size - remaining).
  Chain c;
  sim::Simulation sim;
  Fabric fabric(sim, c.topo);
  const std::int64_t size = kGB + 123;
  const FlowId f = fabric.start_flow(make_flow(c, size));
  CountingObserver late;
  auto whole = [&](double remaining) {
    return static_cast<std::int64_t>(static_cast<double>(size) - remaining);
  };
  std::int64_t before = 0;
  std::int64_t mid = 0;
  sim.at(SimTime::from_seconds(0.3), [&] {
    fabric.settle_and_recompute();
    before = whole(fabric.remaining_bytes(f));
    fabric.add_observer(&late);
  });
  sim.at(SimTime::from_seconds(0.7), [&] {
    fabric.settle_and_recompute();
    mid = whole(fabric.remaining_bytes(f));
    EXPECT_EQ(late.moved, mid - before);
  });
  sim.run();

  EXPECT_GT(before, 0);
  EXPECT_GT(mid, before);
  EXPECT_EQ(late.moved, size - before);
  EXPECT_EQ(late.started, 0);
  EXPECT_EQ(late.completed, 1);
}

}  // namespace
}  // namespace pythia::net
