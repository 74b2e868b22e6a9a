// Regression tests for the fabric accounting bugs: settle() byte-rounding
// drift, zero-byte flows skipping on_flow_started, link_utilization on
// failed/zero-capacity links, and a randomized byte-conservation property
// (every completed flow's observer bytes == its spec.size, on leaf-spine and
// fat-tree churn).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"
#include "util/random.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;
using util::Duration;
using util::SimTime;

/// Accumulates per-flow observer bytes and start/complete pairing.
class AccountingProbe : public FabricObserver {
 public:
  void on_flow_started(const Fabric&, FlowId, SimTime) override { ++starts_; }
  void on_bytes_moved(const Fabric&, FlowId flow, Bytes moved, SimTime,
                      SimTime) override {
    total_moved_ += moved.count();
    flow_moved_[flow.value()] += moved.count();
  }
  void on_flow_completed(const Fabric& fabric, FlowId flow,
                         SimTime) override {
    ++completions_;
    const std::int64_t size = fabric.flow(flow).spec.size.count();
    completed_size_ += size;
    // Ids recycle once a flow completes: close its ledger entry now.
    completed_.emplace_back(size, flow_moved_[flow.value()]);
    flow_moved_.erase(flow.value());
  }

  std::uint64_t starts_ = 0;
  std::uint64_t completions_ = 0;
  std::int64_t total_moved_ = 0;
  std::int64_t completed_size_ = 0;
  /// (spec size, observer total) per completed flow.
  std::vector<std::pair<std::int64_t, std::int64_t>> completed_;

 private:
  std::map<std::uint32_t, std::int64_t> flow_moved_;
};

TEST(FabricAccounting, SettleResidueSumsExactly) {
  // Regression: settle() used to round each interval's bytes independently
  // (int64(moved + 0.5)), so many short settle intervals drifted the
  // cumulative observer total away from spec.size. A size chosen to produce
  // a recurring fractional rate across many forced settles must still sum
  // exactly.
  const Topology topo = make_two_rack({});
  sim::Simulation sim;
  Fabric fabric(sim, topo);
  AccountingProbe probe;
  fabric.add_observer(&probe);

  const auto hosts = topo.hosts();
  const RoutingGraph routing(topo, 2);
  FlowSpec spec;
  spec.src = hosts[0];
  spec.dst = hosts[5];
  spec.size = Bytes{1'000'000'007};  // prime: never divides evenly
  spec.path = routing.paths(spec.src, spec.dst)[0].to_vector();
  fabric.start_flow(spec);

  // Force hundreds of settle points at awkward intervals.
  for (int i = 1; i <= 700; ++i) {
    sim.at(SimTime{i * 1'000'003LL}, [&fabric] {
      fabric.settle_and_recompute();
    });
  }
  sim.run();

  EXPECT_EQ(probe.completions_, 1u);
  EXPECT_EQ(probe.total_moved_, spec.size.count());  // exact, no tolerance
}

TEST(FabricAccounting, ZeroByteFlowFiresStartBeforeCompletion) {
  // Regression: zero-byte flows used to fire on_flow_completed without ever
  // firing on_flow_started, breaking observers that key state on the start.
  class PairingProbe : public FabricObserver {
   public:
    void on_flow_started(const Fabric&, FlowId f, SimTime) override {
      started_.push_back(f);
    }
    void on_flow_completed(const Fabric&, FlowId f, SimTime) override {
      // The start must already have been seen for this id.
      bool seen = false;
      for (FlowId s : started_) seen = seen || s == f;
      EXPECT_TRUE(seen) << "completion without start for flow " << f.value();
      ++completions_;
    }
    std::vector<FlowId> started_;
    int completions_ = 0;
  };

  const Topology topo = make_two_rack({});
  sim::Simulation sim;
  Fabric fabric(sim, topo);
  PairingProbe probe;
  fabric.add_observer(&probe);

  const auto hosts = topo.hosts();
  FlowSpec spec;
  spec.src = hosts[0];
  spec.dst = hosts[0];
  spec.size = Bytes::zero();
  bool callback_ran = false;
  fabric.start_flow(spec, [&](FlowId, SimTime) { callback_ran = true; });
  EXPECT_EQ(probe.started_.size(), 1u);   // start fires synchronously
  EXPECT_EQ(probe.completions_, 0);       // completion stays deferred
  sim.run();
  EXPECT_EQ(probe.completions_, 1);
  EXPECT_TRUE(callback_ran);
}

TEST(FabricAccounting, FailedLinkReportsZeroUtilization) {
  // Regression: link_utilization ignored link_up_, so a failed link kept
  // reporting its stale pre-failure utilization.
  const Topology topo = make_two_rack({});
  sim::Simulation sim;
  Fabric fabric(sim, topo);
  const auto hosts = topo.hosts();
  const RoutingGraph routing(topo, 2);
  const auto& path = routing.paths(hosts[0], hosts[5])[0];
  FlowSpec spec;
  spec.src = hosts[0];
  spec.dst = hosts[5];
  spec.size = Bytes{50'000'000'000};
  spec.path = path.to_vector();
  fabric.start_flow(spec);

  const LinkId mid = path[1];
  EXPECT_GT(fabric.link_utilization(mid), 0.9);  // saturated by the flow
  fabric.fail_link(mid);
  EXPECT_EQ(fabric.link_utilization(mid), 0.0);
  fabric.restore_link(mid);
  EXPECT_GT(fabric.link_utilization(mid), 0.9);  // flow resumes
}

TEST(FabricAccounting, ByteConservationAcrossRandomizedChurn) {
  // Property: over a randomized seeded run with staggered finite flows,
  // every completed flow's observer byte total equals its spec size exactly
  // (integer equality, no tolerance), so the sums match too, and they match
  // the fabric's own delivered counter. The fat-tree input also mixes in
  // zero-byte flows, which complete without moving a byte.
  struct ChurnInput {
    std::uint64_t seed;
    bool fat_tree;
    int zero_byte_every;  // every n-th flow carries zero bytes; 0 = none
  };
  for (const ChurnInput in :
       {ChurnInput{3, false, 0}, ChurnInput{17, false, 0},
        ChurnInput{99, false, 0}, ChurnInput{2026, false, 0},
        ChurnInput{21, true, 7}}) {
    SCOPED_TRACE("seed " + std::to_string(in.seed) +
                 (in.fat_tree ? " fat tree" : " leaf-spine"));
    LeafSpineConfig cfg;
    cfg.racks = 2;
    cfg.servers_per_rack = 4;
    cfg.spines = 2;
    FatTreeConfig fat_cfg;
    fat_cfg.k = 4;
    const Topology topo =
        in.fat_tree ? make_fat_tree(fat_cfg) : make_leaf_spine(cfg);
    const RoutingGraph routing(topo, in.fat_tree ? 4 : cfg.spines);
    sim::Simulation sim(in.seed);
    Fabric fabric(sim, topo);
    AccountingProbe probe;
    fabric.add_observer(&probe);
    util::Xoshiro256 rng(in.seed);
    const auto hosts = topo.hosts();

    constexpr int kFlows = 50;
    for (int i = 0; i < kFlows; ++i) {
      const NodeId src = hosts[rng.below(hosts.size())];
      NodeId dst = src;
      while (dst == src) dst = hosts[rng.below(hosts.size())];
      const auto& paths = routing.paths(src, dst);
      const bool zero_byte =
          in.zero_byte_every > 0 && i % in.zero_byte_every == 0;
      FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = zero_byte ? Bytes::zero()
                            : Bytes{static_cast<std::int64_t>(
                                  1 + rng.below(300'000'000))};
      spec.path = paths[rng.below(paths.size())].to_vector();
      spec.weight = rng.uniform(0.5, 3.0);
      sim.at(SimTime{static_cast<std::int64_t>(rng.below(1'500'000'000))},
             [&fabric, spec] { fabric.start_flow(spec); });
    }
    sim.run();

    EXPECT_EQ(probe.starts_, static_cast<std::uint64_t>(kFlows));
    EXPECT_EQ(probe.completions_, static_cast<std::uint64_t>(kFlows));
    ASSERT_EQ(probe.completed_.size(), static_cast<std::size_t>(kFlows));
    for (const auto& [spec_size, observed] : probe.completed_) {
      EXPECT_EQ(observed, spec_size);  // exact, to the byte
    }
    EXPECT_EQ(probe.total_moved_, probe.completed_size_);
    EXPECT_EQ(fabric.bytes_delivered().count(), probe.completed_size_);
  }
}

TEST(FabricAccounting, SlotRecyclingBoundsStorage) {
  // Sequential flows reuse the same slot instead of growing flows_ forever.
  const Topology topo = make_two_rack({});
  sim::Simulation sim;
  Fabric fabric(sim, topo);
  const auto hosts = topo.hosts();
  const RoutingGraph routing(topo, 2);
  const auto path = routing.paths(hosts[0], hosts[5])[0].to_vector();

  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 20; ++i) {
    FlowSpec spec;
    spec.src = hosts[0];
    spec.dst = hosts[5];
    spec.size = Bytes{1'000'000};
    spec.path = path;
    slots.push_back(fabric.start_flow(spec).value());
    sim.run();  // drain to completion before the next start
  }
  EXPECT_EQ(fabric.flows_completed(), 20u);
  // All 20 sequential flows occupied one recycled slot.
  for (std::uint32_t s : slots) EXPECT_EQ(s, slots[0]);
}

}  // namespace
}  // namespace pythia::net
