// Churn property test: under randomized flow arrivals, CBR toggles, link
// failures/restores and reroutes, the fluid fabric must conserve bytes and
// deliver every flow once the network quiesces.
#include <gtest/gtest.h>

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

struct ChurnParams {
  std::uint64_t seed;
  std::size_t flows;
  bool with_cbr;
  bool with_failures;
};

class FabricChurn : public ::testing::TestWithParam<ChurnParams> {};

class ByteLedger final : public FabricObserver {
 public:
  std::int64_t moved = 0;
  std::uint64_t completed = 0;
  void on_bytes_moved(const Fabric&, FlowId, Bytes b, SimTime,
                      SimTime) override {
    moved += b.count();
  }
  void on_flow_completed(const Fabric&, FlowId, SimTime) override {
    ++completed;
  }
};

TEST_P(FabricChurn, ConservesBytesAndDrains) {
  const ChurnParams p = GetParam();
  const Topology topo = make_two_rack({});
  const RoutingGraph routing(topo, 2);
  sim::Simulation sim(p.seed);
  Fabric fabric(sim, topo);
  ByteLedger ledger;
  fabric.add_observer(&ledger);
  util::Xoshiro256 rng(p.seed);
  const auto hosts = topo.hosts();

  // Random flow arrivals over the first 10 simulated seconds.
  std::int64_t total_bytes = 0;
  for (std::size_t i = 0; i < p.flows; ++i) {
    const auto at = SimTime::from_seconds(rng.uniform(0.0, 10.0));
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    const auto bytes =
        static_cast<std::int64_t>(rng.uniform(1e6, 2e9));
    total_bytes += bytes;
    const auto path_choice = rng.below(4);
    sim.at(at, [&fabric, &routing, src, dst, bytes, path_choice, i] {
      const auto& paths = routing.paths(src, dst);
      FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = Bytes{bytes};
      spec.path = paths[path_choice % paths.size()].to_vector();
      spec.tuple = FiveTuple{static_cast<std::uint32_t>(i), 1, kShufflePort,
                             static_cast<std::uint16_t>(i), 6};
      spec.cls = FlowClass::kShuffle;
      fabric.start_flow(spec);
    });
  }

  // CBR bursts that come and go.
  if (p.with_cbr) {
    const auto& paths = routing.paths(hosts[0], hosts[9]);
    const auto full = paths[0].to_vector();
    std::vector<LinkId> chain{full.begin() + 1, full.end() - 1};
    sim.at(SimTime::from_seconds(1.0), [&fabric, chain] {
      const CbrId id = fabric.start_cbr(chain, BitsPerSec{9e9});
      fabric.simulation().after(Duration::seconds_i(6),
                                [&fabric, id] { fabric.stop_cbr(id); });
    });
  }

  // A mid-run inter-rack failure with recovery; stranded flows hop paths.
  if (p.with_failures) {
    const auto& paths = routing.paths(hosts[0], hosts[9]);
    const LinkId victim = paths[1][1];
    sim.at(SimTime::from_seconds(3.0), [&fabric, &routing, victim, &hosts] {
      fabric.fail_link(victim);
      for (FlowId f : fabric.flows_crossing(victim)) {
        const auto& flow = fabric.flow(f);
        const auto& alts = routing.paths(flow.spec.src, flow.spec.dst);
        fabric.reroute_flow(f, alts[0].to_vector());
      }
      (void)hosts;
    });
    sim.at(SimTime::from_seconds(7.0),
           [&fabric, victim] { fabric.restore_link(victim); });
  }

  sim.run();

  // Everything delivered, exactly once, with conserved volume.
  EXPECT_EQ(fabric.flows_completed(), p.flows);
  EXPECT_EQ(ledger.completed, p.flows);
  EXPECT_EQ(fabric.active_flow_count(), 0u);
  EXPECT_EQ(fabric.bytes_delivered().count(), total_bytes);
  // Settle-granular observer accounting: within 1 byte per settle interval.
  EXPECT_NEAR(static_cast<double>(ledger.moved),
              static_cast<double>(total_bytes), 1e5);
  // No residual rates.
  for (const auto& link : topo.links()) {
    EXPECT_DOUBLE_EQ(fabric.link_elastic_rate(link.id).bps(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FabricChurn,
    ::testing::Values(ChurnParams{1, 10, false, false},
                      ChurnParams{2, 50, true, false},
                      ChurnParams{3, 50, false, true},
                      ChurnParams{4, 120, true, true},
                      ChurnParams{5, 250, true, true},
                      ChurnParams{6, 30, true, true}),
    [](const auto& info) {
      const auto& p = info.param;
      return "seed" + std::to_string(p.seed) + "_f" +
             std::to_string(p.flows) + (p.with_cbr ? "_cbr" : "") +
             (p.with_failures ? "_fail" : "");
    });

}  // namespace
}  // namespace pythia::net
