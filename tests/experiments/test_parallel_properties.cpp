// Property test: randomized fat-tree topologies with flow churn, executed as
// a multi-run workload under the ParallelRunner (extending the single-run
// test_maxmin_properties). Every run derives its universe from
// util::split_seed and checks, at every flow arrival/departure:
//   - link capacity is never exceeded (elastic rate <= residual capacity),
//   - byte conservation: each completed flow delivered exactly spec.size and
//     the fabric's delivered total equals the sum over completed flows.
// Violations are gathered per run and asserted on the main thread, so the
// test is sanitizer-friendly and failure output names the offending run.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "experiments/parallel_runner.hpp"
#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "util/random.hpp"

namespace pythia::exp {
namespace {

using net::Fabric;
using net::FlowId;
using util::BitsPerSec;
using util::Bytes;

constexpr double kEpsBps = 1e-3;

/// Checks every link's elastic load against residual capacity.
void check_capacity(const Fabric& fabric, const net::Topology& topo,
                    util::SimTime at, std::vector<std::string>* violations) {
  for (const auto& link : topo.links()) {
    const double used = fabric.link_elastic_rate(link.id).bps();
    const double residual = fabric.link_residual_capacity(link.id).bps();
    if (used > residual + kEpsBps) {
      violations->push_back("t=" + std::to_string(at.ns()) + " link " +
                            std::to_string(link.id.value()) +
                            " over capacity: " + std::to_string(used) +
                            " > " + std::to_string(residual));
    }
  }
}

struct ChurnOutcome {
  std::vector<std::string> violations;
  std::size_t flows_started = 0;
  std::size_t flows_completed = 0;
  std::int64_t bytes_expected = 0;   // sum of completed flows' spec sizes
  std::int64_t bytes_delivered = 0;  // fabric counter at end
};

/// Observer asserting invariants at every churn point and accounting
/// per-flow delivered bytes.
class ChurnChecker : public net::FabricObserver {
 public:
  ChurnChecker(const net::Topology& topo, ChurnOutcome* out)
      : topo_(&topo), out_(out) {}

  void on_flow_started(const Fabric& fabric, FlowId flow,
                       util::SimTime at) override {
    ++out_->flows_started;
    moved_[flow.value()] = 0;  // FlowIds recycle; reset the accumulator
    check_capacity(fabric, *topo_, at, &out_->violations);
  }

  void on_bytes_moved(const Fabric& /*fabric*/, FlowId flow, Bytes moved,
                      util::SimTime /*from*/, util::SimTime /*to*/) override {
    moved_[flow.value()] += moved.count();
  }

  void on_flow_completed(const Fabric& fabric, FlowId flow,
                         util::SimTime at) override {
    ++out_->flows_completed;
    const std::int64_t size = fabric.flow(flow).spec.size.count();
    out_->bytes_expected += size;
    const std::int64_t observed = moved_[flow.value()];
    if (observed != size) {
      out_->violations.push_back(
          "flow " + std::to_string(flow.value()) + " delivered " +
          std::to_string(observed) + " bytes, spec " + std::to_string(size));
    }
    check_capacity(fabric, *topo_, at, &out_->violations);
  }

 private:
  const net::Topology* topo_;
  ChurnOutcome* out_;
  std::map<std::uint32_t, std::int64_t> moved_;  // keyed by raw flow id
};

/// One randomized churn run: staggered finite flows between random host
/// pairs on a fat-tree, with a CBR brown-out on one core path.
ChurnOutcome run_churn(std::uint64_t seed, std::size_t k, std::size_t flows) {
  net::FatTreeConfig ft;
  ft.k = k;
  const net::Topology topo = net::make_fat_tree(ft);
  const net::RoutingGraph routing(topo, k);

  sim::Simulation sim(seed);
  Fabric fabric(sim, topo);
  ChurnOutcome out;
  ChurnChecker checker(topo, &out);
  fabric.add_observer(&checker);

  util::Xoshiro256 rng(seed);
  const auto hosts = topo.hosts();

  // Background CBR at 40% of one random cross-pod path.
  {
    const net::NodeId a = hosts[rng.below(hosts.size())];
    net::NodeId b = a;
    while (b == a) b = hosts[rng.below(hosts.size())];
    const auto& paths = routing.paths(a, b);
    fabric.start_cbr(paths[rng.below(paths.size())].to_vector(),
                     BitsPerSec{0.4 * 10e9});
  }

  for (std::size_t i = 0; i < flows; ++i) {
    const net::NodeId src = hosts[rng.below(hosts.size())];
    net::NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    const auto& paths = routing.paths(src, dst);
    const auto& path = paths[rng.below(paths.size())];
    net::FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    // 1–100 MB so flows overlap and drain at different times.
    spec.size = Bytes{static_cast<std::int64_t>(1 + rng.below(100)) * 1000 *
                      1000};
    spec.path = path.to_vector();
    spec.tuple = net::FiveTuple{static_cast<std::uint32_t>(i), 0, 0,
                                static_cast<std::uint16_t>(i), 6};
    // Stagger arrivals across the first 2 simulated seconds.
    const auto start_at = util::Duration{static_cast<std::int64_t>(
        rng.below(2'000'000'000ULL))};
    sim.after(start_at, [&fabric, spec] { fabric.start_flow(spec); });
  }
  sim.run();
  out.bytes_delivered = fabric.bytes_delivered().count();
  return out;
}

TEST(ParallelProperties, FatTreeChurnConservesBytesAndCapacity) {
  struct Case {
    std::size_t k;
    std::size_t flows;
  };
  // k=6 already exercises multi-pod path diversity; k=8's routing
  // precompute alone would dominate the sanitizer-job budget.
  const std::vector<Case> cases = {{4, 40}, {4, 80}, {4, 120},
                                   {6, 60}, {6, 120}};
  constexpr std::uint64_t kRootSeed = 0xC0FFEE;

  ParallelRunner runner(4);
  const auto outcomes = runner.map<ChurnOutcome>(
      cases.size(), [&](std::size_t i) {
        return run_churn(util::split_seed(kRootSeed, i), cases[i].k,
                         cases[i].flows);
      });

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ChurnOutcome& out = outcomes[i];
    SCOPED_TRACE("run " + std::to_string(i) + " (k=" +
                 std::to_string(cases[i].k) + ", flows=" +
                 std::to_string(cases[i].flows) + ")");
    for (const auto& v : out.violations) ADD_FAILURE() << v;
    EXPECT_EQ(out.flows_started, cases[i].flows);
    EXPECT_EQ(out.flows_completed, cases[i].flows);
    // Fabric-level conservation: delivered total == sum of completed specs.
    EXPECT_EQ(out.bytes_delivered, out.bytes_expected);
    EXPECT_GT(out.bytes_delivered, 0);
  }
}

TEST(ParallelProperties, ChurnOutcomesDeterministicAcrossThreadCounts) {
  constexpr std::uint64_t kRootSeed = 0xBEEF;
  auto run_all = [&](std::size_t threads) {
    ParallelRunner runner(threads);
    return runner.map<ChurnOutcome>(3, [&](std::size_t i) {
      return run_churn(util::split_seed(kRootSeed, i), 4, 30 + 10 * i);
    });
  };
  const auto a = run_all(1);
  const auto b = run_all(8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bytes_delivered, b[i].bytes_delivered);
    EXPECT_EQ(a[i].flows_completed, b[i].flows_completed);
    EXPECT_EQ(a[i].violations, b[i].violations);
  }
}

}  // namespace
}  // namespace pythia::exp
