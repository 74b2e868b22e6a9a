// Property-based validation of the fluid max-min allocator: on randomized
// leaf-spine topologies and a k = 4 fat tree, with randomized flow sets and
// CBR background, the computed rates must satisfy the defining properties of
// a (weighted) max-min fair allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/maxmin_certificate.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"
#include "util/random.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;

enum class Shape { kLeafSpine, kFatTree };

struct Params {
  std::uint64_t seed;
  std::size_t spines;  // leaf-spine only; the fat tree routes over 4 paths
  std::size_t flows;
  double cbr_fraction;  // of one host link's capacity
  bool weighted = false;  // draw per-flow weights in [0.5, 4]
  Shape shape = Shape::kLeafSpine;
};

/// A 2-rack x 3-server leaf-spine with 10 Gb/s links, or a k = 4 fat tree.
Topology make_topology(const Params& p) {
  if (p.shape == Shape::kFatTree) {
    FatTreeConfig cfg;
    cfg.k = 4;
    return make_fat_tree(cfg);
  }
  LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 3;
  cfg.spines = p.spines;
  cfg.host_link = BitsPerSec{10e9};
  cfg.uplink = BitsPerSec{10e9};
  return make_leaf_spine(cfg);
}

class MaxMinProperty : public ::testing::TestWithParam<Params> {};

TEST_P(MaxMinProperty, AllocationIsMaxMinFair) {
  const Params p = GetParam();
  const bool fat_tree = p.shape == Shape::kFatTree;
  const Topology topo = make_topology(p);
  const RoutingGraph routing(topo, fat_tree ? 4 : p.spines);

  sim::Simulation sim(p.seed);
  Fabric fabric(sim, topo);
  util::Xoshiro256 rng(p.seed);

  const auto hosts = topo.hosts();
  // Optional CBR on a cross-rack (cross-pod) path, a fraction of its first
  // link's capacity.
  const NodeId cbr_src = hosts[0];
  const NodeId cbr_dst = fat_tree ? hosts.back() : hosts[4];
  auto start_cbr = [&](Fabric& fab) {
    const auto& paths = routing.paths(cbr_src, cbr_dst);
    ASSERT_FALSE(paths.empty());
    const double capacity = topo.link(paths[0][0]).capacity.bps();
    fab.start_cbr(paths[0].to_vector(), BitsPerSec{capacity * p.cbr_fraction});
  };
  if (p.cbr_fraction > 0.0) start_cbr(fabric);

  std::vector<FlowId> flows;
  for (std::size_t i = 0; i < p.flows; ++i) {
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    const auto& paths = routing.paths(src, dst);
    ASSERT_FALSE(paths.empty());
    const auto& path = paths[rng.below(paths.size())];
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{static_cast<std::int64_t>(1e12)};  // long-lived
    spec.path = path.to_vector();
    spec.tuple = FiveTuple{static_cast<std::uint32_t>(i), 0, 0,
                           static_cast<std::uint16_t>(i), 6};
    spec.weight = p.weighted ? rng.uniform(0.5, 4.0) : 1.0;
    flows.push_back(fabric.start_flow(spec));
  }

  // Properties 1-3: every rate is nonnegative, no link carries more
  // elastic traffic than its residual capacity (capacity minus CBR, floored
  // at zero), and every flow has a bottleneck link, saturated and with no
  // other flow at a strictly larger weight-normalized rate
  // (net/maxmin_certificate.hpp). The certificate covers the fabric's
  // active set, so first check that it holds every flow started here (all
  // are long-lived).
  std::vector<FlowId> started = flows;
  std::sort(started.begin(), started.end());
  EXPECT_EQ(fabric.active_flows(), started);
  certificate::expect_maxmin(fabric, "seed " + std::to_string(p.seed));

  // Property 4: determinism — rebuilding the identical scenario yields
  // identical rates.
  sim::Simulation sim2(p.seed);
  Fabric fabric2(sim2, topo);
  util::Xoshiro256 rng2(p.seed);
  if (p.cbr_fraction > 0.0) start_cbr(fabric2);
  std::vector<FlowId> flows2;
  for (std::size_t i = 0; i < p.flows; ++i) {
    const NodeId src = hosts[rng2.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng2.below(hosts.size())];
    const auto& paths = routing.paths(src, dst);
    const auto& path = paths[rng2.below(paths.size())];
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{static_cast<std::int64_t>(1e12)};
    spec.path = path.to_vector();
    spec.tuple = FiveTuple{static_cast<std::uint32_t>(i), 0, 0,
                           static_cast<std::uint16_t>(i), 6};
    spec.weight = p.weighted ? rng2.uniform(0.5, 4.0) : 1.0;
    flows2.push_back(fabric2.start_flow(spec));
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(fabric.flow(flows[i]).rate.bps(),
                     fabric2.flow(flows2[i]).rate.bps());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaxMinProperty,
    ::testing::Values(
        Params{1, 2, 4, 0.0}, Params{2, 2, 12, 0.0}, Params{3, 2, 12, 0.6},
        Params{4, 3, 20, 0.0}, Params{5, 3, 20, 0.9}, Params{6, 4, 40, 0.5},
        Params{7, 2, 1, 0.95}, Params{8, 4, 64, 0.0}, Params{9, 4, 64, 0.8},
        Params{10, 2, 30, 0.3}, Params{11, 2, 20, 0.0, true},
        Params{12, 3, 40, 0.6, true}, Params{13, 4, 64, 0.5, true},
        Params{1, 0, 8, 0.0, false, Shape::kFatTree},
        Params{2, 0, 40, 0.0, false, Shape::kFatTree},
        Params{3, 0, 40, 0.6, false, Shape::kFatTree},
        Params{4, 0, 96, 0.0, false, Shape::kFatTree},
        Params{5, 0, 96, 0.8, true, Shape::kFatTree},
        Params{6, 0, 64, 0.5, true, Shape::kFatTree},
        Params{7, 0, 64, 0.0, false, Shape::kFatTree},
        Params{8, 0, 96, 0.5, true, Shape::kFatTree}),
    [](const auto& info) {
      const Params& p = info.param;
      const std::string shape = p.shape == Shape::kFatTree
                                    ? "fattree_k4"
                                    : "spines" + std::to_string(p.spines);
      return "seed" + std::to_string(p.seed) + "_" + shape + "_flows" +
             std::to_string(p.flows) + "_cbr" +
             std::to_string(static_cast<int>(p.cbr_fraction * 100)) +
             (p.weighted ? "_weighted" : "");
    });

}  // namespace
}  // namespace pythia::net
