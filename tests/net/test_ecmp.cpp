#include "net/ecmp.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

namespace pythia::net {
namespace {

TEST(EcmpHash, DeterministicAndTupleSensitive) {
  const FiveTuple t{0x0a000001, 0x0a010002, 50060, 31000, 6};
  EXPECT_EQ(EcmpSelector::hash_tuple(t), EcmpSelector::hash_tuple(t));

  FiveTuple t2 = t;
  t2.dst_port = 31001;
  EXPECT_NE(EcmpSelector::hash_tuple(t), EcmpSelector::hash_tuple(t2));

  FiveTuple t3 = t;
  t3.proto = 17;
  EXPECT_NE(EcmpSelector::hash_tuple(t), EcmpSelector::hash_tuple(t3));

  FiveTuple t4 = t;
  t4.src_ip ^= 1;
  EXPECT_NE(EcmpSelector::hash_tuple(t), EcmpSelector::hash_tuple(t4));
}

TEST(EcmpHash, IndexInBounds) {
  for (std::uint16_t port = 0; port < 2000; ++port) {
    const FiveTuple t{1, 2, 50060, port, 6};
    for (const std::size_t n : {1UL, 2UL, 3UL, 7UL}) {
      EXPECT_LT(EcmpSelector::select_index(t, n), n);
    }
  }
}

TEST(EcmpHash, RoughlyBalancedOverEphemeralPorts) {
  // ECMP's whole premise: hashing spreads flows ~evenly over paths.
  constexpr std::size_t kPaths = 2;
  constexpr int kFlows = 20'000;
  std::vector<int> counts(kPaths, 0);
  for (int i = 0; i < kFlows; ++i) {
    const FiveTuple t{0x0a000001, 0x0a010002, 50060,
                      static_cast<std::uint16_t>(30000 + i % 30000), 6};
    ++counts[EcmpSelector::select_index(t, kPaths)];
  }
  const double frac = static_cast<double>(counts[0]) / kFlows;
  EXPECT_NEAR(frac, 0.5, 0.02);
}

TEST(EcmpSelector, SelectsFromRoutingGraph) {
  const Topology topo = make_two_rack({});
  const RoutingGraph routing(topo, 2);
  const EcmpSelector ecmp(routing);
  const auto hosts = topo.hosts();
  const NodeId src = hosts[0];
  const NodeId dst = hosts[9];

  bool saw[2] = {false, false};
  const auto& candidates = routing.paths(src, dst);
  ASSERT_EQ(candidates.size(), 2u);
  for (int i = 0; i < 200; ++i) {
    const FiveTuple t{topo.address_of(src), topo.address_of(dst), 50060,
                      static_cast<std::uint16_t>(30000 + i), 6};
    const PathView p = ecmp.select(src, dst, t);
    EXPECT_TRUE(topo.validate_path(src, dst, p.to_vector()));
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      if (p == candidates[k]) saw[k] = true;
    }
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);  // both inter-rack cables get used
}

TEST(EcmpSelector, StablePathForAFlow) {
  // All packets of one flow hash identically: same tuple -> same path.
  const Topology topo = make_two_rack({});
  const RoutingGraph routing(topo, 2);
  const EcmpSelector ecmp(routing);
  const auto hosts = topo.hosts();
  const FiveTuple t{topo.address_of(hosts[0]), topo.address_of(hosts[9]),
                    50060, 31234, 6};
  EXPECT_EQ(ecmp.select(hosts[0], hosts[9], t),
            ecmp.select(hosts[0], hosts[9], t));
}

/// A partitioned pair has no candidate to hash onto: selection must fail
/// with an error naming the pair in every build type, not divide by zero.
TEST(EcmpSelector, EmptyCandidateSetThrows) {
  const FiveTuple t{1, 2, 50060, 31000, 6};
  EXPECT_THROW((void)EcmpSelector::select_index(t, 0), std::invalid_argument);

  const Topology topo = make_two_rack({});
  RoutingGraph routing(topo, 2);
  const auto hosts = topo.hosts();
  std::unordered_set<LinkId> cables;
  for (const PathView p : routing.paths(hosts[0], hosts[9])) {
    cables.insert(p[1]);
  }
  ASSERT_EQ(cables.size(), 2u);
  routing.rebuild(cables);
  ASSERT_FALSE(routing.has_paths(hosts[0], hosts[9]));
  const EcmpSelector ecmp(routing);
  try {
    (void)ecmp.select_id(hosts[0], hosts[9], t);
    ADD_FAILURE() << "select_id returned on a partitioned pair";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(topo.node(hosts[0]).name), std::string::npos) << what;
    EXPECT_NE(what.find(topo.node(hosts[9]).name), std::string::npos) << what;
  }
  EXPECT_THROW((void)ecmp.select(hosts[0], hosts[9], t), std::runtime_error);
  // A pair the partition leaves connected still selects.
  EXPECT_EQ(ecmp.select(hosts[0], hosts[1], t).size(), 2u);
}

}  // namespace
}  // namespace pythia::net
