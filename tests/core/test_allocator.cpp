#include "core/allocator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/fabric.hpp"
#include "sdn/controller.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"

namespace pythia::core {
namespace {

using net::NodeId;
using util::BitsPerSec;
using util::Bytes;

struct Fixture {
  net::Topology topo = net::make_two_rack({});
  sim::Simulation sim;
  net::Fabric fabric{sim, topo};
  sdn::Controller controller{sim, fabric, topo};
  NodeId s0, s1, d0, d1;

  Fixture() {
    const auto hosts = topo.hosts();
    s0 = hosts[0];
    s1 = hosts[1];
    d0 = hosts[9];
    d1 = hosts[8];
  }

  /// CBR on inter-rack path `idx` between s0 and d0.
  void load_path(std::size_t idx, double bps) {
    const auto& paths = controller.routing().paths(s0, d0);
    const auto full = paths[idx].to_vector();
    std::vector<net::LinkId> chain{full.begin() + 1, full.end() - 1};
    fabric.start_cbr(chain, BitsPerSec{bps});
  }
};

TEST(Allocator, AvoidsBackgroundLoadedPath) {
  Fixture f;
  f.load_path(0, 9.5e9);  // path 0 nearly dead
  Allocator alloc(f.controller);

  alloc.add_predicted_volume(f.s0, f.d0, Bytes{100'000'000});
  f.sim.run();  // let the rule activate
  const auto* rule = f.controller.active_rule(f.s0, f.d0);
  ASSERT_NE(rule, nullptr);
  const auto& paths = f.controller.routing().paths(f.s0, f.d0);
  EXPECT_EQ(f.controller.path(rule->path_id), paths[1]);
  EXPECT_EQ(alloc.allocations(), 1u);
}

TEST(Allocator, PacksSecondAggregateAwayFromFirst) {
  // Clean network: the only differentiation is the allocator's own
  // outstanding-intent bookkeeping. Two equal aggregates between disjoint
  // host pairs must land on different inter-rack paths.
  Fixture f;
  Allocator alloc(f.controller);
  alloc.add_predicted_volume(f.s0, f.d0, Bytes{1'000'000'000});
  alloc.add_predicted_volume(f.s1, f.d1, Bytes{1'000'000'000});
  f.sim.run();

  const auto* r0 = f.controller.active_rule(f.s0, f.d0);
  const auto* r1 = f.controller.active_rule(f.s1, f.d1);
  ASSERT_NE(r0, nullptr);
  ASSERT_NE(r1, nullptr);
  // Compare the inter-rack segment (middle hops differ iff paths differ).
  EXPECT_NE(f.controller.path(r0->path_id)[1],
            f.controller.path(r1->path_id)[1]);
}

TEST(Allocator, LinkOutstandingBookkeeping) {
  Fixture f;
  Allocator alloc(f.controller);
  alloc.add_predicted_volume(f.s0, f.d0, Bytes{500});
  EXPECT_EQ(alloc.pair_outstanding(f.s0, f.d0).count(), 500);

  // Outstanding shows up on every link of the chosen path.
  std::int64_t links_with_volume = 0;
  for (const auto& link : f.topo.links()) {
    if (alloc.link_outstanding(link.id).count() > 0) {
      EXPECT_EQ(alloc.link_outstanding(link.id).count(), 500);
      ++links_with_volume;
    }
  }
  EXPECT_EQ(links_with_volume, 4);  // host->tor->wire->tor->host

  alloc.retire_volume(f.s0, f.d0, Bytes{200});
  EXPECT_EQ(alloc.pair_outstanding(f.s0, f.d0).count(), 300);
  alloc.retire_volume(f.s0, f.d0, Bytes{10'000});  // clamps at zero
  EXPECT_EQ(alloc.pair_outstanding(f.s0, f.d0).count(), 0);
  for (const auto& link : f.topo.links()) {
    EXPECT_EQ(alloc.link_outstanding(link.id).count(), 0);
  }
}

TEST(Allocator, RetireUnknownPairIsNoop) {
  Fixture f;
  Allocator alloc(f.controller);
  alloc.retire_volume(f.s0, f.d0, Bytes{100});  // nothing predicted
  EXPECT_EQ(alloc.pair_outstanding(f.s0, f.d0).count(), 0);
}

TEST(Allocator, DrainedAggregateReallocatesAgainstNewState) {
  Fixture f;
  Allocator alloc(f.controller);
  // First round: clean network, allocator picks some path P.
  alloc.add_predicted_volume(f.s0, f.d0, Bytes{1'000'000});
  f.sim.run();
  const auto first =
      f.controller.path(f.controller.active_rule(f.s0, f.d0)->path_id)
          .to_vector();
  alloc.retire_volume(f.s0, f.d0, Bytes{1'000'000});

  // Background then floods P; the drained aggregate's next wave must move.
  const auto& paths = f.controller.routing().paths(f.s0, f.d0);
  const std::size_t loaded = paths[0] == first ? 0 : 1;
  f.load_path(loaded, 9.9e9);
  // Advance time so the controller's load snapshot refreshes.
  f.sim.after(util::Duration::seconds_i(2), [] {});
  f.sim.run();

  alloc.add_predicted_volume(f.s0, f.d0, Bytes{1'000'000});
  f.sim.run();
  const auto second =
      f.controller.path(f.controller.active_rule(f.s0, f.d0)->path_id)
          .to_vector();
  EXPECT_NE(first, second);
  EXPECT_GE(alloc.reallocations(), 1u);
}

TEST(Allocator, LoadBlindModeIgnoresBackground) {
  Fixture f;
  f.load_path(0, 9.9e9);
  AllocatorConfig cfg;
  cfg.load_aware = false;
  Allocator alloc(f.controller, cfg);

  // Load-blind packing considers only its own intents; with none yet, both
  // paths score identically and the deterministic first candidate wins —
  // even though path 0 is nearly dead. (This is the FlowComb-like arm.)
  alloc.add_predicted_volume(f.s0, f.d0, Bytes{100'000'000});
  f.sim.run();
  const auto* rule = f.controller.active_rule(f.s0, f.d0);
  ASSERT_NE(rule, nullptr);
  const auto& paths = f.controller.routing().paths(f.s0, f.d0);
  EXPECT_EQ(f.controller.path(rule->path_id), paths[0]);
}

TEST(Allocator, RackModeSameRackPairFallsBackToServerInstall) {
  // Regression: under rack-pair aggregation an intra-rack host→ToR→host path
  // (2 links) used to strip to an empty inter-rack chain and install a bogus
  // (rack, rack) wildcard rule. Same-rack pairs must install at server
  // granularity instead.
  Fixture f;
  AllocatorConfig cfg;
  cfg.aggregation = Aggregation::kRackPair;
  Allocator alloc(f.controller, cfg);

  alloc.add_predicted_volume(f.s0, f.s1, Bytes{1'000'000});  // same rack
  f.sim.run();
  EXPECT_EQ(f.controller.active_rack_chain(0, 0), nullptr);
  const auto* rule = f.controller.active_rule(f.s0, f.s1);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(f.controller.path(rule->path_id).size(),
            2u);  // host→ToR→host, nothing stripped

  // Cross-rack pairs still aggregate to one rule per rack pair.
  alloc.add_predicted_volume(f.s0, f.d0, Bytes{1'000'000});
  f.sim.run();
  EXPECT_NE(f.controller.active_rack_chain(0, 1), nullptr);
}

TEST(Allocator, DrainTimeMath) {
  Fixture f;
  Allocator alloc(f.controller);
  const auto& paths = f.controller.routing().paths(f.s0, f.d0);
  // Clean path, 10 Gbps bottleneck: 1 GB (8 Gbit) drains in 0.8 s.
  EXPECT_NEAR(alloc.drain_time_seconds(paths[0], Bytes{1'000'000'000}), 0.8,
              1e-9);
  // With 5 Gbps of background the same volume takes 1.6 s.
  f.load_path(0, 5e9);
  f.sim.after(util::Duration::seconds_i(2), [] {});
  f.sim.run();
  EXPECT_NEAR(alloc.drain_time_seconds(paths[0], Bytes{1'000'000'000}), 1.6,
              1e-6);
}

TEST(Allocator, GrowingAggregateKeepsItsPath) {
  Fixture f;
  Allocator alloc(f.controller);
  alloc.add_predicted_volume(f.s0, f.d0, Bytes{1'000'000});
  f.sim.run();
  const auto first = f.controller.active_rule(f.s0, f.d0)->path_id;
  // More volume while still outstanding: first-fit sticks to the path.
  alloc.add_predicted_volume(f.s0, f.d0, Bytes{2'000'000});
  f.sim.run();
  EXPECT_EQ(f.controller.active_rule(f.s0, f.d0)->path_id, first);
  EXPECT_EQ(alloc.pair_outstanding(f.s0, f.d0).count(), 3'000'000);
  EXPECT_EQ(alloc.reallocations(), 0u);
}

/// FNV-1a over the allocator's and then the controller's encode_state.
std::uint64_t state_hash(const Allocator& alloc) {
  sim::StateEncoder enc;
  alloc.encode_state(enc);
  alloc.controller().encode_state(enc);
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : enc.bytes()) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// One scripted run of the allocator in `mode`, hashed after every step.
std::vector<std::uint64_t> scripted_hashes(Aggregation mode) {
  Fixture f;
  AllocatorConfig cfg;
  cfg.aggregation = mode;
  Allocator alloc(f.controller, cfg);
  const auto& h = f.topo.hosts();
  std::vector<std::uint64_t> got;
  const auto step = [&] {
    got.push_back(state_hash(alloc));
    f.sim.run();
    got.push_back(state_hash(alloc));
  };
  // Two cross-rack aggregates (one rack pair in rack mode), a same-rack
  // one, growth, a drain and its reallocation.
  alloc.add_predicted_volume(h[0], h[5], Bytes{1'000'000});
  step();
  alloc.add_predicted_volume(h[1], h[6], Bytes{2'000'000}, 3);
  step();
  alloc.add_predicted_volume(h[0], h[1], Bytes{500'000});
  step();
  alloc.add_predicted_volume(h[0], h[5], Bytes{1'000'000});
  step();
  alloc.retire_volume(h[1], h[6], Bytes{2'000'000});
  alloc.retire_volume(h[3], h[2], Bytes{1});  // never predicted: no-op
  step();
  alloc.add_predicted_volume(h[1], h[6], Bytes{3'000'000});
  step();
  // The reverse direction, a zero-volume aggregate and an intra-rack pair
  // on the other rack.
  alloc.add_predicted_volume(h[7], h[2], Bytes{4'000'000});
  alloc.add_predicted_volume(h[8], h[3], Bytes{0});
  alloc.add_predicted_volume(h[9], h[5], Bytes{700'000});
  step();
  // Watchdog fallback: volume tracked, nothing installed; then resume.
  alloc.suspend();
  alloc.add_predicted_volume(h[2], h[7], Bytes{900'000}, 2);
  f.controller.clear_host_rules();
  step();
  alloc.resume();
  step();
  alloc.retire_volume(h[0], h[5], Bytes{10'000'000});
  step();
  return got;
}

// Pins the allocator's snapshot bytes (and the controller's, which holds its
// rules) over a scripted sequence in both aggregation modes. The hashes were
// recorded on the map-based aggregate table the rows replaced.
TEST(AllocatorEncoding, ServerModeSequenceKeepsEncodeBytes) {
  const std::vector<std::uint64_t> expected = {
      0xd2e6b355c790b773ull, 0x518a9e687a85902cull, 0x72ea92849a81368eull,
      0x7e2beb0a44e42d7dull, 0x0c4a8b716d4f381cull, 0x0c2568ef63fbffa3ull,
      0x67026a3ea4ff02e1ull, 0x67026a3ea4ff02e1ull, 0x1ea82c958341c813ull,
      0x1ea82c958341c813ull, 0xf572fd580a4f54ceull, 0xfa468a3fddfba479ull,
      0xf495c460ab6476eeull, 0x825b9fd1cca99c39ull, 0xe4f96818682466c3ull,
      0xe4f96818682466c3ull, 0xe22a0535a6499825ull, 0xf20c56d943e8fb8dull,
      0x28947f75e665d7edull, 0x28947f75e665d7edull,
  };
  const auto got = scripted_hashes(Aggregation::kServerPair);
  EXPECT_EQ(got, expected);
}

TEST(AllocatorEncoding, RackModeSequenceKeepsEncodeBytes) {
  const std::vector<std::uint64_t> expected = {
      0x2a3421e70d0c2b76ull, 0x9977dab9b11350f3ull, 0x0c202f5efa732a7full,
      0x0c202f5efa732a7full, 0x585a7f9aaf28b78eull, 0xe6c930e43dd9a1afull,
      0x5fcb5343adb646baull, 0x5fcb5343adb646baull, 0x5ad4cb85d75b1eebull,
      0x5ad4cb85d75b1eebull, 0xe1972d384aba777cull, 0xe1972d384aba777cull,
      0xddadb47f8fcdb7b8ull, 0x0f1d288ad7820ebaull, 0xcb3b818174134d0bull,
      0xcb3b818174134d0bull, 0x592b82d3ceec5a3aull, 0xa4a357ed103b97f0ull,
      0x6cfbb3a107ef12d4ull, 0x6cfbb3a107ef12d4ull,
  };
  const auto got = scripted_hashes(Aggregation::kRackPair);
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace pythia::core
