#include "sdn/controller.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"

namespace pythia::sdn {
namespace {

using net::FiveTuple;
using net::FlowClass;
using net::FlowSpec;
using net::NodeId;
using net::Path;
using util::BitsPerSec;
using util::Bytes;
using util::Duration;

struct Fixture {
  net::Topology topo = net::make_two_rack({});
  sim::Simulation sim;
  net::Fabric fabric{sim, topo};
  NodeId src, dst;

  Fixture() {
    const auto hosts = topo.hosts();
    src = hosts[0];
    dst = hosts[9];
  }

  Controller make_controller(ControllerConfig cfg = {}) {
    return Controller(sim, fabric, topo, cfg);
  }
};

TEST(Controller, RejectsZeroKPaths) {
  // k = 0 leaves every pair without candidates: background placement would
  // install nothing and ECMP would compute hash % 0.
  Fixture f;
  ControllerConfig cfg;
  cfg.k_paths = 0;
  EXPECT_THROW((void)f.make_controller(cfg), std::invalid_argument);
  cfg.k_paths = 1;
  EXPECT_NO_THROW((void)f.make_controller(cfg));
}

/// The message of the std::invalid_argument constructing with `cfg` throws
/// (empty if it throws none).
std::string rejection(Fixture& f, const ControllerConfig& cfg) {
  try {
    (void)f.make_controller(cfg);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(Controller, RejectsConfigsThatBreakTheEventLoop) {
  // Negative durations would schedule activations, stats refreshes, retries
  // and timeouts before now(); a reject probability outside [0, 1] (or NaN)
  // is not a probability; the 41st retry of a 40-retry budget at 8 ms waits
  // 8 ms · 2^39 after 8 ms · (2^39 − 1) of earlier waits, past half of the
  // int64 clock; without backoff the waits sum to zero, but the doubling
  // factor itself must fit in int64.
  struct Bad {
    const char* field;
    void (*edit)(ControllerConfig&);
  };
  const Bad bad[] = {
      {"rule_install_latency",
       [](ControllerConfig& c) { c.rule_install_latency = Duration{-1}; }},
      {"link_stats_period",
       [](ControllerConfig& c) { c.link_stats_period = Duration{-1}; }},
      {"retry_backoff",
       [](ControllerConfig& c) { c.retry_backoff = Duration{-1}; }},
      {"install_timeout",
       [](ControllerConfig& c) { c.install_timeout = Duration{-1}; }},
      {"install_reject_probability",
       [](ControllerConfig& c) { c.install_reject_probability = -0.1; }},
      {"install_reject_probability",
       [](ControllerConfig& c) { c.install_reject_probability = 1.5; }},
      {"install_reject_probability",
       [](ControllerConfig& c) {
         c.install_reject_probability = std::nan("");
       }},
      {"max_install_retries",
       [](ControllerConfig& c) { c.max_install_retries = 40; }},
      {"max_install_retries",
       [](ControllerConfig& c) {
         c.retry_backoff = Duration::zero();
         c.max_install_retries = 64;
       }},
  };
  Fixture f;
  for (const Bad& b : bad) {
    ControllerConfig cfg;
    b.edit(cfg);
    EXPECT_THROW((void)f.make_controller(cfg), std::invalid_argument)
        << b.field;
    EXPECT_NE(rejection(f, cfg).find(b.field), std::string::npos) << b.field;
  }

  // The edges are accepted: zero durations, probabilities 0 and 1, and the
  // largest budgets.
  ControllerConfig edge;
  edge.rule_install_latency = Duration::zero();
  edge.link_stats_period = Duration::zero();
  edge.install_timeout = Duration::zero();
  edge.install_reject_probability = 1.0;
  edge.max_install_retries = 39;
  EXPECT_NO_THROW((void)f.make_controller(edge));
  edge.retry_backoff = Duration::zero();
  edge.max_install_retries = 63;
  EXPECT_NO_THROW((void)f.make_controller(edge));
}

TEST(Controller, LargestRetryBudgetAbandonsAfterEveryAttempt) {
  // Every attempt rejected under the largest accepted budget: the last
  // retry waits 8 ms · 2^38 (~70 years of simulated time) and the clock
  // never overflows.
  Fixture f;
  ControllerConfig cfg;
  cfg.install_reject_probability = 1.0;
  cfg.max_install_retries = 39;
  auto ctl = f.make_controller(cfg);
  const auto paths = ctl.routing().paths(f.src, f.dst);
  ASSERT_TRUE(ctl.install_path_id(f.src, f.dst, paths.id(0)));
  f.sim.run();
  EXPECT_EQ(ctl.install_attempts(), 40u);
  EXPECT_EQ(ctl.install_rejects(), 40u);
  EXPECT_EQ(ctl.install_retries(), 39u);
  EXPECT_EQ(ctl.installs_abandoned(), 1u);
  EXPECT_EQ(ctl.active_rule(f.src, f.dst), nullptr);
  const util::SimTime last{Duration::millis(8).ns() * ((1LL << 39) - 1)};
  EXPECT_EQ(f.sim.now(), last);
}

TEST(Controller, ResolveFallsBackToEcmp) {
  Fixture f;
  auto ctl = f.make_controller();
  const FiveTuple t{1, 2, 50060, 31000, 6};
  EXPECT_TRUE(f.topo.validate_path(f.src, f.dst,
                                   ctl.resolve(f.src, f.dst, t).to_vector()));
  EXPECT_EQ(ctl.rules_installed(), 0u);
}

TEST(Controller, RuleInstallHasLatency) {
  Fixture f;
  ControllerConfig cfg;
  cfg.rule_install_latency = Duration::millis(4);
  auto ctl = f.make_controller(cfg);
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  ASSERT_EQ(paths.size(), 2u);

  ctl.install_path_id(f.src, f.dst, paths.id(1));
  EXPECT_EQ(ctl.rules_installed(), 1u);
  // Not yet active: install latency has not elapsed.
  EXPECT_EQ(ctl.active_rule(f.src, f.dst), nullptr);

  f.sim.run_until(util::SimTime::from_seconds(0.003));
  EXPECT_EQ(ctl.active_rule(f.src, f.dst), nullptr);
  f.sim.run_until(util::SimTime::from_seconds(0.005));
  const PathRule* rule = ctl.active_rule(f.src, f.dst);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(ctl.path(rule->path_id), paths[1]);

  // Resolve now returns the rule's path regardless of the hash.
  for (std::uint16_t port = 0; port < 32; ++port) {
    const FiveTuple t{1, 2, 50060, port, 6};
    EXPECT_EQ(ctl.resolve(f.src, f.dst, t), paths[1]);
  }
}

TEST(Controller, RuleIsDirectional) {
  Fixture f;
  auto ctl = f.make_controller();
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  ctl.install_path_id(f.src, f.dst, paths.id(0));
  f.sim.run();
  EXPECT_NE(ctl.active_rule(f.src, f.dst), nullptr);
  EXPECT_EQ(ctl.active_rule(f.dst, f.src), nullptr);
}

TEST(Controller, RemoveRuleRevertsToEcmp) {
  Fixture f;
  auto ctl = f.make_controller();
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  ctl.install_path_id(f.src, f.dst, paths.id(1));
  f.sim.run();
  ASSERT_NE(ctl.active_rule(f.src, f.dst), nullptr);
  ctl.remove_rule(f.src, f.dst);
  EXPECT_EQ(ctl.active_rule(f.src, f.dst), nullptr);
}

TEST(Controller, ReinstallSupersedesPending) {
  Fixture f;
  auto ctl = f.make_controller();
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  ctl.install_path_id(f.src, f.dst, paths.id(0));
  // Supersedes before activation.
  ctl.install_path_id(f.src, f.dst, paths.id(1));
  f.sim.run();
  const PathRule* rule = ctl.active_rule(f.src, f.dst);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(ctl.path(rule->path_id), paths[1]);
  EXPECT_EQ(ctl.rules_installed(), 2u);
}

TEST(Controller, FlowModsCountSwitchHops) {
  Fixture f;
  auto ctl = f.make_controller();
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  // Inter-rack path: host->tor0->wire->tor1->host = 3 switch-sourced links.
  ctl.install_path_id(f.src, f.dst, paths.id(0));
  EXPECT_EQ(ctl.flow_mod_messages(), 3u);
}

TEST(Controller, RuleActivationReroutesActiveFlows) {
  Fixture f;
  ControllerConfig cfg;
  cfg.rule_install_latency = Duration::millis(4);
  auto ctl = f.make_controller(cfg);
  const auto& paths = ctl.routing().paths(f.src, f.dst);

  // Start a shuffle flow on path 0, then install a rule for path 1.
  FlowSpec spec;
  spec.src = f.src;
  spec.dst = f.dst;
  spec.size = Bytes{100'000'000'000LL};
  spec.path = paths[0].to_vector();
  spec.tuple = FiveTuple{1, 2, 50060, 31000, 6};
  spec.cls = FlowClass::kShuffle;
  const net::FlowId flow = f.fabric.start_flow(spec);

  ctl.install_path_id(f.src, f.dst, paths.id(1));
  f.sim.run_until(util::SimTime::from_seconds(0.01));
  EXPECT_EQ(f.fabric.flow(flow).spec.path, paths[1].to_vector());
}

TEST(Controller, RerouteOnInstallCanBeDisabled) {
  Fixture f;
  ControllerConfig cfg;
  cfg.reroute_active_flows_on_install = false;
  auto ctl = f.make_controller(cfg);
  const auto& paths = ctl.routing().paths(f.src, f.dst);

  FlowSpec spec;
  spec.src = f.src;
  spec.dst = f.dst;
  spec.size = Bytes{100'000'000'000LL};
  spec.path = paths[0].to_vector();
  spec.tuple = FiveTuple{1, 2, 50060, 31000, 6};
  spec.cls = FlowClass::kShuffle;
  const net::FlowId flow = f.fabric.start_flow(spec);

  ctl.install_path_id(f.src, f.dst, paths.id(1));
  f.sim.run_until(util::SimTime::from_seconds(0.01));
  EXPECT_EQ(f.fabric.flow(flow).spec.path, paths[0].to_vector());
}

TEST(Controller, SnapshotSeparatesBackgroundFromShuffle) {
  Fixture f;
  auto ctl = f.make_controller();
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  const net::LinkId inter = paths[0][1];  // tor0 -> wire link

  // 4 Gbps of CBR background plus a shuffle flow on the same path.
  const auto full = paths[0].to_vector();
  std::vector<net::LinkId> chain{full.begin() + 1, full.end() - 1};
  f.fabric.start_cbr(chain, BitsPerSec{4e9});
  FlowSpec spec;
  spec.src = f.src;
  spec.dst = f.dst;
  spec.size = Bytes{100'000'000'000LL};
  spec.path = paths[0].to_vector();
  spec.tuple = FiveTuple{1, 2, 50060, 31000, 6};
  spec.cls = FlowClass::kShuffle;
  f.fabric.start_flow(spec);

  // Shuffle flow gets the residual 6 Gbps.
  EXPECT_NEAR(ctl.snapshot_load(inter).bps(), 10e9, 1e3);
  EXPECT_NEAR(ctl.snapshot_background_load(inter).bps(), 4e9, 1e3);
  EXPECT_NEAR(ctl.snapshot_utilization(inter), 1.0, 1e-6);
}

TEST(Controller, SnapshotIsSampleAndHold) {
  Fixture f;
  ControllerConfig cfg;
  cfg.link_stats_period = Duration::seconds_i(1);
  auto ctl = f.make_controller(cfg);
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  const net::LinkId inter = paths[0][1];

  // First query: snapshot of an idle network.
  EXPECT_DOUBLE_EQ(ctl.snapshot_load(inter).bps(), 0.0);

  // Load appears, but within the stats period the snapshot stays stale.
  const auto full = paths[0].to_vector();
  std::vector<net::LinkId> chain{full.begin() + 1, full.end() - 1};
  f.fabric.start_cbr(chain, BitsPerSec{5e9});
  EXPECT_DOUBLE_EQ(ctl.snapshot_load(inter).bps(), 0.0);

  // After the period elapses, a query refreshes the snapshot.
  f.sim.run_until(util::SimTime::from_seconds(1.5));
  EXPECT_NEAR(ctl.snapshot_load(inter).bps(), 5e9, 1e3);
  EXPECT_GE(ctl.stats_refreshes(), 2u);
}

TEST(Controller, PathAvailableIsBottleneck) {
  Fixture f;
  auto ctl = f.make_controller();
  const auto& paths = ctl.routing().paths(f.src, f.dst);
  const auto full = paths[0].to_vector();
  std::vector<net::LinkId> chain{full.begin() + 1, full.end() - 1};
  f.fabric.start_cbr(chain, BitsPerSec{9e9});
  EXPECT_NEAR(ctl.snapshot_path_available(paths[0]).bps(), 1e9, 1e3);
  EXPECT_NEAR(ctl.snapshot_path_available(paths[1]).bps(), 10e9, 1e3);
}

/// FNV-1a of the controller's encode_state image.
std::uint64_t state_hash(const Controller& ctl) {
  sim::StateEncoder enc;
  ctl.encode_state(enc);
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : enc.bytes()) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// Pins the snapshot bytes of the rule table, table occupancy, rack rules and
// failed links over a scripted sequence: each step's hash, taken once when
// the call returns (rules pending) and once after the simulation drains
// (rules active), was recorded on the map-based tables the rows replaced.
// Step 8 leaves switches listed in the occupancy with a zero count, a state
// no end-to-end checksum reaches.
TEST(ControllerEncoding, ScriptedSequenceKeepsEncodeBytes) {
  Fixture f;
  ControllerConfig cfg;
  cfg.flow_table_capacity = 2;
  auto ctl = f.make_controller(cfg);
  const auto& h = f.topo.hosts();
  const auto path = [&](std::size_t a, std::size_t b, std::size_t i) {
    return ctl.routing().paths(h[a], h[b]).id(i);
  };
  std::vector<std::uint64_t> got;
  const auto step = [&] {
    got.push_back(state_hash(ctl));
    f.sim.run();
    got.push_back(state_hash(ctl));
  };

  // 1: install; 2: a second rule fills tor0 (capacity 2).
  EXPECT_TRUE(ctl.install_path_id(h[0], h[5], path(0, 5, 0), Bytes{100}));
  step();
  EXPECT_TRUE(ctl.install_path_id(h[1], h[6], path(1, 6, 0), Bytes{200}));
  step();
  // 3: supersede the first rule with the other inter-rack path.
  EXPECT_TRUE(ctl.install_path_id(h[0], h[5], path(0, 5, 1), Bytes{150}));
  step();
  // 4: a larger newcomer evicts the smallest rule on the full tables.
  EXPECT_TRUE(ctl.install_path_id(h[2], h[7], path(2, 7, 0), Bytes{1000}));
  step();
  EXPECT_EQ(ctl.table_evictions(), 1u);
  // 5: a smaller one is refused.
  EXPECT_FALSE(ctl.install_path_id(h[3], h[8], path(3, 8, 0), Bytes{1}));
  step();
  EXPECT_EQ(ctl.table_rejects(), 1u);
  // 6: remove_rule; 7: a same-rack rule; 8: removing the last two rules
  // leaves every listed switch at a zero count.
  ctl.remove_rule(h[2], h[7]);
  step();
  EXPECT_TRUE(ctl.install_path_id(h[4], h[3], path(4, 3, 0), Bytes{50}));
  step();
  ctl.remove_rule(h[4], h[3]);
  ctl.remove_rule(h[1], h[6]);
  step();
  // 9: a rack rule over the first inter-rack chain.
  const Path inter{ctl.path(path(0, 5, 0)).to_vector()};
  ctl.install_rack_path(
      0, 1, Path{{inter.links.begin() + 1, inter.links.end() - 1}});
  step();
  // 10: fail the chain's first cable (purges the rack rule and every host
  // rule over it); 11: restore it.
  ctl.handle_link_failure(inter.links[1]);
  step();
  ctl.handle_link_restore(inter.links[1]);
  step();
  // 12: a rule to clear; 13: clear every host rule; 14: install after it.
  EXPECT_TRUE(ctl.install_path_id(h[1], h[7], path(1, 7, 1), Bytes{30}));
  step();
  EXPECT_GT(ctl.clear_host_rules(), 0u);
  step();
  EXPECT_TRUE(ctl.install_path_id(h[2], h[6], path(2, 6, 0), Bytes{40}));
  step();

  const std::vector<std::uint64_t> expected = {
      0x7f80b12440efad19ull, 0xd96cfe65be00376eull, 0xfd9f3ca2c85f47d1ull,
      0x699c0075ce4f1e12ull, 0x884620b92af5054cull, 0xf16d051439632823ull,
      0x6ca29d0c236774e2ull, 0x6f108dbef59b0aa9ull, 0xbefbd35fb2c41f09ull,
      0xbefbd35fb2c41f09ull, 0x00c00d15718e341dull, 0x00c00d15718e341dull,
      0xd55c0eba6fc0f35cull, 0x80001209a76c5143ull, 0x036593156300b1e1ull,
      0x036593156300b1e1ull, 0x251de306db48f9a3ull, 0x9f6c5c76f340f6a6ull,
      0xeda5259dc96cd928ull, 0xeda5259dc96cd928ull, 0x120ea07c9a3da6a8ull,
      0x120ea07c9a3da6a8ull, 0x4cf8e53c68b8d05eull, 0x07b5ca280b10b851ull,
      0xe1fff8d0a2c0960eull, 0xe1fff8d0a2c0960eull, 0x16ee383d383bb373ull,
      0xdd7a53320e89e35cull,
  };
  EXPECT_EQ(got, expected);
}

// The same pin under a lossy control plane: rejected attempts, backoff
// retries and an abandoned rule.
TEST(ControllerEncoding, RetrySequenceKeepsEncodeBytes) {
  Fixture f;
  ControllerConfig cfg;
  cfg.install_reject_probability = 0.6;
  cfg.max_install_retries = 2;
  auto ctl = f.make_controller(cfg);
  const auto& h = f.topo.hosts();
  std::vector<std::uint64_t> got;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const NodeId dst = h[(i + 5) % h.size()];
    const auto paths = ctl.routing().paths(h[i], dst);
    EXPECT_TRUE(ctl.install_path_id(h[i], dst, paths.id(i % paths.size()),
                                    Bytes{static_cast<std::int64_t>(10 * i)}));
    got.push_back(state_hash(ctl));
  }
  f.sim.run();
  got.push_back(state_hash(ctl));
  EXPECT_GT(ctl.install_retries(), 0u);
  EXPECT_GT(ctl.installs_abandoned(), 0u);

  const std::vector<std::uint64_t> expected = {
      0xb9947afab58f64fdull, 0xa9c1874a0ebfe54aull, 0xf4b2e71017f9ba5aull,
      0xe60631fd43b26c85ull, 0x7ef0e624650085f3ull, 0x2d9fb5fe022e02f8ull,
      0x111289c536c709d6ull, 0xa1442b5a333b5327ull, 0xd8c793420337312bull,
      0x9590291966055146ull, 0x60ea345a4f09efcdull,
  };
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace pythia::sdn
