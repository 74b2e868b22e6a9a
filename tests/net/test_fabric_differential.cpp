// Differential validation of the fabric's warm fill against an oracle.
// Every scenario runs one fabric through fat-tree churn, one event at a
// time, and after every event checks its rates and link sums bit for bit
// against a reference progressive fill of the same state
// (net/maxmin_oracle.hpp) and its allocation against the max-min
// certificate (net/maxmin_certificate.hpp). Neither can see a completion
// deadline that is lost or late, so the completion log and the
// encode_state() images at mid-run cuts are pinned: FNV-1a hashes recorded
// when the warm fill and a full refill over every link agreed on them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/maxmin_certificate.hpp"
#include "net/routing.hpp"
#include "sim/image_hash.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "util/random.hpp"

namespace pythia::net {
namespace {

using util::BitsPerSec;
using util::Bytes;
using util::SimTime;

/// (start sequence, completion instant); flow ids recycle, the sequence is
/// the stable identity.
using CompletionLog = std::vector<std::pair<int, std::int64_t>>;

struct ChurnResult {
  CompletionLog log;
  /// encode_state() images captured at fixed run_until() cuts, one after
  /// another. Counters are not included: they count work, not behaviour.
  std::vector<std::uint8_t> cuts;
};

/// Seeded churn on a k=4 fat-tree: staggered random arrivals with a tunable
/// cross-pod fraction, zero-byte flows, a CBR pulse, fail+restore of both a
/// core link and an intra-pod link, mid-flight reroutes and weight changes.
ChurnResult run_churn(std::uint64_t seed, double cross_pod_fraction) {
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  const RoutingGraph routing(topo, 4);

  sim::Simulation sim(seed);
  Fabric fabric(sim, topo);
  util::Xoshiro256 rng(seed);
  const auto hosts = topo.hosts();
  const auto hosts_per_pod = hosts.size() / cfg.k;

  ChurnResult out;

  // Pinned long-lived cross-pod flows that survive to the reroute events.
  std::vector<FlowId> pinned;
  for (int i = 0; i < 4; ++i) {
    const NodeId src = hosts[i];
    const NodeId dst = hosts[hosts.size() - 1 - i];
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{6'000'000'000};
    spec.path = routing.paths(src, dst)[0].to_vector();
    spec.weight = 1.0 + i;
    const int tag = 1000 + i;
    pinned.push_back(fabric.start_flow(
        spec, [&out, tag](FlowId, SimTime t) {
          out.log.emplace_back(tag, t.ns());
        }));
  }

  // Randomized short flows over two simulated seconds. Destination pod is
  // chosen intra-pod or cross-pod per `cross_pod_fraction`, which steers how
  // often components stay pod-local vs. couple through the core.
  constexpr int kFlows = 90;
  for (int i = 0; i < kFlows; ++i) {
    const auto at =
        SimTime{static_cast<std::int64_t>(rng.below(2'000'000'000))};
    const std::size_t src_idx = rng.below(hosts.size());
    const NodeId src = hosts[src_idx];
    const std::size_t src_pod = src_idx / hosts_per_pod;
    NodeId dst = src;
    while (dst == src) {
      const bool cross = rng.uniform(0.0, 1.0) < cross_pod_fraction;
      std::size_t pod = src_pod;
      if (cross) {
        while (pod == src_pod) pod = rng.below(cfg.k);
      }
      dst = hosts[pod * hosts_per_pod + rng.below(hosts_per_pod)];
    }
    const auto& paths = routing.paths(src, dst);
    const auto path = paths[rng.below(paths.size())].to_vector();
    // Every 9th flow is zero-byte: starts and completes within one instant,
    // exercising slot recycling hard.
    const auto size = static_cast<std::int64_t>(
        i % 9 == 8 ? 0 : 1'000'000 + rng.below(300'000'000));
    const double weight = rng.uniform(0.5, 3.0);
    sim.at(at, [&fabric, &out, i, src, dst, path, size, weight] {
      FlowSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.size = Bytes{size};
      spec.path = path;
      spec.weight = weight;
      fabric.start_flow(spec, [&out, i](FlowId, SimTime t) {
        out.log.emplace_back(i, t.ns());
      });
    });
  }

  // CBR pulse on a cross-pod path.
  const auto& cbr_paths = routing.paths(hosts[0], hosts[hosts.size() - 2]);
  sim.at(SimTime::from_seconds(0.3), [&fabric, &cbr_paths] {
    const CbrId id =
        fabric.start_cbr(cbr_paths[0].to_vector(), BitsPerSec{4e9});
    fabric.simulation().at(SimTime::from_seconds(1.2),
                           [&fabric, id] { fabric.stop_cbr(id); });
  });

  // Fail + restore a core-facing link (cross-pod hop of a long path) and an
  // intra-pod link (first hop: host -> edge).
  const auto& long_path = routing.paths(hosts[1], hosts.back())[0].to_vector();
  const LinkId core_victim = long_path[long_path.size() / 2];
  const LinkId pod_victim = long_path.front();
  sim.at(SimTime::from_seconds(0.5),
         [&fabric, core_victim] { fabric.fail_link(core_victim); });
  sim.at(SimTime::from_seconds(0.9),
         [&fabric, core_victim] { fabric.restore_link(core_victim); });
  sim.at(SimTime::from_seconds(0.6),
         [&fabric, pod_victim] { fabric.fail_link(pod_victim); });
  sim.at(SimTime::from_seconds(0.8),
         [&fabric, pod_victim] { fabric.restore_link(pod_victim); });

  // Reroute and reweight the pinned flows mid-flight.
  sim.at(SimTime::from_seconds(0.7), [&fabric, &routing, pinned] {
    for (FlowId f : pinned) {
      if (!fabric.flow_active(f)) continue;
      const auto& spec = fabric.flow(f).spec;
      const auto& alts = routing.paths(spec.src, spec.dst);
      fabric.reroute_flow(f, alts[alts.size() - 1].to_vector());
    }
  });
  sim.at(SimTime::from_seconds(1.1), [&fabric, pinned] {
    for (FlowId f : pinned) {
      if (fabric.flow_active(f)) fabric.set_flow_weight(f, 2.5);
    }
  });

  // Runs one event at a time up to `until`, checking the fabric against the
  // oracle and the certificate after each.
  int events = 0;
  auto run_to = [&](SimTime until) {
    while (true) {
      const auto pending = sim.queue().pending_events();
      if (pending.empty() || pending.front().at > until) break;
      sim.run(1);
      ++events;
      const std::string where = "event " + std::to_string(events);
      certificate::expect_matches_oracle(fabric, where);
      certificate::expect_maxmin(fabric, where);
    }
  };

  // Freeze at fixed instants and capture the behavioral state image, which
  // holds every active flow's settled remainder and rate bits.
  for (const double cut_s : {0.45, 0.75, 1.3}) {
    run_to(SimTime::from_seconds(cut_s));
    sim.run_until(SimTime::from_seconds(cut_s));
    sim::StateEncoder enc;
    fabric.encode_state(enc);
    out.cuts.insert(out.cuts.end(), enc.bytes().begin(), enc.bytes().end());
  }

  run_to(SimTime::max());
  EXPECT_EQ(out.log.size(), fabric.flows_started());
  return out;
}

struct ChurnParam {
  std::uint64_t seed;
  double cross_pod_fraction;
  /// Pins: FNV-1a of the completion log and of the cut images.
  std::uint64_t completions;
  std::uint64_t cuts;
};

class FabricDifferential : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(FabricDifferential, EveryEventMatchesOracle) {
  const ChurnParam p = GetParam();
  const ChurnResult r = run_churn(p.seed, p.cross_pod_fraction);
  ASSERT_FALSE(r.log.empty());
  const std::uint64_t completions = sim::completion_log_hash(r.log);
  EXPECT_EQ(completions, p.completions) << std::hex << completions;
  EXPECT_EQ(sim::fnv1a(r.cuts), p.cuts) << std::hex << sim::fnv1a(r.cuts);
}

// Pod-local traffic (small components), core-coupled traffic (components
// that span pods) and the mixed regime each stress the record walk
// differently: few affected links against many replayed rounds, or the
// reverse.
INSTANTIATE_TEST_SUITE_P(
    Seeds, FabricDifferential,
    ::testing::Values(
        ChurnParam{1, 0.5, 0x82cbc8aa025ba2bf, 0xaa35a1d0fd1ea0c4},
        ChurnParam{7, 0.5, 0xbc31601e8396b08a, 0x017ed71f9ce6824f},
        ChurnParam{42, 0.5, 0x81c05f11f7fabff4, 0x3b4fabcc67430158},
        ChurnParam{1234, 0.5, 0x2c8b9d4ce3869eb1, 0xa9a28be725b2ff02},
        // pure intra-pod
        ChurnParam{3, 0.0, 0x15a52b0574356a0d, 0x6e13c41caae61fba},
        // pure cross-pod
        ChurnParam{3, 1.0, 0x0d50d70e83510326, 0xe6aad7d35192b336},
        ChurnParam{99, 0.15, 0xc44406b3d3fa8185, 0xaddc5108e57ae10e},
        ChurnParam{99, 0.85, 0xdf5dbf66a5732c1e, 0x18598c186abf16b8}));

}  // namespace
}  // namespace pythia::net
