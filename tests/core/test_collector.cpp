#include "core/collector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "net/fabric.hpp"
#include "sdn/controller.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"

namespace pythia::core {
namespace {

using net::NodeId;
using util::Bytes;
using util::Duration;

struct Fixture {
  net::Topology topo = net::make_two_rack({});
  sim::Simulation sim;
  net::Fabric fabric{sim, topo};
  sdn::Controller controller{sim, fabric, topo};
  Allocator allocator{controller};
  Collector collector{sim, allocator};
  NodeId src, dst_remote, dst_local;

  Fixture() {
    const auto hosts = topo.hosts();
    src = hosts[0];
    dst_local = hosts[0];
    dst_remote = hosts[9];
  }

  ShuffleIntent intent(std::size_t reduce_index, std::int64_t bytes) {
    ShuffleIntent i;
    i.job_serial = 0;
    i.map_index = 0;
    i.reduce_index = reduce_index;
    i.src_server = src;
    i.predicted_wire_bytes = Bytes{bytes};
    i.emitted_at = sim.now();
    return i;
  }
};

TEST(Collector, HoldsIntentUntilReducerLocated) {
  Fixture f;
  f.collector.ingest(f.intent(0, 1'000'000));
  EXPECT_EQ(f.collector.intents_received(), 1u);
  EXPECT_EQ(f.collector.intents_held_for_reducer(), 1u);
  f.sim.run();
  // Nothing allocated: destination still unknown.
  EXPECT_EQ(f.allocator.allocations(), 0u);

  f.collector.reducer_located(0, 0, f.dst_remote);
  f.sim.run();
  EXPECT_EQ(f.allocator.allocations(), 1u);
  EXPECT_EQ(f.allocator.pair_outstanding(f.src, f.dst_remote).count(),
            1'000'000);
}

TEST(Collector, KnownReducerAllocatesAfterBatchWindow) {
  Fixture f;
  f.collector.reducer_located(0, 0, f.dst_remote);
  f.collector.ingest(f.intent(0, 2'000'000));
  EXPECT_EQ(f.allocator.allocations(), 0u);  // batched, not yet flushed
  f.sim.run();
  EXPECT_EQ(f.collector.batches_flushed(), 1u);
  EXPECT_EQ(f.allocator.allocations(), 1u);
}

TEST(Collector, LocalDestinationIsDropped) {
  Fixture f;
  f.collector.reducer_located(0, 0, f.dst_local);
  f.collector.ingest(f.intent(0, 5'000'000));
  f.sim.run();
  EXPECT_EQ(f.allocator.allocations(), 0u);
  EXPECT_EQ(f.collector.aggregate_count(), 0u);
  EXPECT_TRUE(f.collector.predicted_curve(f.src).empty());
}

TEST(Collector, BatchAggregatesSamePair) {
  Fixture f;
  f.collector.reducer_located(0, 0, f.dst_remote);
  f.collector.ingest(f.intent(0, 1'000'000));
  f.collector.ingest(f.intent(0, 2'000'000));
  f.collector.ingest(f.intent(0, 3'000'000));
  f.sim.run();
  // One aggregate, one allocation, summed volume.
  EXPECT_EQ(f.allocator.allocations(), 1u);
  EXPECT_EQ(f.allocator.pair_outstanding(f.src, f.dst_remote).count(),
            6'000'000);
  EXPECT_EQ(f.collector.aggregate_count(), 1u);
}

TEST(Collector, PredictedCurveAccumulatesRemoteOnly) {
  Fixture f;
  f.collector.reducer_located(0, 0, f.dst_remote);
  f.collector.reducer_located(0, 1, f.dst_local);
  f.collector.ingest(f.intent(0, 1'000'000));
  f.collector.ingest(f.intent(1, 9'000'000));  // local -> excluded
  f.sim.run();
  const auto& curve = f.collector.predicted_curve(f.src);
  ASSERT_FALSE(curve.empty());
  EXPECT_EQ(curve.back().cumulative.count(), 1'000'000);
}

TEST(Collector, FetchCompletionRetiresVolume) {
  Fixture f;
  f.collector.reducer_located(0, 0, f.dst_remote);
  f.collector.ingest(f.intent(0, 10'000'000));
  f.sim.run();
  const auto before = f.allocator.pair_outstanding(f.src, f.dst_remote);
  ASSERT_EQ(before.count(), 10'000'000);

  // A fetch of ~half the payload completes (the collector re-applies the
  // same overhead model used at prediction time).
  f.collector.fetch_completed(f.src, f.dst_remote, Bytes{4'700'000});
  const auto after = f.allocator.pair_outstanding(f.src, f.dst_remote);
  EXPECT_LT(after, before);
  EXPECT_GT(after.count(), 0);

  // Local completions are ignored.
  f.collector.fetch_completed(f.src, f.src, Bytes{4'700'000});
  EXPECT_EQ(f.allocator.pair_outstanding(f.src, f.dst_remote), after);
}

TEST(Collector, HeldIntentsExpireAfterTtl) {
  Fixture f;
  CollectorConfig cfg;
  cfg.intent_ttl = Duration::seconds_i(30);
  Collector collector(f.sim, f.allocator, cfg);

  collector.ingest(f.intent(0, 1'000'000));  // reducer never locates
  EXPECT_EQ(collector.intents_waiting(), 1u);

  // Any collector activity after the TTL triggers the lazy purge.
  f.sim.after(Duration::seconds_i(31), [&] {
    collector.reducer_located(0, 7, f.dst_remote);  // unrelated reducer
  });
  f.sim.run();
  EXPECT_EQ(collector.intents_waiting(), 0u);
  EXPECT_EQ(collector.intents_expired(), 1u);

  // The expired intent is gone for good: locating its reducer later must
  // not resurrect it.
  collector.reducer_located(0, 0, f.dst_remote);
  f.sim.run();
  EXPECT_EQ(f.allocator.allocations(), 0u);
}

TEST(Collector, IntentsSurviveWithinTtl) {
  Fixture f;
  CollectorConfig cfg;
  cfg.intent_ttl = Duration::seconds_i(30);
  Collector collector(f.sim, f.allocator, cfg);
  collector.ingest(f.intent(0, 1'000'000));
  f.sim.after(Duration::seconds_i(29),
              [&] { collector.reducer_located(0, 0, f.dst_remote); });
  f.sim.run();
  EXPECT_EQ(collector.intents_expired(), 0u);
  EXPECT_EQ(f.allocator.allocations(), 1u);
}

TEST(Collector, JobCompletionPurgesResidue) {
  Fixture f;
  // Two jobs hold intents; completing job 0 must only reclaim its own.
  f.collector.ingest(f.intent(0, 1'000'000));
  ShuffleIntent other = f.intent(1, 2'000'000);
  other.job_serial = 3;
  f.collector.ingest(other);
  f.collector.reducer_located(0, 5, f.dst_remote);
  ASSERT_EQ(f.collector.intents_waiting(), 2u);

  f.collector.job_completed(0);
  EXPECT_EQ(f.collector.intents_waiting(), 1u);
  EXPECT_EQ(f.collector.intents_purged_on_completion(), 1u);

  // Job 0's reducer-location table is gone too: a straggler intent for it
  // holds rather than resolving against a stale mapping.
  ShuffleIntent straggler = f.intent(5, 500'000);
  f.collector.ingest(straggler);
  EXPECT_EQ(f.collector.intents_waiting(), 2u);

  f.collector.job_completed(3);
  EXPECT_EQ(f.collector.intents_purged_on_completion(), 2u);
}

TEST(Collector, UnpredictedFetchCountsUnderflow) {
  Fixture f;
  ASSERT_EQ(f.collector.underflow_events(), 0u);
  // A completion with no prior prediction: outstanding would go negative.
  f.collector.fetch_completed(f.src, f.dst_remote, Bytes{4'000'000});
  EXPECT_EQ(f.collector.underflow_events(), 1u);
  EXPECT_EQ(f.collector.destination_outstanding(f.dst_remote).count(), 0);
  // Local completions never touch the books.
  f.collector.fetch_completed(f.src, f.src, Bytes{4'000'000});
  EXPECT_EQ(f.collector.underflow_events(), 1u);
}

TEST(Collector, MultipleJobsKeepReducerNamespacesApart) {
  Fixture f;
  // Job 0 reducer 0 is remote; job 1 reducer 0 is local.
  f.collector.reducer_located(0, 0, f.dst_remote);
  f.collector.reducer_located(1, 0, f.dst_local);

  ShuffleIntent j1 = f.intent(0, 1'000'000);
  j1.job_serial = 1;
  f.collector.ingest(j1);  // must hit the local mapping -> dropped
  f.sim.run();
  EXPECT_EQ(f.allocator.allocations(), 0u);

  f.collector.ingest(f.intent(0, 1'000'000));  // job 0 -> remote
  f.sim.run();
  EXPECT_EQ(f.allocator.allocations(), 1u);
}

/// The collector keeps its per-server and per-pair state in rows under the
/// topology's dense host index. On a fat tree each pod adds its switches
/// before its hosts, so host ids interleave with switch ids and a host's
/// index is not its NodeId. The behaviour encoding must still list pairs
/// and servers in ascending NodeId order and list exactly the entries the
/// run created — among them the zero entry a completed fetch leaves for a
/// destination nothing was predicted for — and queries must read switches
/// and never-seen hosts as empty.
TEST(Collector, DenseRowsEncodeInNodeIdOrder) {
  net::FatTreeConfig ft;
  ft.k = 4;
  const net::Topology topo = net::make_fat_tree(ft);
  sim::Simulation sim;
  net::Fabric fabric{sim, topo};
  sdn::Controller controller{sim, fabric, topo};
  Allocator allocator{controller};
  Collector collector{sim, allocator};
  const std::vector<NodeId>& h = topo.hosts();
  ASSERT_EQ(h.size(), 16u);
  ASSERT_GT(h[4].value(), h[3].value() + 1) << "pod 1's switches sit between";
  const NodeId a_switch = topo.switches().front();

  // Untouched: nothing allocated, every query empty.
  EXPECT_EQ(collector.destination_outstanding(h[2]), Bytes::zero());
  EXPECT_TRUE(collector.predicted_curve(h[2]).empty());
  EXPECT_EQ(collector.mean_destination_outstanding(), Bytes::zero());

  const auto intent = [&](std::size_t reduce, NodeId src, std::int64_t bytes) {
    ShuffleIntent i;
    i.job_serial = 0;
    i.reduce_index = reduce;
    i.src_server = src;
    i.predicted_wire_bytes = Bytes{bytes};
    i.emitted_at = sim.now();
    return i;
  };
  // Reducers land out of NodeId order; the first intent waits for its one.
  collector.ingest(intent(0, h[13], 3'000));
  collector.reducer_located(0, 0, h[9]);
  collector.reducer_located(0, 1, h[2]);
  collector.reducer_located(0, 2, h[14]);
  collector.ingest(intent(1, h[13], 5'000));
  collector.ingest(intent(2, h[0], 7'000));
  collector.ingest(intent(1, h[6], 11'000));
  collector.ingest(intent(2, h[6], 13'000));
  sim.run();
  // A fetch to a destination nothing was predicted for.
  collector.fetch_completed(h[5], h[11], Bytes{1'000});
  collector.job_completed(0);

  sim::StateEncoder enc;
  collector.encode_behavior(enc);
  const std::vector<std::uint8_t> bytes = enc.take();
  sim::StateDecoder dec(bytes);
  EXPECT_EQ(dec.get_u32(), 0u);  // reducer locations went with the job
  EXPECT_EQ(dec.get_u32(), 0u);  // nothing held
  (void)dec.get_time();

  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(dec.get_u32());
  for (auto& [src, dst] : pairs) {
    src = dec.get_u32();
    dst = dec.get_u32();
    EXPECT_TRUE(dec.get_bool());
  }
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want_pairs{
      {h[0].value(), h[14].value()},
      {h[6].value(), h[2].value()},
      {h[6].value(), h[14].value()},
      {h[13].value(), h[2].value()},
      {h[13].value(), h[9].value()}};
  EXPECT_EQ(pairs, want_pairs);

  std::vector<std::pair<std::uint32_t, std::int64_t>> outstanding(
      dec.get_u32());
  for (auto& [node, value] : outstanding) {
    node = dec.get_u32();
    value = dec.get_i64();
  }
  const std::vector<std::pair<std::uint32_t, std::int64_t>> want_outstanding{
      {h[2].value(), 16'000},
      {h[9].value(), 3'000},
      {h[11].value(), 0},
      {h[14].value(), 20'000}};
  EXPECT_EQ(outstanding, want_outstanding);

  std::vector<std::uint32_t> curve_sources(dec.get_u32());
  for (std::uint32_t& node : curve_sources) {
    node = dec.get_u32();
    const std::uint32_t points = dec.get_u32();
    for (std::uint32_t p = 0; p < points; ++p) {
      (void)dec.get_time();
      (void)dec.get_i64();
    }
  }
  std::vector<std::pair<std::uint32_t, std::int64_t>> totals(dec.get_u32());
  for (auto& [node, value] : totals) {
    node = dec.get_u32();
    value = dec.get_i64();
  }
  const std::vector<std::uint32_t> want_sources{h[0].value(), h[6].value(),
                                                h[13].value()};
  EXPECT_EQ(curve_sources, want_sources);
  const std::vector<std::pair<std::uint32_t, std::int64_t>> want_totals{
      {h[0].value(), 7'000}, {h[6].value(), 24'000}, {h[13].value(), 8'000}};
  EXPECT_EQ(totals, want_totals);

  EXPECT_EQ(collector.aggregate_count(), 5u);
  EXPECT_EQ(collector.underflow_events(), 1u);
  EXPECT_EQ(collector.destination_outstanding(h[2]).count(), 16'000);
  EXPECT_EQ(collector.destination_outstanding(h[11]), Bytes::zero());
  EXPECT_EQ(collector.predicted_curve(h[6]).back().cumulative.count(),
            24'000);
  EXPECT_TRUE(collector.predicted_curve(h[2]).empty());  // destination only
  for (const NodeId quiet : {a_switch, h[15], NodeId{}}) {
    EXPECT_EQ(collector.destination_outstanding(quiet), Bytes::zero())
        << quiet.value();
    EXPECT_TRUE(collector.predicted_curve(quiet).empty()) << quiet.value();
  }
}

/// The windowed batch gathers pairs in arrival order but encodes and
/// flushes them in a total order, so two runs that book the same updates
/// in different orders capture the same bytes.
TEST(Collector, BatchEncodingIgnoresArrivalOrder) {
  const auto run = [](bool reversed) {
    Fixture f;
    const auto& hosts = f.topo.hosts();
    std::vector<std::size_t> order{9, 3, 7, 1};
    if (reversed) std::reverse(order.begin(), order.end());
    for (std::size_t r = 0; r < order.size(); ++r) {
      f.collector.reducer_located(0, order[r], hosts[order[r]]);
    }
    for (const std::size_t r : order) {
      f.collector.ingest(f.intent(r, 1'000'000));
    }
    sim::StateEncoder enc;
    f.collector.encode_state(enc);
    return enc.take();
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace pythia::core
