// Differential and defensive tests for the cohort intent pipelines:
//
//  * serial vs batched drains are byte-identical (plain, with bounded pods,
//    and under flow-table pressure, where refusals keep pairs
//    un-coalescable);
//  * the batched collector's encoded state at the end of every instant of a
//    storm, with bounded pods and a mid-storm job purge in play, is pinned;
//  * scheduling a storm one event per instant fires exactly as one event
//    per storm event did, with other events at the storm's instants;
//  * TTL expiry and job-completion purges keep un-installable intents out
//    of the drain entirely;
//  * bounded pods evict only for strictly larger newcomers and refuse the
//    rest, synchronously;
//  * watchdog failure accounting is intent-weighted under batching.
#include "core/collector.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/watchdog.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sdn/controller.hpp"
#include "sim/image_hash.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "workloads/open_arrival.hpp"

namespace pythia::core {
namespace {

using net::NodeId;
using util::Bytes;
using util::Duration;
using util::SimTime;

/// One full collector→allocator→controller stack; arms under comparison
/// each build their own against a shared topology.
struct Stack {
  sim::Simulation sim;
  net::Fabric fabric;
  sdn::Controller controller;
  Allocator allocator;
  Collector collector;

  Stack(const net::Topology& topo, CollectorConfig ccfg,
        sdn::ControllerConfig ctcfg = {}, std::uint64_t seed = 7)
      : sim(seed),
        fabric(sim, topo),
        controller(sim, fabric, topo, ctcfg),
        allocator(controller),
        collector(sim, allocator, ccfg) {}

  /// The cross-arm identity image: pipeline-invariant collector state plus
  /// the full allocator and controller state.
  [[nodiscard]] std::vector<std::uint8_t> image() {
    sim::StateEncoder enc;
    collector.encode_behavior(enc);
    allocator.encode_state(enc);
    controller.encode_state(enc);
    return enc.bytes();
  }
};

net::Topology fat_tree4() {
  net::FatTreeConfig cfg;
  cfg.k = 4;
  return net::make_fat_tree(cfg);
}

workloads::Storm small_storm(const net::Topology& topo) {
  workloads::OpenArrivalConfig cfg;
  cfg.jobs = 10;
  cfg.mean_interarrival = Duration::millis(15);
  return workloads::generate_storm(cfg, topo, /*seed=*/11);
}

struct StormRun {
  std::vector<std::uint8_t> image;
  std::uint64_t refused = 0;
  std::uint64_t evicted = 0;
};

StormRun run_storm(const net::Topology& topo, const workloads::Storm& storm,
                   IntentPipeline pipeline, std::size_t pod_capacity = 0,
                   std::size_t flow_table_capacity = 0) {
  CollectorConfig ccfg;
  ccfg.pipeline = pipeline;
  ccfg.pod_queue_capacity = pod_capacity;
  sdn::ControllerConfig ctcfg;
  ctcfg.flow_table_capacity = flow_table_capacity;
  Stack s(topo, ccfg, ctcfg);
  workloads::schedule_storm(s.sim, s.collector, storm);
  s.sim.run();
  return {s.image(), s.collector.admission_refused(),
          s.collector.admission_evicted()};
}

TEST(IntentPipeline, SerialAndBatchedArmsByteIdentical) {
  const net::Topology topo = fat_tree4();
  const auto ev = small_storm(topo);
  const auto serial = run_storm(topo, ev, IntentPipeline::kCohortSerial);
  const auto batched = run_storm(topo, ev, IntentPipeline::kCohortBatched);
  EXPECT_EQ(serial.image, batched.image);
}

TEST(IntentPipeline, SerialAndBatchedIdenticalWithBoundedPods) {
  // Six intents per pod: admission refuses and evicts before either drain
  // runs, so the batched arm must coalesce exactly what survived.
  const net::Topology topo = fat_tree4();
  const auto ev = small_storm(topo);
  const auto serial = run_storm(topo, ev, IntentPipeline::kCohortSerial,
                                /*pod_capacity=*/6);
  const auto batched = run_storm(topo, ev, IntentPipeline::kCohortBatched,
                                 /*pod_capacity=*/6);
  EXPECT_GT(serial.refused + serial.evicted, 0u) << "the bound never bit";
  EXPECT_EQ(serial.image, batched.image);
}

TEST(IntentPipeline, SerialAndBatchedIdenticalUnderTablePressure) {
  // A tiny flow table forces admission refusals and evictions inside the
  // controller; refused pairs never become coalescable, so the batched arm
  // must keep submitting them per-intent to stay identical.
  const net::Topology topo = fat_tree4();
  const auto ev = small_storm(topo);
  const auto serial = run_storm(topo, ev, IntentPipeline::kCohortSerial,
                                /*pod_capacity=*/0, /*table=*/3);
  const auto batched = run_storm(topo, ev, IntentPipeline::kCohortBatched,
                                 /*pod_capacity=*/0, /*table=*/3);
  EXPECT_EQ(serial.image, batched.image);
}

TEST(IntentPipeline, BatchedCollectorStatePinned) {
  // Collector::encode_state at the end of every instant of the storm on the
  // batched pipeline, folded into one FNV-1a per pod capacity and pinned,
  // so the queue's layout may change but not its encoded bytes. An instant
  // ends when the next live event is later; the storm's events at one
  // instant may fire as one queue event or many, so no fold falls between
  // two of them. Mid-storm, a job completes in the cohort that queued one
  // of its intents, before the drain: the largest intent of the storm's
  // second half whose reducer is already located, which its pod admits at
  // either capacity.
  const net::Topology topo = fat_tree4();
  const workloads::Storm storm = small_storm(topo);
  const std::vector<workloads::StormEvent> ev(storm.begin(), storm.end());
  std::set<std::pair<std::size_t, std::size_t>> located;
  const workloads::StormEvent* mid = nullptr;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const workloads::StormEvent& e = ev[i];
    if (e.kind == workloads::StormEvent::Kind::kReducerLocated) {
      located.insert({e.job_serial, e.reduce_index});
    } else if (e.kind == workloads::StormEvent::Kind::kIntent &&
               i >= ev.size() / 2 &&
               located.contains({e.intent.job_serial, e.intent.reduce_index}) &&
               (mid == nullptr || e.intent.predicted_wire_bytes >
                                      mid->intent.predicted_wire_bytes)) {
      mid = &e;
    }
  }
  ASSERT_NE(mid, nullptr);

  for (const auto& [cap, pin] :
       {std::pair<std::size_t, std::uint64_t>{0, 0x9b900fbb2794b947},
        std::pair<std::size_t, std::uint64_t>{6, 0x4f559375f667638a}}) {
    CollectorConfig ccfg;
    ccfg.pipeline = IntentPipeline::kCohortBatched;
    ccfg.pod_queue_capacity = cap;
    Stack s(topo, ccfg);
    workloads::schedule_storm(s.sim, s.collector, storm);
    std::size_t purged = 0;
    s.sim.at(mid->at, [&s, &purged, mid] {
      const std::size_t queued = s.collector.intents_queued();
      s.collector.job_completed(mid->intent.job_serial);
      purged = queued - s.collector.intents_queued();
    });
    std::uint64_t h = sim::kFnv1aOffset;
    auto fold = [&s, &h] {
      sim::StateEncoder enc;
      s.collector.encode_state(enc);
      h = sim::fnv1a(enc.bytes(), h);
    };
    while (s.sim.run(1) > 0) {
      const auto next = s.sim.queue().pending_events();
      if (next.empty() || next.front().at > s.sim.now()) fold();
    }
    fold();  // after the last cohort's drain
    EXPECT_GT(purged, 0u) << "pod capacity " << cap;
    EXPECT_EQ(h, pin) << "pod capacity " << cap << ": " << std::hex << h;
  }
}

/// Schedules one queue event per storm event, each reading its event in
/// `events` when it fires: the reference for schedule_storm's one event per
/// instant.
void schedule_per_event(sim::Simulation& sim, Collector& collector,
                        const std::vector<workloads::StormEvent>& events) {
  for (const workloads::StormEvent& e : events) {
    switch (e.kind) {
      case workloads::StormEvent::Kind::kReducerLocated:
        sim.at(e.at, [&collector, &e] {
          collector.reducer_located(e.job_serial, e.reduce_index, e.server);
        });
        break;
      case workloads::StormEvent::Kind::kIntent:
        sim.at(e.at, [&collector, &e] { collector.ingest(e.intent); });
        break;
      case workloads::StormEvent::Kind::kJobCompleted:
        sim.at(e.at,
               [&collector, &e] { collector.job_completed(e.job_serial); });
        break;
    }
  }
}

struct ProbedRun {
  /// Per probe: the instant, intents received, intents queued and a hash
  /// of Collector::encode_state.
  std::vector<std::uint64_t> readings;
  std::vector<std::uint8_t> image;
};

/// Runs `storm` with probes at its instants. A third of the instants get a
/// probe scheduled before the storm, which fires before the storm's events
/// there. Another third get a launcher scheduled before the storm; when it
/// fires it schedules probes at its own instant and the next one, and both
/// must fire after the storm's events at theirs.
ProbedRun run_probed(const net::Topology& topo, const workloads::Storm& storm,
                     IntentPipeline pipeline, std::size_t pod_capacity,
                     bool per_event) {
  CollectorConfig ccfg;
  ccfg.pipeline = pipeline;
  ccfg.pod_queue_capacity = pod_capacity;
  Stack s(topo, ccfg);
  const std::vector<workloads::StormEvent> events(storm.begin(), storm.end());
  std::vector<SimTime> instants;
  for (const workloads::StormEvent& e : events) {
    if (instants.empty() || instants.back() != e.at) instants.push_back(e.at);
  }

  ProbedRun run;
  const auto probe = [&s, &run] {
    sim::StateEncoder enc;
    s.collector.encode_state(enc);
    run.readings.insert(
        run.readings.end(),
        {static_cast<std::uint64_t>(s.sim.now().ns()),
         s.collector.intents_received(), s.collector.intents_queued(),
         sim::fnv1a(enc.bytes(), sim::kFnv1aOffset)});
  };
  for (std::size_t i = 0; i < instants.size(); ++i) {
    if (i % 3 == 0) s.sim.at(instants[i], probe);
    if (i % 3 != 1) continue;
    const SimTime next =
        i + 1 < instants.size() ? instants[i + 1] : instants[i];
    s.sim.at(instants[i], [&s, probe, next] {
      s.sim.at(s.sim.now(), probe);
      s.sim.at(next, probe);
    });
  }
  if (per_event) {
    schedule_per_event(s.sim, s.collector, events);
  } else {
    workloads::schedule_storm(s.sim, s.collector, storm);
  }
  s.sim.run();
  run.image = s.image();
  return run;
}

TEST(IntentPipeline, StormByInstantFiresAsPerEventReference) {
  const net::Topology topo = fat_tree4();
  const workloads::Storm storm = small_storm(topo);
  for (const IntentPipeline pipeline :
       {IntentPipeline::kWindowed, IntentPipeline::kCohortSerial,
        IntentPipeline::kCohortBatched}) {
    for (const std::size_t cap : {0u, 6u}) {
      const ProbedRun want = run_probed(topo, storm, pipeline, cap, true);
      const ProbedRun got = run_probed(topo, storm, pipeline, cap, false);
      const std::string where =
          "pipeline " + std::to_string(static_cast<int>(pipeline)) +
          ", pod capacity " + std::to_string(cap);
      EXPECT_GT(want.readings.size(), 4 * 10u) << where;
      EXPECT_EQ(got.readings, want.readings) << where;
      EXPECT_EQ(got.image, want.image) << where;
    }
  }
}

TEST(IntentPipeline, TtlExpiryMidCohortNotInstallable) {
  // The reducer location arrives exactly at the TTL horizon: the held
  // intent must expire before admission, never reach a pod queue, and install
  // nothing — in both cohort pipelines.
  const net::Topology topo = fat_tree4();
  const auto hosts = topo.hosts();
  for (const auto pipeline :
       {IntentPipeline::kCohortSerial, IntentPipeline::kCohortBatched}) {
    CollectorConfig ccfg;
    ccfg.pipeline = pipeline;
    ccfg.intent_ttl = Duration::millis(50);
    Stack s(topo, ccfg);

    ShuffleIntent intent;
    intent.job_serial = 0;
    intent.map_index = 0;
    intent.reduce_index = 0;
    intent.src_server = hosts[0];
    intent.predicted_wire_bytes = Bytes{1'000'000};
    s.sim.at(SimTime{0}, [&] { s.collector.ingest(intent); });
    s.sim.at(SimTime{Duration::millis(50).ns()},
             [&] { s.collector.reducer_located(0, 0, hosts[5]); });
    s.sim.run();

    EXPECT_EQ(s.collector.intents_expired(), 1u);
    EXPECT_EQ(s.collector.intents_queued(), 0u);
    EXPECT_EQ(s.allocator.allocations(), 0u);
    EXPECT_EQ(s.controller.rules_installed(), 0u);
  }
}

TEST(IntentPipeline, JobCompletionPurgesQueuedIntentsBeforeDrain) {
  // Intents admitted in the same event cohort as the job's completion are
  // reclaimed before the cohort drains: a dead job installs nothing.
  const net::Topology topo = fat_tree4();
  const auto hosts = topo.hosts();
  CollectorConfig ccfg;
  ccfg.pipeline = IntentPipeline::kCohortBatched;
  Stack s(topo, ccfg);

  s.sim.at(SimTime{0}, [&] { s.collector.reducer_located(0, 0, hosts[5]); });
  for (std::size_t m = 0; m < 3; ++m) {
    ShuffleIntent intent;
    intent.job_serial = 0;
    intent.map_index = m;
    intent.reduce_index = 0;
    intent.src_server = hosts[0];
    intent.predicted_wire_bytes = Bytes{2'000'000};
    s.sim.at(SimTime{0}, [&s, intent] { s.collector.ingest(intent); });
  }
  s.sim.at(SimTime{0}, [&] { s.collector.job_completed(0); });
  s.sim.run();

  EXPECT_EQ(s.collector.intents_purged_on_completion(), 3u);
  EXPECT_EQ(s.collector.intents_queued(), 0u);
  EXPECT_EQ(s.allocator.allocations(), 0u);
}

TEST(IntentPipeline, AdmissionRefusalAndEvictionBounded) {
  // pod_queue_capacity = 2: the third, strictly larger intent evicts the
  // smallest queued one; a later smaller intent is refused synchronously.
  // Only the surviving two intents' volume reaches the allocator.
  const net::Topology topo = fat_tree4();
  const auto hosts = topo.hosts();
  CollectorConfig ccfg;
  ccfg.pipeline = IntentPipeline::kCohortBatched;
  ccfg.pod_queue_capacity = 2;
  Stack s(topo, ccfg);

  auto ingest_at_zero = [&](std::size_t map_index, std::int64_t bytes) {
    ShuffleIntent intent;
    intent.job_serial = 0;
    intent.map_index = map_index;
    intent.reduce_index = 0;
    intent.src_server = hosts[0];
    intent.predicted_wire_bytes = Bytes{bytes};
    s.sim.at(SimTime{0}, [&s, intent] { s.collector.ingest(intent); });
  };
  s.sim.at(SimTime{0}, [&] { s.collector.reducer_located(0, 0, hosts[5]); });
  ingest_at_zero(0, 1'000'000);
  ingest_at_zero(1, 2'000'000);
  ingest_at_zero(2, 3'000'000);  // evicts the 1 MB intent
  ingest_at_zero(3, 500'000);    // refused: pod full, not strictly larger
  s.sim.run();

  EXPECT_EQ(s.collector.admission_evicted(), 1u);
  EXPECT_EQ(s.collector.admission_refused(), 1u);
  EXPECT_EQ(s.collector.intents_queued(), 0u);  // cohort drained
  EXPECT_EQ(s.allocator.pair_outstanding(hosts[0], hosts[5]).count(),
            5'000'000);
}

TEST(IntentPipeline, WatchdogFailureRateIsIntentWeighted) {
  // flow_table_capacity = 1: one large single-intent aggregate takes the
  // table; a three-intent coalesced aggregate (smaller volume, so no
  // eviction) is refused. Intent-weighted accounting must see 3 stranded
  // predictions out of 4 — 0.75 — where per-batch accounting would report
  // 1 failed install out of 2 events (0.5) and miss the fallback bar.
  const net::Topology topo = net::make_two_rack({});
  const auto hosts = topo.hosts();
  sim::Simulation sim(7);
  net::Fabric fabric(sim, topo);
  sdn::ControllerConfig ctcfg;
  ctcfg.flow_table_capacity = 1;
  sdn::Controller controller(sim, fabric, topo, ctcfg);
  Allocator allocator(controller);
  Collector collector(sim, allocator);  // windowed pipeline: batch coalescing
  ControlPlaneWatchdog watchdog(sim, controller, allocator);

  collector.reducer_located(0, 0, hosts[5]);
  collector.reducer_located(0, 1, hosts[6]);
  auto intent = [&](std::size_t reduce_index, std::size_t map_index,
                    std::int64_t bytes) {
    ShuffleIntent i;
    i.job_serial = 0;
    i.map_index = map_index;
    i.reduce_index = reduce_index;
    i.src_server = hosts[0];
    i.predicted_wire_bytes = Bytes{bytes};
    collector.ingest(i);
  };
  intent(0, 0, 10'000'000);  // installs; attempt weight 1
  intent(1, 0, 1'000'000);   // coalesce into one 3-intent aggregate...
  intent(1, 1, 1'000'000);
  intent(1, 2, 1'000'000);  // ...refused by the full table: weight 3
  sim.run();

  EXPECT_EQ(controller.install_attempt_intents(), 1u);
  EXPECT_EQ(controller.table_reject_intents(), 3u);
  EXPECT_DOUBLE_EQ(watchdog.recent_install_failure_rate(), 0.75);
}

}  // namespace
}  // namespace pythia::core
