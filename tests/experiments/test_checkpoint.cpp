// Checkpoint/restore identity proof: snapshot at T, restore, run to the end
// — the continuation must reproduce the uninterrupted run byte-for-byte
// (event-trace tail, job result, final state image). Restoration itself
// verifies the replayed image against the snapshot (restore_snapshot's
// contract), so `verified` already proves cursor-position identity; the
// assertions here extend that proof to the rest of the run.
#include "experiments/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "experiments/scenario.hpp"
#include "experiments/trace.hpp"
#include "net/routing.hpp"
#include "sim/snapshot.hpp"
#include "workloads/hibench.hpp"

namespace pythia::exp {
namespace {

hadoop::JobSpec test_job() {
  // An 8 GB / 32-reducer sort fires a few thousand events and runs ~18 s of
  // sim time — room for mid-shuffle cuts and the link-failure drill below.
  return workloads::sort_job(util::Bytes{8'000'000'000LL}, 32);
}

/// A lossy control plane keeps retry/backoff and fault-channel delivery
/// state live at almost any checkpoint instant — the states the snapshot
/// audit cares most about (pending flow-mods in flight, armed retries).
ScenarioConfig faulted_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.scheduler = SchedulerKind::kPythia;
  cfg.background.oversubscription = 10.0;
  ControlPlaneFaultProfile profile;
  profile.intent_loss = 0.05;
  profile.intent_jitter = util::Duration::millis(40);
  profile.flow_mod_loss = 0.2;
  profile.install_reject = 0.1;
  apply_control_plane_faults(cfg, profile);
  return cfg;
}

std::uint64_t total_events(const ScenarioConfig& cfg,
                           const hadoop::JobSpec& job) {
  Scenario scenario(cfg);
  (void)scenario.run_job(job);
  return scenario.simulation().queue().events_fired();
}

class CheckpointRestore : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointRestore, ContinuationReproducesUninterruptedRun) {
  const ScenarioConfig cfg = faulted_config(GetParam());
  const auto job = test_job();
  const std::uint64_t events = total_events(cfg, job);
  ASSERT_GT(events, 100u);

  // Three checkpoint instants: ramp-up, mid-shuffle, and the tail where
  // retries/backoffs from the lossy control plane are still draining.
  for (const std::uint64_t cut :
       {events / 4, events / 2, (3 * events) / 4}) {
    // Uninterrupted arm: run to the cut, capture, record the remainder.
    Scenario golden(cfg);
    golden.submit_job(job);
    golden.run_to_event_count(cut);
    const sim::Snapshot snap = capture_snapshot(golden, job, "property-cut");
    EXPECT_EQ(snap.cursor_events, cut);
    EventTraceRecorder golden_tail(golden);
    const hadoop::JobResult golden_result = golden.finish();

    // Restored arm: rebuild from (snapshot, config, job), continue.
    RestoreResult restored = restore_snapshot(snap, cfg, job);
    ASSERT_TRUE(restored.verified)
        << "seed " << GetParam() << " cut " << cut << ": "
        << restored.divergence;
    EventTraceRecorder restored_tail(*restored.scenario);
    const hadoop::JobResult restored_result = restored.scenario->finish();

    // The continuation is byte-identical: same remaining event trace, same
    // result, same final state image.
    EXPECT_EQ(restored_tail.text(), golden_tail.text())
        << "seed " << GetParam() << " cut " << cut;
    EXPECT_EQ(restored_result.completion_time(),
              golden_result.completion_time());
    EXPECT_EQ(restored_result.map_retries, golden_result.map_retries);
    sim::Snapshot golden_end = capture_snapshot(golden, job, "end");
    sim::Snapshot restored_end =
        capture_snapshot(*restored.scenario, job, "end");
    EXPECT_EQ(sim::Snapshot::describe_divergence(golden_end, restored_end),
              "");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointRestore,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// External-event runs restore too: the same prologue (here a link-failure
/// drill scheduled outside the config) must be re-applied on restore, and
/// the verification catches it when it is not.
TEST(CheckpointDrill, MidLinkFailureRestoresWithPrologue) {
  ScenarioConfig cfg = faulted_config(3);
  const auto job = test_job();
  const ScenarioPrologue drill = [](Scenario& s) {
    const auto& paths = s.controller().routing().paths(s.servers().front(),
                                                       s.servers().back());
    const net::LinkId victim = paths[1][1];
    s.simulation().after(util::Duration::seconds_i(5), [&s, victim] {
      s.controller().handle_link_failure(victim);
    });
    s.simulation().after(util::Duration::seconds_i(12), [&s, victim] {
      s.controller().handle_link_restore(victim);
    });
  };

  // Capture while the link is down (the job runs ~18 s), with the clock
  // parked between events (run_until) — exercises the advance_now path of
  // the cursor.
  Scenario golden(cfg);
  drill(golden);
  golden.submit_job(job);
  golden.run_until(util::SimTime{8'000'000'000LL});
  ASSERT_FALSE(golden.job_done());
  const sim::Snapshot snap = capture_snapshot(golden, job, "mid-failure");
  EventTraceRecorder golden_tail(golden);
  const hadoop::JobResult golden_result = golden.finish();

  RestoreResult restored = restore_snapshot(snap, cfg, job, drill);
  ASSERT_TRUE(restored.verified) << restored.divergence;
  EventTraceRecorder restored_tail(*restored.scenario);
  const hadoop::JobResult restored_result = restored.scenario->finish();
  EXPECT_EQ(restored_tail.text(), golden_tail.text());
  EXPECT_EQ(restored_result.completion_time(),
            golden_result.completion_time());

  // Dropping the prologue is not silent corruption: the replay diverges and
  // verification says so.
  RestoreResult wrong = restore_snapshot(snap, cfg, job);
  EXPECT_FALSE(wrong.verified);
  EXPECT_FALSE(wrong.divergence.empty());
  // That replay reaches the capture's event count with a live event still
  // due before the capture clock; restore reports it rather than advancing
  // the clock past it.
  EXPECT_NE(wrong.divergence.find("live event"), std::string::npos)
      << wrong.divergence;
}

/// The routing section is k plus the sorted banned set: it names the table
/// (a pure function of topology, banned set and k; the fingerprint pins the
/// topology) without computing it. A mid-run capture of the lazy graph must
/// write exactly that, equal a fully materialized graph's section, and
/// compute no pair.
TEST(CheckpointIdentity, LazyRoutingSectionNamesTheTable) {
  const ScenarioConfig cfg = faulted_config(5);
  const auto job = test_job();
  Scenario scenario(cfg);
  scenario.submit_job(job);
  scenario.run_to_event_count(400);
  const net::RoutingGraph& routing = scenario.controller().routing();
  const std::size_t hosts = scenario.topology().hosts().size();
  const std::size_t materialized = routing.pairs_materialized();
  ASSERT_LT(materialized, hosts * (hosts - 1));
  const sim::Snapshot snap = capture_snapshot(scenario, job, "lazy-vs-full");
  EXPECT_EQ(routing.pairs_materialized(), materialized);
  const auto* section = snap.section("routing");
  ASSERT_NE(section, nullptr);

  std::vector<net::LinkId> banned(scenario.controller().failed_links().size());
  std::partial_sort_copy(scenario.controller().failed_links().begin(),
                         scenario.controller().failed_links().end(),
                         banned.begin(), banned.end());
  sim::StateEncoder want;
  want.put_u32(net::RoutingGraph::kStateVersion);
  want.put_u64(cfg.controller.k_paths);
  want.put_u32(static_cast<std::uint32_t>(banned.size()));
  for (net::LinkId l : banned) want.put_u32(l.value());
  EXPECT_EQ(section->bytes, want.take());

  net::RoutingGraph full(scenario.topology(), cfg.controller.k_paths);
  full.materialize_all();
  sim::StateEncoder enc;
  full.encode_state(enc);
  EXPECT_EQ(section->bytes, enc.take());
}

/// Capturing is an observation: a lazy run captured at several cuts runs on
/// exactly like an uncaptured one — the same event trace, the same routing
/// work, and at the end the same bytes in every section, the .counters
/// sections included. A 32-server leaf-spine under an 8-reducer sort leaves
/// most of its 992 host pairs unqueried to the end, so a capture that
/// computed the table would show.
TEST(CheckpointIdentity, CaptureLeavesTheRunUntouched) {
  ScenarioConfig cfg = faulted_config(4);
  cfg.topology_kind = TopologyKind::kLeafSpine;
  cfg.leaf_spine.racks = 8;
  cfg.leaf_spine.servers_per_rack = 4;
  cfg.leaf_spine.spines = 2;
  const auto job = workloads::sort_job(util::Bytes{2'000'000'000LL}, 8);
  const std::uint64_t events = total_events(cfg, job);

  Scenario plain(cfg);
  plain.submit_job(job);
  EventTraceRecorder plain_trace(plain);
  const hadoop::JobResult plain_result = plain.finish();

  Scenario captured(cfg);
  captured.submit_job(job);
  EventTraceRecorder captured_trace(captured);
  const net::RoutingGraph& routing = captured.controller().routing();
  for (const std::uint64_t cut : {events / 4, events / 2, (3 * events) / 4}) {
    captured.run_to_event_count(cut);
    const std::size_t materialized = routing.pairs_materialized();
    (void)capture_snapshot(captured, job, "neutrality");
    EXPECT_EQ(routing.pairs_materialized(), materialized) << "cut " << cut;
  }
  const hadoop::JobResult captured_result = captured.finish();

  EXPECT_EQ(captured_trace.text(), plain_trace.text());
  EXPECT_EQ(captured_result.completion_time(), plain_result.completion_time());
  // Routing work, read before the end captures below encode anything.
  sim::StateEncoder plain_work;
  sim::StateEncoder captured_work;
  plain.controller().routing().encode_counters(plain_work);
  routing.encode_counters(captured_work);
  EXPECT_EQ(captured_work.take(), plain_work.take());
  const sim::Snapshot plain_end = capture_snapshot(plain, job, "end");
  const sim::Snapshot captured_end = capture_snapshot(captured, job, "end");
  EXPECT_EQ(sim::Snapshot::describe_divergence(plain_end, captured_end), "");
}

TEST(CheckpointIdentity, RestoreRefusesForeignUniverse) {
  const ScenarioConfig cfg = faulted_config(1);
  const auto job = test_job();
  Scenario scenario(cfg);
  scenario.submit_job(job);
  scenario.run_to_event_count(200);
  const sim::Snapshot snap = capture_snapshot(scenario, job);

  ScenarioConfig wrong_seed = cfg;
  wrong_seed.seed = 2;
  EXPECT_THROW((void)restore_snapshot(snap, wrong_seed, job),
               sim::SnapshotError);

  ScenarioConfig wrong_knob = cfg;
  wrong_knob.background.oversubscription = 5.0;
  EXPECT_THROW((void)restore_snapshot(snap, wrong_knob, job),
               sim::SnapshotError);

  auto wrong_job = job;
  wrong_job.num_reducers += 1;
  EXPECT_THROW((void)restore_snapshot(snap, cfg, wrong_job),
               sim::SnapshotError);
}

TEST(CheckpointIdentity, SurvivesDiskRoundTrip) {
  const ScenarioConfig cfg = faulted_config(2);
  const auto job = test_job();
  Scenario scenario(cfg);
  scenario.submit_job(job);
  scenario.run_to_event_count(500);
  const sim::Snapshot snap = capture_snapshot(scenario, job, "disk");

  const std::string path = ::testing::TempDir() + "/checkpoint_rt.pysnap";
  snap.save(path);
  const sim::Snapshot loaded = sim::Snapshot::load(path);
  std::remove(path.c_str());

  RestoreResult restored = restore_snapshot(loaded, cfg, job);
  EXPECT_TRUE(restored.verified) << restored.divergence;
}

}  // namespace
}  // namespace pythia::exp
