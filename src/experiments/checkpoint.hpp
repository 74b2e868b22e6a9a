// Checkpoint capture/restore for experiment scenarios.
//
// A checkpoint couples the replay cursor (seed + config fingerprint + event
// count) with the full verified state image (see sim/snapshot.hpp). Restore
// rebuilds the scenario from its config, replays the deterministic event
// loop to the cursor, re-captures, and compares byte-for-byte — so a
// successful restore is *proof* the reconstruction is identical, not hope.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "experiments/scenario.hpp"
#include "hadoop/config.hpp"
#include "sim/snapshot.hpp"

namespace pythia::exp {

/// Stable hash of everything that shapes a run: the scenario config (seed,
/// topology, background, controller/Pythia knobs, scheduler, cluster) and
/// the job spec. Two runs with equal fingerprints and equal
/// seeds are the same universe; restore and sweep-resume refuse mismatches.
[[nodiscard]] std::uint64_t scenario_fingerprint(const ScenarioConfig& cfg,
                                                 const hadoop::JobSpec& job);

/// Captures the full state image of `scenario` at its current position.
/// `job` is the workload the run executes (part of the identity); `label`
/// is a free-form tag ("mid-shuffle") carried for diagnostics only.
[[nodiscard]] sim::Snapshot capture_snapshot(Scenario& scenario,
                                             const hadoop::JobSpec& job,
                                             std::string label = {});

struct RestoreResult {
  /// The rebuilt scenario, positioned at the snapshot's cursor with the job
  /// submitted; call run_until()/finish() to continue the run.
  std::unique_ptr<Scenario> scenario;
  /// True when the replayed image matched the snapshot byte-for-byte.
  bool verified = false;
  /// Empty when verified; otherwise the first diverging section, as
  /// reported by sim::Snapshot::describe_divergence, preceded by the live
  /// event that kept a diverged replay from reaching the capture clock.
  std::string divergence;
};

/// Re-applies externally scheduled events during restore. A run whose
/// capture-side set-up scheduled events outside the config (a link-failure
/// drill via simulation().after, a multi-job trace) must hand restore the
/// SAME set-up, applied at the same point: after scenario construction,
/// before job submission. The config fingerprint cannot cover closures, so
/// a mismatched prologue is not rejected up front — it is caught by the
/// byte-for-byte verification (the event-queue skeleton diverges).
using ScenarioPrologue = std::function<void(Scenario&)>;

/// Rebuilds a scenario from `cfg` + `job`, replays to `snap`'s cursor
/// (including the between-events clock position, via
/// EventQueue::advance_now), re-captures, and verifies the image against
/// `snap`. Throws sim::SnapshotError when (cfg, job) is a different
/// universe than the snapshot was captured in (seed or fingerprint
/// mismatch). A verification failure is reported, not thrown — the
/// divergence description is the bisection tool's raw material.
[[nodiscard]] RestoreResult restore_snapshot(
    const sim::Snapshot& snap, const ScenarioConfig& cfg,
    const hadoop::JobSpec& job, const ScenarioPrologue& prologue = {});

}  // namespace pythia::exp
