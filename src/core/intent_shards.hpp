// Per-pod collector queues with bounded admission.
//
// The cohort intent pipelines accumulate admitted shuffle intents into
// per-locality-group ("pod") queues between event cohorts, the per-pod
// aggregation a collector replica next to each pod would do. Admission is
// bounded per pod. Bounded queues reuse the flow-table eviction semantics
// from the control plane: a full pod evicts its smallest-volume intent when
// the newcomer is strictly larger, otherwise the newcomer is refused
// synchronously (the prediction is lost and its traffic simply rides ECMP,
// the same "never worse than ECMP" degradation the rest of the system
// promises).
//
// Draining is canonical: all pods are merged and sorted by
// (pod, priority desc, src, dst, job, reduce, map, admission seq), a total
// order.
// Pair-contiguity within a (pod, priority) band is what the batched drain
// exploits: every intent for one (src, dst) aggregate in a cohort forms one
// contiguous run that coalesces into a single allocator submission.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "util/time.hpp"

namespace pythia::sim {
class StateEncoder;
}

namespace pythia::core {

/// An intent whose destination is resolved and which passed admission; the
/// unit the cohort drain operates on.
struct AdmittedIntent {
  std::int32_t pod = 0;       // locality group of the source server
  std::int32_t priority = 0;  // tenant priority; higher drains first
  std::uint64_t job_serial = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t reduce_index = 0;
  std::uint64_t map_index = 0;
  std::int64_t wire_bytes = 0;
  util::SimTime admitted_at;
  /// TTL horizon inherited from the held-intent that produced this entry
  /// (held_at + ttl); SimTime::max() when expiry is disabled. The drain
  /// re-checks it so an intent can never install past its TTL.
  util::SimTime expires_at = util::SimTime::max();
  std::uint64_t admit_seq = 0;  // global admission order; final tie-break
};

/// Canonical drain order: (pod, priority desc, src, dst, job, reduce, map,
/// admit_seq). A total order: admit_seq is unique.
[[nodiscard]] bool canonical_intent_less(const AdmittedIntent& a,
                                         const AdmittedIntent& b);

class PodIntentQueue {
 public:
  enum class Admission : std::uint8_t {
    kAdmitted = 0,
    /// Admitted after evicting the pod's smallest-volume queued intent.
    kAdmittedWithEviction = 1,
    /// Refused synchronously: the pod is full and the newcomer is not
    /// strictly larger than the smallest queued intent.
    kRefused = 2,
  };

  /// `pod_capacity`: max queued intents per pod between cohort boundaries;
  /// 0 = unbounded.
  explicit PodIntentQueue(std::size_t pod_capacity)
      : pod_capacity_(pod_capacity) {}

  /// Admits `intent` into its pod's queue (stamping admit_seq), applying the
  /// per-pod bound.
  Admission admit(AdmittedIntent intent);

  /// Removes and returns every queued intent in canonical order.
  std::vector<AdmittedIntent> drain();

  /// Drops queued intents belonging to `job_serial`; returns how many.
  std::size_t purge_job(std::uint64_t job_serial);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] std::uint64_t admitted() const { return admitted_; }
  [[nodiscard]] std::uint64_t refused() const { return refused_; }
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }

  /// Serializes queue content (pods ascending, intents in queue order) and
  /// the admission sequence counter.
  void encode_state(sim::StateEncoder& enc) const;

 private:
  // pythia-lint: allow(snapshot-skip) capacity identity fixed by the
  // fingerprinted scenario config; restore constructs with the same value.
  std::size_t pod_capacity_;
  /// Per-pod FIFO accumulation; ordered map so encode/drain walk pods in
  /// ascending order.
  std::map<std::int32_t, std::vector<AdmittedIntent>> pods_;
  // pythia-lint: allow(snapshot-skip) derived running total of the encoded
  // per-pod queues; decode recomputes it while re-admitting entries.
  std::size_t size_ = 0;
  std::uint64_t next_admit_seq_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace pythia::core
