// Pythia prediction-notification collector (runs beside the controller).
//
// Responsibilities from the paper:
//  * receive per-(map, reducer) shuffle intents from every slave's
//    instrumentation process;
//  * hold intents whose reducer has not started yet ("unknown destination")
//    and complete them from reducer-initialization events;
//  * aggregate all flows from one mapper server to one reducer server into a
//    single flow entry that sums constituent sizes (dst TCP ports are
//    unknowable in advance, so rules must match at server granularity);
//  * hand batches of aggregate updates to the flow-allocation module.
//
// Three pipelines are selectable (CollectorConfig::pipeline):
//
//  * kWindowed (default, the paper's heuristic): updates accumulate for
//    `batch_window` and flush largest-first (criticality-aware FFD).
//  * kCohortSerial: intents are admitted into per-pod shards (bounded, with
//    synchronous refusal) and drained one-by-one, in canonical
//    (pod, priority, pair, job, flow) order, at every event-cohort boundary.
//    This is the serial reference the batched pipeline is proven against.
//  * kCohortBatched: same shards, same canonical drain order, but contiguous
//    same-pair runs coalesce into a single prediction+allocation submission
//    and the controller applies all fresh installs of the cohort as one
//    rule-table transaction. Byte-identical to kCohortSerial at any shard
//    count (the identity argument lives in docs/architecture.md).
//
// The collector sits at the receiving end of a lossy management network
// (sim::FaultChannel), so it also defends itself: held intents expire after a
// TTL (a reducer-initialization event may have been lost, or the reducer may
// never launch), and a job's residue is purged when the job completes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/intent_shards.hpp"
#include "core/prediction.hpp"
#include "sim/simulation.hpp"

namespace pythia::sim {
class StateEncoder;
}

namespace pythia::core {

class Allocator;
class ControlPlaneWatchdog;

/// Which collector→allocator→controller pipeline runs.
enum class IntentPipeline : std::uint8_t {
  kWindowed = 0,
  kCohortSerial = 1,
  kCohortBatched = 2,
};

struct CollectorConfig {
  /// Aggregation window: intents arriving within it are allocated jointly
  /// (the paper's heuristic "jointly allocates sets of predicted flows").
  /// Windowed pipeline only.
  util::Duration batch_window = util::Duration::millis(100);
  /// Flow criticality (the paper's differentiator over FlowComb): order
  /// batch allocation by how loaded the *destination reducer server* is —
  /// flows feeding the barrier-critical reducer get first pick of paths.
  /// When false, plain first-fit-decreasing by aggregate volume.
  /// Windowed pipeline only (cohort pipelines use the canonical drain
  /// order, which is what makes them shard-invariant).
  bool criticality_aware = true;
  /// Held-intent TTL: an intent whose reducer location never materializes
  /// (lost reducer-init message, reducer never launched) is dropped this
  /// long after arrival. Purging is lazy — no events are scheduled — so a
  /// fault-free run whose reducers start within the TTL is byte-identical
  /// to one without the TTL. Zero disables expiry.
  util::Duration intent_ttl = util::Duration::seconds_i(600);
  /// Pipeline selection (see enum above).
  IntentPipeline pipeline = IntentPipeline::kWindowed;
  /// Cohort pipelines: physical shard count for the per-pod queues.
  /// 0 = one shard per topology locality group. Purely a layout knob — the
  /// drained state is byte-identical for any value (including 1).
  std::size_t shard_count = 0;
  /// Cohort pipelines: max queued intents per pod between cohort
  /// boundaries; a full pod evicts its smallest intent for a strictly
  /// larger newcomer, else refuses the newcomer synchronously. 0 = unbounded.
  std::size_t pod_queue_capacity = 0;
};

/// Bench hook: per-cohort drain notifications. Implementations live outside
/// the deterministic scope (the bench reads wall clocks in them); the
/// collector itself never observes time through this interface and the
/// simulation's behavior is independent of whether an observer is attached.
class CohortDrainObserver {
 public:
  virtual ~CohortDrainObserver() = default;
  /// A cohort drain is starting with `intents` queued intents.
  virtual void on_drain_begin(std::size_t intents) = 0;
  /// One allocator submission covering `intents` intents completed.
  virtual void on_intents_submitted(std::size_t intents) = 0;
  /// Drain finished: `runs` contiguous same-pair runs were processed with
  /// `allocator_calls` total submissions.
  virtual void on_drain_end(std::size_t intents, std::size_t runs,
                            std::size_t allocator_calls) = 0;
};

class Collector {
 public:
  Collector(sim::Simulation& sim, Allocator& allocator,
            CollectorConfig cfg = {});
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Intent from an instrumentation process; dst may be unknown yet.
  void ingest(const ShuffleIntent& intent);

  /// Reducer-initialization event: resolves pending intents for the reducer.
  void reducer_located(std::size_t job_serial, std::size_t reduce_index,
                       net::NodeId server);

  /// A shuffle fetch finished; retires predicted volume so the allocator's
  /// outstanding-load bookkeeping tracks reality.
  void fetch_completed(net::NodeId src_server, net::NodeId dst_server,
                       util::Bytes payload);

  /// Job teardown: reclaims held intents, queued (not yet drained) intents,
  /// and reducer locations for the job so intents for never-launched
  /// reducers cannot leak across jobs.
  void job_completed(std::size_t job_serial);

  /// Health-watchdog hookup: every delivered notification is reported so the
  /// watchdog can track control-plane staleness.
  void set_watchdog(ControlPlaneWatchdog* watchdog) { watchdog_ = watchdog; }

  /// Bench hook (see CohortDrainObserver); nullptr detaches.
  void set_drain_observer(CohortDrainObserver* observer) {
    observer_ = observer;
  }

  /// Outstanding predicted volume destined to a server (criticality proxy:
  /// the most-loaded reducer server gates the shuffle barrier).
  [[nodiscard]] util::Bytes destination_outstanding(net::NodeId dst) const;
  /// Mean outstanding volume across destinations that currently have any.
  [[nodiscard]] util::Bytes mean_destination_outstanding() const;

  // --- accounting ---
  [[nodiscard]] std::uint64_t intents_received() const { return received_; }
  [[nodiscard]] std::uint64_t intents_held_for_reducer() const {
    return held_;
  }
  /// Windowed: flush_batch invocations with work. Cohort: non-empty drains.
  [[nodiscard]] std::uint64_t batches_flushed() const { return batches_; }
  /// Held intents dropped because their reducer location never arrived
  /// within the TTL.
  [[nodiscard]] std::uint64_t intents_expired() const { return expired_; }
  /// Held intents reclaimed by job completion.
  [[nodiscard]] std::uint64_t intents_purged_on_completion() const {
    return purged_on_completion_;
  }
  /// Completed fetches whose wire bytes exceeded the remaining predicted
  /// volume for the destination (prediction lost or under-estimated); the
  /// outstanding counter is clamped at zero instead of going negative.
  [[nodiscard]] std::uint64_t underflow_events() const { return underflows_; }
  /// Aggregates currently known (src-server, dst-server pairs ever seen).
  [[nodiscard]] std::size_t aggregate_count() const { return pair_seen_.size(); }
  /// Intents currently parked waiting for a reducer location.
  [[nodiscard]] std::size_t intents_waiting() const;
  /// Intents admitted to shards, not yet drained (cohort pipelines only).
  [[nodiscard]] std::size_t intents_queued() const;
  /// Admission refusals by the bounded per-pod queues.
  [[nodiscard]] std::uint64_t admission_refused() const;
  /// Queued intents evicted for strictly larger newcomers.
  [[nodiscard]] std::uint64_t admission_evicted() const;
  /// Allocator submissions saved by run coalescing (batched pipeline).
  [[nodiscard]] std::uint64_t coalesced_submissions_saved() const {
    return coalesced_saved_;
  }

  /// Cumulative predicted wire volume that `server` will source towards
  /// *other* servers (Fig. 5's predicted curve); points are stamped when the
  /// destination became known — at ingest for running reducers, at
  /// reducer-location resolution otherwise.
  [[nodiscard]] const std::vector<PredictionPoint>& predicted_curve(
      net::NodeId server) const;

  /// Serializes the collector's *pipeline-invariant* state: the part that is
  /// byte-identical between the serial and batched cohort arms (and at any
  /// shard count). The differential tests and BENCH_controller's
  /// all_identical gate hash this.
  void encode_behavior(sim::StateEncoder& enc) const;

  /// Serializes the collector's full logical state for snapshots:
  /// encode_behavior plus the windowed batch, queued shard content, and
  /// pipeline-specific counters.
  void encode_state(sim::StateEncoder& enc) const;

 private:
  struct ReducerKey {
    std::size_t job_serial;
    std::size_t reduce_index;
    friend auto operator<=>(const ReducerKey&, const ReducerKey&) = default;
  };
  struct HeldIntent {
    ShuffleIntent intent;
    util::SimTime held_at;  // arrival time; TTL counts from here
  };
  /// Windowed batch entry: coalesced bytes plus how many intents they came
  /// from (the intent count is what failure accounting must weight by).
  struct PendingUpdate {
    std::int64_t bytes = 0;
    std::uint64_t intents = 0;
  };
  void enqueue_update(net::NodeId src, net::NodeId dst, util::Bytes wire);
  /// The bookkeeping half of enqueue_update (curves, outstanding, pair set);
  /// shared by all pipelines.
  void book_update(net::NodeId src, net::NodeId dst, std::int64_t wire);
  void flush_batch();
  /// Lazily drops held intents past the TTL; cheap when nothing can expire.
  void purge_expired();

  // --- cohort pipeline ---
  [[nodiscard]] bool cohort_mode() const {
    return cfg_.pipeline != IntentPipeline::kWindowed;
  }
  /// Resolved-destination intent enters admission; `ttl_base` anchors the
  /// expiry horizon (held_at for resolved held intents, now otherwise).
  void admit_intent(const ShuffleIntent& intent, net::NodeId dst,
                    util::SimTime ttl_base);
  /// Cohort-hook body: canonical drain + (batched) coalescing.
  void drain_cohort();
  void submit_one(const AdmittedIntent& a);
  void submit_run(std::uint32_t src, std::uint32_t dst, std::int64_t sum,
                  std::uint64_t intents);

  // pythia-lint: allow(snapshot-skip, group) wiring and config identity:
  // pointers are re-connected by the restore factory and cfg_ is covered by
  // the scenario fingerprint.
  sim::Simulation* sim_;
  Allocator* allocator_;
  ControlPlaneWatchdog* watchdog_ = nullptr;
  CohortDrainObserver* observer_ = nullptr;
  CollectorConfig cfg_;

  std::map<ReducerKey, net::NodeId> reducer_location_;
  std::map<ReducerKey, std::vector<HeldIntent>> waiting_;
  /// Earliest possible held-intent expiry; SimTime::max() when none held.
  util::SimTime next_expiry_ = util::SimTime::max();

  /// Batched aggregate additions keyed by (src, dst) server pair (windowed
  /// pipeline only).
  std::map<std::pair<std::uint32_t, std::uint32_t>, PendingUpdate> batch_;
  bool flush_pending_ = false;

  /// Cohort pipelines: the sharded admission queues, drained by the event
  /// queue's cohort hook (installed while shards_ is set).
  std::unique_ptr<ShardedIntentQueue> shards_;

  std::map<std::pair<std::uint32_t, std::uint32_t>, bool> pair_seen_;
  std::unordered_map<net::NodeId, std::int64_t> dst_outstanding_;
  std::unordered_map<net::NodeId, std::vector<PredictionPoint>> curves_;
  std::unordered_map<net::NodeId, std::int64_t> predicted_totals_;
  // pythia-lint: allow(snapshot-skip) immutable empty-sentinel returned for
  // unknown reducers; never written after construction.
  std::vector<PredictionPoint> empty_curve_;
  std::uint64_t received_ = 0;
  std::uint64_t held_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t purged_on_completion_ = 0;
  std::uint64_t underflows_ = 0;
  std::uint64_t coalesced_saved_ = 0;
  // pythia-lint: allow(snapshot-skip) pure value object derived from cfg_ at
  // construction (predict_wire_bytes is const); holds no run state.
  ProtocolOverheadModel retire_model_;
};

}  // namespace pythia::core
