// Fluid (flow-level) network engine with max-min fair bandwidth sharing.
//
// Elastic (TCP) flows traverse an explicit link path and share residual link
// capacity max-min fairly — the standard fluid approximation of long-lived
// TCP on datacenter paths. CBR (UDP/iperf) streams occupy a fixed rate first
// and never back off, exactly like the background traffic the paper injects
// to emulate oversubscription. Rates are recomputed by progressive filling on
// every flow arrival/departure/CBR change; each flow's remaining volume is
// settled against simulated time before every recompute, so byte accounting
// is exact.
//
// Completions come from a min-scan of the active flows' instants, kept in
// a dense column beside their remainders and rates (see the members): every
// mutation settles every active flow anyway, so each event stays O(active).
//
// Each change runs one warm whole-fabric fill whose work follows the links
// the change reaches. It keeps the bits of a cold progressive fill over
// every link and flow in ascending flow id (the suites check every fill
// against such a fill, tests/net/maxmin_oracle.hpp):
//    - Rate sums on read. A fill marks stale the links a change dirtied and
//      the paths of flows whose rate moved, instead of re-summing them;
//      link_elastic_rate, link_class_rate, link_utilization and
//      encode_state re-sum a stale link over its flows in ascending id from
//      zero, the additions an eager end-of-fill sum would make.
//    - The record. Every fill records, per round, its bottleneck b_k and
//      share s_k as scanned, the slots it froze (ascending) and the links
//      it touched; per link, its (residual, unfixed weight, unfixed count)
//      after each round that touched it, in round order, and its initial
//      state. Rounds keep their ids and contents across fills: a fill
//      writes only the new step list, the logs of the links it affects and
//      the rounds it runs live. The first fill of a fabric has no record:
//      every busy link is dirty, and every round runs live.
//    - The walk. The affected set A starts as the dirty links D, each summed
//      cold. The record is walked in round order. If b_k is in A, round k is
//      superseded: it is not applied, and every link it touched joins A in
//      its current state (its last replayed log entry, or else its initial
//      state). Otherwise, if (s_k, b_k) is below the lowest (share, id) A
//      link with unfixed flows (the lower id wins a tie: the scan's strict
//      `<` in ascending link order), round k is replayed: its flows keep
//      their rate bits and instants (no set_rate), its freezes are applied
//      only to the A links on their paths with the fill's arithmetic in
//      ascending slot order, and clean links take the logged state. Else a
//      live round freezes that A link's unfixed flows in ascending id, and
//      every link they cross joins A. Live rounds continue after the record
//      ends until no A link has unfixed flows.
//    - The cost. Membership of A, "replayed this fill", "fixed this fill"
//      and "lands on A" are epoch stamps, so a fill clears no O(links +
//      flows) flags. A replayed round stamps itself, which fixes its flows
//      and makes its log entries current for its clean links, so it costs
//      O(1) unless it touched an A link: a link joining A cuts its log back
//      to the replayed entries and stamps the rounds it cut off as landing.
//      A superseded round's id is reused only after its fill, when no log
//      or active flow names it, and a started flow has no round, so a stale
//      id never reads as replayed. The lowest A link is kept as links join
//      and freezes move them, and A is rescanned only after a freeze moved
//      that link itself.
//    - Exact, by induction over the merged round sequence. A clean link's
//      flows, weights and headroom are unchanged since the recording fill,
//      and every round that touched it so far was replayed, so it holds the
//      record's state. A clean b_k carries the record's unfixed flows: a
//      flow frozen live, or by a superseded round, would have put every link
//      it crosses into A, b_k included. No clean link outranks (s_k, b_k),
//      because none did in the record, and no A link does, because the walk
//      compared them; so round k picks b_k at s_k and freezes the same flows
//      at the same rate bits. Once the record ends every clean link's flows
//      are fixed, so the lowest A link is the fill's bottleneck. A removed,
//      rerouted or reweighted flow dirties every link it crosses, as do CBR
//      and up/down changes, so no round that froze such a flow, or a flow
//      that used to hold a recycled slot, is ever replayed.
//    A restored fabric rebuilds the record by replay from t = 0.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <span>
#include <vector>

#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/simulation.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace pythia::sim {
class StateEncoder;
}

namespace pythia::net {

class Fabric;

/// Observer of wire-level activity; NetFlow-style probes and SDN apps
/// implement the hooks they care about (defaults are no-ops).
class FabricObserver {
 public:
  virtual ~FabricObserver() = default;
  /// A new elastic flow entered the fabric.
  virtual void on_flow_started(const Fabric& /*fabric*/, FlowId /*flow*/,
                               util::SimTime /*at*/) {}
  /// Bytes moved by `flow` in (from, to]; called whenever the fabric settles.
  virtual void on_bytes_moved(const Fabric& /*fabric*/, FlowId /*flow*/,
                              util::Bytes /*moved*/, util::SimTime /*from*/,
                              util::SimTime /*to*/) {}
  /// Flow fully delivered.
  virtual void on_flow_completed(const Fabric& /*fabric*/, FlowId /*flow*/,
                                 util::SimTime /*at*/) {}
};

struct FlowSpec {
  NodeId src;
  NodeId dst;
  util::Bytes size;
  std::vector<LinkId> path;
  FiveTuple tuple;
  FlowClass cls = FlowClass::kOther;
  /// Weighted max-min share (1.0 = plain TCP-fair). Values > 1 model rate
  /// boosting (e.g. more parallel connections or priority queues) for
  /// Orchestra-style proportional allocation.
  double weight = 1.0;
};

struct Flow {
  FlowId id;
  FlowSpec spec;
  util::SimTime started;
  util::BitsPerSec rate;  // current max-min share
  bool completed = false;
  util::SimTime completed_at;
};

using FlowCompleteFn = std::function<void(FlowId, util::SimTime)>;

/// Hot-path counters for perf-trajectory tracking across PRs.
struct FabricCounters {
  std::uint64_t recomputes = 0;        // progressive fills run
  /// Fills with no record: the fabric's first fill.
  std::uint64_t full_fills = 0;
  /// Σ links per fill in the affected set A.
  std::uint64_t links_touched = 0;
  /// Σ flows per fill frozen by live rounds.
  std::uint64_t flows_touched = 0;
  std::uint64_t completion_events = 0; // completion events fired
  std::uint64_t settles = 0;           // non-empty settle intervals
  /// Always 0: every recompute runs eagerly. Kept, and still encoded,
  /// because the end-to-end benchmark reports it as the per-layer metric
  /// `fabric.deferred_recomputes`.
  std::uint64_t deferred_recomputes = 0;
  /// Progressive-fill rounds run live; one bottleneck per round.
  std::uint64_t fill_rounds = 0;
  /// Rounds replayed from the previous fill's record instead of running
  /// them; fill_rounds + reused_rounds is the cold round count.
  std::uint64_t reused_rounds = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulation& sim, const Topology& topo);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Starts an elastic flow; `on_complete` fires (via the event queue) when
  /// the last byte is delivered. The path must connect spec.src to spec.dst.
  /// Throws std::invalid_argument unless spec.weight is finite and positive.
  /// FlowIds are recycled once a flow has completed and its callbacks have
  /// run, so ids are transient handles, not stable history keys.
  FlowId start_flow(FlowSpec spec, FlowCompleteFn on_complete = {});

  /// Moves an in-flight flow onto a new path (what a higher-priority
  /// OpenFlow rule installation does to subsequent packets of the flow).
  /// No-op if the flow already completed. The new path must connect the
  /// flow's endpoints.
  void reroute_flow(FlowId id, std::vector<LinkId> new_path);

  /// Adjusts a flow's max-min weight mid-flight; no-op once completed.
  /// Throws std::invalid_argument unless `weight` is finite and positive.
  void set_flow_weight(FlowId id, double weight);

  /// Starts a fixed-rate stream on `path` (UDP-like: holds its rate
  /// regardless of congestion; clamped by link capacity when computing the
  /// residual available to elastic flows).
  CbrId start_cbr(std::vector<LinkId> path, util::BitsPerSec rate);
  void stop_cbr(CbrId id);

  // --- failure injection ---

  /// Takes a link down: elastic flows crossing it stall at rate zero until
  /// rerouted or the link is restored; CBR load on it goes nowhere (the
  /// packets are simply lost). Idempotent.
  void fail_link(LinkId l);
  /// Brings a failed link back. Idempotent.
  void restore_link(LinkId l);
  [[nodiscard]] bool link_up(LinkId l) const { return link_up_[l.value()]; }
  /// Active elastic flows whose current path crosses `l`, ascending by id.
  /// Indexed (O(flows on link), not O(all active)); returns a copy so
  /// callers may reroute while iterating.
  [[nodiscard]] std::vector<FlowId> flows_crossing(LinkId l) const {
    return link_flows_[l.value()];
  }

  // --- introspection (the SDN link-load service reads these) ---

  /// Fixed-rate load currently placed on a link (uncapped sum).
  [[nodiscard]] util::BitsPerSec link_cbr_load(LinkId l) const;
  /// Sum of elastic flow rates currently crossing a link.
  [[nodiscard]] util::BitsPerSec link_elastic_rate(LinkId l) const;
  /// Elastic rate on a link restricted to one traffic class.
  [[nodiscard]] util::BitsPerSec link_class_rate(LinkId l, FlowClass cls) const;
  /// (cbr + elastic) / capacity, clamped to [0, 1]; 0 for failed or
  /// zero-capacity links (a dead port serves nothing).
  [[nodiscard]] double link_utilization(LinkId l) const;
  /// Capacity minus CBR load, floored at zero — what elastic traffic can get.
  [[nodiscard]] util::BitsPerSec link_residual_capacity(LinkId l) const;

  [[nodiscard]] const Flow& flow(FlowId id) const;
  /// Settled remaining volume of `id` as of the last settle (every mutation
  /// and completion event settles); 0 once the flow has completed.
  [[nodiscard]] double remaining_bytes(FlowId id) const {
    return flow_active(id) ? remaining_[active_pos_[id.value()]] : 0.0;
  }
  /// Current path of `id` as a view of its spec.path.
  [[nodiscard]] std::span<const LinkId> flow_path(FlowId id) const;
  [[nodiscard]] bool flow_active(FlowId id) const;
  [[nodiscard]] std::size_t active_flow_count() const { return active_.size(); }
  /// Active flow ids in ascending id order (deterministic).
  [[nodiscard]] std::vector<FlowId> active_flows() const;

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] sim::Simulation& simulation() { return *sim_; }

  void add_observer(FabricObserver* obs) { observers_.push_back(obs); }

  // --- cumulative statistics ---
  [[nodiscard]] std::uint64_t flows_started() const { return flows_started_; }
  [[nodiscard]] std::uint64_t flows_completed() const {
    return flows_completed_;
  }
  [[nodiscard]] util::Bytes bytes_delivered() const { return bytes_delivered_; }
  [[nodiscard]] std::uint64_t rate_recomputations() const {
    return counters_.recomputes;
  }
  /// Hot-path perf counters (recomputes, links/flows touched, events).
  [[nodiscard]] const FabricCounters& counters() const { return counters_; }

  /// Settles all flows to now() and recomputes max-min rates. Called
  /// automatically on arrivals/departures/CBR changes; public so that probes
  /// can force an accounting point.
  void settle_and_recompute();

  /// Serializes the fabric's logical state for snapshots: counters, every
  /// active flow (sorted by id) with its exact settled remaining volume and
  /// rate bits, CBR streams, and per-link up/load/rate state. Physical
  /// scratch (slot free lists, dirty sets, the active set's order) is
  /// excluded — it is reconstructed by replay and never observable.
  void encode_state(sim::StateEncoder& enc) const;

  /// Fill work counters, serialized as their own snapshot section: they
  /// count work, not behaviour (two fills that allocate identical rates may
  /// touch different amounts of state doing it), so divergence bisection
  /// compares behavioral sections only (see Snapshot::describe_divergence).
  void encode_counters(sim::StateEncoder& enc) const;

 private:
  void settle();
  void recompute_rates();
  void after_mutation();
  void schedule_next_completion();
  void on_completion_event();
  /// Completion bookkeeping for one due flow (swap-pop from active_, link
  /// deregistration, stats).
  void complete_flow(std::uint32_t slot);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void insert_link_flow(LinkId l, FlowId id);
  void remove_link_flow(LinkId l, FlowId id);
  void mark_dirty(LinkId l);
  void clear_dirty();
  /// Residual capacity a link offers elastic flows.
  [[nodiscard]] double elastic_headroom(std::uint32_t l) const;
  /// Returns whether the rate moved (and so re-armed the flow's instant).
  bool set_rate(Flow& f, double rate_bps);
  /// Sets active_[pos]'s completion instant from its settled remainder and
  /// rate: kNever while starved.
  void arm(std::uint32_t pos);
  /// The warm fill (see file header): walks the previous fill's record
  /// against the affected set, runs live rounds on it, records this fill
  /// and marks the rate sums it moved stale.
  void fill_incremental();
  /// Advances fill_epoch_ for a new fill, clearing the stamps on wrap.
  std::uint32_t next_fill_epoch();
  /// A free round id for a live round, its slots and links emptied.
  std::uint32_t acquire_round();
  /// One link's fill state: residual headroom, unfixed weight and count; in
  /// a link's log, tagged with the record round that left it.
  struct LinkFillState {
    std::uint32_t round;
    std::uint32_t count;
    double residual;
    double weight;
  };
  [[nodiscard]] LinkFillState fill_state(std::uint32_t l,
                                         std::uint32_t round) const {
    return {round, unfixed_count_[l], residual_[l], unfixed_weight_[l]};
  }
  void set_fill_state(std::uint32_t l, const LinkFillState& s) {
    residual_[l] = s.residual;
    unfixed_weight_[l] = s.weight;
    unfixed_count_[l] = s.count;
  }
  /// A fill's starting state for link l: headroom and its flows' weights.
  void init_fill_state(std::uint32_t l);
  /// Adds link l to this fill's affected set A: cold (summed afresh, its
  /// new initial state) for a dirty link, else in its current state. Cuts
  /// l's log back to its replayed entries and marks the record rounds it
  /// cut off as landing on A. Returns false if l was already in A.
  bool join_affected(std::uint32_t l, bool cold);
  /// The fill's arithmetic for one freeze at `rate` on link l. Defined here
  /// so that the per-(flow, link) loops inline it.
  void freeze_on(std::uint32_t l, double rate, double weight) {
    residual_[l] = std::max(0.0, residual_[l] - rate);
    unfixed_weight_[l] = std::max(0.0, unfixed_weight_[l] - weight);
    assert(unfixed_count_[l] > 0);
    --unfixed_count_[l];
  }
  /// Lowers low_ to A link l if l ranks below it (no-op while stale).
  void consider(std::uint32_t l);
  /// Recomputes A link l's share after its state moved and updates low_.
  void reshare(std::uint32_t l);
  /// A's lowest (share, id) link with unfixed flows, kNoLink if none:
  /// low_, rescanned over A once a freeze moved that link itself.
  std::uint32_t lowest();
  /// One step of the record, in round order: the round's id in rounds_, and
  /// its bottleneck and share as scanned (before the clamp).
  struct RecordStep {
    std::uint32_t round;
    std::uint32_t bottleneck;
    double share;
  };
  /// Replays a record step (see file header); O(1) unless the round lands
  /// on A.
  void replay_round(const RecordStep& step);
  /// Freezes the unfixed flows of `bottleneck` at `scanned` (clamped at 0)
  /// and records the round.
  void live_round(std::uint32_t bottleneck, double scanned);
  /// One recorded round, kept in place while later fills replay it.
  struct Round {
    std::vector<std::uint32_t> links;   // links it touched
    std::vector<std::uint32_t> frozen;  // slots, ascending
  };
  /// Whether the flow in `slot` is fixed this fill: frozen live, or frozen
  /// by a replayed round.
  [[nodiscard]] bool fixed(std::uint32_t slot) const;
  /// Re-sums a link's elastic and per-class rates if a fill marked it stale.
  void refresh_link_sums(std::uint32_t l) const;

  // pythia-lint: allow(snapshot-skip, group) construction wiring: restore
  // builds a fresh Fabric from the fingerprinted scenario.
  sim::Simulation* sim_;
  const Topology* topo_;

  // pythia-lint: allow(snapshot-skip, group) slot bookkeeping rebuilt by
  // restore replay: encode_state writes the live flows, and re-admitting
  // them through start_flow() recreates slots, callbacks, link indexes,
  // rates and completion instants.
  std::vector<Flow> flows_;                  // slot-indexed; slots recycled
  std::vector<FlowCompleteFn> callbacks_;    // parallel to flows_
  std::vector<std::uint32_t> free_slots_;    // completed slots ready for reuse
  std::vector<FlowId> active_;               // unordered; O(1) erase
  std::vector<std::uint32_t> active_pos_;    // slot -> index in active_
  // Columns parallel to active_ and swap-popped with it, so a settle reads
  // two arrays: settled remaining bytes, rate in bytes/s (Flow::rate / 8,
  // the factor every product with a time takes) and the completion instant
  // in ns (INT64_MAX while starved), written only when the rate moves or a
  // due flow with bytes left re-arms.
  std::vector<double> remaining_;
  std::vector<double> rate_bytes_;
  std::vector<std::int64_t> eta_ns_;
  std::vector<std::vector<FlowId>> link_flows_;  // per link, ascending by id

  std::vector<double> cbr_load_bps_;  // per link
  struct CbrStream {
    std::vector<LinkId> path;
    double rate_bps;
    bool active;
  };
  std::vector<CbrStream> cbrs_;
  std::vector<char> link_up_;             // per link
  // Per-link rate sums, re-summed on read (refresh_link_sums).
  mutable std::vector<double> elastic_rate_bps_;
  mutable std::vector<std::array<double, 4>> class_rate_bps_;  // per class

  // pythia-lint: allow(snapshot-skip) derived cache of the two sums above:
  // encode_state re-sums every stale link before it encodes them.
  mutable std::vector<char> link_sums_stale_;  // per link

  // Dirty-link accumulator consumed by the next recompute.
  // pythia-lint: allow(snapshot-skip, group) empty at every snapshot cut:
  // every mutation's recompute consumes it before the mutation returns.
  std::vector<std::uint32_t> dirty_links_;
  std::vector<char> link_dirty_;

  // Scratch buffers reused across fills (no per-recompute allocation).
  // pythia-lint: allow(snapshot-skip, group) fill scratch: every recompute
  // rewrites these before reading them (a stamp counts only if it equals
  // the current fill's epoch), so restored runs never observe the
  // pre-snapshot contents.
  std::vector<double> residual_;
  std::vector<double> unfixed_weight_;
  std::vector<std::uint32_t> unfixed_count_;
  // Cached residual_/max(unfixed_weight_, eps) per affected link, refreshed
  // once per round for the links a freeze touched, so picking the
  // bottleneck compares instead of dividing. Each cached value is the exact
  // division the inline expression would produce (same operands), which
  // keeps bottleneck selection bit-identical to a cold fill's.
  std::vector<double> link_share_;
  // Per-round dedup of the links a live round touched: one share refresh
  // and one log entry per link instead of one per (flow, link) path step.
  std::vector<char> link_touched_;
  // Fill stamps: equal to fill_epoch_ means "this fill".
  std::uint32_t fill_epoch_ = 0;
  std::vector<std::uint32_t> link_affected_;   // link is in A
  std::vector<std::uint32_t> flow_frozen_;     // slot: frozen by a live round
  std::vector<std::uint32_t> round_replayed_;  // round id: replayed
  std::vector<std::uint32_t> round_lands_;     // round id: touches A
  std::vector<std::uint32_t> superseded_;      // round ids freed at fill end
  // A's links with unfixed flows, in join order, with their shares side by
  // side so a scan reads one contiguous array; emptied links stay (share
  // NaN) until they are the majority. low_ is the lowest (share, id) one
  // as the walk keeps it: `stale` once a freeze moved that link itself.
  std::vector<std::uint32_t> affected_;
  std::vector<double> affected_share_;
  std::vector<std::uint32_t> affected_pos_;  // link-indexed
  std::size_t affected_emptied_ = 0;
  struct Lowest {
    std::uint32_t link;
    double share;
    bool stale;
  };
  Lowest low_{};

  // The record of the last fill (see file header). Rounds keep
  // their ids and contents across fills: the fill reads rec_ and writes
  // next_rec_ (step lists, swapped at the end), touches only the logs of A
  // links, and frees the rounds it superseded.
  // pythia-lint: allow(snapshot-skip, group) derived from the fill
  // sequence: restore replays from t = 0, so the record rebuilds exactly.
  bool rec_valid_ = false;
  std::vector<RecordStep> rec_;
  std::vector<RecordStep> next_rec_;
  std::vector<Round> rounds_;
  std::vector<std::uint32_t> free_rounds_;
  std::vector<std::uint32_t> flow_round_;  // slot-indexed: round that froze it
  // Link-indexed: the link's state after each round that touched it, in
  // round order, and its state before the first.
  std::vector<std::vector<LinkFillState>> link_log_;
  std::vector<LinkFillState> rec_init_;

  // The instant completion_event_ is armed for, -1 if none.
  std::int64_t scheduled_eta_ns_ = -1;

  // pythia-lint: allow(snapshot-skip, group) completion_event_ is
  // re-scheduled from the encoded scheduled_eta_ns_ during restore, and
  // observers re-register themselves when the owning system is rebuilt.
  // done_buffer_ is scratch that on_completion_event borrows and clears
  // before it gathers the due flows. last_settle_ IS encoded.
  util::SimTime last_settle_ = util::SimTime::zero();
  sim::EventHandle completion_event_;
  std::vector<FabricObserver*> observers_;
  std::vector<FlowId> done_buffer_;

  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
  util::Bytes bytes_delivered_;
  FabricCounters counters_;
};

}  // namespace pythia::net
