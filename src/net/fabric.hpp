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
// Two rate engines share the same progressive-fill arithmetic:
//  * kFullRecompute reruns the fill over every link and flow on each change
//    (the original O(rounds × links × flows) algorithm, kept as the
//    differential-testing and benchmarking oracle);
//  * kIncremental (default) tracks the links dirtied by each change and
//    refills only the connected component of links/flows reachable from
//    them through shared links — flows in untouched components keep their
//    rates, which are bit-identical to what a full fill would recompute.
//    Two shortcuts keep those bits:
//    - Dense fallback. Once the BFS has gathered more than half the active
//      flows (with at least 16 active), it stops and fills every link that
//      carries a flow or is dirty, gathered ascending in one sweep: a union
//      of whole components. Each fill round freezes the flows of the
//      lowest-id link at the minimum share; that link lies in one
//      component and its freezes move residuals only there, so every
//      component sees the bottlenecks and arithmetic it would see alone.
//      The fallback fills fewer than 2x the component's flows.
//    - Rate sums on read. A fill marks its links stale instead of
//      re-summing them; link_elastic_rate, link_class_rate,
//      link_utilization and encode_state re-sum a stale link over its
//      flows in ascending id from zero, the additions the eager end-of-fill
//      sum made. The rates are still the fill's: a later rate change comes
//      from a fill, which marks the link again.
//    - Warm start. A dense fill (the fallback, over every busy link)
//      records each round's bottleneck b_k and share s_k, each flow's
//      freeze round, each link's initial (residual, unfixed weight, unfixed
//      count), and a log of every touched link's triple after each round.
//      The next fill, if it is dense too, replays that record: with D the
//      dirty links it consumes, it stops at the first round k* where b_k
//      is in D, or a D link with unfixed flows has a share below s_k (or
//      equal to it with a lower id than b_k — the scan's strict `<` in
//      ascending link order). Before that, round k's recorded freezes are
//      applied to the D links in ascending slot order with the fill's own
//      arithmetic. Clean links then take their state from the log prefix,
//      flows frozen before k* stay fixed at their rates, and the ordinary
//      loop runs from k*. Exact, by induction on k: if the rounds before k
//      matched and b_k is clean, every clean link enters round k in the
//      record's state, b_k carries the record's flows and unfixed set, and
//      no D link outranks (s_k, b_k), so round k picks b_k at s_k and
//      freezes the same flows at the same rate bits. A removed, rerouted or
//      reweighted flow dirties every link it crosses, as do CBR and up/down
//      changes, so no round that froze such a flow is replayed and no new
//      flow freezes before k*. The prefix touches the same links as the
//      record, so D links' log entries are rewritten in place and the log
//      is truncated at k*; the replay costs O(busy links + active flows +
//      flows on D links + prefix log entries + recorded rounds), with no
//      comparison sort and no log copy. Any component fill drops the
//      record, and a restored fabric rebuilds it by replay.
#pragma once

#include <array>
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
  double remaining_bytes = 0.0;  // settled remaining volume
  util::BitsPerSec rate;         // current max-min share
  bool completed = false;
  util::SimTime completed_at;
  /// Integer bytes already reported to observers; the fractional residue
  /// (spec.size - remaining - reported) is carried so cumulative observer
  /// totals equal spec.size exactly at completion.
  std::int64_t reported_bytes = 0;
};

using FlowCompleteFn = std::function<void(FlowId, util::SimTime)>;

/// Which progressive-fill driver recomputes rates on fabric changes.
enum class RateEngine {
  /// Dirty-set incremental: refill only the connected component of
  /// links/flows affected by the change, or every busy link once the
  /// component holds more than half the active flows. Default.
  kIncremental,
  /// Legacy full fill over all links and flows on every change. Kept as the
  /// oracle for differential tests and the scaling bench.
  kFullRecompute,
};

struct FabricConfig {
  RateEngine rate_engine = RateEngine::kIncremental;
};

/// Hot-path counters for perf-trajectory tracking across PRs.
struct FabricCounters {
  std::uint64_t recomputes = 0;        // progressive fills run
  /// Fills that took the whole-fabric path: every kFullRecompute fill, a
  /// component that spans every link, and kIncremental's dense fallback
  /// (a component holding more than half the active flows).
  std::uint64_t full_fills = 0;
  std::uint64_t links_touched = 0;     // Σ links revisited per fill
  std::uint64_t flows_touched = 0;     // Σ flows revisited per fill
  std::uint64_t completion_events = 0; // completion events fired
  std::uint64_t settles = 0;           // non-empty settle intervals
  /// Always 0: every recompute runs eagerly. Kept, and still encoded,
  /// because the end-to-end benchmark reports it as the per-layer metric
  /// `fabric.deferred_recomputes`.
  std::uint64_t deferred_recomputes = 0;
  /// Progressive-fill rounds run (every engine); one bottleneck per round.
  std::uint64_t fill_rounds = 0;
  /// Rounds kIncremental's dense warm start took from the previous dense
  /// fill's record instead of running them.
  std::uint64_t reused_rounds = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulation& sim, const Topology& topo, FabricConfig cfg = {});

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Starts an elastic flow; `on_complete` fires (via the event queue) when
  /// the last byte is delivered. The path must connect spec.src to spec.dst.
  /// FlowIds are recycled once a flow has completed and its callbacks have
  /// run, so ids are transient handles, not stable history keys.
  FlowId start_flow(FlowSpec spec, FlowCompleteFn on_complete = {});

  /// Moves an in-flight flow onto a new path (what a higher-priority
  /// OpenFlow rule installation does to subsequent packets of the flow).
  /// No-op if the flow already completed. The new path must connect the
  /// flow's endpoints.
  void reroute_flow(FlowId id, std::vector<LinkId> new_path);

  /// Adjusts a flow's max-min weight mid-flight; no-op once completed.
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
  [[nodiscard]] RateEngine rate_engine() const { return cfg_.rate_engine; }

  /// Settles all flows to now() and recomputes max-min rates. Called
  /// automatically on arrivals/departures/CBR changes; public so that probes
  /// can force an accounting point.
  void settle_and_recompute();

  /// Serializes the fabric's logical state for snapshots: counters, every
  /// active flow (sorted by id) with its exact settled remaining volume and
  /// rate bits, CBR streams, and per-link up/load/rate state. Physical
  /// scratch (slot free lists, dirty sets, ETA heap layout) is excluded —
  /// it is reconstructed by replay and never observable.
  void encode_state(sim::StateEncoder& enc) const;

  /// Rate-engine work counters, serialized as their own snapshot section:
  /// kIncremental and kFullRecompute allocate identical rates but touch
  /// different amounts of state doing it, so divergence bisection compares
  /// behavioral sections only (see Snapshot::describe_divergence).
  void encode_counters(sim::StateEncoder& enc) const;

 private:
  struct EtaEntry {
    std::int64_t eta_ns;
    std::uint32_t slot;
    std::uint64_t stamp;
  };

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
  void mark_all_dirty();
  void clear_dirty();
  /// Residual capacity a link offers elastic flows (shared by both fills so
  /// the arithmetic is bit-identical).
  [[nodiscard]] double elastic_headroom(std::uint32_t l) const;
  void set_rate(Flow& f, double rate_bps);
  void push_eta(Flow& f);
  void compact_eta_heap();
  /// Gathers the component of links/flows reachable from the dirty set into
  /// comp_links_/comp_flows_, or every busy or dirty link and every active
  /// flow once the component holds more than half the active flows (a dense
  /// fill; returns true).
  bool collect_component();
  /// Progressive fill restricted to comp_links_/comp_flows_ using the
  /// per-link flow index; marks the filled links' rate sums stale. A dense
  /// fill warm-starts from the previous dense fill's record and keeps one.
  void fill_component(bool dense);
  /// One link's fill state: residual headroom, unfixed weight and count.
  struct LinkFillState {
    std::uint32_t link;
    std::uint32_t count;
    double residual;
    double weight;
  };
  [[nodiscard]] LinkFillState fill_state(std::uint32_t l) const {
    return {l, unfixed_count_[l], residual_[l], unfixed_weight_[l]};
  }
  void set_fill_state(const LinkFillState& s) {
    residual_[s.link] = s.residual;
    unfixed_weight_[s.link] = s.weight;
    unfixed_count_[s.link] = s.count;
  }
  /// A fill's starting state for link l: headroom and its flows' weights.
  void init_fill_state(std::uint32_t l);
  /// Warm start: brings every component link to its state after the
  /// record's leading rounds that the dirty links cannot affect, rewrites
  /// and truncates the record to them, and returns their count.
  std::uint32_t replay_record();
  /// Re-sums a link's elastic and per-class rates if a fill marked it stale.
  void refresh_link_sums(std::uint32_t l) const;
  /// Legacy progressive fill over every link and active flow.
  void fill_full();

  // pythia-lint: allow(snapshot-skip, group) construction wiring and config
  // identity: restore builds a fresh Fabric from the fingerprinted scenario.
  sim::Simulation* sim_;
  const Topology* topo_;
  FabricConfig cfg_;

  // pythia-lint: allow(snapshot-skip, group) slot bookkeeping rebuilt by
  // restore replay: encode_state writes the live flows, and re-admitting
  // them through start_flow() recreates slots, callbacks, and link indexes.
  std::vector<Flow> flows_;                  // slot-indexed; slots recycled
  std::vector<FlowCompleteFn> callbacks_;    // parallel to flows_
  std::vector<std::uint32_t> free_slots_;    // completed slots ready for reuse
  std::vector<FlowId> active_;               // unordered; O(1) erase
  std::vector<std::uint32_t> active_pos_;    // slot -> index in active_
  std::vector<std::vector<FlowId>> link_flows_;  // per link, ascending by id

  std::vector<double> cbr_load_bps_;  // per link
  struct CbrStream {
    std::vector<LinkId> path;
    double rate_bps;
    bool active;
  };
  std::vector<CbrStream> cbrs_;
  std::vector<char> link_up_;             // per link
  // Per-link rate sums: written by every fill under kFullRecompute,
  // re-summed on read under kIncremental (refresh_link_sums).
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
  // rewrites these before reading them, so restored runs never observe the
  // pre-snapshot contents.
  std::vector<double> residual_;
  std::vector<double> unfixed_weight_;
  std::vector<std::uint32_t> unfixed_count_;
  // Cached residual_/max(unfixed_weight_, eps) per link, refreshed once per
  // round for the links a freeze touched, so the bottleneck scan compares
  // instead of dividing. Each cached value is the exact division the inline
  // expression would produce (same operands), which keeps bottleneck
  // selection bit-identical to fill_full()'s. fill_component() rebuilds the
  // cache on entry, so fill_full() need not maintain it.
  std::vector<double> link_share_;
  // Per-round dedup of freeze-time share refreshes: one division per
  // touched link per round instead of one per (flow, link) path step.
  std::vector<char> link_touched_;
  std::vector<std::uint32_t> touched_links_;
  std::vector<char> link_in_comp_;
  std::vector<char> flow_fixed_;        // slot-indexed
  std::vector<char> flow_in_comp_;      // slot-indexed
  std::vector<std::uint32_t> comp_links_;
  std::vector<std::uint32_t> cand_links_;
  std::vector<std::uint32_t> comp_flows_;
  std::vector<FlowId> sorted_active_;   // fill_full scratch

  // Warm-start record of the last fill, kept only while that fill was
  // dense (kIncremental; see file header), plus the replay's scratch.
  // pythia-lint: allow(snapshot-skip, group) derived from the fill
  // sequence: restore replays from t = 0, so the record rebuilds exactly.
  bool rec_valid_ = false;
  std::vector<std::uint32_t> rec_bottleneck_;    // per round
  std::vector<double> rec_share_;                // per round, as scanned
  std::vector<std::uint32_t> rec_freeze_round_;  // slot-indexed
  std::vector<LinkFillState> rec_init_;          // link-indexed
  std::vector<LinkFillState> rec_log_;           // touched links per round
  std::vector<std::uint32_t> rec_log_off_;       // round k: [off[k], off[k+1])
  struct ReplayEvent {
    std::uint32_t link;
    std::uint32_t slot;
  };
  std::vector<ReplayEvent> replay_events_;       // D-link freezes by round
  std::vector<std::uint32_t> replay_end_;        // per round, into the above

  // Lazy min-heap of flow completion instants; stale entries are skipped by
  // stamp comparison, so a rate change is O(log n) instead of an O(flows)
  // rescan per event.
  // pythia-lint: allow(snapshot-skip, group) lazy completion cache: restore
  // replay re-pushes an entry per re-admitted flow, and stale entries are
  // skipped by stamp anyway. scheduled_eta_ns_ IS encoded.
  std::vector<EtaEntry> eta_heap_;
  std::vector<std::uint64_t> eta_stamp_;  // slot-indexed
  std::int64_t scheduled_eta_ns_ = -1;

  // pythia-lint: allow(snapshot-skip, group) completion_event_ is
  // re-scheduled from the encoded scheduled_eta_ns_ during restore, and
  // observers re-register themselves when the owning system is rebuilt.
  // last_settle_ IS encoded.
  util::SimTime last_settle_ = util::SimTime::zero();
  sim::EventHandle completion_event_;
  std::vector<FabricObserver*> observers_;

  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
  util::Bytes bytes_delivered_;
  FabricCounters counters_;
};

}  // namespace pythia::net
