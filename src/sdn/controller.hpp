// SDN controller substrate (the role OpenDaylight plays in the paper).
//
// Provides the services the Pythia network-scheduling plugin consumes:
//  * topology service — a RoutingGraph of k-shortest paths per host pair,
//    recomputed only on topology-change events (link failure);
//  * link-load update service — a periodically refreshed snapshot of link
//    utilization (sample-and-hold; queries between refreshes see stale data,
//    as with real controller statistics collection);
//  * forwarding-rule management — install a path for a (src-host, dst-host)
//    aggregate with a per-rule install latency (the paper budgets 3–5 ms per
//    flow installed); until a rule is active, traffic falls back to ECMP.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/ecmp.hpp"
#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/fault_channel.hpp"
#include "sim/simulation.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace pythia::sdn {

struct ControllerConfig {
  /// k of the k-shortest-path table; must be >= 1 (the routing table, and
  /// so the Controller constructor, throws std::invalid_argument otherwise).
  std::size_t k_paths = 2;
  /// Latency from an install request to the rule taking effect in hardware.
  util::Duration rule_install_latency = util::Duration::millis(4);
  /// Refresh period of the link-load snapshot.
  util::Duration link_stats_period = util::Duration::seconds_i(1);
  /// When a rule activates while flows of its aggregate are in flight, move
  /// them onto the rule's path (OpenFlow rules affect subsequent packets).
  bool reroute_active_flows_on_install = true;

  // --- control-plane fault model (all off by default: installs behave as
  // the infallible function calls they were before this layer existed) ---

  /// Transit faults on the controller→switch flow-mod channel: a dropped
  /// flow-mod leaves the rule uninstalled until the install timeout detects
  /// it; delay jitter postpones activation.
  sim::FaultChannelConfig flow_mod_channel;
  /// Probability that a switch rejects an install attempt outright (table
  /// race, firmware error). The controller learns of rejects immediately and
  /// retries with backoff.
  double install_reject_probability = 0.0;
  /// Per-switch flow-table budget for host-pair rules; 0 = unbounded. A full
  /// table evicts its smallest-volume rule when the newcomer is larger,
  /// otherwise the install is refused (traffic stays on ECMP).
  std::size_t flow_table_capacity = 0;
  /// Install retry policy: additional attempts after the first, with the
  /// backoff doubling on every consecutive failure of the same rule.
  std::size_t max_install_retries = 3;
  util::Duration retry_backoff = util::Duration::millis(8);
  /// A flow-mod unconfirmed after this long is declared lost and re-sent.
  util::Duration install_timeout = util::Duration::millis(20);
};

/// A forwarding rule for a host-pair aggregate (the paper aggregates at
/// server granularity because shuffle dst ports are unknowable in advance).
/// The path is interned in the controller's routing pool: rules carry an id
/// plus a stable pointer instead of a link-vector copy, so rule bookkeeping
/// compares ids on the hot path.
struct PathRule {
  net::NodeId src_host;
  net::NodeId dst_host;
  net::PathId path_id;
  const net::Path* path = nullptr;  // pool storage, stable across rebuilds
  util::SimTime requested_at;
  util::SimTime active_at;  // requested_at + install latency
};

class Controller {
 public:
  Controller(sim::Simulation& sim, net::Fabric& fabric,
             const net::Topology& topo, ControllerConfig cfg = {});

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  [[nodiscard]] const ControllerConfig& config() const { return cfg_; }
  [[nodiscard]] const net::RoutingGraph& routing() const { return routing_; }
  [[nodiscard]] const net::Topology& topology() const { return *topo_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] sim::Simulation& simulation() { return *sim_; }

  // --- link-load update service (snapshot semantics) ---

  /// Measured load (CBR + elastic) on `l` as of the last snapshot refresh.
  [[nodiscard]] util::BitsPerSec snapshot_load(net::LinkId l) const;
  /// Measured load excluding shuffle-class traffic — the paper's allocator
  /// separates the background (over-subscription) portion of link load from
  /// the application's own transfers.
  [[nodiscard]] util::BitsPerSec snapshot_background_load(net::LinkId l) const;
  /// Capacity minus snapshot load, floored at zero.
  [[nodiscard]] util::BitsPerSec snapshot_available(net::LinkId l) const;
  /// Snapshot utilization in [0, 1].
  [[nodiscard]] double snapshot_utilization(net::LinkId l) const;
  /// Minimum snapshot-available bandwidth along a path.
  [[nodiscard]] util::BitsPerSec snapshot_path_available(
      const net::Path& path) const;

  // --- forwarding ---

  /// Resolves the path a new flow between two hosts takes right now:
  /// an active rule's path if one exists, otherwise ECMP over the
  /// k-shortest-path set.
  [[nodiscard]] const net::Path& resolve(net::NodeId src_host,
                                         net::NodeId dst_host,
                                         const net::FiveTuple& tuple) const;

  /// Requests installation of `path` for the host-pair aggregate. The rule
  /// becomes active after the configured install latency; one flow-mod per
  /// switch on the path is counted toward the control-plane overhead totals.
  /// `volume_hint` (predicted aggregate bytes) drives table-full eviction:
  /// when a switch on the path has no free entry, the smallest-volume rule
  /// occupying it is evicted if the newcomer is larger. Under a faulty
  /// control plane the install may be rejected or the flow-mod lost; the
  /// controller retries with exponential backoff up to `max_install_retries`
  /// times before abandoning the rule to ECMP.
  /// Returns false when the request is refused synchronously (path over a
  /// failed link, or no admissible flow-table entry) — the caller's traffic
  /// stays on ECMP and it must not account the path as taken. A true return
  /// means the install is in flight; it can still fail asynchronously.
  bool install_path(net::NodeId src_host, net::NodeId dst_host, net::Path path,
                    util::Bytes volume_hint = util::Bytes::zero());

  /// Id-based install: the fast path for callers that already hold an
  /// interned path (allocator, Hedera, ECMP-derived ids). Identical
  /// semantics to the Path overload. `intent_weight` is the number of
  /// shuffle intents whose traffic rides on this rule (1 for unbatched
  /// callers); every install/reject/timeout outcome advances the per-intent
  /// counters by this weight so batching cannot understate the failure rate
  /// the watchdog's ECMP-fallback trigger sees.
  bool install_path_id(net::NodeId src_host, net::NodeId dst_host,
                       net::PathId path_id,
                       util::Bytes volume_hint = util::Bytes::zero(),
                       std::uint64_t intent_weight = 1);

  // --- batched rule installation (cohort pipeline fast path) ---
  //
  // Between begin_install_batch() and commit_install_batch(), every
  // install_path_id performs its synchronous work (failed-link refusal,
  // supersede, table admission, occupancy, epoch) inline but defers the
  // flow-mod send (attempt_install) to the commit, which issues all deferred
  // attempts in insertion order as one rule-table transaction. Because the
  // deferral stays within one simulation instant and preserves attempt
  // order, the RNG-draw and flow-mod sequence is identical to unbatched
  // installs — precondition: max_install_retries >= 1 (the default), so a
  // same-instant failure cannot observe the not-yet-sent state. A re-install
  // that would supersede a rule already deferred in the open batch flushes
  // the batch first, preserving the serial attempt order.

  /// Opens a batch; nestable calls are a bug (asserted).
  void begin_install_batch();
  /// Issues every deferred install attempt in order and closes the batch.
  void commit_install_batch();

  /// Interns an externally composed path (e.g. a rack chain with access
  /// links) into the routing pool so it can be passed by id.
  [[nodiscard]] net::PathId intern_path(net::Path path) {
    return routing_.intern(std::move(path));
  }
  /// Resolves an interned id to its path (stable reference).
  [[nodiscard]] const net::Path& path(net::PathId id) const {
    return routing_.path(id);
  }

  /// Active rule for a pair, if any (inactive pending rules not returned).
  [[nodiscard]] const PathRule* active_rule(net::NodeId src_host,
                                            net::NodeId dst_host) const;

  /// Removes the rule (and any pending install) for a pair.
  void remove_rule(net::NodeId src_host, net::NodeId dst_host);

  /// Drops every host-pair rule (active and pending); traffic falls back to
  /// ECMP. Used by the control-plane watchdog on degradation. Returns the
  /// number of rules removed.
  std::size_t clear_host_rules();

  /// Host-pair rule entries currently occupying `switch_node`'s flow table.
  [[nodiscard]] std::size_t table_occupancy(net::NodeId switch_node) const;

  // --- rack-granularity wildcard rules (paper §IV: forwarding-state
  // conservation — "large-scale future SDN setups may force routing at the
  // level of server aggregations, e.g. racks or PODs"; one wildcard rule per
  // switch covers every server pair between the racks) ---

  /// Installs an inter-rack chain (ToR-to-ToR link sequence) for all traffic
  /// from `src_rack` to `dst_rack`. Subject to the same install latency.
  void install_rack_path(int src_rack, int dst_rack, net::Path chain);
  /// Active chain for a rack pair, if any.
  [[nodiscard]] const net::Path* active_rack_chain(int src_rack,
                                                   int dst_rack) const;

  // --- topology-update service (paper §IV: "the routing graph is updated
  // at the event of link or switch failure") ---

  /// Handles a physical link failure: fails the duplex peer too, takes the
  /// links down in the fabric, rebuilds the routing graph without them,
  /// purges rules that traversed them, and reroutes stranded in-flight
  /// flows onto surviving paths (ECMP over the rebuilt graph).
  void handle_link_failure(net::LinkId l);
  /// Reverts a failure: restores the links and rebuilds the routing graph.
  void handle_link_restore(net::LinkId l);
  /// Whole-switch failure: every link touching the switch goes down.
  void handle_switch_failure(net::NodeId switch_node);
  /// Reverts a switch failure.
  void handle_switch_restore(net::NodeId switch_node);
  [[nodiscard]] const std::unordered_set<net::LinkId>& failed_links() const {
    return failed_links_;
  }
  [[nodiscard]] std::uint64_t topology_rebuilds() const {
    return topology_rebuilds_;
  }

  // --- overhead accounting (Section V-C table) ---
  [[nodiscard]] std::uint64_t rules_installed() const {
    return rules_installed_;
  }
  [[nodiscard]] std::uint64_t flow_mod_messages() const {
    return flow_mods_;
  }
  [[nodiscard]] std::uint64_t stats_refreshes() const {
    return stats_refreshes_;
  }

  // --- control-plane health accounting (watchdog inputs + bench output) ---
  [[nodiscard]] std::uint64_t install_attempts() const {
    return install_attempts_;
  }
  [[nodiscard]] std::uint64_t install_rejects() const {
    return install_rejects_;
  }
  [[nodiscard]] std::uint64_t install_timeouts() const {
    return install_timeouts_;
  }
  /// Attempt-level failures (rejects + lost flow-mods).
  [[nodiscard]] std::uint64_t install_failures() const {
    return install_rejects_ + install_timeouts_;
  }
  [[nodiscard]] std::uint64_t install_retries() const {
    return install_retries_;
  }
  /// Rules given up on after exhausting retries (left to ECMP).
  [[nodiscard]] std::uint64_t installs_abandoned() const {
    return installs_abandoned_;
  }
  [[nodiscard]] std::uint64_t table_evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t table_rejects() const { return table_rejects_; }

  // --- per-intent outcome accounting (batching-aware failure rates): the
  // attempt-level counters above advance once per rule operation regardless
  // of how many intents were coalesced onto the rule; these advance by the
  // rule's intent weight, so a refused batch of 30 intents weighs 30 times
  // a refused single-intent rule ---
  [[nodiscard]] std::uint64_t install_attempt_intents() const {
    return install_attempt_intents_;
  }
  [[nodiscard]] std::uint64_t install_reject_intents() const {
    return install_reject_intents_;
  }
  [[nodiscard]] std::uint64_t install_timeout_intents() const {
    return install_timeout_intents_;
  }
  /// Attempt-level failures weighted by intents (rejects + lost flow-mods).
  [[nodiscard]] std::uint64_t install_failure_intents() const {
    return install_reject_intents_ + install_timeout_intents_;
  }
  [[nodiscard]] std::uint64_t table_reject_intents() const {
    return table_reject_intents_;
  }

  [[nodiscard]] std::uint64_t rules_cleared() const { return rules_cleared_; }
  [[nodiscard]] const sim::FaultChannel& flow_mod_channel() const {
    return flow_mod_channel_;
  }

  /// Serializes the controller's logical state for snapshots: host-pair and
  /// rack rules (sorted by key) with their install/retry progress, table
  /// occupancy, failed links, the link-load snapshot, all counters, and the
  /// flow-mod fault channel's state.
  void encode_state(sim::StateEncoder& enc) const;

 private:
  [[nodiscard]] static std::uint64_t pair_key(net::NodeId a, net::NodeId b) {
    return (static_cast<std::uint64_t>(a.value()) << 32) | b.value();
  }
  void refresh_snapshot_if_stale() const;
  void activate_rule(std::uint64_t key, std::uint64_t epoch);

  // pythia-lint: allow(snapshot-skip, group) wiring and config identity,
  // re-created from the fingerprinted scenario; routing_ snapshots itself
  // (its own encode_state section) and ecmp_ is a stateless view of it.
  sim::Simulation* sim_;
  net::Fabric* fabric_;
  const net::Topology* topo_;
  ControllerConfig cfg_;
  net::RoutingGraph routing_;
  net::EcmpSelector ecmp_;

  struct PendingRule {
    PathRule rule;
    bool active = false;
    /// Flow-mod acknowledged by the switch (activation latency running).
    bool confirmed = false;
    util::Bytes volume_hint;
    std::size_t attempt = 0;
    /// Monotone install generation; stale channel/timer callbacks carry the
    /// epoch they were issued under and bail on mismatch.
    std::uint64_t epoch = 0;
    /// Shuffle intents riding on this rule (per-intent outcome weighting).
    std::uint64_t intent_weight = 1;
  };
  using RuleMap = std::unordered_map<std::uint64_t, PendingRule>;
  RuleMap rules_;

  /// Number of switch hops on a host-pair path (= flow-mods per attempt and
  /// table entries the rule occupies).
  [[nodiscard]] std::uint64_t switch_hops(const net::Path& path) const;
  /// Frees a switch entry per hop, then erases; all rule removal funnels
  /// through here so `table_occupancy_` never drifts.
  RuleMap::iterator erase_rule(RuleMap::iterator it);
  /// Makes room on every switch along `path` (evicting smaller rules) or
  /// refuses; no-op when flow_table_capacity == 0.
  [[nodiscard]] bool admit_to_tables(const net::Path& path,
                                     util::Bytes volume_hint);
  void attempt_install(std::uint64_t key);
  /// Backoff-retries the keyed rule, or abandons it after max retries.
  void fail_attempt(std::uint64_t key);
  /// Issues deferred batch attempts in insertion order; leaves the batch
  /// open (commit closes it; a mid-batch supersede flushes through here).
  void flush_install_batch();
  std::unordered_map<std::uint32_t, std::size_t> table_occupancy_;

  struct PendingRackRule {
    int src_rack = -1;
    int dst_rack = -1;
    net::Path chain;
    util::SimTime active_at;
    bool active = false;
  };
  [[nodiscard]] static std::uint64_t rack_key(int a, int b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }
  void activate_rack_rule(std::uint64_t key);
  /// Composes host access links around a rack chain; cached per host pair.
  [[nodiscard]] const net::Path* compose_rack_path(net::NodeId src_host,
                                                   net::NodeId dst_host) const;
  std::unordered_map<std::uint64_t, PendingRackRule> rack_rules_;
  // pythia-lint: allow(snapshot-skip) memoization of compose_rack_path():
  // every entry is a pure function of the routing graph, so a cold cache
  // after restore recomputes byte-identical paths.
  mutable std::unordered_map<std::uint64_t, net::Path> rack_path_cache_;

  mutable std::vector<double> snapshot_load_bps_;
  mutable std::vector<double> snapshot_shuffle_bps_;
  mutable util::SimTime snapshot_at_ = util::SimTime{-1};
  mutable std::uint64_t stats_refreshes_ = 0;

  std::unordered_set<net::LinkId> failed_links_;
  std::uint64_t topology_rebuilds_ = 0;

  std::uint64_t rules_installed_ = 0;
  std::uint64_t flow_mods_ = 0;

  sim::FaultChannel flow_mod_channel_;
  std::uint64_t install_epoch_ = 0;
  std::uint64_t install_attempts_ = 0;
  std::uint64_t install_rejects_ = 0;
  std::uint64_t install_timeouts_ = 0;
  std::uint64_t install_retries_ = 0;
  std::uint64_t installs_abandoned_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t table_rejects_ = 0;
  std::uint64_t rules_cleared_ = 0;
  std::uint64_t install_attempt_intents_ = 0;
  std::uint64_t install_reject_intents_ = 0;
  std::uint64_t install_timeout_intents_ = 0;
  std::uint64_t table_reject_intents_ = 0;

  /// Open install batch: deferred (key, epoch) attempts in insertion order.
  bool batch_open_ = false;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> batch_pending_;
};

}  // namespace pythia::sdn
