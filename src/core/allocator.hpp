// Pythia flow-allocation module (the OpenDaylight plugin of the paper).
//
// For each (mapper-server → reducer-server) aggregate with predicted
// outstanding volume, picks one of the k shortest paths and installs a
// forwarding rule ahead of flow arrival. Path choice is a first-fit
// bin-packing heuristic that combines:
//  * measured link load from the controller's link-load service, with the
//    shuffle-attributable portion subtracted (so over-subscription
//    background is what is avoided, not the job's own transfers), and
//  * communication intent: outstanding predicted bytes already packed onto
//    each link by earlier allocations.
// The aggregate goes to the path with the shortest expected drain time,
// which for equal outstanding volume is exactly "the path with the highest
// available bandwidth" from the paper.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "net/routing.hpp"
#include "sdn/controller.hpp"
#include "util/units.hpp"

namespace pythia::core {

/// Aggregation granularity for predicted flows (paper §IV): server pairs by
/// default; rack pairs to conserve switch forwarding state (one wildcard
/// rule per rack pair instead of one rule per server pair), at the cost of
/// packing precision.
enum class Aggregation { kServerPair, kRackPair };

struct AllocatorConfig {
  /// Floor for available-bandwidth estimates; avoids division by zero when a
  /// path is measured fully loaded.
  double min_available_bps = 1e3;
  /// If true (faithful Pythia) measured background load steers the choice;
  /// if false the allocator is load-blind and packs on intents alone — the
  /// "FlowComb-like, prediction-without-network-state" ablation arm.
  bool load_aware = true;
  Aggregation aggregation = Aggregation::kServerPair;
};

class Allocator {
 public:
  Allocator(sdn::Controller& controller, AllocatorConfig cfg = {});

  /// Adds predicted volume for an aggregate; allocates and installs a path
  /// the first time an idle aggregate becomes live. While suspended, volume
  /// is tracked but nothing is installed (traffic stays on ECMP).
  /// `intent_count` says how many shuffle intents the volume was coalesced
  /// from; it weights per-intent outcome accounting (suppressed installs
  /// here, install attempt/failure counters in the controller) so batching
  /// cannot understate failure rates.
  void add_predicted_volume(net::NodeId src_server, net::NodeId dst_server,
                            util::Bytes wire_bytes,
                            std::uint64_t intent_count = 1);

  /// True when adding volume for the pair is a pure bookkeeping add that
  /// cannot change any allocation decision: the allocator is suspended, or
  /// the aggregate is installed with outstanding volume. The batched drain
  /// coalesces the tail of a same-pair run once this holds — the exact
  /// condition under which the serial reference's remaining submissions are
  /// arithmetic only, which is what keeps the arms byte-identical.
  [[nodiscard]] bool pair_coalescable(net::NodeId src_server,
                                      net::NodeId dst_server) const;

  /// Retires volume as the corresponding transfers complete.
  void retire_volume(net::NodeId src_server, net::NodeId dst_server,
                     util::Bytes wire_bytes);

  /// Control-plane fallback (watchdog): stop installing, forget every path
  /// assignment, and zero the per-link packing state. Outstanding volumes
  /// are kept — they still describe pending transfers.
  void suspend();
  /// Re-engage after recovery: re-allocates every live aggregate largest-
  /// first against the current network state and reinstalls its rules.
  void resume();
  [[nodiscard]] bool suspended() const { return suspended_; }

  /// Outstanding predicted bytes currently assigned to a link.
  [[nodiscard]] util::Bytes link_outstanding(net::LinkId l) const;
  /// Outstanding predicted bytes for a pair (0 if unknown).
  [[nodiscard]] util::Bytes pair_outstanding(net::NodeId src,
                                             net::NodeId dst) const;

  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }
  [[nodiscard]] std::uint64_t reallocations() const { return reallocations_; }
  /// Installs skipped because the allocator was suspended by the watchdog.
  [[nodiscard]] std::uint64_t installs_suppressed() const {
    return installs_suppressed_;
  }
  /// Installs the controller refused synchronously (full flow tables, stale
  /// paths); the aggregate stayed on ECMP and nothing was packed.
  [[nodiscard]] std::uint64_t installs_refused() const {
    return installs_refused_;
  }

  /// The control plane this allocator installs through (the collector's
  /// cohort pipeline reaches topology groups and batch transactions via it).
  [[nodiscard]] sdn::Controller& controller() { return *controller_; }
  [[nodiscard]] const sdn::Controller& controller() const {
    return *controller_;
  }

  /// Expected drain time of `path` if `additional` bytes were packed onto it
  /// now (exposed for tests and the adversarial-allocation bench).
  [[nodiscard]] double drain_time_seconds(net::PathView path,
                                          util::Bytes additional) const;

  /// The drain-time/first-fit path decision for an aggregate, as an interned
  /// id (invalid when the pair is disconnected). Public for the routing
  /// bench, which measures the per-flow decision latency in isolation.
  [[nodiscard]] net::PathId choose_path(net::NodeId src, net::NodeId dst,
                                        util::Bytes volume) const;

  /// Serializes allocator state for snapshots: every aggregate (in key
  /// order, which is row order) with its packing assignment, per-link
  /// outstanding volume, the suspension flag, and counters.
  void encode_state(sim::StateEncoder& enc) const;

 private:
  struct Aggregate {
    std::int64_t outstanding = 0;
    bool installed = false;
    /// Interned effective path: full host path, or inter-rack chain (rack
    /// mode). Ids are canonical per link sequence, so equality of ids is
    /// equality of paths.
    net::PathId path;
    /// Last host pair seen for this aggregate (lets resume() re-allocate
    /// without decoding keys; in rack mode, any representative pair).
    net::NodeId src;
    net::NodeId dst;
  };
  static constexpr std::uint32_t kNoAggregate =
      std::numeric_limits<std::uint32_t>::max();

  /// Snapshot key: host-pair key in server mode; rack-pair key (tagged) in
  /// rack mode. Row order is key order.
  [[nodiscard]] std::uint64_t aggregate_key(net::NodeId src,
                                            net::NodeId dst) const;
  /// Row of a pair (see rows_), or rows_.size() when either end is not a
  /// host.
  [[nodiscard]] std::size_t row_of(net::NodeId src, net::NodeId dst) const;
  /// The pair's aggregate, or nullptr when it has none.
  [[nodiscard]] const Aggregate* find(net::NodeId src, net::NodeId dst) const;
  void pack_onto(net::PathId path, std::int64_t bytes);
  [[nodiscard]] bool install(net::NodeId src, net::NodeId dst,
                             net::PathId chosen, util::Bytes volume_hint,
                             std::uint64_t intent_weight = 1);
  /// Strips host access links when packing at rack granularity: a composite
  /// candidate's chain is its middle's id, any other is interned (hence
  /// non-const).
  [[nodiscard]] net::PathId effective_path(net::PathId chosen);

  sdn::Controller* controller_;
  // pythia-lint: allow(snapshot-skip) config identity covered by the
  // scenario fingerprint; restore constructs with the same AllocatorConfig.
  AllocatorConfig cfg_;
  // pythia-lint: allow(snapshot-skip, group) the row layout, derived from
  // the (fingerprinted) topology and config: rows are host pairs in server
  // mode and rack pairs in rack mode, row = a · width_ + b.
  std::size_t width_ = 0;
  // Rack mode: host index → dense rack rank, ascending in the rack's key
  // bits (a host without a rack, -1, ranks last).
  std::vector<std::uint32_t> rack_rank_;

  // Dense rows: the pair's index into aggregates_, or kNoAggregate.
  std::vector<std::uint32_t> rows_;
  // Every aggregate ever created, in creation order; never erased.
  std::vector<Aggregate> aggregates_;
  std::vector<std::int64_t> link_outstanding_;
  bool suspended_ = false;
  std::uint64_t allocations_ = 0;
  std::uint64_t reallocations_ = 0;
  std::uint64_t installs_suppressed_ = 0;
  std::uint64_t installs_refused_ = 0;
};

}  // namespace pythia::core
