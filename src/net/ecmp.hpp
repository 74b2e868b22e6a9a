// ECMP path selection (the paper's baseline and default for non-Pythia
// traffic): hash the 5-tuple, take the hash modulo the number of equal-cost
// candidate paths. Load-unaware by construction — this is exactly what makes
// the Fig. 1b adversarial allocation possible.
#pragma once

#include <cstddef>

#include "net/routing.hpp"
#include "net/types.hpp"

namespace pythia::net {

class EcmpSelector {
 public:
  explicit EcmpSelector(const RoutingGraph& routing) : routing_(&routing) {}

  /// Deterministic hash of the 5-tuple.
  [[nodiscard]] static std::uint64_t hash_tuple(const FiveTuple& t);

  /// Index into an equal-cost path set of size `n`. Throws
  /// std::invalid_argument when n == 0.
  [[nodiscard]] static std::size_t select_index(const FiveTuple& t,
                                                std::size_t n);

  /// The chosen path for a flow between two hosts, valid until the next
  /// intern into the routing pool. Throws std::runtime_error naming both
  /// hosts when the routing graph has no path between them (a partition).
  [[nodiscard]] PathView select(NodeId src_host, NodeId dst_host,
                                const FiveTuple& t) const;

  /// Same selection as interned id — the per-flow hot path passes this
  /// around instead of copying link vectors. Throws as select() does.
  [[nodiscard]] PathId select_id(NodeId src_host, NodeId dst_host,
                                 const FiveTuple& t) const;

 private:
  const RoutingGraph* routing_;
};

}  // namespace pythia::net
