// NetFlow-style traffic accounting.
//
// The paper validates prediction timeliness/accuracy (Fig. 5) by deploying
// NetFlow probes on every server, filtering the Hadoop shuffle port (50060),
// and post-processing traces into cumulative per-source-server volume curves.
// This probe observes fabric settle points and records exactly that.
#pragma once

#include <vector>

#include "net/fabric.hpp"
#include "net/types.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace pythia::net {

/// One point of a cumulative-volume time series.
struct VolumePoint {
  util::SimTime at;
  util::Bytes cumulative;
};

class NetFlowProbe final : public FabricObserver {
 public:
  /// Records flows whose 5-tuple src_port matches `port_filter`
  /// (default: the Hadoop shuffle port); 0 records everything.
  explicit NetFlowProbe(std::uint16_t port_filter = kShufflePort)
      : port_filter_(port_filter) {}

  void on_bytes_moved(const Fabric& fabric, FlowId flow, util::Bytes moved,
                      util::SimTime from, util::SimTime to) override;
  void on_flow_completed(const Fabric& fabric, FlowId flow,
                         util::SimTime at) override;

  /// Total matched bytes sourced by a host so far.
  [[nodiscard]] util::Bytes sourced_bytes(NodeId host) const;

  /// Cumulative volume curve for traffic sourced at `host` (monotone,
  /// one point per settle interval in which the host moved bytes).
  [[nodiscard]] const std::vector<VolumePoint>& curve(NodeId host) const;

  /// Hosts that sourced any matched traffic, in ascending NodeId order.
  [[nodiscard]] std::vector<NodeId> observed_sources() const;

  [[nodiscard]] std::uint64_t flows_observed() const {
    return flows_observed_;
  }

 private:
  /// One source host's matched traffic; `observed` once any settle moved
  /// its bytes.
  struct Source {
    std::int64_t bytes = 0;
    std::vector<VolumePoint> curve;
    bool observed = false;
  };
  [[nodiscard]] const Source* find(NodeId host) const {
    return host.value() < sources_.size() ? &sources_[host.value()] : nullptr;
  }

  std::uint16_t port_filter_;
  // By NodeId value, grown on demand: the probe sees flows, not the
  // topology, so it learns the id range as it goes.
  std::vector<Source> sources_;
  std::uint64_t flows_observed_ = 0;
  std::vector<VolumePoint> empty_;
};

/// Linear interpolation over a cumulative curve; clamps outside the range.
[[nodiscard]] double curve_value_at(const std::vector<VolumePoint>& curve,
                                    util::SimTime t);

/// Earliest time at which the curve reaches `volume` bytes; SimTime::max()
/// if it never does.
[[nodiscard]] util::SimTime curve_time_to_reach(
    const std::vector<VolumePoint>& curve, double volume);

}  // namespace pythia::net
