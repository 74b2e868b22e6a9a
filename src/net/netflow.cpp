#include "net/netflow.hpp"

#include <algorithm>

namespace pythia::net {

void NetFlowProbe::on_bytes_moved(const Fabric& fabric, FlowId flow,
                                  util::Bytes moved, util::SimTime /*from*/,
                                  util::SimTime to) {
  const Flow& f = fabric.flow(flow);
  if (port_filter_ != 0 && f.spec.tuple.src_port != port_filter_) return;
  const std::uint32_t src = f.spec.src.value();
  if (src >= sources_.size()) sources_.resize(src + 1);
  Source& s = sources_[src];
  s.observed = true;
  s.bytes += moved.count();
  if (!s.curve.empty() && s.curve.back().at == to) {
    s.curve.back().cumulative = util::Bytes{s.bytes};
  } else {
    s.curve.push_back(VolumePoint{to, util::Bytes{s.bytes}});
  }
}

void NetFlowProbe::on_flow_completed(const Fabric& fabric, FlowId flow,
                                     util::SimTime /*at*/) {
  const Flow& f = fabric.flow(flow);
  if (port_filter_ != 0 && f.spec.tuple.src_port != port_filter_) return;
  ++flows_observed_;
}

util::Bytes NetFlowProbe::sourced_bytes(NodeId host) const {
  const Source* s = find(host);
  return s == nullptr ? util::Bytes::zero() : util::Bytes{s->bytes};
}

const std::vector<VolumePoint>& NetFlowProbe::curve(NodeId host) const {
  const Source* s = find(host);
  return s == nullptr ? empty_ : s->curve;
}

std::vector<NodeId> NetFlowProbe::observed_sources() const {
  std::vector<NodeId> out;
  for (std::uint32_t n = 0; n < sources_.size(); ++n) {
    if (sources_[n].observed) out.push_back(NodeId{n});
  }
  return out;
}

double curve_value_at(const std::vector<VolumePoint>& curve, util::SimTime t) {
  if (curve.empty()) return 0.0;
  if (t <= curve.front().at) {
    return t < curve.front().at ? 0.0 : curve.front().cumulative.as_double();
  }
  if (t >= curve.back().at) return curve.back().cumulative.as_double();
  // First point with at >= t.
  const auto it = std::lower_bound(
      curve.begin(), curve.end(), t,
      [](const VolumePoint& p, util::SimTime when) { return p.at < when; });
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  const double span = (hi.at - lo.at).seconds();
  if (span <= 0.0) return hi.cumulative.as_double();
  const double frac = (t - lo.at).seconds() / span;
  return lo.cumulative.as_double() +
         frac * (hi.cumulative.as_double() - lo.cumulative.as_double());
}

util::SimTime curve_time_to_reach(const std::vector<VolumePoint>& curve,
                                  double volume) {
  if (volume <= 0.0) return util::SimTime::zero();
  double prev_v = 0.0;
  util::SimTime prev_t = util::SimTime::zero();
  for (const auto& p : curve) {
    const double v = p.cumulative.as_double();
    if (v >= volume) {
      const double dv = v - prev_v;
      if (dv <= 0.0) return p.at;
      const double frac = (volume - prev_v) / dv;
      const double secs =
          prev_t.seconds() + frac * (p.at - prev_t).seconds();
      return util::SimTime::from_seconds(secs);
    }
    prev_v = v;
    prev_t = p.at;
  }
  return util::SimTime::max();
}

}  // namespace pythia::net
