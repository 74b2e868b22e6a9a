// The weighted max-min certificate of a fabric's allocation, checked from
// first principles rather than against another fill: a bug the fabric
// shares with its oracle (maxmin_oracle.hpp) still fails it.
//  * Capacity: no link carries more elastic traffic than its residual
//    capacity (capacity minus CBR, floored at zero; zero when down).
//  * Bottleneck: every flow with a positive rate crosses a saturated link
//    on which no other flow has a strictly larger weight-normalized rate.
//    Weight 1 everywhere makes this the standard max-min characterization.
//    Starved flows (zero residual somewhere on the path) satisfy it
//    trivially.
// Each link's load and flows come from the active flows' own paths and
// rates, not from the fabric's link index or its per-link rate sums, which
// the incremental fill itself reads; the fabric's reported sums are checked
// against them. A flow the fabric dropped from its active set escapes the
// certificate, so callers that know their flow set compare it with
// active_flows() too.
//
// expect_matches_oracle is the bit-exact check beside it: the fabric's rates
// and link sums against a reference fill of the same state.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/maxmin_oracle.hpp"

namespace pythia::net::certificate {

/// Absolute bps tolerance for a rate comparison.
inline constexpr double kRateEps = 1e-3;
/// A link within this many bps of its residual capacity is saturated.
inline constexpr double kSaturationSlackBps = 1.0;

/// Checks both properties over every active flow and every link of
/// `fabric`; `where` prefixes each failure message.
inline void expect_maxmin(const Fabric& fabric, const std::string& where) {
  const Topology& topo = fabric.topology();
  const std::vector<FlowId> active = fabric.active_flows();
  // Per link: the elastic load and the largest weight-normalized rate of
  // the flows whose paths cross it.
  std::vector<double> used(topo.link_count(), 0.0);
  std::vector<double> max_norm(topo.link_count(), 0.0);
  for (FlowId f : active) {
    const Flow& flow = fabric.flow(f);
    EXPECT_GE(flow.rate.bps(), 0.0) << where << ": flow " << f.value();
    const double norm = flow.rate.bps() / flow.spec.weight;
    for (LinkId l : flow.spec.path) {
      used[l.value()] += flow.rate.bps();
      max_norm[l.value()] = std::max(max_norm[l.value()], norm);
    }
  }
  for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
    const LinkId link{l};
    const double residual = fabric.link_residual_capacity(link).bps();
    EXPECT_LE(used[l], residual + kRateEps)
        << where << ": link " << l << " over capacity";
    EXPECT_NEAR(fabric.link_elastic_rate(link).bps(), used[l], kRateEps)
        << where << ": link " << l << " reports another elastic rate";
  }
  for (FlowId f : active) {
    const Flow& flow = fabric.flow(f);
    if (flow.rate.bps() <= kRateEps) continue;
    const double norm = flow.rate.bps() / flow.spec.weight;
    // No other flow on l above norm is the same as no flow at all above
    // it, since the flow itself is at norm.
    const bool has_bottleneck = std::any_of(
        flow.spec.path.begin(), flow.spec.path.end(), [&](LinkId l) {
          const double residual = fabric.link_residual_capacity(l).bps();
          return used[l.value()] >= residual - kSaturationSlackBps &&
                 max_norm[l.value()] <= norm + kRateEps;
        });
    EXPECT_TRUE(has_bottleneck)
        << where << ": flow " << f.value() << " at " << flow.rate.bps()
        << " bps has no saturated link on which it is maximal";
  }
}

/// Compares every active flow's rate and every link's elastic, per-class
/// and utilization bits with a reference fill of `fabric`'s own state
/// (maxmin::mismatches). One failure per call, prefixed by `where`, with
/// the first mismatch and the count: a wrong fill moves many values.
inline void expect_matches_oracle(const Fabric& fabric,
                                  const std::string& where) {
  const std::vector<std::string> m = maxmin::mismatches(fabric);
  if (m.empty()) return;
  ADD_FAILURE() << where << ": " << m.size()
                << " values differ from the oracle, first " << m.front();
}

}  // namespace pythia::net::certificate
