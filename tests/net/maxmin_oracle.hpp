// Independent oracle for net::Fabric's weighted max-min fill: a plain
// progressive fill over every link and active flow of a read-only view of
// the fabric, run from scratch. The fabric reaches its rates another way —
// a warm fill that replays the previous fill's record and runs live rounds
// only on the links a change reaches (net/fabric.hpp) — so a bug in that
// walk shows up here as a mismatch instead of being shared by both sides of
// a comparison. The oracle keeps the operation order the fabric promises
// (ascending flow ids; the first lowest share in ascending link order), so
// the two agree bit for bit, not approximately.
//
// It reads only the fabric's own state, so it cannot see a completion
// deadline that is lost or late: the suites pin completion logs for that.
// Free of gtest so that bench/fabric_scaling can check its cells with it;
// tests compare through certificate::expect_matches_oracle
// (maxmin_certificate.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/fabric.hpp"

namespace pythia::net::maxmin {

/// The fabric state a progressive fill reads: every active flow's path,
/// weight and class by id, and every link's capacity, elastic headroom, CBR
/// load and state.
struct FillInput {
  struct FlowIn {
    std::vector<LinkId> path;
    double weight = 1.0;
    FlowClass cls = FlowClass::kOther;
  };
  std::map<std::uint32_t, FlowIn> flows;
  std::vector<double> capacity;
  std::vector<double> headroom;
  std::vector<double> cbr;
  std::vector<char> up;
};

inline FillInput fill_input(const Fabric& fabric) {
  FillInput in;
  for (FlowId id : fabric.active_flows()) {
    const Flow& f = fabric.flow(id);
    in.flows[id.value()] = {f.spec.path, f.spec.weight, f.spec.cls};
  }
  const Topology& topo = fabric.topology();
  for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
    in.capacity.push_back(topo.link(LinkId{l}).capacity.bps());
    in.headroom.push_back(fabric.link_residual_capacity(LinkId{l}).bps());
    in.cbr.push_back(fabric.link_cbr_load(LinkId{l}).bps());
    in.up.push_back(fabric.link_up(LinkId{l}) ? 1 : 0);
  }
  return in;
}

/// One round of a reference progressive fill.
struct RefRound {
  std::uint32_t bottleneck = 0;
  double share = 0.0;                  // as scanned, before the clamp
  std::vector<std::uint32_t> frozen;   // ascending flow ids
  std::vector<std::uint32_t> touched;  // links the freezes crossed, sorted
  /// Every link's share before the round; +inf for a link with no unfixed
  /// flows.
  std::vector<double> link_shares;
};

/// An independent weighted progressive fill over every link and flow, in
/// the operation order the fabric's fill keeps (ascending flow ids, first
/// lowest share in ascending link order), recording each round.
inline std::vector<RefRound> reference_fill(const FillInput& in) {
  const std::size_t links = in.headroom.size();
  std::vector<double> residual = in.headroom;
  std::vector<double> weight(links, 0.0);
  std::vector<std::uint32_t> count(links, 0);
  for (const auto& [id, f] : in.flows) {
    for (LinkId l : f.path) {
      weight[l.value()] += f.weight;
      ++count[l.value()];
    }
  }
  std::set<std::uint32_t> fixed;
  std::vector<RefRound> rounds;
  while (fixed.size() < in.flows.size()) {
    RefRound round;
    round.share = std::numeric_limits<double>::infinity();
    round.link_shares.assign(links, std::numeric_limits<double>::infinity());
    for (std::size_t l = 0; l < links; ++l) {
      if (count[l] == 0) continue;
      round.link_shares[l] = residual[l] / std::max(weight[l], 1e-12);
      if (round.link_shares[l] < round.share) {
        round.share = round.link_shares[l];
        round.bottleneck = static_cast<std::uint32_t>(l);
      }
    }
    const double share = round.share < 0.0 ? 0.0 : round.share;
    std::set<std::uint32_t> touched;
    for (const auto& [id, f] : in.flows) {
      if (fixed.contains(id)) continue;
      const bool crosses =
          std::any_of(f.path.begin(), f.path.end(), [&](LinkId l) {
            return l.value() == round.bottleneck;
          });
      if (!crosses) continue;
      fixed.insert(id);
      round.frozen.push_back(id);
      const double rate = share * f.weight;
      for (LinkId l : f.path) {
        const std::uint32_t lv = l.value();
        residual[lv] = std::max(0.0, residual[lv] - rate);
        weight[lv] = std::max(0.0, weight[lv] - f.weight);
        --count[lv];
        touched.insert(lv);
      }
    }
    round.touched.assign(touched.begin(), touched.end());
    rounds.push_back(std::move(round));
  }
  return rounds;
}

/// What a fabric must report once it has filled `in`, derived from
/// reference_fill alone: each active flow's rate (its round's share, clamped
/// at 0, times its weight); each link's elastic and per-class sums, added
/// over its flows in ascending id from +0.0 (the fabric's order); and each
/// link's utilization by Fabric::link_utilization's formula.
struct Expected {
  std::map<std::uint32_t, double> rate;  // active flow id -> bps
  std::vector<double> elastic;
  std::vector<std::array<double, 4>> per_class;
  std::vector<double> utilization;
};

inline Expected expected(const FillInput& in) {
  Expected out;
  for (const RefRound& round : reference_fill(in)) {
    const double share = round.share < 0.0 ? 0.0 : round.share;
    for (const std::uint32_t id : round.frozen) {
      out.rate[id] = share * in.flows.at(id).weight;
    }
  }
  const std::size_t links = in.headroom.size();
  out.elastic.assign(links, 0.0);
  out.per_class.assign(links, {0.0, 0.0, 0.0, 0.0});
  for (const auto& [id, f] : in.flows) {  // ascending id
    const double rate = out.rate.at(id);
    for (LinkId l : f.path) {
      out.elastic[l.value()] += rate;
      out.per_class[l.value()][static_cast<std::size_t>(f.cls)] += rate;
    }
  }
  out.utilization.assign(links, 0.0);
  for (std::size_t l = 0; l < links; ++l) {
    const double cap = in.capacity[l];
    if (!in.up[l] || cap <= 0.0) continue;
    const double used = std::min(in.cbr[l], cap) + out.elastic[l];
    out.utilization[l] = std::clamp(used / cap, 0.0, 1.0);
  }
  return out;
}

/// Every value in which `fabric` disagrees with expected(fill_input(fabric)),
/// compared bit for bit: active flow rates, and each link's elastic and
/// per-class sums and utilization. Empty when the fabric matches.
inline std::vector<std::string> mismatches(const Fabric& fabric) {
  const Expected want = expected(fill_input(fabric));
  std::vector<std::string> out;
  // Names are built only for a mismatch: most calls find none.
  auto check = [&out](double got, double expect, auto&& what) {
    if (std::bit_cast<std::uint64_t>(got) ==
        std::bit_cast<std::uint64_t>(expect)) {
      return;
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, ": %.17g, oracle %.17g", got, expect);
    out.push_back(what() + buf);
  };
  for (const auto& [id, rate] : want.rate) {
    check(fabric.flow(FlowId{id}).rate.bps(), rate,
          [id] { return "flow " + std::to_string(id) + " rate"; });
  }
  for (std::uint32_t l = 0; l < want.elastic.size(); ++l) {
    const LinkId link{l};
    check(fabric.link_elastic_rate(link).bps(), want.elastic[l],
          [l] { return "link " + std::to_string(l) + " elastic rate"; });
    for (std::size_t c = 0; c < 4; ++c) {
      check(fabric.link_class_rate(link, static_cast<FlowClass>(c)).bps(),
            want.per_class[l][c], [l, c] {
              return "link " + std::to_string(l) + " class " +
                     std::to_string(c) + " rate";
            });
    }
    check(fabric.link_utilization(link), want.utilization[l],
          [l] { return "link " + std::to_string(l) + " utilization"; });
  }
  return out;
}

}  // namespace pythia::net::maxmin
