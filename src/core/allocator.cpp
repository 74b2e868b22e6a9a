#include "core/allocator.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "sim/snapshot.hpp"
#include "util/log.hpp"

namespace pythia::core {

Allocator::Allocator(sdn::Controller& controller, AllocatorConfig cfg)
    : controller_(&controller),
      cfg_(cfg),
      link_outstanding_(controller.topology().link_count(), 0) {
  const net::Topology& topo = controller.topology();
  const std::vector<net::NodeId>& hosts = topo.hosts();
  width_ = hosts.size();
  if (cfg_.aggregation == Aggregation::kRackPair) {
    // Ranked by the rack's bits in aggregate_key, so walking rows walks keys.
    std::vector<std::uint32_t> racks;
    racks.reserve(hosts.size());
    for (net::NodeId h : hosts) {
      racks.push_back(static_cast<std::uint32_t>(topo.node(h).rack));
    }
    rack_rank_ = racks;
    std::sort(racks.begin(), racks.end());
    racks.erase(std::unique(racks.begin(), racks.end()), racks.end());
    for (std::uint32_t& r : rack_rank_) {
      r = static_cast<std::uint32_t>(
          std::lower_bound(racks.begin(), racks.end(), r) - racks.begin());
    }
    width_ = racks.size();
  }
  rows_.assign(width_ * width_, kNoAggregate);
}

util::Bytes Allocator::link_outstanding(net::LinkId l) const {
  return util::Bytes{link_outstanding_[l.value()]};
}

std::uint64_t Allocator::aggregate_key(net::NodeId src, net::NodeId dst) const {
  if (cfg_.aggregation == Aggregation::kRackPair) {
    const auto& topo = controller_->topology();
    const auto src_rack =
        static_cast<std::uint32_t>(topo.node(src).rack) & 0x7fffffffu;
    const auto dst_rack = static_cast<std::uint32_t>(topo.node(dst).rack);
    // Tag rack keys with the top bit so they can never collide with host
    // keys if the policy is toggled between calls.
    return (1ULL << 63) | (static_cast<std::uint64_t>(src_rack) << 32) |
           dst_rack;
  }
  return (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
}

std::size_t Allocator::row_of(net::NodeId src, net::NodeId dst) const {
  const net::Topology& topo = controller_->topology();
  std::uint32_t a = topo.host_index(src);
  std::uint32_t b = topo.host_index(dst);
  if (a == net::Topology::kNoHost || b == net::Topology::kNoHost) {
    return rows_.size();
  }
  if (!rack_rank_.empty()) {
    a = rack_rank_[a];
    b = rack_rank_[b];
  }
  return static_cast<std::size_t>(a) * width_ + b;
}

const Allocator::Aggregate* Allocator::find(net::NodeId src,
                                            net::NodeId dst) const {
  const std::size_t row = row_of(src, dst);
  if (row == rows_.size() || rows_[row] == kNoAggregate) return nullptr;
  return &aggregates_[rows_[row]];
}

util::Bytes Allocator::pair_outstanding(net::NodeId src,
                                        net::NodeId dst) const {
  const Aggregate* agg = find(src, dst);
  return agg == nullptr ? util::Bytes::zero() : util::Bytes{agg->outstanding};
}

bool Allocator::pair_coalescable(net::NodeId src_server,
                                 net::NodeId dst_server) const {
  if (suspended_) return true;
  const Aggregate* agg = find(src_server, dst_server);
  return agg != nullptr && agg->installed && agg->outstanding > 0;
}

net::PathId Allocator::effective_path(net::PathId chosen) {
  if (cfg_.aggregation == Aggregation::kServerPair) return chosen;
  const net::PathView path = controller_->path(chosen);
  // An intra-rack path (host→ToR→host, 2 links) has no inter-ToR segment to
  // aggregate over; stripping the access links would leave an empty rack rule.
  // Such pairs are installed at server granularity instead (see install()).
  if (path.size() < 3) return chosen;
  // A composite candidate is its access links around its middle, so the
  // middle is the chain, already interned. Ids are canonical per sequence,
  // so either route names a chain by the same id.
  const net::PathId middle = controller_->routing().pool().middle(chosen);
  if (middle.valid()) return middle;
  return controller_->intern_path(path.middle().subspan(1, path.size() - 2));
}

bool Allocator::install(net::NodeId src, net::NodeId dst, net::PathId chosen,
                        util::Bytes volume_hint,
                        std::uint64_t intent_weight) {
  if (cfg_.aggregation == Aggregation::kServerPair ||
      controller_->path(chosen).size() < 3) {
    return controller_->install_path_id(src, dst, chosen, volume_hint,
                                        intent_weight);
  }
  const auto& topo = controller_->topology();
  net::Path chain{controller_->path(effective_path(chosen)).to_vector()};
  controller_->install_rack_path(topo.node(src).rack, topo.node(dst).rack,
                                 std::move(chain));
  return true;
}

double Allocator::drain_time_seconds(net::PathView path,
                                     util::Bytes additional) const {
  // Per-link drain: each link must move its own outstanding predicted bytes
  // plus the new volume through its background-free headroom; the slowest
  // link bounds the path.
  double worst = 0.0;
  for (net::LinkId l : path) {
    const double cap = controller_->topology().link(l).capacity.bps();
    const double background =
        cfg_.load_aware ? controller_->snapshot_background_load(l).bps() : 0.0;
    const double avail = std::max(cap - background, cfg_.min_available_bps);
    const double bits =
        8.0 * (static_cast<double>(link_outstanding_[l.value()]) +
               additional.as_double());
    worst = std::max(worst, bits / avail);
  }
  return worst;
}

net::PathId Allocator::choose_path(net::NodeId src, net::NodeId dst,
                                   util::Bytes volume) const {
  const auto candidates = controller_->routing().paths(src, dst);
  net::PathId best;
  double best_drain = std::numeric_limits<double>::infinity();
  std::int64_t best_packed = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const net::PathView p = candidates[i];
    const double drain = drain_time_seconds(p, volume);
    // Tie-break by total outstanding volume already packed along the path —
    // links shared by all candidates (host access links) often dominate the
    // bottleneck term, and the lighter middle segment is still preferable.
    std::int64_t packed = 0;
    for (net::LinkId l : p) packed += link_outstanding_[l.value()];
    if (drain < best_drain - 1e-12 ||
        (drain < best_drain + 1e-12 && packed < best_packed)) {
      best_drain = std::min(best_drain, drain);
      best_packed = packed;
      best = candidates.id(i);
    }
  }
  return best;
}

void Allocator::pack_onto(net::PathId path, std::int64_t bytes) {
  for (net::LinkId l : controller_->path(path)) {
    link_outstanding_[l.value()] =
        std::max<std::int64_t>(0, link_outstanding_[l.value()] + bytes);
  }
}

void Allocator::add_predicted_volume(net::NodeId src_server,
                                     net::NodeId dst_server,
                                     util::Bytes wire_bytes,
                                     std::uint64_t intent_count) {
  assert(wire_bytes >= util::Bytes::zero());
  const std::size_t row = row_of(src_server, dst_server);
  assert(row < rows_.size() && "aggregate endpoints must be hosts");
  if (row == rows_.size()) return;
  if (rows_[row] == kNoAggregate) {
    rows_[row] = static_cast<std::uint32_t>(aggregates_.size());
    aggregates_.emplace_back();
  }
  Aggregate& agg = aggregates_[rows_[row]];
  agg.src = src_server;
  agg.dst = dst_server;

  if (suspended_) {
    // Watchdog fallback: keep the books, touch nothing in the network. Every
    // coalesced intent counts as a suppressed install — the fallback denies
    // each of them a rule, not the submission as a whole.
    agg.outstanding += wire_bytes.count();
    installs_suppressed_ += intent_count;
    return;
  }

  if (!agg.installed || agg.outstanding == 0) {
    // Fresh (or fully drained) aggregate: (re)allocate against the current
    // network state, then install the forwarding rule ahead of the flows.
    const net::PathId chosen =
        choose_path(src_server, dst_server, wire_bytes);
    if (!chosen.valid()) {
      PYTHIA_LOG(kWarn, "pythia")
          << "no path between server " << src_server.value() << " and "
          << dst_server.value() << "; aggregate left to ECMP";
      agg.outstanding += wire_bytes.count();
      return;
    }
    if (!install(src_server, dst_server, chosen,
                 util::Bytes{agg.outstanding + wire_bytes.count()},
                 intent_count)) {
      // Controller refused the rule (full flow table, stale path): the
      // aggregate rides ECMP, so packing the chosen path would poison the
      // books for every later allocation.
      ++installs_refused_;
      agg.installed = false;
      agg.outstanding += wire_bytes.count();
      return;
    }
    const net::PathId packed = effective_path(chosen);
    if (agg.installed && agg.path != packed) ++reallocations_;
    agg.path = packed;
    agg.installed = true;
    ++allocations_;
  }
  agg.outstanding += wire_bytes.count();
  pack_onto(agg.path, wire_bytes.count());
}

void Allocator::suspend() {
  if (suspended_) return;
  suspended_ = true;
  for (Aggregate& agg : aggregates_) agg.installed = false;
  std::fill(link_outstanding_.begin(), link_outstanding_.end(), 0);
}

void Allocator::resume() {
  if (!suspended_) return;
  suspended_ = false;
  // Re-allocate every live aggregate, largest first (the same FFD order the
  // collector uses), against the network as it looks right now.
  std::vector<std::pair<std::size_t, Aggregate*>> live;
  for (std::size_t row = 0; row < rows_.size(); ++row) {
    if (rows_[row] == kNoAggregate) continue;
    Aggregate& agg = aggregates_[rows_[row]];
    if (agg.outstanding > 0) live.emplace_back(row, &agg);
  }
  // Ties go to the lower row, which is the lower key.
  std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
    if (a.second->outstanding != b.second->outstanding) {
      return a.second->outstanding > b.second->outstanding;
    }
    return a.first < b.first;
  });
  for (auto& [row, agg] : live) {
    const net::PathId chosen =
        choose_path(agg->src, agg->dst, util::Bytes{agg->outstanding});
    if (!chosen.valid()) continue;
    if (!install(agg->src, agg->dst, chosen,
                 util::Bytes{agg->outstanding})) {
      ++installs_refused_;
      continue;
    }
    agg->path = effective_path(chosen);
    agg->installed = true;
    ++allocations_;
    pack_onto(agg->path, agg->outstanding);
  }
}

void Allocator::retire_volume(net::NodeId src_server, net::NodeId dst_server,
                              util::Bytes wire_bytes) {
  const std::size_t row = row_of(src_server, dst_server);
  if (row == rows_.size() || rows_[row] == kNoAggregate) {
    return;  // transfer was never predicted
  }
  Aggregate& agg = aggregates_[rows_[row]];
  const std::int64_t retired =
      std::min<std::int64_t>(agg.outstanding, wire_bytes.count());
  if (retired <= 0) return;
  agg.outstanding -= retired;
  if (agg.installed) pack_onto(agg.path, -retired);
}

void Allocator::encode_state(sim::StateEncoder& enc) const {
  enc.put_u32(static_cast<std::uint32_t>(aggregates_.size()));
  for (const std::uint32_t index : rows_) {
    if (index == kNoAggregate) continue;
    const Aggregate& agg = aggregates_[index];
    // Every pair of a row shares its key; in rack mode agg.src/dst is the
    // last pair seen, which names the row's rack pair.
    enc.put_u64(aggregate_key(agg.src, agg.dst));
    enc.put_i64(agg.outstanding);
    enc.put_bool(agg.installed);
    // Valid-flag + link chain instead of the raw pool id: interning order
    // tracks query order in the lazy routing graph, while the chain (path
    // identity) is pure behavior.
    enc.put_bool(agg.path.valid());
    if (agg.path.valid()) {
      const net::PathView p = controller_->path(agg.path);
      enc.put_u32(static_cast<std::uint32_t>(p.size()));
      for (net::LinkId l : p) enc.put_u32(l.value());
    }
    enc.put_u32(agg.src.value());
    enc.put_u32(agg.dst.value());
  }
  enc.put_u32(static_cast<std::uint32_t>(link_outstanding_.size()));
  for (std::int64_t v : link_outstanding_) enc.put_i64(v);
  enc.put_bool(suspended_);
  enc.put_u64(allocations_);
  enc.put_u64(reallocations_);
  enc.put_u64(installs_suppressed_);
  enc.put_u64(installs_refused_);
}

}  // namespace pythia::core
