#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "sim/snapshot.hpp"
#include "util/log.hpp"

namespace pythia::net {

namespace {
/// A flow whose settled remainder drops below this is considered delivered;
/// sub-byte residue is floating-point noise from rate integration.
constexpr double kDoneEpsilonBytes = 0.5;
constexpr std::uint32_t kNoPos = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kNoLink = std::numeric_limits<std::uint32_t>::max();
/// Below this many active flows the exact component BFS is always cheap, so
/// collect_component() never takes the dense whole-fabric fallback.
constexpr std::size_t kDenseFallbackMinFlows = 16;

/// Min-heap order on (eta, slot); slot breaks ties deterministically.
struct EtaLater {
  bool operator()(const auto& a, const auto& b) const {
    if (a.eta_ns != b.eta_ns) return a.eta_ns > b.eta_ns;
    return a.slot > b.slot;
  }
};
}  // namespace

Fabric::Fabric(sim::Simulation& sim, const Topology& topo, FabricConfig cfg)
    : sim_(&sim),
      topo_(&topo),
      cfg_(cfg),
      link_flows_(topo.link_count()),
      cbr_load_bps_(topo.link_count(), 0.0),
      link_up_(topo.link_count(), 1),
      elastic_rate_bps_(topo.link_count(), 0.0),
      class_rate_bps_(topo.link_count(), {0.0, 0.0, 0.0, 0.0}),
      link_sums_stale_(topo.link_count(), 0),
      link_dirty_(topo.link_count(), 0),
      residual_(topo.link_count(), 0.0),
      unfixed_weight_(topo.link_count(), 0.0),
      unfixed_count_(topo.link_count(), 0),
      link_share_(topo.link_count(), 0.0),
      link_touched_(topo.link_count(), 0),
      link_in_comp_(topo.link_count(), 0),
      rec_init_(topo.link_count()),
      last_settle_(sim.now()) {}

std::uint32_t Fabric::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(flows_.size());
  flows_.emplace_back();
  callbacks_.emplace_back();
  active_pos_.push_back(kNoPos);
  flow_fixed_.push_back(0);
  flow_in_comp_.push_back(0);
  rec_freeze_round_.push_back(kNoPos);
  eta_stamp_.push_back(0);
  return slot;
}

void Fabric::release_slot(std::uint32_t slot) {
  // The completed Flow record stays readable until the slot is reused.
  callbacks_[slot] = nullptr;
  ++eta_stamp_[slot];
  free_slots_.push_back(slot);
}

void Fabric::insert_link_flow(LinkId l, FlowId id) {
  auto& v = link_flows_[l.value()];
  v.insert(std::upper_bound(v.begin(), v.end(), id,
                            [](FlowId a, FlowId b) {
                              return a.value() < b.value();
                            }),
           id);
}

void Fabric::remove_link_flow(LinkId l, FlowId id) {
  auto& v = link_flows_[l.value()];
  const auto it = std::lower_bound(v.begin(), v.end(), id,
                                   [](FlowId a, FlowId b) {
                                     return a.value() < b.value();
                                   });
  assert(it != v.end() && *it == id);
  v.erase(it);
}

void Fabric::mark_dirty(LinkId l) {
  if (link_dirty_[l.value()]) return;
  link_dirty_[l.value()] = 1;
  dirty_links_.push_back(l.value());
}

void Fabric::mark_all_dirty() {
  for (std::uint32_t l = 0; l < link_dirty_.size(); ++l) {
    if (!link_dirty_[l]) {
      link_dirty_[l] = 1;
      dirty_links_.push_back(l);
    }
  }
}

void Fabric::clear_dirty() {
  for (std::uint32_t l : dirty_links_) link_dirty_[l] = 0;
  dirty_links_.clear();
}

double Fabric::elastic_headroom(std::uint32_t l) const {
  if (!link_up_[l]) return 0.0;
  return std::max(
      0.0, topo_->link(LinkId{l}).capacity.bps() - cbr_load_bps_[l]);
}

FlowId Fabric::start_flow(FlowSpec spec, FlowCompleteFn on_complete) {
  assert(topo_->validate_path(spec.src, spec.dst, spec.path) &&
         "flow path must connect src to dst");
  assert(spec.size >= util::Bytes::zero());
  const std::uint32_t slot = acquire_slot();
  Flow& f = flows_[slot];
  f = Flow{};
  // A recycled slot must not inherit its predecessor's recorded freeze
  // round: the new flow never froze in the warm-start record.
  rec_freeze_round_[slot] = kNoPos;
  f.id = FlowId{slot};
  f.spec = std::move(spec);
  f.started = sim_->now();
  f.remaining_bytes = f.spec.size.as_double();
  const FlowId id = f.id;
  ++flows_started_;
  callbacks_[slot] = std::move(on_complete);

  if (f.remaining_bytes <= kDoneEpsilonBytes) {
    // Zero-byte flow: complete immediately (still async via the queue so that
    // callers never re-enter themselves synchronously). The start event fires
    // first so observers that pair start/complete state stay consistent.
    f.completed = true;
    f.completed_at = sim_->now();
    f.reported_bytes = f.spec.size.count();
    ++flows_completed_;
    bytes_delivered_ += f.spec.size;
    for (auto* obs : observers_) {
      obs->on_flow_started(*this, id, sim_->now());
    }
    sim_->after(util::Duration::zero(), [this, slot] {
      const FlowId done{slot};
      for (auto* obs : observers_) {
        obs->on_flow_completed(*this, done, sim_->now());
      }
      auto fn = std::move(callbacks_[slot]);
      callbacks_[slot] = nullptr;
      if (fn) fn(done, sim_->now());
      release_slot(slot);
    });
    return id;
  }

  assert(!f.spec.path.empty() && "a non-local flow needs a link path");
  active_pos_[slot] = static_cast<std::uint32_t>(active_.size());
  active_.push_back(id);
  for (LinkId l : f.spec.path) {
    insert_link_flow(l, id);
    mark_dirty(l);
  }
  settle_and_recompute();
  for (auto* obs : observers_) {
    obs->on_flow_started(*this, id, sim_->now());
  }
  return id;
}

void Fabric::set_flow_weight(FlowId id, double weight) {
  assert(id.value() < flows_.size());
  assert(weight > 0.0);
  Flow& f = flows_[id.value()];
  if (f.completed || f.spec.weight == weight) return;
  settle();
  f.spec.weight = weight;
  for (LinkId l : f.spec.path) mark_dirty(l);
  after_mutation();
}

void Fabric::reroute_flow(FlowId id, std::vector<LinkId> new_path) {
  assert(id.value() < flows_.size());
  Flow& f = flows_[id.value()];
  if (f.completed) return;
  assert(topo_->validate_path(f.spec.src, f.spec.dst, new_path) &&
         "reroute path must connect the flow's endpoints");
  settle();  // account bytes moved on the old path first
  for (LinkId l : f.spec.path) {
    remove_link_flow(l, id);
    mark_dirty(l);
  }
  f.spec.path = std::move(new_path);
  for (LinkId l : f.spec.path) {
    insert_link_flow(l, id);
    mark_dirty(l);
  }
  after_mutation();
}

CbrId Fabric::start_cbr(std::vector<LinkId> path, util::BitsPerSec rate) {
  assert(rate.bps() >= 0.0);
  const CbrId id{static_cast<std::uint32_t>(cbrs_.size())};
  for (LinkId l : path) {
    assert(l.value() < cbr_load_bps_.size());
    cbr_load_bps_[l.value()] += rate.bps();
    mark_dirty(l);
  }
  cbrs_.push_back(CbrStream{std::move(path), rate.bps(), true});
  settle_and_recompute();
  return id;
}

void Fabric::stop_cbr(CbrId id) {
  assert(id.value() < cbrs_.size());
  CbrStream& s = cbrs_[id.value()];
  assert(s.active && "CBR stream already stopped");
  for (LinkId l : s.path) {
    cbr_load_bps_[l.value()] -= s.rate_bps;
    if (cbr_load_bps_[l.value()] < 0.0) cbr_load_bps_[l.value()] = 0.0;
    mark_dirty(l);
  }
  s.active = false;
  settle_and_recompute();
}

util::BitsPerSec Fabric::link_cbr_load(LinkId l) const {
  return util::BitsPerSec{cbr_load_bps_[l.value()]};
}

util::BitsPerSec Fabric::link_elastic_rate(LinkId l) const {
  refresh_link_sums(l.value());
  return util::BitsPerSec{elastic_rate_bps_[l.value()]};
}

util::BitsPerSec Fabric::link_class_rate(LinkId l, FlowClass cls) const {
  refresh_link_sums(l.value());
  return util::BitsPerSec{
      class_rate_bps_[l.value()][static_cast<std::size_t>(cls)]};
}

double Fabric::link_utilization(LinkId l) const {
  refresh_link_sums(l.value());
  if (!link_up_[l.value()]) return 0.0;  // a dead port serves nothing
  const double cap = topo_->link(l).capacity.bps();
  if (cap <= 0.0) return 0.0;
  const double used =
      std::min(cbr_load_bps_[l.value()], cap) + elastic_rate_bps_[l.value()];
  return std::clamp(used / cap, 0.0, 1.0);
}

util::BitsPerSec Fabric::link_residual_capacity(LinkId l) const {
  return util::BitsPerSec{elastic_headroom(l.value())};
}

void Fabric::fail_link(LinkId l) {
  assert(l.value() < link_up_.size());
  if (!link_up_[l.value()]) return;
  link_up_[l.value()] = 0;
  mark_dirty(l);
  settle_and_recompute();
}

void Fabric::restore_link(LinkId l) {
  assert(l.value() < link_up_.size());
  if (link_up_[l.value()]) return;
  link_up_[l.value()] = 1;
  mark_dirty(l);
  settle_and_recompute();
}

const Flow& Fabric::flow(FlowId id) const {
  assert(id.value() < flows_.size());
  return flows_[id.value()];
}

std::span<const LinkId> Fabric::flow_path(FlowId id) const {
  assert(id.value() < flows_.size());
  return flows_[id.value()].spec.path;
}

bool Fabric::flow_active(FlowId id) const {
  return id.value() < flows_.size() && !flows_[id.value()].completed;
}

std::vector<FlowId> Fabric::active_flows() const {
  std::vector<FlowId> out = active_;
  std::sort(out.begin(), out.end(),
            [](FlowId a, FlowId b) { return a.value() < b.value(); });
  return out;
}

void Fabric::settle() {
  const util::SimTime now = sim_->now();
  const util::Duration dt = now - last_settle_;
  if (dt <= util::Duration::zero()) {
    last_settle_ = now;
    return;
  }
  ++counters_.settles;
  const double secs = dt.seconds();
  for (FlowId id : active_) {
    Flow& f = flows_[id.value()];
    const double moved =
        std::min(f.remaining_bytes, f.rate.bytes_per_sec() * secs);
    if (moved > 0.0) f.remaining_bytes -= moved;
    // Report integer bytes with a carried fractional residue: observers see
    // floor(delivered) cumulatively and exactly spec.size once the flow is
    // done, so probe totals never drift from the delivered volume.
    const std::int64_t target =
        f.remaining_bytes <= kDoneEpsilonBytes
            ? f.spec.size.count()
            : static_cast<std::int64_t>(f.spec.size.as_double() -
                                        f.remaining_bytes);
    const std::int64_t whole = target - f.reported_bytes;
    if (whole > 0) {
      f.reported_bytes = target;
      for (auto* obs : observers_) {
        obs->on_bytes_moved(*this, id, util::Bytes{whole}, last_settle_, now);
      }
    }
  }
  last_settle_ = now;
}

void Fabric::set_rate(Flow& f, double rate_bps) {
  const util::BitsPerSec r{rate_bps};
  if (f.rate == r) return;  // eta unchanged: absolute deadline is invariant
  f.rate = r;
  push_eta(f);
}

void Fabric::push_eta(Flow& f) {
  const std::uint32_t slot = f.id.value();
  const std::uint64_t stamp = ++eta_stamp_[slot];
  if (f.rate.bps() <= 0.0) return;  // starved: re-examined on the next change
  // Ceil to the next nanosecond so the settled remainder at the event is
  // never still above the epsilon. Deadlines anchor at last_settle_, the
  // instant the remaining volume was settled to (rates change only right
  // after a settle, so it equals now()).
  const double secs = f.remaining_bytes / f.rate.bytes_per_sec();
  const auto eta_ns =
      last_settle_.ns() + static_cast<std::int64_t>(std::ceil(secs * 1e9));
  eta_heap_.push_back(EtaEntry{eta_ns, slot, stamp});
  std::push_heap(eta_heap_.begin(), eta_heap_.end(), EtaLater{});
  if (eta_heap_.size() > 64 && eta_heap_.size() > 8 * active_.size()) {
    compact_eta_heap();
  }
}

void Fabric::compact_eta_heap() {
  std::erase_if(eta_heap_, [this](const EtaEntry& e) {
    return e.stamp != eta_stamp_[e.slot];
  });
  std::make_heap(eta_heap_.begin(), eta_heap_.end(), EtaLater{});
}

void Fabric::recompute_rates() {
  ++counters_.recomputes;
  if (cfg_.rate_engine == RateEngine::kFullRecompute) {
    clear_dirty();
    fill_full();
    return;
  }
  if (dirty_links_.empty()) return;  // probe-forced accounting point
  const bool dense = collect_component();
  fill_component(dense);
  clear_dirty();  // after the fill: the warm start reads the dirty set
}

void Fabric::after_mutation() {
  recompute_rates();
  schedule_next_completion();
}

void Fabric::refresh_link_sums(std::uint32_t l) const {
  // The same additions, in the same ascending-id order, from the same zero
  // start as an eager end-of-fill sum: the rates cannot have moved since the
  // fill that marked the link (any later change refills and re-marks it).
  if (!link_sums_stale_[l]) return;
  link_sums_stale_[l] = 0;
  double elastic = 0.0;
  std::array<double, 4> per_class{};
  for (FlowId fid : link_flows_[l]) {
    const Flow& f = flows_[fid.value()];
    elastic += f.rate.bps();
    per_class[static_cast<std::size_t>(f.spec.cls)] += f.rate.bps();
  }
  elastic_rate_bps_[l] = elastic;
  class_rate_bps_[l] = per_class;
}

bool Fabric::collect_component() {
  // BFS over the bipartite link/flow graph from the dirty seed: any flow
  // crossing a touched link, and any link such a flow crosses, can see its
  // allocation change; everything outside the closure provably cannot.
  // Link-first: every queued link lists its flows before any flow's path is
  // walked, so a dense component crosses the half-active bound after few
  // path walks. Visit order changes neither whether the component holds
  // more than half the active flows nor a finished BFS's sets (comp_links_
  // is sorted below; comp_flows_ only seeds flags and a count).
  comp_links_.clear();
  comp_flows_.clear();
  for (std::uint32_t l : dirty_links_) {
    link_in_comp_[l] = 1;
    comp_links_.push_back(l);
  }
  const bool may_fall_back = active_.size() >= kDenseFallbackMinFlows;
  bool dense = false;
  std::size_t link_head = 0;
  std::size_t flow_head = 0;
  while (!dense) {
    if (link_head < comp_links_.size()) {
      for (FlowId fid : link_flows_[comp_links_[link_head++]]) {
        const std::uint32_t slot = fid.value();
        if (flow_in_comp_[slot]) continue;
        flow_in_comp_[slot] = 1;
        comp_flows_.push_back(slot);
        if (may_fall_back && 2 * comp_flows_.size() > active_.size()) {
          dense = true;
          break;
        }
      }
    } else if (flow_head < comp_flows_.size()) {
      for (LinkId l : flows_[comp_flows_[flow_head++]].spec.path) {
        if (link_in_comp_[l.value()]) continue;
        link_in_comp_[l.value()] = 1;
        comp_links_.push_back(l.value());
      }
    } else {
      break;
    }
  }
  for (std::uint32_t l : comp_links_) link_in_comp_[l] = 0;
  for (std::uint32_t s : comp_flows_) flow_in_comp_[s] = 0;
  if (dense) {
    // The component holds more than half the active flows: finishing the
    // BFS and sorting would cost about as much as the fill. Fill every link
    // that carries a flow or is dirty instead — a union of whole components,
    // which fills to the same bits — gathered ascending by one sweep. It
    // covers fewer than 2x the component's flows.
    comp_links_.clear();
    for (std::uint32_t l = 0; l < link_flows_.size(); ++l) {
      if (!link_flows_[l].empty() || link_dirty_[l]) comp_links_.push_back(l);
    }
    comp_flows_.clear();
    for (FlowId id : active_) comp_flows_.push_back(id.value());
    ++counters_.full_fills;
  } else {
    std::sort(comp_links_.begin(), comp_links_.end());
    if (comp_links_.size() == link_flows_.size()) ++counters_.full_fills;
  }
  counters_.links_touched += comp_links_.size();
  counters_.flows_touched += comp_flows_.size();
  return dense;
}

void Fabric::init_fill_state(std::uint32_t l) {
  residual_[l] = elastic_headroom(l);
  double weight = 0.0;
  for (FlowId fid : link_flows_[l]) weight += flows_[fid.value()].spec.weight;
  unfixed_weight_[l] = weight;
  unfixed_count_[l] = static_cast<std::uint32_t>(link_flows_[l].size());
}

std::uint32_t Fabric::replay_record() {
  const auto rounds = static_cast<std::uint32_t>(rec_bottleneck_.size());
  // A clean link's flows, their weights and its headroom are unchanged
  // since the recording fill, so it starts in the recorded state; a dirty
  // link is summed cold and rewrites its entry.
  for (std::uint32_t l : comp_links_) {
    if (link_dirty_[l]) {
      init_fill_state(l);
      rec_init_[l] = fill_state(l);
    } else {
      assert(rec_init_[l].link == l && "a clean link the record lacks");
      set_fill_state(rec_init_[l]);
    }
  }
  // Stable counting sort of the dirty links' recorded freezes by round, so
  // each link's freezes within a round keep ascending slot order, the order
  // the fill applies them. After placement replay_end_[k] ends round k's
  // bucket (which starts where round k-1's ends).
  replay_end_.assign(rounds + 1, 0);
  for (std::uint32_t l : dirty_links_) {
    for (FlowId fid : link_flows_[l]) {
      const std::uint32_t r = rec_freeze_round_[fid.value()];
      if (r < rounds) ++replay_end_[r + 1];
    }
  }
  for (std::uint32_t k = 0; k < rounds; ++k) {
    replay_end_[k + 1] += replay_end_[k];
  }
  replay_events_.resize(replay_end_[rounds]);
  for (std::uint32_t l : dirty_links_) {
    for (FlowId fid : link_flows_[l]) {
      const std::uint32_t r = rec_freeze_round_[fid.value()];
      if (r < rounds) replay_events_[replay_end_[r]++] = {l, fid.value()};
    }
  }

  // The dirty link with unfixed flows and the lowest (share, id); its
  // shares move only when a replayed freeze lands on a dirty link.
  std::uint32_t dirty_best = kNoLink;
  double dirty_best_share = 0.0;
  bool dirty_moved = true;
  std::uint32_t event = 0;
  std::uint32_t k = 0;
  for (; k < rounds; ++k) {
    const std::uint32_t bottleneck = rec_bottleneck_[k];
    const double share = rec_share_[k];
    if (link_dirty_[bottleneck]) break;
    if (dirty_moved) {
      dirty_moved = false;
      dirty_best = kNoLink;
      for (std::uint32_t l : dirty_links_) {
        if (unfixed_count_[l] == 0) continue;
        const double s = residual_[l] / std::max(unfixed_weight_[l], 1e-12);
        if (dirty_best == kNoLink || s < dirty_best_share ||
            (s == dirty_best_share && l < dirty_best)) {
          dirty_best = l;
          dirty_best_share = s;
        }
      }
    }
    // The scan's strict `<` in ascending link order: a dirty link takes the
    // round from the bottleneck at a lower share, or at an equal one with a
    // lower id.
    if (dirty_best != kNoLink &&
        (dirty_best_share < share ||
         (dirty_best_share == share && dirty_best < bottleneck))) {
      break;
    }
    // Round k freezes the record's flows at the record's share; apply them
    // to the dirty links with the fill's arithmetic.
    const double fill_share = share < 0.0 ? 0.0 : share;
    for (; event < replay_end_[k]; ++event) {
      const auto [l, slot] = replay_events_[event];
      const double weight = flows_[slot].spec.weight;
      const double rate = fill_share * weight;
      residual_[l] = std::max(0.0, residual_[l] - rate);
      unfixed_weight_[l] = std::max(0.0, unfixed_weight_[l] - weight);
      assert(unfixed_count_[l] > 0);
      --unfixed_count_[l];
      dirty_moved = true;
    }
    // The round touched exactly the links the record logged for it: clean
    // ones take the logged state, dirty ones rewrite it in place.
    for (std::uint32_t i = rec_log_off_[k]; i < rec_log_off_[k + 1]; ++i) {
      LinkFillState& entry = rec_log_[i];
      if (link_dirty_[entry.link]) {
        entry = fill_state(entry.link);
      } else {
        set_fill_state(entry);
      }
    }
  }
  rec_bottleneck_.resize(k);
  rec_share_.resize(k);
  rec_log_.resize(rec_log_off_[k]);
  rec_log_off_.resize(k + 1);
  return k;
}

void Fabric::fill_component(bool dense) {
  // A dense fill right after another dense fill resumes at the first round
  // its dirty links can affect; any other fill starts cold. Only a dense
  // fill leaves a record for the next one.
  std::uint32_t round = 0;
  if (dense && rec_valid_) {
    round = replay_record();
  } else {
    for (std::uint32_t l : comp_links_) {
      init_fill_state(l);
      if (dense) rec_init_[l] = fill_state(l);
    }
    if (dense) {
      rec_bottleneck_.clear();
      rec_share_.clear();
      rec_log_.clear();
      rec_log_off_.assign(1, 0);
    }
  }
  rec_valid_ = dense;
  counters_.reused_rounds += round;
  for (std::uint32_t l : comp_links_) {
    link_sums_stale_[l] = 1;  // re-summed on read (refresh_link_sums)
    link_share_[l] = residual_[l] / std::max(unfixed_weight_[l], 1e-12);
  }
  // Flows the replayed rounds froze keep their rates: only a fill sets a
  // rate, and the recording fill gave them exactly these.
  std::size_t remaining_flows = 0;
  for (std::uint32_t slot : comp_flows_) {
    const bool fixed = rec_freeze_round_[slot] < round;
    flow_fixed_[slot] = fixed ? 1 : 0;
    if (!fixed) ++remaining_flows;
  }

  // Weighted progressive filling: repeatedly saturate the link with the
  // smallest fair share per unit weight, freeze its flows at weight x share,
  // and subtract them everywhere. Weight 1 on every flow degenerates to the
  // classic max-min allocation. Candidate links that empty out are compacted
  // away (in order) so later rounds scan only still-contended links.
  cand_links_ = comp_links_;
  for (; remaining_flows > 0; ++round) {
    ++counters_.fill_rounds;
    double best_share = std::numeric_limits<double>::infinity();
    std::uint32_t best_link = kNoLink;
    std::size_t out = 0;
    for (std::size_t i = 0; i < cand_links_.size(); ++i) {
      const std::uint32_t l = cand_links_[i];
      // The integer count is the authoritative emptiness test: the weight
      // sum accumulates floating-point residue as flows freeze.
      if (unfixed_count_[l] == 0) continue;
      cand_links_[out++] = l;
      const double share = link_share_[l];  // cached, refreshed on freeze
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    cand_links_.resize(out);
    assert(best_link != kNoLink);
    if (dense) {
      rec_bottleneck_.push_back(best_link);
      rec_share_.push_back(best_share);
    }
    if (best_share < 0.0) best_share = 0.0;

    // Freeze every unfixed flow crossing the bottleneck (ascending by id —
    // the same order the full fill visits them).
    for (FlowId fid : link_flows_[best_link]) {
      const std::uint32_t slot = fid.value();
      if (flow_fixed_[slot]) continue;
      Flow& f = flows_[slot];
      const double rate = best_share * f.spec.weight;
      set_rate(f, rate);
      flow_fixed_[slot] = 1;
      rec_freeze_round_[slot] = round;
      --remaining_flows;
      for (LinkId l : f.spec.path) {
        const std::uint32_t lv = l.value();
        residual_[lv] = std::max(0.0, residual_[lv] - rate);
        unfixed_weight_[lv] =
            std::max(0.0, unfixed_weight_[lv] - f.spec.weight);
        assert(unfixed_count_[lv] > 0);
        --unfixed_count_[lv];
        if (!link_touched_[lv]) {
          link_touched_[lv] = 1;
          touched_links_.push_back(lv);
        }
      }
    }

    // One share refresh per touched link per round: nothing reads
    // link_share_ until the next scan, and the value depends only on the
    // final residual and weight.
    for (std::uint32_t lv : touched_links_) {
      link_touched_[lv] = 0;
      link_share_[lv] = residual_[lv] / std::max(unfixed_weight_[lv], 1e-12);
      if (dense) rec_log_.push_back(fill_state(lv));
    }
    touched_links_.clear();
    if (dense) {
      rec_log_off_.push_back(static_cast<std::uint32_t>(rec_log_.size()));
    }
  }
}

void Fabric::fill_full() {
  // The original O(rounds × links × flows) progressive fill, preserved as
  // the baseline. Flows are visited in ascending id order at every step so
  // the floating-point operation sequence matches fill_component() exactly
  // (the differential tests rely on bit-identical allocations).
  counters_.links_touched += link_flows_.size();
  counters_.flows_touched += active_.size();
  ++counters_.full_fills;

  sorted_active_ = active_;
  std::sort(sorted_active_.begin(), sorted_active_.end(),
            [](FlowId a, FlowId b) { return a.value() < b.value(); });

  std::fill(elastic_rate_bps_.begin(), elastic_rate_bps_.end(), 0.0);
  for (auto& per_class : class_rate_bps_) per_class.fill(0.0);
  for (std::uint32_t l = 0; l < residual_.size(); ++l) {
    residual_[l] = elastic_headroom(l);
    unfixed_weight_[l] = 0.0;
    unfixed_count_[l] = 0;
  }
  for (FlowId id : sorted_active_) {
    const Flow& f = flows_[id.value()];
    flow_fixed_[id.value()] = 0;
    for (LinkId l : f.spec.path) {
      unfixed_weight_[l.value()] += f.spec.weight;
      ++unfixed_count_[l.value()];
    }
  }

  std::size_t remaining_flows = sorted_active_.size();
  while (remaining_flows > 0) {
    ++counters_.fill_rounds;
    double best_share = std::numeric_limits<double>::infinity();
    std::uint32_t best_link = kNoLink;
    for (std::uint32_t l = 0; l < residual_.size(); ++l) {
      if (unfixed_count_[l] == 0) continue;
      const double share = residual_[l] / std::max(unfixed_weight_[l], 1e-12);
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    assert(best_link != kNoLink);
    if (best_share < 0.0) best_share = 0.0;

    for (FlowId id : sorted_active_) {
      const std::uint32_t slot = id.value();
      if (flow_fixed_[slot]) continue;
      Flow& f = flows_[slot];
      const bool crosses =
          std::any_of(f.spec.path.begin(), f.spec.path.end(),
                      [best_link](LinkId l) { return l.value() == best_link; });
      if (!crosses) continue;
      const double rate = best_share * f.spec.weight;
      set_rate(f, rate);
      flow_fixed_[slot] = 1;
      --remaining_flows;
      for (LinkId l : f.spec.path) {
        residual_[l.value()] = std::max(0.0, residual_[l.value()] - rate);
        unfixed_weight_[l.value()] =
            std::max(0.0, unfixed_weight_[l.value()] - f.spec.weight);
        assert(unfixed_count_[l.value()] > 0);
        --unfixed_count_[l.value()];
      }
    }
  }

  for (FlowId id : sorted_active_) {
    const Flow& f = flows_[id.value()];
    for (LinkId l : f.spec.path) {
      elastic_rate_bps_[l.value()] += f.rate.bps();
      class_rate_bps_[l.value()][static_cast<std::size_t>(f.spec.cls)] +=
          f.rate.bps();
    }
  }
}

void Fabric::schedule_next_completion() {
  while (!eta_heap_.empty() &&
         eta_heap_.front().stamp != eta_stamp_[eta_heap_.front().slot]) {
    std::pop_heap(eta_heap_.begin(), eta_heap_.end(), EtaLater{});
    eta_heap_.pop_back();
  }
  if (eta_heap_.empty()) {
    completion_event_.cancel();
    scheduled_eta_ns_ = -1;
    return;
  }
  const std::int64_t eta = eta_heap_.front().eta_ns;
  if (eta == scheduled_eta_ns_ && completion_event_.valid() &&
      !completion_event_.cancelled()) {
    return;  // already armed for this instant
  }
  completion_event_.cancel();
  scheduled_eta_ns_ = eta;
  completion_event_ =
      sim_->at(util::SimTime{eta}, [this] { on_completion_event(); });
}

void Fabric::complete_flow(std::uint32_t slot) {
  Flow& f = flows_[slot];
  const std::uint32_t pos = active_pos_[slot];
  assert(pos != kNoPos);
  active_[pos] = active_.back();
  active_pos_[active_.back().value()] = pos;
  active_.pop_back();
  active_pos_[slot] = kNoPos;
  for (LinkId l : f.spec.path) {
    remove_link_flow(l, f.id);
    mark_dirty(l);
  }
  ++eta_stamp_[slot];
  f.completed = true;
  f.completed_at = sim_->now();
  f.remaining_bytes = 0.0;
  f.rate = util::BitsPerSec::zero();
  ++flows_completed_;
  bytes_delivered_ += f.spec.size;
  PYTHIA_LOG(kDebug, "fabric")
      << "flow " << slot << " completed at " << sim_->now().seconds() << "s ("
      << f.spec.size.count() << " bytes)";
}

void Fabric::on_completion_event() {
  scheduled_eta_ns_ = -1;
  settle();
  ++counters_.completion_events;
  const std::int64_t now_ns = sim_->now().ns();
  // Collect finished flows first: callbacks may start new flows, which
  // mutates active_ and triggers nested recomputes.
  std::vector<FlowId> done;
  while (!eta_heap_.empty()) {
    const EtaEntry top = eta_heap_.front();
    if (top.stamp != eta_stamp_[top.slot]) {
      std::pop_heap(eta_heap_.begin(), eta_heap_.end(), EtaLater{});
      eta_heap_.pop_back();
      continue;
    }
    if (top.eta_ns > now_ns) break;
    std::pop_heap(eta_heap_.begin(), eta_heap_.end(), EtaLater{});
    eta_heap_.pop_back();
    Flow& f = flows_[top.slot];
    if (f.remaining_bytes > kDoneEpsilonBytes) {
      push_eta(f);  // defensive: deadline drifted, re-arm
      continue;
    }
    done.push_back(f.id);
    complete_flow(top.slot);
  }
  recompute_rates();
  schedule_next_completion();
  // Observer + user callbacks run after the fabric is consistent.
  for (FlowId id : done) {
    for (auto* obs : observers_) {
      obs->on_flow_completed(*this, id, sim_->now());
    }
  }
  for (FlowId id : done) {
    auto fn = std::move(callbacks_[id.value()]);
    callbacks_[id.value()] = nullptr;
    if (fn) fn(id, sim_->now());
  }
  // Slots recycle only after the whole batch has run its callbacks, so a
  // callback-started flow can never shadow a not-yet-notified sibling.
  for (FlowId id : done) release_slot(id.value());
}

void Fabric::settle_and_recompute() {
  settle();
  after_mutation();
}

void Fabric::encode_counters(sim::StateEncoder& enc) const {
  // Rate-engine observability: deterministic within one engine, but
  // kIncremental and kFullRecompute legitimately differ here even though
  // their allocations are contracted identical — which is why this lives in
  // its own snapshot section the cross-arm bisection skips.
  enc.put_u64(counters_.recomputes);
  enc.put_u64(counters_.full_fills);
  enc.put_u64(counters_.links_touched);
  enc.put_u64(counters_.flows_touched);
  enc.put_u64(counters_.completion_events);
  enc.put_u64(counters_.settles);
  enc.put_u64(counters_.deferred_recomputes);
  enc.put_u64(counters_.fill_rounds);
  enc.put_u64(counters_.reused_rounds);
}

void Fabric::encode_state(sim::StateEncoder& enc) const {
  enc.put_u64(flows_started_);
  enc.put_u64(flows_completed_);
  enc.put_i64(bytes_delivered_.count());
  enc.put_time(last_settle_);
  enc.put_i64(scheduled_eta_ns_);

  const auto active = active_flows();  // ascending by id
  enc.put_u32(static_cast<std::uint32_t>(active.size()));
  for (FlowId id : active) {
    const Flow& f = flows_[id.value()];
    enc.put_u32(id.value());
    enc.put_u32(f.spec.src.value());
    enc.put_u32(f.spec.dst.value());
    enc.put_i64(f.spec.size.count());
    enc.put_u8(static_cast<std::uint8_t>(f.spec.cls));
    enc.put_f64(f.spec.weight);
    enc.put_u32(f.spec.tuple.src_ip);
    enc.put_u32(f.spec.tuple.dst_ip);
    enc.put_u32(f.spec.tuple.src_port);
    enc.put_u32(f.spec.tuple.dst_port);
    enc.put_u8(f.spec.tuple.proto);
    enc.put_u32(static_cast<std::uint32_t>(f.spec.path.size()));
    for (LinkId l : f.spec.path) enc.put_u32(l.value());
    enc.put_time(f.started);
    enc.put_f64(f.remaining_bytes);
    enc.put_f64(f.rate.bps());
    enc.put_i64(f.reported_bytes);
  }

  enc.put_u32(static_cast<std::uint32_t>(cbrs_.size()));
  for (const CbrStream& cbr : cbrs_) {
    enc.put_bool(cbr.active);
    enc.put_f64(cbr.rate_bps);
    enc.put_u32(static_cast<std::uint32_t>(cbr.path.size()));
    for (LinkId l : cbr.path) enc.put_u32(l.value());
  }

  enc.put_u32(static_cast<std::uint32_t>(topo_->link_count()));
  for (std::uint32_t l = 0; l < topo_->link_count(); ++l) {
    refresh_link_sums(l);
    enc.put_bool(link_up_[l] != 0);
    enc.put_f64(cbr_load_bps_[l]);
    enc.put_f64(elastic_rate_bps_[l]);
    for (double cls_rate : class_rate_bps_[l]) enc.put_f64(cls_rate);
  }
}

}  // namespace pythia::net
