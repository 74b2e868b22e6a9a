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
      hier_(cfg.rate_engine == RateEngine::kHierarchical),
      last_settle_(sim.now()) {
  if (hier_) {
    // Locality groups from the topology, plus one shared core group (last
    // index) for links whose endpoints straddle groups or carry none.
    num_groups_ = topo.group_count() + 1;
    const auto core = static_cast<std::uint32_t>(num_groups_ - 1);
    link_group_.resize(topo.link_count());
    link_rank_.assign(topo.link_count(), 0);
    group_links_.assign(num_groups_, {});
    group_flows_.assign(num_groups_, {});
    group_mark_.assign(num_groups_, 0);
    for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
      const std::int32_t g = topo.link_group(LinkId{l});
      const std::uint32_t idx = g < 0 ? core : static_cast<std::uint32_t>(g);
      link_group_[l] = idx;
      group_links_[idx].push_back(l);  // ascending: l ascends
    }
  }
  if (cfg_.coalesce_cohorts) {
    cohort_token_ =
        sim.queue().add_cohort_listener([this] { flush_coalesced(); });
    cohort_listener_registered_ = true;
  }
}

Fabric::~Fabric() {
  if (cohort_listener_registered_) {
    sim_->queue().remove_cohort_listener(cohort_token_);
  }
}

std::uint32_t Fabric::SpanArena::acquire(std::uint32_t len,
                                         std::uint8_t& bucket) {
  std::uint8_t b = 0;
  while ((1u << b) < std::max(len, 1u)) ++b;
  bucket = b;
  auto& list = free_[b];
  if (!list.empty()) {
    const std::uint32_t off = list.back();
    list.pop_back();
    return off;
  }
  const auto off = static_cast<std::uint32_t>(size_);
  size_ += (1u << b);
  return off;
}

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
  arena_weight_.push_back(0.0);
  arena_rate_bps_.push_back(0.0);
  arena_eta_ns_.push_back(-1);
  arena_cls_.push_back(0);
  path_off_.push_back(kNoPos);
  path_len_.push_back(0);
  path_bucket_.push_back(0);
  groups_off_.push_back(kNoPos);
  groups_len_.push_back(0);
  groups_bucket_.push_back(0);
  flow_mark_.push_back(0);
  return slot;
}

void Fabric::release_slot(std::uint32_t slot) {
  // The completed Flow record stays readable until the slot is reused.
  callbacks_[slot] = nullptr;
  ++eta_stamp_[slot];
  if (hier_) free_path_row(slot);
  free_slots_.push_back(slot);
}

void Fabric::arena_admit(std::uint32_t slot) {
  const Flow& f = flows_[slot];
  arena_weight_[slot] = f.spec.weight;
  arena_cls_[slot] = static_cast<std::uint8_t>(f.spec.cls);
  arena_rate_bps_[slot] = f.rate.bps();
  arena_eta_ns_[slot] = -1;
  const auto len = static_cast<std::uint32_t>(f.spec.path.size());
  const std::uint32_t off = path_arena_.acquire(len, path_bucket_[slot]);
  if (path_pool_.size() < path_arena_.size()) {
    path_pool_.resize(path_arena_.size());
  }
  path_off_[slot] = off;
  path_len_[slot] = len;
  std::copy(f.spec.path.begin(), f.spec.path.end(), path_pool_.begin() + off);

  // Distinct locality groups the path touches, in first-touch order (a
  // fat-tree path sees at most src pod + core + dst pod).
  scratch_groups_.clear();
  for (std::uint32_t i = 0; i < len; ++i) {
    const std::uint32_t g = link_group_[path_pool_[off + i].value()];
    if (std::find(scratch_groups_.begin(), scratch_groups_.end(), g) ==
        scratch_groups_.end()) {
      scratch_groups_.push_back(g);
    }
  }
  const auto glen = static_cast<std::uint32_t>(scratch_groups_.size());
  const std::uint32_t goff = group_arena_.acquire(glen, groups_bucket_[slot]);
  if (group_id_pool_.size() < group_arena_.size()) {
    group_id_pool_.resize(group_arena_.size());
    group_pos_pool_.resize(group_arena_.size());
  }
  groups_off_[slot] = goff;
  groups_len_[slot] = glen;
  for (std::uint32_t i = 0; i < glen; ++i) {
    const std::uint32_t g = scratch_groups_[i];
    group_id_pool_[goff + i] = g;
    group_pos_pool_[goff + i] =
        static_cast<std::uint32_t>(group_flows_[g].size());
    group_flows_[g].push_back(slot);
  }
}

void Fabric::unregister_flow_groups(std::uint32_t slot) {
  const std::uint32_t goff = groups_off_[slot];
  assert(goff != kNoPos);
  for (std::uint32_t i = 0; i < groups_len_[slot]; ++i) {
    const std::uint32_t g = group_id_pool_[goff + i];
    const std::uint32_t pos = group_pos_pool_[goff + i];
    auto& list = group_flows_[g];
    assert(pos < list.size() && list[pos] == slot);
    const std::uint32_t moved = list.back();
    list[pos] = moved;
    list.pop_back();
    if (moved != slot) {
      // Fix the moved flow's recorded position for this group (its group
      // row has at most a handful of entries).
      const std::uint32_t moff = groups_off_[moved];
      for (std::uint32_t j = 0; j < groups_len_[moved]; ++j) {
        if (group_id_pool_[moff + j] == g) {
          group_pos_pool_[moff + j] = pos;
          break;
        }
      }
    }
  }
  group_arena_.release(goff, groups_bucket_[slot]);
  groups_off_[slot] = kNoPos;
  groups_len_[slot] = 0;
}

void Fabric::free_path_row(std::uint32_t slot) {
  if (path_off_[slot] == kNoPos) return;
#ifndef NDEBUG
  // Poison the freed row: a straggler holding this slot's span reads
  // invalid link ids, not a successor flow's path.
  for (std::uint32_t i = 0; i < path_len_[slot]; ++i) {
    path_pool_[path_off_[slot] + i] = LinkId{};
  }
#endif
  path_arena_.release(path_off_[slot], path_bucket_[slot]);
  path_off_[slot] = kNoPos;
  // path_len_ deliberately survives: flow_path() distinguishes "row was
  // recycled" (len > 0, fatal in debug) from "never had one" (zero-byte
  // flow, empty span). The length resets when the slot is reused.
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
  path_len_[slot] = 0;  // slot reuse ends the stale-read detection window
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
  if (hier_) arena_admit(slot);
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
  if (hier_) arena_weight_[id.value()] = weight;
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
  if (hier_) {
    unregister_flow_groups(id.value());
    free_path_row(id.value());
  }
  f.spec.path = std::move(new_path);
  for (LinkId l : f.spec.path) {
    insert_link_flow(l, id);
    mark_dirty(l);
  }
  if (hier_) arena_admit(id.value());
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
  maybe_flush();
  refresh_link_sums(l.value());
  return util::BitsPerSec{elastic_rate_bps_[l.value()]};
}

util::BitsPerSec Fabric::link_class_rate(LinkId l, FlowClass cls) const {
  maybe_flush();
  refresh_link_sums(l.value());
  return util::BitsPerSec{
      class_rate_bps_[l.value()][static_cast<std::size_t>(cls)]};
}

double Fabric::link_utilization(LinkId l) const {
  maybe_flush();
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
  // A mid-cohort caller must see the rate an eager fabric would have
  // computed at this instant — flush the deferred fill first.
  maybe_flush();
  return flows_[id.value()];
}

std::span<const LinkId> Fabric::flow_path(FlowId id) const {
  assert(id.value() < flows_.size());
  const std::uint32_t slot = id.value();
  if (!hier_) {
    const auto& p = flows_[slot].spec.path;
    return {p.data(), p.size()};
  }
  const std::uint32_t off = path_off_[slot];
  assert((off != kNoPos || path_len_[slot] == 0) &&
         "stale FlowId: arena path row was recycled");
  if (off == kNoPos) return {};
  return {path_pool_.data() + off, path_len_[slot]};
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
  // Coalescing contract: a deferred recompute must flush (cohort boundary
  // or read) before simulated time advances, or flows would integrate at
  // stale rates.
  assert(!recompute_pending_ &&
         "deferred recompute leaked across a time advance");
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
  // instant the remaining volume was settled to — identical to now() on
  // every eager path (rates change only right after a settle), and the
  // correct anchor when a coalesced flush runs after the clock moved on.
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
  if (hier_) {
    collect_component_hier();
    clear_dirty();
    fill_component_hier();
    return;
  }
  const bool dense = collect_component();
  fill_component(dense);
  clear_dirty();  // after the fill: the warm start reads the dirty set
}

void Fabric::after_mutation() {
  if (cfg_.coalesce_cohorts) {
    ++counters_.deferred_recomputes;
    recompute_pending_ = true;
    sim_->queue().mark_cohort_activity();
    return;
  }
  recompute_rates();
  schedule_next_completion();
}

void Fabric::flush_coalesced() {
  if (!recompute_pending_) return;
  recompute_pending_ = false;
  ++counters_.cohort_flushes;
  recompute_rates();
  schedule_next_completion();
}

void Fabric::set_cohort_coalescing(bool on) {
  // Runtime toggle so a caller (the scaling bench compares engine
  // generations this way) can ramp with coalescing and then measure eager
  // semantics. Turning it off materializes any pending cohort first, so the
  // fabric is exactly the state an always-eager run would hold here.
  if (on == cfg_.coalesce_cohorts) return;
  if (!on) {
    flush_coalesced();
    cfg_.coalesce_cohorts = false;
    return;
  }
  cfg_.coalesce_cohorts = true;
  if (!cohort_listener_registered_) {
    cohort_token_ =
        sim_->queue().add_cohort_listener([this] { flush_coalesced(); });
    cohort_listener_registered_ = true;
  }
}

void Fabric::maybe_flush() const {
  // Logically const: flushing only materializes the state an eager fabric
  // would already hold at this instant.
  if (recompute_pending_) const_cast<Fabric*>(this)->flush_coalesced();
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

    // One share refresh per touched link per round, as in
    // fill_component_hier(): nothing reads link_share_ until the next scan,
    // and the value depends only on the final residual and weight.
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

void Fabric::collect_component_hier() {
  // Group-closure collection: seed with the dirty links' groups, then close
  // over pod coupling — every flow of a marked group drags in the other
  // groups its path touches (at most src pod + core + dst pod). The result
  // is a superset of collect_component()'s exact flow-by-flow BFS closure:
  // whole groups enter at once, so links of a closed group that no affected
  // flow crosses ride along. That is provably harmless to the fill — such
  // links either carry no flows (unfixed_count 0, skipped every round) or
  // carry flows that are themselves in the component (membership is
  // group-complete), so the floating-point operation sequence matches the
  // exact component's, which matches fill_full()'s.
  ++hier_epoch_;
  comp_groups_.clear();
  comp_links_.clear();
  comp_flows_.clear();
  for (std::uint32_t l : dirty_links_) {
    const std::uint32_t g = link_group_[l];
    if (group_mark_[g] == hier_epoch_) continue;
    group_mark_[g] = hier_epoch_;
    comp_groups_.push_back(g);
  }
  for (std::size_t head = 0; head < comp_groups_.size(); ++head) {
    const std::uint32_t g = comp_groups_[head];
    for (std::uint32_t slot : group_flows_[g]) {
      if (flow_mark_[slot] == hier_epoch_) continue;
      flow_mark_[slot] = hier_epoch_;
      comp_flows_.push_back(slot);
      const std::uint32_t goff = groups_off_[slot];
      for (std::uint32_t i = 0; i < groups_len_[slot]; ++i) {
        const std::uint32_t g2 = group_id_pool_[goff + i];
        if (group_mark_[g2] == hier_epoch_) continue;
        group_mark_[g2] = hier_epoch_;
        comp_groups_.push_back(g2);
      }
    }
  }
  for (std::uint32_t g : comp_groups_) {
    comp_links_.insert(comp_links_.end(), group_links_[g].begin(),
                       group_links_[g].end());
  }
  std::sort(comp_links_.begin(), comp_links_.end());
  counters_.links_touched += comp_links_.size();
  counters_.flows_touched += comp_flows_.size();
  if (comp_links_.size() == link_flows_.size()) ++counters_.full_fills;
}

void Fabric::fill_component_hier() {
  // fill_component() with every Flow-record read replaced by its dense
  // arena mirror (weights, classes, path rows) and the per-round bottleneck
  // search flattened into a rank-indexed share array. Links that empty out
  // are parked at +inf instead of compacted away, so the scan is a pure
  // branch-free min over contiguous doubles — the compiler vectorizes it —
  // and a second pass recovers the first rank holding the min, which is
  // exactly the link the legacy strict `share < best` scan would pick
  // (ranks follow comp_links_ order). Every share that feeds arithmetic is
  // still residual / max(weight, 1e-12), so allocations stay bit-identical.
  const std::size_t n = comp_links_.size();
  share_dense_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t l = comp_links_[r];
    link_rank_[l] = static_cast<std::uint32_t>(r);
    elastic_rate_bps_[l] = 0.0;
    class_rate_bps_[l].fill(0.0);
    residual_[l] = elastic_headroom(l);
    double weight = 0.0;
    std::uint32_t count = 0;
    for (FlowId fid : link_flows_[l]) {
      weight += arena_weight_[fid.value()];
      ++count;
    }
    unfixed_weight_[l] = weight;
    unfixed_count_[l] = count;
    share_dense_[r] = count == 0 ? std::numeric_limits<double>::infinity()
                                 : residual_[l] / std::max(weight, 1e-12);
  }
  for (std::uint32_t slot : comp_flows_) flow_fixed_[slot] = 0;

  std::size_t remaining_flows = comp_flows_.size();
  touched_links_.clear();
  while (remaining_flows > 0) {
    ++counters_.fill_rounds;
    // Pass 1: plain min over the dense share array. min is associative and
    // commutative here (no NaNs, and shares are never negative zero, so
    // evaluation order cannot change the value) — four independent chains
    // hide the minsd latency. Pass 2: first rank at the min, which is the
    // link the legacy strict `share < best` scan would pick (ranks follow
    // comp_links_ order).
    const double* shares = share_dense_.data();
    double m0 = std::numeric_limits<double>::infinity();
    double m1 = m0;
    double m2 = m0;
    double m3 = m0;
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
      m0 = std::min(m0, shares[r]);
      m1 = std::min(m1, shares[r + 1]);
      m2 = std::min(m2, shares[r + 2]);
      m3 = std::min(m3, shares[r + 3]);
    }
    for (; r < n; ++r) m0 = std::min(m0, shares[r]);
    double best_share = std::min(std::min(m0, m1), std::min(m2, m3));
    std::size_t best_rank = 0;
    while (shares[best_rank] != best_share) ++best_rank;
    const std::uint32_t best_link = comp_links_[best_rank];
    assert(unfixed_count_[best_link] > 0);
    if (best_share < 0.0) best_share = 0.0;

    for (FlowId fid : link_flows_[best_link]) {
      const std::uint32_t slot = fid.value();
      if (flow_fixed_[slot]) continue;
      const double w = arena_weight_[slot];
      const double rate = best_share * w;
      set_rate_hier(slot, rate);
      flow_fixed_[slot] = 1;
      --remaining_flows;
      const std::uint32_t off = path_off_[slot];
      const std::uint32_t len = path_len_[slot];
      for (std::uint32_t i = 0; i < len; ++i) {
        const std::uint32_t lv = path_pool_[off + i].value();
        residual_[lv] = std::max(0.0, residual_[lv] - rate);
        unfixed_weight_[lv] = std::max(0.0, unfixed_weight_[lv] - w);
        assert(unfixed_count_[lv] > 0);
        --unfixed_count_[lv];
        // Share refresh is deferred below: nothing reads share_dense_ until
        // the next round's min pass, and the refreshed value is a pure
        // function of the final residual_/unfixed_weight_, so one division
        // per touched link replaces one per (flow, link) touch without
        // moving a single bit of the result.
        if (!link_touched_[lv]) {
          link_touched_[lv] = 1;
          touched_links_.push_back(lv);
        }
      }
    }

    for (std::uint32_t lv : touched_links_) {
      link_touched_[lv] = 0;
      share_dense_[link_rank_[lv]] =
          unfixed_count_[lv] == 0
              ? std::numeric_limits<double>::infinity()
              : residual_[lv] / std::max(unfixed_weight_[lv], 1e-12);
    }
    touched_links_.clear();
  }

  for (std::uint32_t l : comp_links_) {
    for (FlowId fid : link_flows_[l]) {
      const std::uint32_t slot = fid.value();
      const double r = arena_rate_bps_[slot];
      elastic_rate_bps_[l] += r;
      class_rate_bps_[l][arena_cls_[slot]] += r;
    }
  }
}

void Fabric::set_rate_hier(std::uint32_t slot, double rate_bps) {
  // The mirror always equals flows_[slot].rate, so the no-change test can
  // stay on the dense 8-byte-per-slot array — refreezing a flow at its old
  // rate (the common case) never faults in the cold Flow record.
  if (arena_rate_bps_[slot] == rate_bps) return;
  Flow& f = flows_[slot];
  f.rate = util::BitsPerSec{rate_bps};
  arena_rate_bps_[slot] = rate_bps;
  push_eta_hier(slot, f);
}

void Fabric::push_eta_hier(std::uint32_t slot, const Flow& f) {
  if (f.rate.bps() <= 0.0) {
    arena_eta_ns_[slot] = -1;  // starved: re-examined on the next change
    return;
  }
  // Same arithmetic as push_eta(); the deadline just lives in a dense
  // per-slot array instead of a lazy heap.
  const double secs = f.remaining_bytes / f.rate.bytes_per_sec();
  arena_eta_ns_[slot] =
      last_settle_.ns() + static_cast<std::int64_t>(std::ceil(secs * 1e9));
}

void Fabric::schedule_next_completion() {
  std::int64_t eta = -1;
  if (hier_) {
    // Dense min over the active set; a flat 8-byte-per-flow scan beats heap
    // maintenance once most rates change on every fill. The min alone
    // decides the event time, so no ordering state needs maintaining.
    for (FlowId id : active_) {
      const std::int64_t e = arena_eta_ns_[id.value()];
      if (e >= 0 && (eta < 0 || e < eta)) eta = e;
    }
  } else {
    while (!eta_heap_.empty() &&
           eta_heap_.front().stamp != eta_stamp_[eta_heap_.front().slot]) {
      std::pop_heap(eta_heap_.begin(), eta_heap_.end(), EtaLater{});
      eta_heap_.pop_back();
    }
    if (!eta_heap_.empty()) eta = eta_heap_.front().eta_ns;
  }
  if (eta < 0) {
    completion_event_.cancel();
    scheduled_eta_ns_ = -1;
    return;
  }
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
  if (hier_) {
    unregister_flow_groups(slot);
    arena_rate_bps_[slot] = 0.0;
    arena_eta_ns_[slot] = -1;
  }
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
  if (hier_) {
    // Scan the dense deadline array for due flows, then process in
    // (eta, slot) order — exactly the order the legacy heap pops them.
    due_slots_.clear();
    for (FlowId id : active_) {
      const std::uint32_t slot = id.value();
      const std::int64_t e = arena_eta_ns_[slot];
      if (e >= 0 && e <= now_ns) due_slots_.push_back(slot);
    }
    std::sort(due_slots_.begin(), due_slots_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                if (arena_eta_ns_[a] != arena_eta_ns_[b]) {
                  return arena_eta_ns_[a] < arena_eta_ns_[b];
                }
                return a < b;
              });
    for (std::uint32_t slot : due_slots_) {
      Flow& f = flows_[slot];
      if (f.remaining_bytes > kDoneEpsilonBytes) {
        push_eta_hier(slot, f);  // defensive: deadline drifted, re-arm
        continue;
      }
      done.push_back(f.id);
      complete_flow(slot);
    }
  } else {
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
  enc.put_u64(counters_.cohort_flushes);
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
