#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/snapshot.hpp"
#include "util/log.hpp"

namespace pythia::net {

namespace {
/// A flow whose settled remainder drops below this is considered delivered;
/// sub-byte residue is floating-point noise from rate integration.
constexpr double kDoneEpsilonBytes = 0.5;
constexpr std::uint32_t kNoPos = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kNoLink = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kNoRound = std::numeric_limits<std::uint32_t>::max();
/// The completion instant of a starved flow.
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// A weight of 0 would freeze a flow at rate 0 forever, and a non-finite
/// one poisons every share on its path.
void check_weight(double weight) {
  if (!std::isfinite(weight) || weight <= 0.0) {
    throw std::invalid_argument("flow weight must be finite and positive");
  }
}

/// The bottleneck scan's order: lower share first, the lower id on a tie.
bool ranks_below(double share_a, std::uint32_t a, double share_b,
                 std::uint32_t b) {
  return share_a < share_b || (share_a == share_b && a < b);
}

/// Whole bytes reported to observers once a flow of `size` has `remaining`
/// left: floor(delivered), and exactly `size` once it is done. Monotone in
/// `remaining` and 0 at the start, so a settle reports the difference of two
/// of these and observer totals never drift from the delivered volume.
std::int64_t whole_bytes_delivered(util::Bytes size, double remaining) {
  return remaining <= kDoneEpsilonBytes
             ? size.count()
             : static_cast<std::int64_t>(size.as_double() - remaining);
}
}  // namespace

Fabric::Fabric(sim::Simulation& sim, const Topology& topo)
    : sim_(&sim),
      topo_(&topo),
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
      link_affected_(topo.link_count(), 0),
      affected_pos_(topo.link_count(), 0),
      link_log_(topo.link_count()),
      rec_init_(topo.link_count()),
      last_settle_(sim.now()) {}

std::uint32_t Fabric::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    flow_round_[slot] = kNoRound;  // the old flow's round id may be reused
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(flows_.size());
  flows_.emplace_back();
  callbacks_.emplace_back();
  active_pos_.push_back(kNoPos);
  flow_frozen_.push_back(0);
  flow_round_.push_back(kNoRound);
  return slot;
}

void Fabric::release_slot(std::uint32_t slot) {
  // The completed Flow record stays readable until the slot is reused.
  callbacks_[slot] = nullptr;
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
  check_weight(spec.weight);
  const std::uint32_t slot = acquire_slot();
  Flow& f = flows_[slot];
  f = Flow{};
  f.id = FlowId{slot};
  f.spec = std::move(spec);
  f.started = sim_->now();
  const FlowId id = f.id;
  ++flows_started_;
  callbacks_[slot] = std::move(on_complete);

  if (f.spec.size.as_double() <= kDoneEpsilonBytes) {
    // Zero-byte flow: complete immediately (still async via the queue so that
    // callers never re-enter themselves synchronously). The start event fires
    // first so observers that pair start/complete state stay consistent.
    f.completed = true;
    f.completed_at = sim_->now();
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
  remaining_.push_back(f.spec.size.as_double());
  rate_bytes_.push_back(0.0);
  eta_ns_.push_back(kNever);
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
  check_weight(weight);
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
  if (observers_.empty()) {  // then only the two columns are read
    for (std::size_t i = 0; i < remaining_.size(); ++i) {
      const double moved = std::min(remaining_[i], rate_bytes_[i] * secs);
      if (moved > 0.0) remaining_[i] -= moved;
    }
  } else {
    for (std::size_t i = 0; i < remaining_.size(); ++i) {
      const double moved = std::min(remaining_[i], rate_bytes_[i] * secs);
      if (!(moved > 0.0)) continue;
      const FlowId id = active_[i];
      const util::Bytes size = flows_[id.value()].spec.size;
      const std::int64_t before = whole_bytes_delivered(size, remaining_[i]);
      remaining_[i] -= moved;
      const std::int64_t whole =
          whole_bytes_delivered(size, remaining_[i]) - before;
      if (whole <= 0) continue;
      for (auto* obs : observers_) {
        obs->on_bytes_moved(*this, id, util::Bytes{whole}, last_settle_, now);
      }
    }
  }
  last_settle_ = now;
}

bool Fabric::set_rate(Flow& f, double rate_bps) {
  const util::BitsPerSec r{rate_bps};
  if (f.rate == r) return false;  // eta unchanged: the deadline is invariant
  f.rate = r;
  const std::uint32_t pos = active_pos_[f.id.value()];
  rate_bytes_[pos] = r.bytes_per_sec();
  arm(pos);
  return true;
}

void Fabric::arm(std::uint32_t pos) {
  if (rate_bytes_[pos] <= 0.0) {
    eta_ns_[pos] = kNever;  // starved: re-examined on the next change
    return;
  }
  // Ceil to the next nanosecond so the settled remainder at the event is
  // never still above the epsilon. Deadlines anchor at last_settle_, the
  // instant the remaining volume was settled to (rates change only right
  // after a settle, so it equals now()).
  const double secs = remaining_[pos] / rate_bytes_[pos];
  eta_ns_[pos] =
      last_settle_.ns() + static_cast<std::int64_t>(std::ceil(secs * 1e9));
}

void Fabric::recompute_rates() {
  ++counters_.recomputes;
  if (dirty_links_.empty()) return;  // probe-forced accounting point
  fill_incremental();
  clear_dirty();
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

void Fabric::init_fill_state(std::uint32_t l) {
  residual_[l] = elastic_headroom(l);
  double weight = 0.0;
  for (FlowId fid : link_flows_[l]) weight += flows_[fid.value()].spec.weight;
  unfixed_weight_[l] = weight;
  unfixed_count_[l] = static_cast<std::uint32_t>(link_flows_[l].size());
}

std::uint32_t Fabric::next_fill_epoch() {
  if (++fill_epoch_ == 0) {
    // The stamps wrapped: clear them once so no old stamp reads as current.
    std::fill(link_affected_.begin(), link_affected_.end(), 0);
    std::fill(flow_frozen_.begin(), flow_frozen_.end(), 0);
    std::fill(round_replayed_.begin(), round_replayed_.end(), 0);
    std::fill(round_lands_.begin(), round_lands_.end(), 0);
    fill_epoch_ = 1;
  }
  return fill_epoch_;
}

std::uint32_t Fabric::acquire_round() {
  if (free_rounds_.empty()) {
    const auto id = static_cast<std::uint32_t>(rounds_.size());
    rounds_.emplace_back();
    round_replayed_.push_back(0);
    round_lands_.push_back(0);
    return id;
  }
  const std::uint32_t id = free_rounds_.back();
  free_rounds_.pop_back();
  rounds_[id].links.clear();
  rounds_[id].frozen.clear();
  return id;
}

bool Fabric::join_affected(std::uint32_t l, bool cold) {
  const std::uint32_t epoch = fill_epoch_;
  if (link_affected_[l] == epoch) return false;
  link_affected_[l] = epoch;
  // Its log's replayed entries are a prefix: a clean link that a superseded
  // round touched would already be in A. The rounds past them touch A from
  // now on; they rewrite their entries if they replay.
  std::vector<LinkFillState>& log = link_log_[l];
  std::size_t kept = log.size();
  for (; kept > 0 && round_replayed_[log[kept - 1].round] != epoch; --kept) {
    round_lands_[log[kept - 1].round] = epoch;
  }
  log.resize(kept);
  if (cold) {
    // Dirty links join before any round replays, so the whole log is cut.
    init_fill_state(l);
    rec_init_[l] = fill_state(l, kNoRound);
  } else {
    // A clean link stands where its last replayed round left it, or where
    // the record started it (a cold join tags that state kNoRound).
    assert((kept > 0 || rec_init_[l].round == kNoRound) &&
           "a clean link the record lacks");
    set_fill_state(l, kept > 0 ? log.back() : rec_init_[l]);
  }
  link_share_[l] = residual_[l] / std::max(unfixed_weight_[l], 1e-12);
  if (unfixed_count_[l] > 0) {
    affected_pos_[l] = static_cast<std::uint32_t>(affected_.size());
    affected_.push_back(l);
    affected_share_.push_back(link_share_[l]);
    consider(l);
  }
  ++counters_.links_touched;
  return true;
}

void Fabric::consider(std::uint32_t l) {
  if (low_.stale) return;
  if (low_.link == kNoLink ||
      ranks_below(link_share_[l], l, low_.share, low_.link)) {
    low_ = {l, link_share_[l], false};
  }
}

void Fabric::reshare(std::uint32_t l) {
  link_share_[l] = residual_[l] / std::max(unfixed_weight_[l], 1e-12);
  // The integer count is the authoritative emptiness test: the weight sum
  // accumulates floating-point residue as flows freeze. An emptied link's
  // entry turns NaN, which compares below or equal to nothing, until
  // lowest() compacts the list.
  const bool emptied = unfixed_count_[l] == 0;
  assert(affected_[affected_pos_[l]] == l && "only A links with flows move");
  affected_share_[affected_pos_[l]] =
      emptied ? std::numeric_limits<double>::quiet_NaN() : link_share_[l];
  affected_emptied_ += emptied ? 1 : 0;
  if (l == low_.link) {
    low_.stale = true;  // the lowest link moved: only a scan finds the next
  } else if (!emptied) {
    consider(l);
  }
}

std::uint32_t Fabric::lowest() {
  if (!low_.stale) return low_.link;
  if (2 * affected_emptied_ > affected_.size()) {
    std::size_t out = 0;
    for (const std::uint32_t l : affected_) {
      if (unfixed_count_[l] == 0) continue;
      affected_pos_[l] = static_cast<std::uint32_t>(out);
      affected_share_[out] = link_share_[l];
      affected_[out++] = l;
    }
    affected_.resize(out);
    affected_share_.resize(out);
    affected_emptied_ = 0;
  }
  // Locals, not low_: the scan runs after every live round, and stores
  // through `this` the compiler cannot keep in registers.
  std::uint32_t best = kNoLink;
  double best_share = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < affected_.size(); ++i) {
    const double share = affected_share_[i];
    if (share < best_share || (share == best_share && affected_[i] < best)) {
      best = affected_[i];
      best_share = share;
    }
  }
  low_ = {best, best_share, false};
  return best;
}

bool Fabric::fixed(std::uint32_t slot) const {
  if (flow_frozen_[slot] == fill_epoch_) return true;
  const std::uint32_t round = flow_round_[slot];
  return round != kNoRound && round_replayed_[round] == fill_epoch_;
}

void Fabric::replay_round(const RecordStep& step) {
  const std::uint32_t epoch = fill_epoch_;
  ++counters_.reused_rounds;
  // Its flows are now fixed, and its clean links' log entries current.
  round_replayed_[step.round] = epoch;
  next_rec_.push_back(step);
  if (round_lands_[step.round] != epoch) return;
  // Its freezes move the A links it touched, each in ascending slot order
  // with the fill's arithmetic; their logs take the result.
  const Round& round = rounds_[step.round];
  const double share = step.share < 0.0 ? 0.0 : step.share;
  for (const std::uint32_t slot : round.frozen) {
    const Flow& f = flows_[slot];
    const double rate = share * f.spec.weight;
    for (LinkId l : f.spec.path) {
      if (link_affected_[l.value()] == epoch) {
        freeze_on(l.value(), rate, f.spec.weight);
      }
    }
  }
  for (const std::uint32_t l : round.links) {
    if (link_affected_[l] != epoch) continue;
    link_log_[l].push_back(fill_state(l, step.round));
    reshare(l);
  }
}

void Fabric::live_round(std::uint32_t bottleneck, double scanned) {
  const std::uint32_t epoch = fill_epoch_;
  ++counters_.fill_rounds;
  const std::uint32_t id = acquire_round();
  Round& round = rounds_[id];
  const double share = scanned < 0.0 ? 0.0 : scanned;
  // Freeze every unfixed flow crossing the bottleneck, ascending by id.
  // Every link they cross joins A.
  for (FlowId fid : link_flows_[bottleneck]) {
    const std::uint32_t slot = fid.value();
    if (fixed(slot)) continue;
    Flow& f = flows_[slot];
    const double rate = share * f.spec.weight;
    const bool moved = set_rate(f, rate);
    flow_frozen_[slot] = epoch;
    flow_round_[slot] = id;
    round.frozen.push_back(slot);
    ++counters_.flows_touched;
    for (LinkId l : f.spec.path) {
      const std::uint32_t lv = l.value();
      if (link_affected_[lv] != epoch) join_affected(lv, false);
      freeze_on(lv, rate, f.spec.weight);
      if (moved) link_sums_stale_[lv] = 1;  // re-summed on read
      if (!link_touched_[lv]) {
        link_touched_[lv] = 1;
        round.links.push_back(lv);
      }
    }
  }
  if (round.frozen.empty()) {  // its index disagrees with a flow's path
    throw std::logic_error("fabric fill: live round on link " +
                           std::to_string(bottleneck) + " froze no flow");
  }
  // One share refresh and log entry per touched link: the value depends
  // only on the final residual and weight.
  for (const std::uint32_t lv : round.links) {
    link_touched_[lv] = 0;
    link_log_[lv].push_back(fill_state(lv, id));
    reshare(lv);
  }
  next_rec_.push_back({id, bottleneck, scanned});
}

void Fabric::fill_incremental() {
  // Weighted progressive filling: repeatedly saturate the link with the
  // smallest fair share per unit weight, freeze its flows at weight x share,
  // and subtract them everywhere. Weight 1 on every flow degenerates to the
  // classic max-min allocation. Rounds the change cannot reach come from
  // the record (see file header).
  const std::uint32_t epoch = next_fill_epoch();
  affected_.clear();
  affected_share_.clear();
  affected_emptied_ = 0;
  low_ = {kNoLink, 0.0, false};
  next_rec_.clear();
  if (!rec_valid_) {
    // The first fill: every busy link is dirty, and every round runs live.
    ++counters_.full_fills;
    rec_valid_ = true;
  }
  for (std::uint32_t l : dirty_links_) {
    join_affected(l, true);
    link_sums_stale_[l] = 1;  // its flows, or their rates, moved
  }

  const std::size_t steps = rec_.size();
  std::size_t k = 0;
  while (true) {
    for (; k < steps && link_affected_[rec_[k].bottleneck] == epoch; ++k) {
      // Superseded: the links it touched join A as they stand, and its id
      // is freed once the fill ends.
      const std::uint32_t id = rec_[k].round;
      for (const std::uint32_t l : rounds_[id].links) {
        if (link_affected_[l] != epoch) join_affected(l, false);
      }
      superseded_.push_back(id);
    }
    const std::uint32_t low = lowest();
    if (k < steps) {
      // The scan's strict `<` in ascending link order: the recorded round
      // keeps its place below a lower share, or an equal one at a higher id.
      const RecordStep& step = rec_[k];
      if (low == kNoLink ||
          ranks_below(step.share, step.bottleneck, link_share_[low], low)) {
        replay_round(step);
        ++k;
        continue;
      }
    } else if (low == kNoLink) {
      break;
    }
    live_round(low, link_share_[low]);
  }
  free_rounds_.insert(free_rounds_.end(), superseded_.begin(),
                      superseded_.end());
  superseded_.clear();
  std::swap(rec_, next_rec_);
}

void Fabric::schedule_next_completion() {
  std::int64_t eta = kNever;
  for (const std::int64_t e : eta_ns_) eta = std::min(eta, e);
  if (eta == kNever) {  // no flow moves
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
  active_pos_[active_.back().value()] = pos;
  const auto swap_pop = [pos](auto& column) {
    column[pos] = column.back();
    column.pop_back();
  };
  swap_pop(active_);
  swap_pop(remaining_);
  swap_pop(rate_bytes_);
  swap_pop(eta_ns_);
  active_pos_[slot] = kNoPos;
  for (LinkId l : f.spec.path) {
    remove_link_flow(l, f.id);
    mark_dirty(l);
  }
  f.completed = true;
  f.completed_at = sim_->now();
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
  // mutates active_ and triggers nested recomputes. The buffer is borrowed
  // for the call, so a nested call gets its own and nothing allocates in
  // the steady state.
  std::vector<FlowId> done = std::move(done_buffer_);
  done.clear();
  for (std::size_t i = 0; i < eta_ns_.size(); ++i) {
    if (eta_ns_[i] <= now_ns) done.push_back(active_[i]);
  }
  // In (instant, id) order: each completion swap-pops active_, whose order
  // is the order later settles report bytes in.
  std::sort(done.begin(), done.end(), [this](FlowId a, FlowId b) {
    return std::pair{eta_ns_[active_pos_[a.value()]], a.value()} <
           std::pair{eta_ns_[active_pos_[b.value()]], b.value()};
  });
  std::size_t finished = 0;
  for (const FlowId id : done) {
    const std::uint32_t pos = active_pos_[id.value()];
    if (remaining_[pos] > kDoneEpsilonBytes) {
      arm(pos);  // defensive: deadline drifted, re-arm
      continue;
    }
    complete_flow(id.value());
    done[finished++] = id;
  }
  done.resize(finished);
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
  done_buffer_ = std::move(done);
}

void Fabric::settle_and_recompute() {
  settle();
  after_mutation();
}

void Fabric::encode_counters(sim::StateEncoder& enc) const {
  // Fill work, not behaviour: deterministic within one build, but a fill
  // that allocates the same rates with less work differs here, which is why
  // this lives in its own snapshot section the cross-arm bisection skips.
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
    const double remaining = remaining_[active_pos_[id.value()]];
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
    enc.put_f64(remaining);
    enc.put_f64(f.rate.bps());
    enc.put_i64(whole_bytes_delivered(f.spec.size, remaining));
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
