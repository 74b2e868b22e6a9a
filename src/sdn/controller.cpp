#include "sdn/controller.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/snapshot.hpp"
#include "util/log.hpp"

namespace pythia::sdn {

namespace {

[[noreturn]] void reject_field(const char* field, const char* why) {
  throw std::invalid_argument(std::string("ControllerConfig::") + field +
                              " " + why);
}

/// `cfg`, once every field is one the event loop can run: the durations
/// schedule events after now(), and the longest retry wait stays far from
/// overflowing the clock.
const ControllerConfig& validated(const ControllerConfig& cfg) {
  const std::pair<const char*, util::Duration> durations[] = {
      {"rule_install_latency", cfg.rule_install_latency},
      {"link_stats_period", cfg.link_stats_period},
      {"retry_backoff", cfg.retry_backoff},
      {"install_timeout", cfg.install_timeout},
  };
  for (const auto& [field, d] : durations) {
    if (d < util::Duration::zero()) reject_field(field, "must not be negative");
  }
  if (!(cfg.install_reject_probability >= 0.0 &&
        cfg.install_reject_probability <= 1.0)) {
    reject_field("install_reject_probability", "must be in [0, 1]");
  }
  // Retry n waits retry_backoff · 2^(n−1), so the waits of all
  // max_install_retries retries sum to retry_backoff · (2^r − 1). Summed
  // here term by term, each bounded before it is added or doubled; a doubling
  // factor past 2^62 would not fit the int64 it is computed in.
  const std::int64_t budget = util::Duration::max().ns() / 2;
  std::int64_t total = 0;
  std::int64_t wait = cfg.retry_backoff.ns();
  for (std::size_t n = 0; n < cfg.max_install_retries; ++n) {
    if (n > 62 || wait > budget - total) {
      reject_field("max_install_retries",
                   "with retry_backoff: total backoff retry_backoff * "
                   "(2^max_install_retries - 1) exceeds half of "
                   "Duration::max()");
    }
    total += wait;
    wait *= 2;
  }
  return cfg;
}

}  // namespace

Controller::Controller(sim::Simulation& sim, net::Fabric& fabric,
                       const net::Topology& topo, ControllerConfig cfg)
    : cfg_(validated(cfg)),
      sim_(&sim),
      fabric_(&fabric),
      topo_(&topo),
      // Pairs Yen-compute on first query, so warehouse-scale topologies
      // don't pay a full cold build at startup. The routing suites check
      // every pair against direct k_shortest_paths calls
      // (tests/net/routing_oracle.hpp). Throws on k_paths == 0.
      routing_(topo, cfg.k_paths),
      ecmp_(routing_),
      rule_rows_(topo.hosts().size() * topo.hosts().size(), kNoRule),
      table_occupancy_(topo.node_count(), 0),
      table_listed_(topo.node_count(), 0),
      snapshot_load_bps_(topo.link_count(), 0.0),
      snapshot_shuffle_bps_(topo.link_count(), 0.0),
      flow_mod_channel_(sim, "sdn.flow_mod", cfg.flow_mod_channel) {
  for (const net::Node& n : topo.nodes()) {
    racks_ = std::max(racks_, static_cast<std::size_t>(n.rack + 1));
  }
}

std::uint32_t Controller::pair_row(net::NodeId a, net::NodeId b) const {
  const std::uint32_t ai = topo_->host_index(a);
  const std::uint32_t bi = topo_->host_index(b);
  if (ai == net::Topology::kNoHost || bi == net::Topology::kNoHost) {
    return kNoRule;
  }
  return static_cast<std::uint32_t>(ai * topo_->hosts().size() + bi);
}

std::uint64_t Controller::row_key(std::uint32_t row) const {
  const std::vector<net::NodeId>& hosts = topo_->hosts();
  return pair_key(hosts[row / hosts.size()], hosts[row % hosts.size()]);
}

Controller::PendingRule* Controller::rule_at(std::uint32_t row) {
  const std::uint32_t index = rule_rows_[row];
  return index == kNoRule ? nullptr : &rules_[index];
}

const Controller::PendingRule* Controller::rule_at(std::uint32_t row) const {
  const std::uint32_t index = rule_rows_[row];
  return index == kNoRule ? nullptr : &rules_[index];
}

void Controller::refresh_snapshot_if_stale() const {
  const util::SimTime now = sim_->now();
  if (snapshot_at_.ns() >= 0 && now - snapshot_at_ < cfg_.link_stats_period) {
    return;
  }
  for (std::size_t l = 0; l < snapshot_load_bps_.size(); ++l) {
    const net::LinkId id{static_cast<std::uint32_t>(l)};
    snapshot_load_bps_[l] =
        fabric_->link_cbr_load(id).bps() + fabric_->link_elastic_rate(id).bps();
    snapshot_shuffle_bps_[l] =
        fabric_->link_class_rate(id, net::FlowClass::kShuffle).bps();
  }
  snapshot_at_ = now;
  ++stats_refreshes_;
}

util::BitsPerSec Controller::snapshot_load(net::LinkId l) const {
  refresh_snapshot_if_stale();
  return util::BitsPerSec{snapshot_load_bps_[l.value()]};
}

util::BitsPerSec Controller::snapshot_background_load(net::LinkId l) const {
  refresh_snapshot_if_stale();
  return util::BitsPerSec{std::max(
      0.0, snapshot_load_bps_[l.value()] - snapshot_shuffle_bps_[l.value()])};
}

util::BitsPerSec Controller::snapshot_available(net::LinkId l) const {
  refresh_snapshot_if_stale();
  const double cap = topo_->link(l).capacity.bps();
  return util::BitsPerSec{std::max(0.0, cap - snapshot_load_bps_[l.value()])};
}

double Controller::snapshot_utilization(net::LinkId l) const {
  refresh_snapshot_if_stale();
  const double cap = topo_->link(l).capacity.bps();
  return std::clamp(snapshot_load_bps_[l.value()] / cap, 0.0, 1.0);
}

util::BitsPerSec Controller::snapshot_path_available(
    net::PathView path) const {
  double avail = std::numeric_limits<double>::infinity();
  for (net::LinkId l : path) {
    avail = std::min(avail, snapshot_available(l).bps());
  }
  return util::BitsPerSec{std::isfinite(avail) ? avail : 0.0};
}

net::PathView Controller::resolve(net::NodeId src_host,
                                  net::NodeId dst_host,
                                  const net::FiveTuple& tuple) const {
  if (const PathRule* rule = active_rule(src_host, dst_host)) {
    return routing_.path(rule->path_id);
  }
  if (const auto rack = compose_rack_path(src_host, dst_host)) return *rack;
  return ecmp_.select(src_host, dst_host, tuple);
}

void Controller::install_rack_path(int src_rack, int dst_rack,
                                   net::Path chain) {
  assert(src_rack >= 0 && dst_rack >= 0 && src_rack != dst_rack);
  assert(static_cast<std::size_t>(std::max(src_rack, dst_rack)) < racks_ &&
         "rack rules join racks of the topology");
  if (std::min(src_rack, dst_rack) < 0 ||
      std::max(src_rack, dst_rack) >= static_cast<int>(racks_)) {
    return;
  }
  const std::size_t row =
      static_cast<std::size_t>(src_rack) * racks_ +
      static_cast<std::size_t>(dst_rack);
  const util::SimTime now = sim_->now();

  for (net::LinkId l : chain.links) {
    if (failed_links_.contains(l)) return;  // stale request, see install_path
  }
  PendingRackRule pending;
  pending.src_rack = src_rack;
  pending.dst_rack = dst_rack;
  pending.chain = std::move(chain);
  pending.active_at = now + cfg_.rule_install_latency;
  // One wildcard flow-mod per switch on the chain plus the source ToR —
  // this rule covers *every* server pair between the racks.
  std::uint64_t mods = 0;
  for (net::LinkId l : pending.chain.links) {
    if (topo_->node(topo_->link(l).src).kind == net::NodeKind::kSwitch) {
      ++mods;
    }
  }
  flow_mods_ += std::max<std::uint64_t>(mods, 1);
  ++rules_installed_;
  if (rack_rules_.empty()) rack_rules_.resize(racks_ * racks_);
  rack_rules_[row] = std::move(pending);

  sim_->after(cfg_.rule_install_latency,
              [this, row] { activate_rack_rule(row); });
}

void Controller::activate_rack_rule(std::size_t row) {
  std::optional<PendingRackRule>& rule = rack_rules_[row];
  if (!rule) return;
  PendingRackRule& pending = *rule;
  if (sim_->now() < pending.active_at) return;  // superseded install
  pending.active = true;

  if (cfg_.reroute_active_flows_on_install) {
    for (net::FlowId fid : fabric_->active_flows()) {
      const net::Flow& f = fabric_->flow(fid);
      if (f.spec.cls != net::FlowClass::kShuffle) continue;
      if (topo_->node(f.spec.src).rack != pending.src_rack ||
          topo_->node(f.spec.dst).rack != pending.dst_rack) {
        continue;
      }
      if (active_rule(f.spec.src, f.spec.dst) != nullptr) continue;
      if (const auto p = compose_rack_path(f.spec.src, f.spec.dst)) {
        if (*p != f.spec.path) fabric_->reroute_flow(fid, p->to_vector());
      }
    }
  }
}

const net::Path* Controller::active_rack_chain(int src_rack,
                                               int dst_rack) const {
  if (src_rack < 0 || dst_rack < 0 || rack_rules_.empty() ||
      std::max(src_rack, dst_rack) >= static_cast<int>(racks_)) {
    return nullptr;
  }
  const auto& rule = rack_rules_[static_cast<std::size_t>(src_rack) * racks_ +
                                 static_cast<std::size_t>(dst_rack)];
  if (!rule || !rule->active) return nullptr;
  return &rule->chain;
}

std::optional<net::PathView> Controller::compose_rack_path(
    net::NodeId src_host, net::NodeId dst_host) const {
  const int src_rack = topo_->node(src_host).rack;
  const int dst_rack = topo_->node(dst_host).rack;
  if (src_rack < 0 || dst_rack < 0 || src_rack == dst_rack) {
    return std::nullopt;
  }
  const net::Path* chain = active_rack_chain(src_rack, dst_rack);
  if (chain == nullptr || chain->links.empty()) return std::nullopt;

  // host -> ToR access link, the chain, ToR -> host access link. The access
  // links join their hosts by construction, so the whole path connects the
  // hosts iff the chain runs from the source's ToR to the destination's.
  const auto& up = topo_->out_links(src_host);
  assert(up.size() == 1 && "hosts are single-homed in the builders");
  const net::NodeId src_tor = topo_->link(up.front()).dst;
  const net::NodeId dst_tor = topo_->link(chain->links.back()).dst;
  const auto down = topo_->find_link(dst_tor, dst_host);
  if (!down.has_value()) return std::nullopt;  // chain ends at the wrong ToR
  if (!topo_->validate_path(src_tor, dst_tor, chain->links)) {
    return std::nullopt;
  }
  return net::PathView(up.front(), chain->links, *down);
}

std::uint64_t Controller::switch_hops(net::PathView path) const {
  std::uint64_t hops = 0;
  for (net::LinkId l : path) {
    if (topo_->node(topo_->link(l).src).kind == net::NodeKind::kSwitch) {
      ++hops;
    }
  }
  return hops;
}

void Controller::erase_rule(std::size_t index) {
  PendingRule& gone = rules_[index];
  for (net::LinkId l : routing_.path(gone.rule.path_id)) {
    const net::NodeId sw = topo_->link(l).src;
    if (topo_->node(sw).kind != net::NodeKind::kSwitch) continue;
    std::size_t& occupancy = table_occupancy_[sw.value()];
    if (occupancy > 0) --occupancy;
  }
  rule_rows_[gone.row] = kNoRule;
  if (index + 1 != rules_.size()) {
    gone = std::move(rules_.back());
    rule_rows_[gone.row] = static_cast<std::uint32_t>(index);
  }
  rules_.pop_back();
}

std::size_t Controller::table_occupancy(net::NodeId switch_node) const {
  return switch_node.value() < table_occupancy_.size()
             ? table_occupancy_[switch_node.value()]
             : 0;
}

std::size_t& Controller::list_table(net::NodeId sw) {
  table_listed_[sw.value()] = 1;
  return table_occupancy_[sw.value()];
}

bool Controller::admit_to_tables(net::PathView path,
                                 util::Bytes volume_hint) {
  if (cfg_.flow_table_capacity == 0) return true;
  for (net::LinkId l : path) {
    const net::NodeId sw = topo_->link(l).src;
    if (topo_->node(sw).kind != net::NodeKind::kSwitch) continue;
    while (list_table(sw) >= cfg_.flow_table_capacity) {
      // Evict the smallest-volume rule holding an entry on this switch — but
      // only if the newcomer is strictly larger; otherwise refuse it. Ties go
      // to the lower row, which is the lower pair key, so the victim is
      // unique whatever order rules_ is in.
      std::size_t victim = rules_.size();
      for (std::size_t i = 0; i < rules_.size(); ++i) {
        const PendingRule& r = rules_[i];
        const net::PathView links = routing_.path(r.rule.path_id);
        const bool occupies =
            std::any_of(links.begin(), links.end(), [&](net::LinkId rl) {
              return topo_->link(rl).src == sw;
            });
        if (!occupies) continue;
        if (victim == rules_.size() ||
            r.volume_hint < rules_[victim].volume_hint ||
            (r.volume_hint == rules_[victim].volume_hint &&
             r.row < rules_[victim].row)) {
          victim = i;
        }
      }
      if (victim == rules_.size() ||
          rules_[victim].volume_hint >= volume_hint) {
        ++table_rejects_;
        return false;
      }
      ++evictions_;
      // The victim's install attempt may still be deferred in an open batch;
      // serially it was attempted at its own install time, before this
      // eviction. Flush first so the attempt (and every deferred one before
      // it, in insertion order) happens exactly as the serial arm did it —
      // erasing an unattempted rule would drop its counters and RNG draws.
      if (batch_open_) {
        const std::uint32_t vrow = rules_[victim].row;
        if (std::any_of(batch_pending_.begin(), batch_pending_.end(),
                        [vrow](const auto& p) { return p.first == vrow; })) {
          flush_install_batch();
          victim = rule_rows_[vrow];
          if (victim == kNoRule) continue;  // flushed away; rescan
        }
      }
      erase_rule(victim);
    }
  }
  return true;
}

bool Controller::install_path_id(net::NodeId src_host, net::NodeId dst_host,
                                 net::PathId path_id,
                                 util::Bytes volume_hint,
                                 std::uint64_t intent_weight) {
  const net::PathView path = routing_.path(path_id);
  assert(topo_->validate_path(src_host, dst_host, path.to_vector()));
  const std::uint32_t row = pair_row(src_host, dst_host);
  assert(row != kNoRule && "rules join two hosts");
  if (row == kNoRule) return false;
  // Refuse rules over failed links: the requester is working from stale
  // state; traffic stays on ECMP over the rebuilt routing graph instead.
  for (net::LinkId l : path) {
    if (failed_links_.contains(l)) return false;
  }
  const util::SimTime now = sim_->now();

  // A re-install supersedes any previous rule for the pair (and releases its
  // table entries before the admission check). If the superseded rule's
  // install attempt is still deferred in an open batch, flush the batch
  // first — the serial order is "attempt old rule, then install new rule",
  // and skipping the old attempt would shift every later RNG draw.
  if (batch_open_ &&
      std::any_of(batch_pending_.begin(), batch_pending_.end(),
                  [row](const auto& p) { return p.first == row; })) {
    flush_install_batch();
  }
  if (rule_rows_[row] != kNoRule) erase_rule(rule_rows_[row]);
  if (!admit_to_tables(path, volume_hint)) {
    table_reject_intents_ += intent_weight;
    return false;
  }

  PendingRule pending;
  pending.rule = PathRule{src_host, dst_host, path_id, now,
                          now + cfg_.rule_install_latency};
  pending.active = false;
  pending.volume_hint = volume_hint;
  pending.epoch = ++install_epoch_;
  pending.intent_weight = intent_weight;
  pending.row = row;
  for (net::LinkId l : path) {
    const net::NodeId sw = topo_->link(l).src;
    if (topo_->node(sw).kind == net::NodeKind::kSwitch) ++list_table(sw);
  }
  ++rules_installed_;
  const std::uint64_t epoch = pending.epoch;
  rule_rows_[row] = static_cast<std::uint32_t>(rules_.size());
  rules_.push_back(pending);
  if (batch_open_) {
    batch_pending_.emplace_back(row, epoch);
  } else {
    attempt_install(row);
  }
  return true;
}

void Controller::begin_install_batch() {
  assert(!batch_open_);
  batch_open_ = true;
}

void Controller::flush_install_batch() {
  for (std::size_t i = 0; i < batch_pending_.size(); ++i) {
    const auto [row, epoch] = batch_pending_[i];
    const PendingRule* rule = rule_at(row);
    // Superseded or removed while deferred: its replacement carries its own
    // batch entry (or was installed unbatched after a flush).
    if (rule == nullptr || rule->epoch != epoch) continue;
    attempt_install(row);
  }
  batch_pending_.clear();
}

void Controller::commit_install_batch() {
  assert(batch_open_);
  flush_install_batch();
  batch_open_ = false;
}

void Controller::attempt_install(std::uint32_t row) {
  PendingRule* pending = rule_at(row);
  if (pending == nullptr) return;
  const std::uint64_t epoch = pending->epoch;
  const std::size_t attempt = pending->attempt;
  ++install_attempts_;
  install_attempt_intents_ += pending->intent_weight;

  if (cfg_.install_reject_probability > 0.0 &&
      sim_->rng("sdn.install").uniform01() < cfg_.install_reject_probability) {
    ++install_rejects_;
    install_reject_intents_ += pending->intent_weight;
    fail_attempt(row);
    return;
  }

  // One flow-mod per switch hop, re-sent on every attempt.
  flow_mods_ += std::max<std::uint64_t>(
      switch_hops(routing_.path(pending->rule.path_id)), 1);
  flow_mod_channel_.send([this, row, epoch, attempt] {
    PendingRule* cur = rule_at(row);
    if (cur == nullptr || cur->epoch != epoch || cur->attempt != attempt ||
        cur->confirmed) {
      return;  // superseded, removed, or a duplicate delivery
    }
    cur->confirmed = true;
    cur->rule.active_at = sim_->now() + cfg_.rule_install_latency;
    sim_->after(cfg_.rule_install_latency,
                [this, row, epoch] { activate_rule(row, epoch); });
  });

  if (!flow_mod_channel_.transparent()) {
    // Lost-flow-mod detection: if the switch has not confirmed by the
    // timeout, declare the message lost and retry. (Skipped entirely for a
    // transparent channel so fault-free runs schedule no extra events.)
    sim_->after(cfg_.install_timeout, [this, row, epoch, attempt] {
      const PendingRule* cur = rule_at(row);
      if (cur == nullptr || cur->epoch != epoch || cur->attempt != attempt ||
          cur->confirmed) {
        return;
      }
      ++install_timeouts_;
      install_timeout_intents_ += cur->intent_weight;
      fail_attempt(row);
    });
  }
}

void Controller::fail_attempt(std::uint32_t row) {
  PendingRule* pending = rule_at(row);
  if (pending == nullptr) return;
  if (pending->attempt >= cfg_.max_install_retries) {
    ++installs_abandoned_;
    erase_rule(rule_rows_[row]);  // the aggregate stays on ECMP
    return;
  }
  ++pending->attempt;
  ++install_retries_;
  const util::Duration backoff =
      cfg_.retry_backoff * (std::int64_t{1} << (pending->attempt - 1));
  const std::uint64_t epoch = pending->epoch;
  const std::size_t attempt = pending->attempt;
  sim_->after(backoff, [this, row, epoch, attempt] {
    const PendingRule* cur = rule_at(row);
    if (cur == nullptr || cur->epoch != epoch || cur->attempt != attempt ||
        cur->confirmed) {
      return;
    }
    attempt_install(row);
  });
}

std::size_t Controller::clear_host_rules() {
  const std::size_t cleared = rules_.size();
  rules_cleared_ += cleared;
  if (cfg_.reroute_active_flows_on_install && cleared > 0) {
    // Complete the fallback: flows already steered onto rule paths go back
    // to their ECMP assignment, leaving the fabric as pure ECMP would have
    // routed it.
    for (net::FlowId fid : fabric_->active_flows()) {
      const net::Flow& f = fabric_->flow(fid);
      if (f.spec.cls != net::FlowClass::kShuffle) continue;
      const PathRule* rule = active_rule(f.spec.src, f.spec.dst);
      if (rule == nullptr || routing_.path(rule->path_id) != f.spec.path) {
        continue;
      }
      const net::PathView p =
          ecmp_.select(f.spec.src, f.spec.dst, f.spec.tuple);
      if (p != f.spec.path) fabric_->reroute_flow(fid, p.to_vector());
    }
  }
  for (const PendingRule& r : rules_) rule_rows_[r.row] = kNoRule;
  rules_.clear();
  std::fill(table_occupancy_.begin(), table_occupancy_.end(), 0);
  std::fill(table_listed_.begin(), table_listed_.end(), 0);
  return cleared;
}

void Controller::activate_rule(std::uint32_t row, std::uint64_t epoch) {
  PendingRule* pending = rule_at(row);
  if (pending == nullptr) return;  // removed while pending
  if (pending->epoch != epoch) return;  // superseded install
  if (sim_->now() < pending->rule.active_at) return;
  pending->active = true;
  // Copied: the reroutes below must not hold a reference into the rule
  // slab, which moves on any install or removal.
  const PathRule rule = pending->rule;

  if (cfg_.reroute_active_flows_on_install) {
    // Move in-flight flows of this aggregate onto the rule's path.
    for (net::FlowId fid : fabric_->active_flows()) {
      const net::Flow& f = fabric_->flow(fid);
      if (f.spec.src != rule.src_host || f.spec.dst != rule.dst_host ||
          f.spec.cls != net::FlowClass::kShuffle) {
        continue;
      }
      const net::PathView path = routing_.path(rule.path_id);
      if (path != f.spec.path) fabric_->reroute_flow(fid, path.to_vector());
    }
  }
  PYTHIA_LOG(kDebug, "sdn") << "rule active for pair ("
                            << rule.src_host.value() << " -> "
                            << rule.dst_host.value() << ")";
}

const PathRule* Controller::active_rule(net::NodeId src_host,
                                        net::NodeId dst_host) const {
  const std::uint32_t row = pair_row(src_host, dst_host);
  const PendingRule* rule = row == kNoRule ? nullptr : rule_at(row);
  if (rule == nullptr || !rule->active) return nullptr;
  return &rule->rule;
}

void Controller::remove_rule(net::NodeId src_host, net::NodeId dst_host) {
  const std::uint32_t row = pair_row(src_host, dst_host);
  if (row != kNoRule && rule_rows_[row] != kNoRule) {
    erase_rule(rule_rows_[row]);
  }
}

namespace {
/// The opposite direction of a duplex cable, if present.
std::optional<net::LinkId> duplex_peer(const net::Topology& topo,
                                       net::LinkId l) {
  const auto& link = topo.link(l);
  return topo.find_link(link.dst, link.src);
}
}  // namespace

void Controller::handle_link_failure(net::LinkId l) {
  // A cable failure takes both directions down.
  std::vector<net::LinkId> down{l};
  if (const auto peer = duplex_peer(*topo_, l)) down.push_back(*peer);

  for (net::LinkId d : down) {
    if (!failed_links_.insert(d).second) continue;
    fabric_->fail_link(d);
  }
  routing_.rebuild(failed_links_);
  ++topology_rebuilds_;

  // Purge forwarding rules (host-pair and rack wildcards) that traverse a
  // dead link; traffic falls back to ECMP over the rebuilt path set until an
  // app reinstalls. Each rule's fate depends only on failed_links_.
  const auto dead = [this](net::PathView path) {
    return std::any_of(path.begin(), path.end(), [this](net::LinkId pl) {
      return failed_links_.contains(pl);
    });
  };
  for (std::size_t i = 0; i < rules_.size();) {
    if (dead(routing_.path(rules_[i].rule.path_id))) {
      erase_rule(i);  // moves the last rule into i
    } else {
      ++i;
    }
  }
  for (std::optional<PendingRackRule>& rule : rack_rules_) {
    if (rule && dead(rule->chain)) rule.reset();
  }

  // Reroute stranded in-flight flows (their TCP connections would retransmit
  // onto the re-converged forwarding state).
  for (net::LinkId d : down) {
    for (net::FlowId fid : fabric_->flows_crossing(d)) {
      const net::Flow& f = fabric_->flow(fid);
      const auto& candidates = routing_.paths(f.spec.src, f.spec.dst);
      if (candidates.empty()) continue;  // disconnected: stays stalled
      fabric_->reroute_flow(
          fid, ecmp_.select(f.spec.src, f.spec.dst, f.spec.tuple).to_vector());
    }
  }
  PYTHIA_LOG(kInfo, "sdn") << "link " << l.value()
                           << " failed; routing graph rebuilt";
}

void Controller::handle_switch_failure(net::NodeId switch_node) {
  assert(topo_->node(switch_node).kind == net::NodeKind::kSwitch);
  // Every adjacent link dies; handle_link_failure on each egress also takes
  // the ingress twin down via the duplex pairing.
  for (net::LinkId l : topo_->out_links(switch_node)) {
    handle_link_failure(l);
  }
}

void Controller::handle_switch_restore(net::NodeId switch_node) {
  assert(topo_->node(switch_node).kind == net::NodeKind::kSwitch);
  for (net::LinkId l : topo_->out_links(switch_node)) {
    handle_link_restore(l);
  }
}

void Controller::handle_link_restore(net::LinkId l) {
  std::vector<net::LinkId> up{l};
  if (const auto peer = duplex_peer(*topo_, l)) up.push_back(*peer);
  bool changed = false;
  for (net::LinkId u : up) {
    if (failed_links_.erase(u) > 0) {
      fabric_->restore_link(u);
      changed = true;
    }
  }
  if (changed) {
    routing_.rebuild(failed_links_);
    ++topology_rebuilds_;
  }
}

void Controller::encode_state(sim::StateEncoder& enc) const {
  // Rows walk host pairs, switches and rack pairs in ascending id, the order
  // the encoded keys sort in.
  enc.put_u32(static_cast<std::uint32_t>(rules_.size()));
  for (const std::uint32_t index : rule_rows_) {
    if (index == kNoRule) continue;
    const PendingRule& pr = rules_[index];
    enc.put_u64(pair_key(pr.rule.src_host, pr.rule.dst_host));
    // The rule's path as its link chain, not the raw pool id: interning
    // order (and therefore id values) tracks query order in the lazy
    // routing graph, while the chain is pure behavior.
    const net::PathView path = routing_.path(pr.rule.path_id);
    enc.put_u32(static_cast<std::uint32_t>(path.size()));
    for (net::LinkId l : path) enc.put_u32(l.value());
    enc.put_bool(pr.active);
    enc.put_bool(pr.confirmed);
    enc.put_u64(static_cast<std::uint64_t>(pr.attempt));
    enc.put_u64(pr.epoch);
    enc.put_time(pr.rule.requested_at);
    enc.put_time(pr.rule.active_at);
    enc.put_i64(pr.volume_hint.count());
    enc.put_u64(pr.intent_weight);
  }

  enc.put_u32(static_cast<std::uint32_t>(
      std::count(table_listed_.begin(), table_listed_.end(), 1)));
  for (std::uint32_t sw = 0; sw < table_listed_.size(); ++sw) {
    if (table_listed_[sw] == 0) continue;
    enc.put_u32(sw);
    enc.put_u64(table_occupancy_[sw]);
  }

  const auto installed = [](const std::optional<PendingRackRule>& r) {
    return r.has_value();
  };
  enc.put_u32(static_cast<std::uint32_t>(
      std::count_if(rack_rules_.begin(), rack_rules_.end(), installed)));
  for (const std::optional<PendingRackRule>& rr : rack_rules_) {
    if (!rr) continue;
    enc.put_u64(rack_key(rr->src_rack, rr->dst_rack));
    enc.put_u32(static_cast<std::uint32_t>(rr->chain.links.size()));
    for (net::LinkId l : rr->chain.links) enc.put_u32(l.value());
    enc.put_time(rr->active_at);
    enc.put_bool(rr->active);
  }

  // A membership scan over link ids, so the order never depends on the
  // hash set's.
  enc.put_u32(static_cast<std::uint32_t>(failed_links_.size()));
  for (std::uint32_t l = 0; l < topo_->link_count(); ++l) {
    if (failed_links_.contains(net::LinkId{l})) enc.put_u32(l);
  }

  // Sample-and-hold link-load snapshot: refreshed lazily from queries, so
  // it is genuine state (two runs that queried at different times hold
  // different images). Encoded raw — no refresh is triggered here.
  enc.put_time(snapshot_at_);
  enc.put_u64(stats_refreshes_);
  enc.put_u32(static_cast<std::uint32_t>(snapshot_load_bps_.size()));
  for (double v : snapshot_load_bps_) enc.put_f64(v);
  for (double v : snapshot_shuffle_bps_) enc.put_f64(v);

  enc.put_u64(topology_rebuilds_);
  enc.put_u64(rules_installed_);
  enc.put_u64(flow_mods_);
  enc.put_u64(install_epoch_);
  enc.put_u64(install_attempts_);
  enc.put_u64(install_rejects_);
  enc.put_u64(install_timeouts_);
  enc.put_u64(install_retries_);
  enc.put_u64(installs_abandoned_);
  enc.put_u64(evictions_);
  enc.put_u64(table_rejects_);
  enc.put_u64(rules_cleared_);
  enc.put_u64(install_attempt_intents_);
  enc.put_u64(install_reject_intents_);
  enc.put_u64(install_timeout_intents_);
  enc.put_u64(table_reject_intents_);

  // Open-batch state (empty outside a cohort drain; encoded for capture-
  // anywhere completeness).
  enc.put_bool(batch_open_);
  enc.put_u32(static_cast<std::uint32_t>(batch_pending_.size()));
  for (const auto& [row, epoch] : batch_pending_) {
    enc.put_u64(row_key(row));
    enc.put_u64(epoch);
  }

  flow_mod_channel_.encode_state(enc);
}

}  // namespace pythia::sdn
