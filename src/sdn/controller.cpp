#include "sdn/controller.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "sim/snapshot.hpp"
#include "util/log.hpp"

namespace pythia::sdn {

Controller::Controller(sim::Simulation& sim, net::Fabric& fabric,
                       const net::Topology& topo, ControllerConfig cfg)
    : sim_(&sim),
      fabric_(&fabric),
      topo_(&topo),
      cfg_(cfg),
      // Pairs Yen-compute on first query, so warehouse-scale topologies
      // don't pay a full cold build at startup. The routing suites check
      // every pair against direct k_shortest_paths calls
      // (tests/net/routing_oracle.hpp). Throws on k_paths == 0.
      routing_(topo, cfg.k_paths),
      ecmp_(routing_),
      snapshot_load_bps_(topo.link_count(), 0.0),
      snapshot_shuffle_bps_(topo.link_count(), 0.0),
      flow_mod_channel_(sim, "sdn.flow_mod", cfg.flow_mod_channel) {}

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
    const net::Path& path) const {
  double avail = std::numeric_limits<double>::infinity();
  for (net::LinkId l : path.links) {
    avail = std::min(avail, snapshot_available(l).bps());
  }
  return util::BitsPerSec{std::isfinite(avail) ? avail : 0.0};
}

const net::Path& Controller::resolve(net::NodeId src_host,
                                     net::NodeId dst_host,
                                     const net::FiveTuple& tuple) const {
  if (const PathRule* rule = active_rule(src_host, dst_host)) {
    return *rule->path;
  }
  if (const net::Path* rack = compose_rack_path(src_host, dst_host)) {
    return *rack;
  }
  return ecmp_.select(src_host, dst_host, tuple);
}

void Controller::install_rack_path(int src_rack, int dst_rack,
                                   net::Path chain) {
  assert(src_rack >= 0 && dst_rack >= 0 && src_rack != dst_rack);
  const std::uint64_t key = rack_key(src_rack, dst_rack);
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
  rack_rules_[key] = std::move(pending);
  rack_path_cache_.clear();  // composed paths may change

  sim_->after(cfg_.rule_install_latency,
              [this, key] { activate_rack_rule(key); });
}

void Controller::activate_rack_rule(std::uint64_t key) {
  auto it = rack_rules_.find(key);
  if (it == rack_rules_.end()) return;
  PendingRackRule& pending = it->second;
  if (sim_->now() < pending.active_at) return;  // superseded install
  pending.active = true;
  rack_path_cache_.clear();

  if (cfg_.reroute_active_flows_on_install) {
    for (net::FlowId fid : fabric_->active_flows()) {
      const net::Flow& f = fabric_->flow(fid);
      if (f.spec.cls != net::FlowClass::kShuffle) continue;
      if (topo_->node(f.spec.src).rack != pending.src_rack ||
          topo_->node(f.spec.dst).rack != pending.dst_rack) {
        continue;
      }
      if (active_rule(f.spec.src, f.spec.dst) != nullptr) continue;
      if (const net::Path* p = compose_rack_path(f.spec.src, f.spec.dst)) {
        if (f.spec.path != p->links) fabric_->reroute_flow(fid, p->links);
      }
    }
  }
}

const net::Path* Controller::active_rack_chain(int src_rack,
                                               int dst_rack) const {
  const auto it = rack_rules_.find(rack_key(src_rack, dst_rack));
  if (it == rack_rules_.end() || !it->second.active) return nullptr;
  return &it->second.chain;
}

const net::Path* Controller::compose_rack_path(net::NodeId src_host,
                                               net::NodeId dst_host) const {
  const int src_rack = topo_->node(src_host).rack;
  const int dst_rack = topo_->node(dst_host).rack;
  if (src_rack < 0 || dst_rack < 0 || src_rack == dst_rack) return nullptr;
  const net::Path* chain = active_rack_chain(src_rack, dst_rack);
  if (chain == nullptr || chain->links.empty()) return nullptr;

  const std::uint64_t key = pair_key(src_host, dst_host);
  if (const auto cached = rack_path_cache_.find(key);
      cached != rack_path_cache_.end()) {
    return &cached->second;
  }
  // host -> ToR access link, the chain, ToR -> host access link.
  const auto& up = topo_->out_links(src_host);
  assert(up.size() == 1 && "hosts are single-homed in the builders");
  const net::NodeId dst_tor = topo_->link(chain->links.back()).dst;
  const auto down = topo_->find_link(dst_tor, dst_host);
  if (!down.has_value()) return nullptr;  // chain ends at the wrong ToR

  net::Path full;
  full.links.reserve(chain->links.size() + 2);
  full.links.push_back(up.front());
  full.links.insert(full.links.end(), chain->links.begin(),
                    chain->links.end());
  full.links.push_back(*down);
  if (!topo_->validate_path(src_host, dst_host, full.links)) return nullptr;
  auto [slot, _] = rack_path_cache_.emplace(key, std::move(full));
  return &slot->second;
}

std::uint64_t Controller::switch_hops(const net::Path& path) const {
  std::uint64_t hops = 0;
  for (net::LinkId l : path.links) {
    if (topo_->node(topo_->link(l).src).kind == net::NodeKind::kSwitch) {
      ++hops;
    }
  }
  return hops;
}

Controller::RuleMap::iterator Controller::erase_rule(RuleMap::iterator it) {
  for (net::LinkId l : it->second.rule.path->links) {
    const net::NodeId sw = topo_->link(l).src;
    if (topo_->node(sw).kind != net::NodeKind::kSwitch) continue;
    const auto occ = table_occupancy_.find(sw.value());
    if (occ != table_occupancy_.end() && occ->second > 0) --occ->second;
  }
  return rules_.erase(it);
}

std::size_t Controller::table_occupancy(net::NodeId switch_node) const {
  const auto it = table_occupancy_.find(switch_node.value());
  return it == table_occupancy_.end() ? 0 : it->second;
}

bool Controller::admit_to_tables(const net::Path& path,
                                 util::Bytes volume_hint) {
  if (cfg_.flow_table_capacity == 0) return true;
  for (net::LinkId l : path.links) {
    const net::NodeId sw = topo_->link(l).src;
    if (topo_->node(sw).kind != net::NodeKind::kSwitch) continue;
    while (table_occupancy_[sw.value()] >= cfg_.flow_table_capacity) {
      // Evict the smallest-volume rule holding an entry on this switch — but
      // only if the newcomer is strictly larger; otherwise refuse it.
      auto victim = rules_.end();
      // pythia-lint: allow(unordered-iter) min scan with a total-order key
      // tie-break; the victim is unique whatever the visit order
      for (auto it = rules_.begin(); it != rules_.end(); ++it) {
        const auto& links = it->second.rule.path->links;
        const bool occupies =
            std::any_of(links.begin(), links.end(), [&](net::LinkId rl) {
              return topo_->link(rl).src == sw;
            });
        if (!occupies) continue;
        if (victim == rules_.end() ||
            it->second.volume_hint < victim->second.volume_hint ||
            (it->second.volume_hint == victim->second.volume_hint &&
             it->first < victim->first)) {
          victim = it;
        }
      }
      if (victim == rules_.end() || victim->second.volume_hint >= volume_hint) {
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
        const std::uint64_t vkey = victim->first;
        if (std::any_of(batch_pending_.begin(), batch_pending_.end(),
                        [vkey](const auto& p) { return p.first == vkey; })) {
          flush_install_batch();
          victim = rules_.find(vkey);
          if (victim == rules_.end()) continue;  // flushed away; rescan
        }
      }
      erase_rule(victim);
    }
  }
  return true;
}

bool Controller::install_path(net::NodeId src_host, net::NodeId dst_host,
                              net::Path path, util::Bytes volume_hint) {
  // Interning is idempotent: a path already known to the pool (the common
  // case — candidates come from the routing table) resolves to its id
  // without copying.
  return install_path_id(src_host, dst_host, routing_.intern(std::move(path)),
                         volume_hint);
}

bool Controller::install_path_id(net::NodeId src_host, net::NodeId dst_host,
                                 net::PathId path_id,
                                 util::Bytes volume_hint,
                                 std::uint64_t intent_weight) {
  const net::Path& path = routing_.path(path_id);
  assert(topo_->validate_path(src_host, dst_host, path.links));
  // Refuse rules over failed links: the requester is working from stale
  // state; traffic stays on ECMP over the rebuilt routing graph instead.
  for (net::LinkId l : path.links) {
    if (failed_links_.contains(l)) return false;
  }
  const std::uint64_t key = pair_key(src_host, dst_host);
  const util::SimTime now = sim_->now();

  // A re-install supersedes any previous rule for the pair (and releases its
  // table entries before the admission check). If the superseded rule's
  // install attempt is still deferred in an open batch, flush the batch
  // first — the serial order is "attempt old rule, then install new rule",
  // and skipping the old attempt would shift every later RNG draw.
  if (batch_open_ &&
      std::any_of(batch_pending_.begin(), batch_pending_.end(),
                  [key](const auto& p) { return p.first == key; })) {
    flush_install_batch();
  }
  if (auto existing = rules_.find(key); existing != rules_.end()) {
    erase_rule(existing);
  }
  if (!admit_to_tables(path, volume_hint)) {
    table_reject_intents_ += intent_weight;
    return false;
  }

  PendingRule pending;
  pending.rule = PathRule{src_host, dst_host, path_id, &path, now,
                          now + cfg_.rule_install_latency};
  pending.active = false;
  pending.volume_hint = volume_hint;
  pending.epoch = ++install_epoch_;
  pending.intent_weight = intent_weight;
  for (net::LinkId l : path.links) {
    const net::NodeId sw = topo_->link(l).src;
    if (topo_->node(sw).kind == net::NodeKind::kSwitch) {
      ++table_occupancy_[sw.value()];
    }
  }
  ++rules_installed_;
  const std::uint64_t epoch = pending.epoch;
  rules_[key] = std::move(pending);
  if (batch_open_) {
    batch_pending_.emplace_back(key, epoch);
  } else {
    attempt_install(key);
  }
  return true;
}

void Controller::begin_install_batch() {
  assert(!batch_open_);
  batch_open_ = true;
}

void Controller::flush_install_batch() {
  for (std::size_t i = 0; i < batch_pending_.size(); ++i) {
    const auto [key, epoch] = batch_pending_[i];
    const auto it = rules_.find(key);
    // Superseded or removed while deferred: its replacement carries its own
    // batch entry (or was installed unbatched after a flush).
    if (it == rules_.end() || it->second.epoch != epoch) continue;
    attempt_install(key);
  }
  batch_pending_.clear();
}

void Controller::commit_install_batch() {
  assert(batch_open_);
  flush_install_batch();
  batch_open_ = false;
}

void Controller::attempt_install(std::uint64_t key) {
  auto it = rules_.find(key);
  if (it == rules_.end()) return;
  PendingRule& pending = it->second;
  const std::uint64_t epoch = pending.epoch;
  const std::size_t attempt = pending.attempt;
  ++install_attempts_;
  install_attempt_intents_ += pending.intent_weight;

  if (cfg_.install_reject_probability > 0.0 &&
      sim_->rng("sdn.install").uniform01() < cfg_.install_reject_probability) {
    ++install_rejects_;
    install_reject_intents_ += pending.intent_weight;
    fail_attempt(key);
    return;
  }

  // One flow-mod per switch hop, re-sent on every attempt.
  flow_mods_ += std::max<std::uint64_t>(switch_hops(*pending.rule.path), 1);
  flow_mod_channel_.send([this, key, epoch, attempt] {
    auto cur = rules_.find(key);
    if (cur == rules_.end() || cur->second.epoch != epoch ||
        cur->second.attempt != attempt || cur->second.confirmed) {
      return;  // superseded, removed, or a duplicate delivery
    }
    cur->second.confirmed = true;
    cur->second.rule.active_at = sim_->now() + cfg_.rule_install_latency;
    sim_->after(cfg_.rule_install_latency,
                [this, key, epoch] { activate_rule(key, epoch); });
  });

  if (!flow_mod_channel_.transparent()) {
    // Lost-flow-mod detection: if the switch has not confirmed by the
    // timeout, declare the message lost and retry. (Skipped entirely for a
    // transparent channel so fault-free runs schedule no extra events.)
    sim_->after(cfg_.install_timeout, [this, key, epoch, attempt] {
      auto cur = rules_.find(key);
      if (cur == rules_.end() || cur->second.epoch != epoch ||
          cur->second.attempt != attempt || cur->second.confirmed) {
        return;
      }
      ++install_timeouts_;
      install_timeout_intents_ += cur->second.intent_weight;
      fail_attempt(key);
    });
  }
}

void Controller::fail_attempt(std::uint64_t key) {
  auto it = rules_.find(key);
  if (it == rules_.end()) return;
  PendingRule& pending = it->second;
  if (pending.attempt >= cfg_.max_install_retries) {
    ++installs_abandoned_;
    erase_rule(it);  // the aggregate stays on ECMP
    return;
  }
  ++pending.attempt;
  ++install_retries_;
  const util::Duration backoff =
      cfg_.retry_backoff * (std::int64_t{1} << (pending.attempt - 1));
  const std::uint64_t epoch = pending.epoch;
  const std::size_t attempt = pending.attempt;
  sim_->after(backoff, [this, key, epoch, attempt] {
    auto cur = rules_.find(key);
    if (cur == rules_.end() || cur->second.epoch != epoch ||
        cur->second.attempt != attempt || cur->second.confirmed) {
      return;
    }
    attempt_install(key);
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
      const auto it = rules_.find(pair_key(f.spec.src, f.spec.dst));
      if (it == rules_.end() || !it->second.active) continue;
      if (f.spec.path != it->second.rule.path->links) continue;
      const net::Path& p = ecmp_.select(f.spec.src, f.spec.dst, f.spec.tuple);
      if (f.spec.path != p.links) fabric_->reroute_flow(fid, p.links);
    }
  }
  rules_.clear();
  table_occupancy_.clear();
  return cleared;
}

void Controller::activate_rule(std::uint64_t key, std::uint64_t epoch) {
  auto it = rules_.find(key);
  if (it == rules_.end()) return;  // removed while pending
  PendingRule& pending = it->second;
  if (pending.epoch != epoch) return;             // superseded install
  if (sim_->now() < pending.rule.active_at) return;
  pending.active = true;

  if (cfg_.reroute_active_flows_on_install) {
    // Move in-flight flows of this aggregate onto the rule's path.
    for (net::FlowId fid : fabric_->active_flows()) {
      const net::Flow& f = fabric_->flow(fid);
      if (f.spec.src == pending.rule.src_host &&
          f.spec.dst == pending.rule.dst_host &&
          f.spec.cls == net::FlowClass::kShuffle &&
          f.spec.path != pending.rule.path->links) {
        fabric_->reroute_flow(fid, pending.rule.path->links);
      }
    }
  }
  PYTHIA_LOG(kDebug, "sdn") << "rule active for pair ("
                            << pending.rule.src_host.value() << " -> "
                            << pending.rule.dst_host.value() << ")";
}

const PathRule* Controller::active_rule(net::NodeId src_host,
                                        net::NodeId dst_host) const {
  const auto it = rules_.find(pair_key(src_host, dst_host));
  if (it == rules_.end() || !it->second.active) return nullptr;
  return &it->second.rule;
}

void Controller::remove_rule(net::NodeId src_host, net::NodeId dst_host) {
  const auto it = rules_.find(pair_key(src_host, dst_host));
  if (it != rules_.end()) erase_rule(it);
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
  // app reinstalls.
  // pythia-lint: allow(unordered-iter) pure filter: each rule's fate depends
  // only on failed_links_, so the surviving set is order-independent
  for (auto it = rules_.begin(); it != rules_.end();) {
    const auto& path = it->second.rule.path->links;
    const bool dead = std::any_of(path.begin(), path.end(),
                                  [this](net::LinkId pl) {
                                    return failed_links_.contains(pl);
                                  });
    it = dead ? erase_rule(it) : ++it;
  }
  // pythia-lint: allow(unordered-iter) pure filter, same argument as the
  // host-pair purge above
  for (auto it = rack_rules_.begin(); it != rack_rules_.end();) {
    const auto& chain = it->second.chain.links;
    const bool dead = std::any_of(chain.begin(), chain.end(),
                                  [this](net::LinkId pl) {
                                    return failed_links_.contains(pl);
                                  });
    it = dead ? rack_rules_.erase(it) : ++it;
  }
  rack_path_cache_.clear();

  // Reroute stranded in-flight flows (their TCP connections would retransmit
  // onto the re-converged forwarding state).
  for (net::LinkId d : down) {
    for (net::FlowId fid : fabric_->flows_crossing(d)) {
      const net::Flow& f = fabric_->flow(fid);
      const auto& candidates = routing_.paths(f.spec.src, f.spec.dst);
      if (candidates.empty()) continue;  // disconnected: stays stalled
      const net::Path& p = ecmp_.select(f.spec.src, f.spec.dst, f.spec.tuple);
      fabric_->reroute_flow(fid, p.links);
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
  std::vector<std::uint64_t> keys;
  keys.reserve(rules_.size());
  // pythia-lint: allow(unordered-iter) key collection only; sorted below
  for (const auto& [key, rule] : rules_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  enc.put_u32(static_cast<std::uint32_t>(keys.size()));
  for (std::uint64_t key : keys) {
    const PendingRule& pr = rules_.at(key);
    enc.put_u64(key);
    // The rule's path as its link chain, not the raw pool id: interning
    // order (and therefore id values) tracks query order in the lazy
    // routing graph, while the chain is pure behavior.
    enc.put_u32(static_cast<std::uint32_t>(pr.rule.path->links.size()));
    for (net::LinkId l : pr.rule.path->links) enc.put_u32(l.value());
    enc.put_bool(pr.active);
    enc.put_bool(pr.confirmed);
    enc.put_u64(static_cast<std::uint64_t>(pr.attempt));
    enc.put_u64(pr.epoch);
    enc.put_time(pr.rule.requested_at);
    enc.put_time(pr.rule.active_at);
    enc.put_i64(pr.volume_hint.count());
    enc.put_u64(pr.intent_weight);
  }

  std::vector<std::pair<std::uint32_t, std::uint64_t>> occupancy;
  occupancy.reserve(table_occupancy_.size());
  // pythia-lint: allow(unordered-iter) pair collection only; sorted below
  for (const auto& [sw, n] : table_occupancy_) occupancy.emplace_back(sw, n);
  std::sort(occupancy.begin(), occupancy.end());
  enc.put_u32(static_cast<std::uint32_t>(occupancy.size()));
  for (const auto& [sw, n] : occupancy) {
    enc.put_u32(sw);
    enc.put_u64(n);
  }

  std::vector<std::uint64_t> rack_keys;
  rack_keys.reserve(rack_rules_.size());
  // pythia-lint: allow(unordered-iter) key collection only; sorted below
  for (const auto& [key, rule] : rack_rules_) rack_keys.push_back(key);
  std::sort(rack_keys.begin(), rack_keys.end());
  enc.put_u32(static_cast<std::uint32_t>(rack_keys.size()));
  for (std::uint64_t key : rack_keys) {
    const PendingRackRule& rr = rack_rules_.at(key);
    enc.put_u64(key);
    enc.put_u32(static_cast<std::uint32_t>(rr.chain.links.size()));
    for (net::LinkId l : rr.chain.links) enc.put_u32(l.value());
    enc.put_time(rr.active_at);
    enc.put_bool(rr.active);
  }

  std::vector<std::uint32_t> failed;
  failed.reserve(failed_links_.size());
  // pythia-lint: allow(unordered-iter) key collection only; sorted below
  for (net::LinkId l : failed_links_) failed.push_back(l.value());
  std::sort(failed.begin(), failed.end());
  enc.put_u32(static_cast<std::uint32_t>(failed.size()));
  for (std::uint32_t l : failed) enc.put_u32(l);

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
  for (const auto& [key, epoch] : batch_pending_) {
    enc.put_u64(key);
    enc.put_u64(epoch);
  }

  flow_mod_channel_.encode_state(enc);
}

}  // namespace pythia::sdn
