#include "core/collector.hpp"

#include <algorithm>

#include "core/allocator.hpp"
#include "core/watchdog.hpp"
#include "net/topology.hpp"
#include "sim/snapshot.hpp"
#include "util/log.hpp"

namespace pythia::core {

Collector::Collector(sim::Simulation& sim, Allocator& allocator,
                     CollectorConfig cfg)
    : sim_(&sim), allocator_(&allocator), cfg_(cfg) {
  if (!cohort_mode()) return;
  std::size_t shard_count = cfg_.shard_count;
  if (shard_count == 0) {
    // One shard per host locality group (fat-tree pod / rack), the layout
    // that maps shards onto the collector replicas a real deployment would
    // run next to each pod.
    const net::Topology& topo = allocator_->controller().topology();
    std::vector<std::int32_t> groups;
    for (net::NodeId h : topo.hosts()) groups.push_back(topo.node_group(h));
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
    shard_count = std::max<std::size_t>(1, groups.size());
  }
  shards_ = std::make_unique<ShardedIntentQueue>(ShardedIntentQueue::Config{
      .shard_count = shard_count, .pod_capacity = cfg_.pod_queue_capacity});
  sim_->queue().set_cohort_hook([this] { drain_cohort(); });
}

Collector::~Collector() {
  if (shards_ != nullptr) sim_->queue().clear_cohort_hook();
}

void Collector::purge_expired() {
  if (cfg_.intent_ttl <= util::Duration::zero()) return;
  const util::SimTime now = sim_->now();
  if (now < next_expiry_) return;

  next_expiry_ = util::SimTime::max();
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    auto& held = it->second;
    std::erase_if(held, [&](const HeldIntent& h) {
      if (now - h.held_at >= cfg_.intent_ttl) {
        ++expired_;
        return true;
      }
      next_expiry_ = std::min(next_expiry_, h.held_at + cfg_.intent_ttl);
      return false;
    });
    it = held.empty() ? waiting_.erase(it) : ++it;
  }
}

void Collector::ingest(const ShuffleIntent& intent) {
  ++received_;
  if (watchdog_ != nullptr) watchdog_->note_notification(sim_->now());
  purge_expired();
  const ReducerKey key{intent.job_serial, intent.reduce_index};
  const auto located = reducer_location_.find(key);
  if (located == reducer_location_.end()) {
    // Destination unknown until the reducer initializes (paper §III).
    waiting_[key].push_back(HeldIntent{intent, sim_->now()});
    ++held_;
    if (cfg_.intent_ttl > util::Duration::zero()) {
      next_expiry_ = std::min(next_expiry_, sim_->now() + cfg_.intent_ttl);
    }
    return;
  }
  if (cohort_mode()) {
    admit_intent(intent, located->second, sim_->now());
  } else {
    enqueue_update(intent.src_server, located->second,
                   intent.predicted_wire_bytes);
  }
}

void Collector::reducer_located(std::size_t job_serial,
                                std::size_t reduce_index,
                                net::NodeId server) {
  if (watchdog_ != nullptr) watchdog_->note_notification(sim_->now());
  purge_expired();
  const ReducerKey key{job_serial, reduce_index};
  reducer_location_[key] = server;
  const auto it = waiting_.find(key);
  if (it == waiting_.end()) return;
  for (const auto& held : it->second) {
    if (cohort_mode()) {
      // The TTL horizon anchors at *arrival*: a resolved intent inherits
      // held_at + ttl as its expiry so a late reducer location cannot revive
      // an intent past its TTL (purge_expired above already dropped the
      // fully expired ones; the admitted horizon covers the drain edge).
      admit_intent(held.intent, server, held.held_at);
    } else {
      enqueue_update(held.intent.src_server, server,
                     held.intent.predicted_wire_bytes);
    }
  }
  waiting_.erase(it);
}

void Collector::job_completed(std::size_t job_serial) {
  const ReducerKey lo{job_serial, 0};
  const ReducerKey hi{job_serial + 1, 0};
  for (auto it = waiting_.lower_bound(lo);
       it != waiting_.end() && it->first.job_serial == job_serial;) {
    purged_on_completion_ += it->second.size();
    it = waiting_.erase(it);
  }
  reducer_location_.erase(reducer_location_.lower_bound(lo),
                          reducer_location_.lower_bound(hi));
  if (shards_ != nullptr) {
    // Queued-but-undrained intents die with the job: the transfers they
    // predicted will never start, so installing rules for them would only
    // occupy flow-table space.
    purged_on_completion_ += shards_->purge_job(job_serial);
  }
}

std::size_t Collector::intents_waiting() const {
  std::size_t total = 0;
  for (const auto& [_, held] : waiting_) total += held.size();
  return total;
}

std::size_t Collector::intents_queued() const {
  return shards_ == nullptr ? 0 : shards_->size();
}

std::uint64_t Collector::admission_refused() const {
  return shards_ == nullptr ? 0 : shards_->refused();
}

std::uint64_t Collector::admission_evicted() const {
  return shards_ == nullptr ? 0 : shards_->evicted();
}

const std::vector<PredictionPoint>& Collector::predicted_curve(
    net::NodeId server) const {
  const auto it = curves_.find(server);
  return it == curves_.end() ? empty_curve_ : it->second;
}

void Collector::book_update(net::NodeId src, net::NodeId dst,
                            std::int64_t wire) {
  auto& total = predicted_totals_[src];
  total += wire;
  auto& curve = curves_[src];
  if (!curve.empty() && curve.back().at == sim_->now()) {
    curve.back().cumulative = util::Bytes{total};
  } else {
    curve.push_back(PredictionPoint{sim_->now(), util::Bytes{total}});
  }
  pair_seen_[std::pair{src.value(), dst.value()}] = true;
  dst_outstanding_[dst] += wire;
}

void Collector::enqueue_update(net::NodeId src, net::NodeId dst,
                               util::Bytes wire) {
  if (src == dst) return;  // server-local copy, never touches the network
  book_update(src, dst, wire.count());
  auto& pending = batch_[std::pair{src.value(), dst.value()}];
  pending.bytes += wire.count();
  pending.intents += 1;
  if (!flush_pending_) {
    flush_pending_ = true;
    sim_->after(cfg_.batch_window, [this] { flush_batch(); });
  }
}

void Collector::flush_batch() {
  flush_pending_ = false;
  if (batch_.empty()) return;
  ++batches_;

  // First-fit decreasing. With criticality on, the primary sort key is the
  // destination server's total outstanding predicted volume: aggregates
  // feeding the barrier-critical reducer are packed first and get the best
  // paths (the criterion the paper adds over FlowComb's volumes-only view).
  std::vector<
      std::pair<std::pair<std::uint32_t, std::uint32_t>, PendingUpdate>>
      updates(batch_.begin(), batch_.end());
  batch_.clear();
  std::sort(updates.begin(), updates.end(), [this](const auto& a,
                                                   const auto& b) {
    if (cfg_.criticality_aware) {
      const auto crit = [this](const auto& u) {
        const auto it = dst_outstanding_.find(net::NodeId{u.first.second});
        return it == dst_outstanding_.end() ? std::int64_t{0} : it->second;
      };
      const std::int64_t ca = crit(a);
      const std::int64_t cb = crit(b);
      if (ca != cb) return ca > cb;
    }
    if (a.second.bytes != b.second.bytes) return a.second.bytes > b.second.bytes;
    return a.first < b.first;
  });
  for (const auto& [pair, pending] : updates) {
    allocator_->add_predicted_volume(net::NodeId{pair.first},
                                     net::NodeId{pair.second},
                                     util::Bytes{pending.bytes},
                                     pending.intents);
  }
}

void Collector::admit_intent(const ShuffleIntent& intent, net::NodeId dst,
                             util::SimTime ttl_base) {
  if (intent.src_server == dst) return;  // server-local copy
  const net::Topology& topo = allocator_->controller().topology();
  AdmittedIntent a;
  a.pod = topo.node_group(intent.src_server);
  a.priority = intent.priority;
  a.job_serial = intent.job_serial;
  a.src = intent.src_server.value();
  a.dst = dst.value();
  a.reduce_index = intent.reduce_index;
  a.map_index = intent.map_index;
  a.wire_bytes = intent.predicted_wire_bytes.count();
  a.admitted_at = sim_->now();
  a.expires_at = cfg_.intent_ttl > util::Duration::zero()
                     ? ttl_base + cfg_.intent_ttl
                     : util::SimTime::max();
  if (shards_->admit(a) != ShardedIntentQueue::Admission::kRefused) {
    // Something is queued; make sure the cohort boundary fires even if no
    // simulator event defers work this cohort.
    sim_->queue().mark_cohort_activity();
  }
}

void Collector::submit_one(const AdmittedIntent& a) {
  book_update(net::NodeId{a.src}, net::NodeId{a.dst}, a.wire_bytes);
  allocator_->add_predicted_volume(net::NodeId{a.src}, net::NodeId{a.dst},
                                   util::Bytes{a.wire_bytes}, 1);
  if (observer_ != nullptr) observer_->on_intents_submitted(1);
}

void Collector::submit_run(std::uint32_t src, std::uint32_t dst,
                           std::int64_t sum, std::uint64_t intents) {
  book_update(net::NodeId{src}, net::NodeId{dst}, sum);
  allocator_->add_predicted_volume(net::NodeId{src}, net::NodeId{dst},
                                   util::Bytes{sum}, intents);
  if (observer_ != nullptr) {
    observer_->on_intents_submitted(static_cast<std::size_t>(intents));
  }
}

void Collector::drain_cohort() {
  if (shards_ == nullptr || shards_->empty()) return;
  std::vector<AdmittedIntent> batch = shards_->drain();
  const util::SimTime now = sim_->now();
  // TTL guard at the install edge: an admitted intent whose horizon passed
  // must not install. purge_expired() catches expiry before admission; this
  // keeps the invariant airtight however the intent reached the queue.
  std::erase_if(batch, [&](const AdmittedIntent& a) {
    if (now >= a.expires_at) {
      ++expired_;
      return true;
    }
    return false;
  });
  if (batch.empty()) return;

  if (observer_ != nullptr) observer_->on_drain_begin(batch.size());
  ++batches_;
  const bool batched = cfg_.pipeline == IntentPipeline::kCohortBatched;
  if (batched) allocator_->controller().begin_install_batch();

  std::size_t runs = 0;
  std::size_t calls = 0;
  std::size_t i = 0;
  while (i < batch.size()) {
    // Maximal contiguous same-(src, dst) run; the canonical order makes
    // every intent of one aggregate in this cohort contiguous.
    std::size_t j = i;
    while (j < batch.size() && batch[j].src == batch[i].src &&
           batch[j].dst == batch[i].dst) {
      ++j;
    }
    ++runs;
    if (!batched) {
      for (std::size_t k = i; k < j; ++k) {
        submit_one(batch[k]);
        ++calls;
      }
    } else {
      // Per-intent until the pair is a pure volume add (installed with
      // outstanding volume, or allocator suspended) — the serial arm's
      // submissions from that point on cannot change allocation decisions,
      // so the tail of the run coalesces into one summed submission.
      // Refused pairs never become coalescable and stay per-intent, which
      // keeps refusal counts equal to the serial arm's.
      std::size_t k = i;
      while (k < j && !allocator_->pair_coalescable(net::NodeId{batch[k].src},
                                                    net::NodeId{batch[k].dst})) {
        submit_one(batch[k]);
        ++calls;
        ++k;
      }
      if (k < j) {
        std::int64_t sum = 0;
        for (std::size_t m = k; m < j; ++m) sum += batch[m].wire_bytes;
        submit_run(batch[i].src, batch[i].dst, sum,
                   static_cast<std::uint64_t>(j - k));
        ++calls;
        coalesced_saved_ += (j - k) - 1;
      }
    }
    i = j;
  }

  if (batched) allocator_->controller().commit_install_batch();
  if (observer_ != nullptr) observer_->on_drain_end(batch.size(), runs, calls);
}

void Collector::fetch_completed(net::NodeId src_server, net::NodeId dst_server,
                                util::Bytes payload) {
  if (src_server == dst_server) return;
  // Retire the wire-volume estimate this fetch contributed when predicted.
  const util::Bytes wire = retire_model_.predict_wire_bytes(payload);
  allocator_->retire_volume(src_server, dst_server, wire);
  auto& dst_total = dst_outstanding_[dst_server];
  // Actual wire bytes can exceed what was predicted (the prediction may have
  // been lost in transit, or under-estimated under skew); clamp at zero so
  // the criticality proxy never goes negative, and count the desync.
  if (dst_total < wire.count()) ++underflows_;
  dst_total = std::max<std::int64_t>(0, dst_total - wire.count());
}

util::Bytes Collector::destination_outstanding(net::NodeId dst) const {
  const auto it = dst_outstanding_.find(dst);
  return it == dst_outstanding_.end() ? util::Bytes::zero()
                                      : util::Bytes{it->second};
}

util::Bytes Collector::mean_destination_outstanding() const {
  std::int64_t total = 0;
  std::int64_t live = 0;
  // pythia-lint: allow(unordered-iter) commutative integer sum/count over
  // all entries; order-insensitive by construction
  for (const auto& [_, bytes] : dst_outstanding_) {
    if (bytes <= 0) continue;
    total += bytes;
    ++live;
  }
  return live == 0 ? util::Bytes::zero() : util::Bytes{total / live};
}

void Collector::encode_behavior(sim::StateEncoder& enc) const {
  enc.put_u32(static_cast<std::uint32_t>(reducer_location_.size()));
  for (const auto& [key, server] : reducer_location_) {
    enc.put_u64(key.job_serial);
    enc.put_u64(key.reduce_index);
    enc.put_u32(server.value());
  }

  enc.put_u32(static_cast<std::uint32_t>(waiting_.size()));
  for (const auto& [key, held] : waiting_) {
    enc.put_u64(key.job_serial);
    enc.put_u64(key.reduce_index);
    enc.put_u32(static_cast<std::uint32_t>(held.size()));
    for (const HeldIntent& h : held) {
      enc.put_u64(h.intent.job_serial);
      enc.put_u64(h.intent.map_index);
      enc.put_u64(h.intent.reduce_index);
      enc.put_u32(h.intent.src_server.value());
      enc.put_i64(h.intent.predicted_wire_bytes.count());
      enc.put_time(h.intent.emitted_at);
      enc.put_u32(h.intent.tenant);
      enc.put_i64(h.intent.priority);
      enc.put_time(h.held_at);
    }
  }
  enc.put_time(next_expiry_);

  enc.put_u32(static_cast<std::uint32_t>(pair_seen_.size()));
  for (const auto& [pair, seen] : pair_seen_) {
    enc.put_u32(pair.first);
    enc.put_u32(pair.second);
    enc.put_bool(seen);
  }

  auto encode_node_map = [&enc](const auto& map, auto&& encode_value) {
    std::vector<std::uint32_t> nodes;
    nodes.reserve(map.size());
    // Key collection only (the generic param hides the unordered type from
    // pythia-lint); order is fixed by the sort below.
    for (const auto& [node, value] : map) nodes.push_back(node.value());
    std::sort(nodes.begin(), nodes.end());
    enc.put_u32(static_cast<std::uint32_t>(nodes.size()));
    for (std::uint32_t n : nodes) {
      enc.put_u32(n);
      encode_value(map.at(net::NodeId{n}));
    }
  };
  encode_node_map(dst_outstanding_,
                  [&enc](std::int64_t v) { enc.put_i64(v); });
  encode_node_map(curves_, [&enc](const std::vector<PredictionPoint>& curve) {
    enc.put_u32(static_cast<std::uint32_t>(curve.size()));
    for (const PredictionPoint& p : curve) {
      enc.put_time(p.at);
      enc.put_i64(p.cumulative.count());
    }
  });
  encode_node_map(predicted_totals_,
                  [&enc](std::int64_t v) { enc.put_i64(v); });

  enc.put_u64(received_);
  enc.put_u64(held_);
  enc.put_u64(batches_);
  enc.put_u64(expired_);
  enc.put_u64(purged_on_completion_);
  enc.put_u64(underflows_);
  // Admission outcomes are pipeline-invariant: the per-pod bound decides
  // each intent identically at any shard count and in both cohort arms.
  enc.put_u64(shards_ == nullptr ? 0 : shards_->admitted());
  enc.put_u64(admission_refused());
  enc.put_u64(admission_evicted());
}

void Collector::encode_state(sim::StateEncoder& enc) const {
  encode_behavior(enc);

  enc.put_u8(static_cast<std::uint8_t>(cfg_.pipeline));
  enc.put_u32(static_cast<std::uint32_t>(batch_.size()));
  for (const auto& [pair, pending] : batch_) {
    enc.put_u32(pair.first);
    enc.put_u32(pair.second);
    enc.put_i64(pending.bytes);
    enc.put_u64(pending.intents);
  }
  enc.put_bool(flush_pending_);

  enc.put_bool(shards_ != nullptr);
  if (shards_ != nullptr) shards_->encode_state(enc);
  enc.put_u64(coalesced_saved_);
}

}  // namespace pythia::core
