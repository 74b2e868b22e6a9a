#include "core/collector.hpp"

#include <algorithm>
#include <cassert>

#include "core/allocator.hpp"
#include "core/watchdog.hpp"
#include "net/topology.hpp"
#include "sim/snapshot.hpp"
#include "util/log.hpp"

namespace pythia::core {

Collector::Collector(sim::Simulation& sim, Allocator& allocator,
                     CollectorConfig cfg)
    : sim_(&sim),
      allocator_(&allocator),
      topo_(&allocator.controller().topology()),
      cfg_(cfg) {
  if (!cohort_mode()) return;
  queue_ = std::make_unique<PodIntentQueue>(cfg_.pod_queue_capacity);
  sim_->queue().set_cohort_hook([this] { drain_cohort(); });
}

Collector::~Collector() {
  if (queue_ != nullptr) sim_->queue().clear_cohort_hook();
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
  if (queue_ != nullptr) {
    // Queued-but-undrained intents die with the job: the transfers they
    // predicted will never start, so installing rules for them would only
    // occupy flow-table space.
    purged_on_completion_ += queue_->purge_job(job_serial);
  }
}

std::size_t Collector::intents_waiting() const {
  std::size_t total = 0;
  for (const auto& [_, held] : waiting_) total += held.size();
  return total;
}

std::size_t Collector::intents_queued() const {
  return queue_ == nullptr ? 0 : queue_->size();
}

std::uint64_t Collector::admission_refused() const {
  return queue_ == nullptr ? 0 : queue_->refused();
}

std::uint64_t Collector::admission_evicted() const {
  return queue_ == nullptr ? 0 : queue_->evicted();
}

std::uint32_t Collector::row_of(net::NodeId server) {
  const std::uint32_t h = topo_->host_index(server);
  assert(h != net::Topology::kNoHost && "collector servers must be hosts");
  if (rows_.empty() && h != net::Topology::kNoHost) {
    const std::size_t hosts = topo_->hosts().size();
    rows_.resize(hosts);
    pair_seen_.assign(hosts * hosts, 0);
  }
  return h;
}

const Collector::HostRow* Collector::find_row(net::NodeId server) const {
  const std::uint32_t h = topo_->host_index(server);
  return h < rows_.size() ? &rows_[h] : nullptr;
}

const std::vector<PredictionPoint>& Collector::predicted_curve(
    net::NodeId server) const {
  const HostRow* row = find_row(server);
  return row != nullptr && row->source ? row->curve : empty_curve_;
}

std::size_t Collector::book_update(net::NodeId src_server,
                                   net::NodeId dst_server, std::int64_t wire) {
  const std::uint32_t src = row_of(src_server);
  const std::uint32_t dst = row_of(dst_server);
  if (src == net::Topology::kNoHost || dst == net::Topology::kNoHost) {
    return kNoSlot;
  }
  HostRow& source = rows_[src];
  source.source = true;
  source.predicted_total += wire;
  auto& curve = source.curve;
  if (!curve.empty() && curve.back().at == sim_->now()) {
    curve.back().cumulative = util::Bytes{source.predicted_total};
  } else {
    curve.push_back(
        PredictionPoint{sim_->now(), util::Bytes{source.predicted_total}});
  }
  const std::size_t slot = pair_slot(src, dst);
  pairs_seen_ += pair_seen_[slot] == 0 ? 1 : 0;
  pair_seen_[slot] = 1;
  rows_[dst].destination = true;
  rows_[dst].outstanding += wire;
  return slot;
}

void Collector::enqueue_update(net::NodeId src, net::NodeId dst,
                               util::Bytes wire) {
  if (src == dst) return;  // server-local copy, never touches the network
  const std::size_t slot = book_update(src, dst, wire.count());
  if (slot == kNoSlot) return;
  if (batch_.empty()) batch_.resize(rows_.size() * rows_.size());
  PendingUpdate& pending = batch_[slot];
  if (pending.intents == 0) {
    batch_slots_.push_back(static_cast<std::uint32_t>(slot));
  }
  pending.bytes += wire.count();
  pending.intents += 1;
  if (!flush_pending_) {
    flush_pending_ = true;
    sim_->after(cfg_.batch_window, [this] { flush_batch(); });
  }
}

void Collector::flush_batch() {
  flush_pending_ = false;
  if (batch_slots_.empty()) return;
  ++batches_;

  // First-fit decreasing. With criticality on, the primary sort key is the
  // destination server's total outstanding predicted volume: aggregates
  // feeding the barrier-critical reducer are packed first and get the best
  // paths (the criterion the paper adds over FlowComb's volumes-only view).
  // The last key, the slot, is the (src, dst) NodeId order, so this is a
  // total order and the gathering order of the slots cannot show.
  std::vector<std::pair<std::uint32_t, PendingUpdate>> updates;
  updates.reserve(batch_slots_.size());
  for (const std::uint32_t slot : batch_slots_) {
    updates.emplace_back(slot, batch_[slot]);
    batch_[slot] = PendingUpdate{};
  }
  batch_slots_.clear();
  const std::size_t hosts = rows_.size();
  std::sort(updates.begin(), updates.end(), [&](const auto& a,
                                                const auto& b) {
    if (cfg_.criticality_aware) {
      const std::int64_t ca = rows_[a.first % hosts].outstanding;
      const std::int64_t cb = rows_[b.first % hosts].outstanding;
      if (ca != cb) return ca > cb;
    }
    if (a.second.bytes != b.second.bytes) return a.second.bytes > b.second.bytes;
    return a.first < b.first;
  });
  const std::vector<net::NodeId>& servers = topo_->hosts();
  for (const auto& [slot, pending] : updates) {
    allocator_->add_predicted_volume(servers[slot / hosts],
                                     servers[slot % hosts],
                                     util::Bytes{pending.bytes},
                                     pending.intents);
  }
}

void Collector::admit_intent(const ShuffleIntent& intent, net::NodeId dst,
                             util::SimTime ttl_base) {
  if (intent.src_server == dst) return;  // server-local copy
  AdmittedIntent a;
  a.pod = topo_->node_group(intent.src_server);
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
  if (queue_->admit(a) != PodIntentQueue::Admission::kRefused) {
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
  if (queue_ == nullptr || queue_->empty()) return;
  std::vector<AdmittedIntent> batch = queue_->drain();
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
  const std::uint32_t d = row_of(dst_server);
  if (d == net::Topology::kNoHost) return;
  HostRow& dst = rows_[d];
  dst.destination = true;
  // Actual wire bytes can exceed what was predicted (the prediction may have
  // been lost in transit, or under-estimated under skew); clamp at zero so
  // the criticality proxy never goes negative, and count the desync.
  if (dst.outstanding < wire.count()) ++underflows_;
  dst.outstanding = std::max<std::int64_t>(0, dst.outstanding - wire.count());
}

util::Bytes Collector::destination_outstanding(net::NodeId dst) const {
  const HostRow* row = find_row(dst);
  return row == nullptr ? util::Bytes::zero() : util::Bytes{row->outstanding};
}

util::Bytes Collector::mean_destination_outstanding() const {
  std::int64_t total = 0;
  std::int64_t live = 0;
  for (const HostRow& row : rows_) {
    if (row.outstanding <= 0) continue;
    total += row.outstanding;
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

  // Host index order is ascending NodeId order, so every walk below lists
  // servers and (src, dst) pairs in ascending NodeId order.
  const std::vector<net::NodeId>& servers = topo_->hosts();
  const std::size_t hosts = rows_.size();
  enc.put_u32(static_cast<std::uint32_t>(pairs_seen_));
  for (std::size_t slot = 0; slot < pair_seen_.size(); ++slot) {
    if (pair_seen_[slot] == 0) continue;
    enc.put_u32(servers[slot / hosts].value());
    enc.put_u32(servers[slot % hosts].value());
    enc.put_bool(true);
  }

  auto encode_rows = [&](bool HostRow::*present, auto&& encode_value) {
    std::uint32_t count = 0;
    for (const HostRow& row : rows_) count += row.*present ? 1 : 0;
    enc.put_u32(count);
    for (std::size_t h = 0; h < hosts; ++h) {
      if (!(rows_[h].*present)) continue;
      enc.put_u32(servers[h].value());
      encode_value(rows_[h]);
    }
  };
  encode_rows(&HostRow::destination,
              [&enc](const HostRow& row) { enc.put_i64(row.outstanding); });
  encode_rows(&HostRow::source, [&enc](const HostRow& row) {
    enc.put_u32(static_cast<std::uint32_t>(row.curve.size()));
    for (const PredictionPoint& p : row.curve) {
      enc.put_time(p.at);
      enc.put_i64(p.cumulative.count());
    }
  });
  encode_rows(&HostRow::source,
              [&enc](const HostRow& row) { enc.put_i64(row.predicted_total); });

  enc.put_u64(received_);
  enc.put_u64(held_);
  enc.put_u64(batches_);
  enc.put_u64(expired_);
  enc.put_u64(purged_on_completion_);
  enc.put_u64(underflows_);
  // Admission outcomes are pipeline-invariant: the per-pod bound decides
  // each intent identically in both cohort arms.
  enc.put_u64(queue_ == nullptr ? 0 : queue_->admitted());
  enc.put_u64(admission_refused());
  enc.put_u64(admission_evicted());
}

void Collector::encode_state(sim::StateEncoder& enc) const {
  encode_behavior(enc);

  enc.put_u8(static_cast<std::uint8_t>(cfg_.pipeline));
  std::vector<std::uint32_t> slots = batch_slots_;
  std::sort(slots.begin(), slots.end());  // (src, dst) NodeId order
  const std::vector<net::NodeId>& servers = topo_->hosts();
  enc.put_u32(static_cast<std::uint32_t>(slots.size()));
  for (const std::uint32_t slot : slots) {
    enc.put_u32(servers[slot / rows_.size()].value());
    enc.put_u32(servers[slot % rows_.size()].value());
    enc.put_i64(batch_[slot].bytes);
    enc.put_u64(batch_[slot].intents);
  }
  enc.put_bool(flush_pending_);

  enc.put_bool(queue_ != nullptr);
  if (queue_ != nullptr) queue_->encode_state(enc);
  enc.put_u64(coalesced_saved_);
}

}  // namespace pythia::core
