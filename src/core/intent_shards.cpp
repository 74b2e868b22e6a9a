#include "core/intent_shards.hpp"

#include <algorithm>
#include <tuple>

#include "sim/snapshot.hpp"

namespace pythia::core {

bool canonical_intent_less(const AdmittedIntent& a, const AdmittedIntent& b) {
  // Priority descends (higher-priority tenants drain first); everything else
  // ascends. Pair-major within a (pod, priority) band so same-aggregate
  // intents are contiguous across jobs.
  return std::tuple(a.pod, -a.priority, a.src, a.dst, a.job_serial,
                    a.reduce_index, a.map_index, a.admit_seq) <
         std::tuple(b.pod, -b.priority, b.src, b.dst, b.job_serial,
                    b.reduce_index, b.map_index, b.admit_seq);
}

PodIntentQueue::Admission PodIntentQueue::admit(AdmittedIntent intent) {
  auto& pod_queue = pods_[intent.pod];
  intent.admit_seq = next_admit_seq_++;

  if (pod_capacity_ > 0 && pod_queue.size() >= pod_capacity_) {
    // Flow-table semantics: evict the pod's smallest-volume intent if the
    // newcomer is strictly larger, otherwise refuse the newcomer. Victim
    // choice is a total order (volume, then newest first).
    auto victim = pod_queue.begin();
    for (auto it = pod_queue.begin(); it != pod_queue.end(); ++it) {
      if (it->wire_bytes < victim->wire_bytes ||
          (it->wire_bytes == victim->wire_bytes &&
           it->admit_seq > victim->admit_seq)) {
        victim = it;
      }
    }
    if (victim->wire_bytes >= intent.wire_bytes) {
      ++refused_;
      return Admission::kRefused;
    }
    pod_queue.erase(victim);
    --size_;
    ++evicted_;
    pod_queue.push_back(intent);
    ++size_;
    ++admitted_;
    return Admission::kAdmittedWithEviction;
  }

  pod_queue.push_back(intent);
  ++size_;
  ++admitted_;
  return Admission::kAdmitted;
}

std::vector<AdmittedIntent> PodIntentQueue::drain() {
  std::vector<AdmittedIntent> all;
  all.reserve(size_);
  for (auto& [pod, queue] : pods_) {
    all.insert(all.end(), queue.begin(), queue.end());
  }
  pods_.clear();
  size_ = 0;
  std::sort(all.begin(), all.end(), canonical_intent_less);
  return all;
}

std::size_t PodIntentQueue::purge_job(std::uint64_t job_serial) {
  std::size_t purged = 0;
  for (auto it = pods_.begin(); it != pods_.end();) {
    auto& queue = it->second;
    const std::size_t before = queue.size();
    std::erase_if(queue, [job_serial](const AdmittedIntent& a) {
      return a.job_serial == job_serial;
    });
    purged += before - queue.size();
    it = queue.empty() ? pods_.erase(it) : ++it;
  }
  size_ -= purged;
  return purged;
}

void PodIntentQueue::encode_state(sim::StateEncoder& enc) const {
  enc.put_u32(static_cast<std::uint32_t>(pods_.size()));
  for (const auto& [pod, queue] : pods_) {  // ascending pod
    enc.put_i64(pod);
    enc.put_u32(static_cast<std::uint32_t>(queue.size()));
    for (const AdmittedIntent& a : queue) {
      enc.put_i64(a.priority);
      enc.put_u64(a.job_serial);
      enc.put_u32(a.src);
      enc.put_u32(a.dst);
      enc.put_u64(a.reduce_index);
      enc.put_u64(a.map_index);
      enc.put_i64(a.wire_bytes);
      enc.put_time(a.admitted_at);
      enc.put_time(a.expires_at);
      enc.put_u64(a.admit_seq);
    }
  }
  enc.put_u64(next_admit_seq_);
  enc.put_u64(admitted_);
  enc.put_u64(refused_);
  enc.put_u64(evicted_);
}

}  // namespace pythia::core
