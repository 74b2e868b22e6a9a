#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pythia::sim {

void EventHandle::cancel() {
  if (queue_ == nullptr || cancelled_) return;
  cancelled_ = queue_->cancel(slot_, seq_);
}

EventQueue::~EventQueue() {
  for (std::uint32_t i = 0; i < slots_used_; ++i) {
    Slot& s = slot_at(i);
    if (s.seq != kFreeSeq) s.ops->destroy(s.storage);
  }
}

void EventQueue::add_chunk() {
  // Left uninitialized: enqueue() writes each slot before anything reads it.
  chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
  free_slots_.reserve(chunks_.size() * kChunkSlots);
}

EventHandle EventQueue::enqueue(util::SimTime at, std::uint32_t slot,
                                const Ops* ops) {
  static_assert(std::is_trivially_copyable_v<Key> && sizeof(Key) == 24);
  assert(at >= now_ && "cannot schedule into the past");
  Slot& s = slot_at(slot);
  const Key key{at, next_seq_, slot};
  try {
    // The lane takes every key that sorts after all of its own: `at` is no
    // earlier than its newest key and `seq` is newer than all of them.
    if (lane_.empty() || at >= lane_.back().at) {
      lane_.push_back(key);
    } else {
      heap_.push_back(key);
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
  } catch (...) {
    ops->destroy(s.storage);
    throw;
  }
  if (slot == slots_used_) {
    ++slots_used_;
  } else {
    free_slots_.pop_back();
  }
  s.seq = next_seq_++;
  s.ops = ops;
  ++live_;
  // Cancel itself is O(1) and has no access to the keys, so garbage is
  // collected at the next schedule/pop touch point.
  maybe_compact();
  return EventHandle{this, key.seq, slot};
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.seq = kFreeSeq;
  s.ops->destroy(s.storage);
  free_slots_.push_back(slot);  // within capacity: never allocates
}

bool EventQueue::cancel(std::uint32_t slot, std::uint64_t seq) {
  if (slot_at(slot).seq != seq) return false;  // fired, firing or cancelled
  release(slot);
  assert(live_ > 0);
  --live_;
  ++cancelled_in_heap_;
  return true;
}

bool EventQueue::lane_is_front() const {
  if (lane_.empty()) return false;
  return heap_.empty() || Later{}(heap_.front(), lane_[lane_head_]);
}

const EventQueue::Key* EventQueue::front() const {
  if (lane_is_front()) return &lane_[lane_head_];
  return heap_.empty() ? nullptr : &heap_.front();
}

EventQueue::Key EventQueue::pop_front() {
  if (!lane_is_front()) {
    assert(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    return key;
  }
  const Key key = lane_[lane_head_];
  // Reclaim the consumed prefix once it is half the lane, so a lane that
  // never drains stays O(pending) at O(1) amortized cost per pop. The lane
  // is therefore either empty or holds a key at lane_head_.
  if (++lane_head_ * 2 >= lane_.size()) {
    lane_.erase(lane_.begin(),
                lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
    lane_head_ = 0;
  }
  return key;
}

bool EventQueue::run_one() {
  for (;;) {
    skim_cancelled();
    const Key* next = front();
    if (next == nullptr) {
      // Drain is a cohort boundary: give listeners a chance to flush
      // deferred work (which may schedule new events), then look again.
      if (cohort_dirty_) {
        notify_cohort_end();
        continue;
      }
      return false;
    }
    if (cohort_dirty_ && next->at > now_) {
      // About to advance past the current instant — close the cohort first.
      // A flush may schedule an event at or before the old front, so
      // re-examine the queue rather than running blindly.
      notify_cohort_end();
      continue;
    }
    const Key key = pop_front();
    Slot& slot = slot_at(key.slot);
    // Firing, not free: the callback cannot cancel itself (the fabric's
    // completion handler tries on every completion), and the slot cannot be
    // reused by an event the callback schedules while it still runs.
    slot.seq = kFiringSeq;
    --live_;
    assert(key.at >= now_);
    now_ = key.at;
    ++fired_;
    struct Release {
      EventQueue& q;
      std::uint32_t slot;
      ~Release() { q.release(slot); }
    } release_after{*this, key.slot};
    if (abort_check_ && fired_ % kAbortCheckStride == 0 && abort_check_()) {
      throw AbortedError(now_, fired_);
    }
    slot.ops->invoke(slot.storage);
    return true;
  }
}

std::size_t EventQueue::run_all(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && run_one()) ++n;
  return n;
}

std::size_t EventQueue::run_until(util::SimTime until) {
  std::size_t n = 0;
  for (;;) {
    skim_cancelled();
    const Key* next = front();
    if (next != nullptr && next->at <= until) {
      if (run_one()) ++n;
      continue;
    }
    // Parking (or draining) is a cohort boundary; a flush may schedule
    // events inside the window, so loop instead of breaking outright.
    if (cohort_dirty_) {
      notify_cohort_end();
      continue;
    }
    break;
  }
  if (now_ < until) now_ = until;
  return n;
}

std::vector<EventQueue::PendingEventInfo> EventQueue::pending_events() const {
  std::vector<PendingEventInfo> out;
  out.reserve(live_);
  for (const Key& k : heap_) {
    if (!stale(k)) out.push_back({k.at, k.seq});
  }
  for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
    if (!stale(lane_[i])) out.push_back({lane_[i].at, lane_[i].seq});
  }
  std::sort(out.begin(), out.end(),
            [](const PendingEventInfo& a, const PendingEventInfo& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.seq < b.seq;
            });
  return out;
}

void EventQueue::advance_now(util::SimTime to) {
  assert(to >= now_ && "cannot rewind the clock");
  assert((pending_events().empty() || pending_events().front().at >= to) &&
         "cannot idle-advance past a live event");
  now_ = to;
}

std::size_t EventQueue::add_cohort_listener(CohortListener fn) {
  const std::size_t token = next_cohort_token_++;
  cohort_listeners_.emplace_back(token, std::move(fn));
  return token;
}

void EventQueue::remove_cohort_listener(std::size_t token) {
  std::erase_if(cohort_listeners_,
                [token](const auto& p) { return p.first == token; });
}

void EventQueue::skim_cancelled() {
  // Only the global front is skimmed — exactly what a single heap would
  // pop — so cancelled_in_heap() and heap_size() match it key for key.
  for (const Key* f = front(); f != nullptr && stale(*f); f = front()) {
    pop_front();
    assert(cancelled_in_heap_ > 0);
    --cancelled_in_heap_;
  }
}

void EventQueue::notify_cohort_end() {
  // Clear first: a listener that defers new work mid-flush re-arms the flag
  // and earns another boundary pass.
  cohort_dirty_ = false;
  for (auto& [token, fn] : cohort_listeners_) fn();
}

void EventQueue::maybe_compact() {
  if (cancelled_in_heap_ < kCompactFloor ||
      cancelled_in_heap_ * 2 <= heap_size()) {
    return;
  }
  const auto is_stale = [this](const Key& k) { return stale(k); };
  std::erase_if(heap_, is_stale);
  // (time, seq) is a total order over keys, so rebuilding the heap cannot
  // change the order in which the remaining events fire.
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  lane_.erase(lane_.begin(),
              lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
  lane_head_ = 0;
  std::erase_if(lane_, is_stale);
  cancelled_in_heap_ = 0;
}

}  // namespace pythia::sim
