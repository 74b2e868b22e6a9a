// Discrete-event queue.
//
// Events are ordered by (time, insertion sequence) so that same-time events
// fire in deterministic FIFO order — a hard requirement for reproducible
// experiments. Cancellation is lazy: a cancelled event's key stays queued
// and is skipped on pop, which keeps cancel O(1) (the fluid network model
// cancels its pending flow-completion event on every recompute). To bound
// memory under that churn, the keys are compacted — stale keys erased and
// the heap rebuilt — once they outnumber live ones (and exceed a small
// floor); (time, seq) is a total order, so rebuilding cannot perturb firing
// order.
//
// Layout (docs/architecture.md, "Event queue"): the queue orders 24-byte
// trivially copyable keys {time, seq, slot}; each event's callable lives in
// a slab slot with 56 bytes of inline storage, so scheduling a small
// callable allocates nothing once the slab and key vectors have grown.
// Keys scheduled in time order (at or after the newest lane key) append to
// a FIFO lane; any other key goes to a binary heap. The lane is sorted by
// construction, so the next event is the earlier of the lane front and the
// heap top, and the two parts together always hold exactly the keys one
// heap would: every firing, counter and snapshot byte is the same.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace pythia::sim {

class EventQueue;

/// Thrown out of the event loop when an installed abort check trips (the
/// sweep executor's cooperative wall-clock timeout). Carries the simulation
/// position so the failure is attributable and reproducible.
class AbortedError : public std::runtime_error {
 public:
  AbortedError(util::SimTime at_, std::uint64_t events_fired_)
      : std::runtime_error("simulation run aborted at t=" +
                           std::to_string(at_.ns()) + "ns after " +
                           std::to_string(events_fired_) + " events"),
        at(at_),
        events_fired(events_fired_) {}

  util::SimTime at;
  std::uint64_t events_fired;
};

/// Handle used to cancel a scheduled event. Default-constructed handles are
/// inert. A handle names its event by slab slot and sequence number; since a
/// sequence number is never reused, a handle whose event already fired or
/// was cancelled can never touch a later event that landed in the same slot.
/// Every holder must be destroyed before the queue it points into.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has neither fired nor started firing;
  /// idempotent.
  void cancel();
  [[nodiscard]] bool valid() const { return queue_ != nullptr; }
  /// True once a cancel() through this handle took effect. Copies do not
  /// share the flag: query the handle the cancel went through.
  [[nodiscard]] bool cancelled() const { return cancelled_; }

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint64_t seq, std::uint32_t slot)
      : queue_(queue), seq_(seq), slot_(slot) {}

  EventQueue* queue_ = nullptr;
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
  bool cancelled_ = false;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Destroys the callables of every event that never fired.
  ~EventQueue();

  /// Bytes of callable stored in place in a slab slot. A larger or
  /// over-aligned callable is moved to the heap (one allocation).
  static constexpr std::size_t kInlineBytes = 56;

  /// Schedules `fn` at absolute time `at`. `at` must be >= now() (asserted).
  template <class F>
  EventHandle schedule(util::SimTime at, F&& fn);

  /// Convenience: schedule `fn` after a relative delay.
  template <class F>
  EventHandle schedule_after(util::Duration delay, F&& fn) {
    return schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Pops and runs the earliest non-cancelled event; advances now() to its
  /// timestamp. Returns false when the queue is empty.
  bool run_one();

  /// Runs events until the queue drains or `limit` events have fired.
  /// Returns the number of events fired.
  std::size_t run_all(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= `until` (advances now() to `until` even if
  /// the queue drains earlier). Returns the number of events fired.
  std::size_t run_until(util::SimTime until);

  [[nodiscard]] util::SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Number of scheduled, not-yet-fired, not-cancelled events.
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  /// Keys in heap and lane, including not-yet-compacted cancelled ones; the
  /// compaction test asserts this stays bounded under cancel churn.
  [[nodiscard]] std::size_t heap_size() const {
    return heap_.size() + (lane_.size() - lane_head_);
  }

  // --- snapshot support (see sim/snapshot.hpp) ---

  /// Timestamp + insertion sequence of one live (scheduled, uncancelled,
  /// unfired) entry; the closure itself is not marshalable.
  struct PendingEventInfo {
    util::SimTime at;
    std::uint64_t seq;
  };
  /// The canonical logical content of the queue: live entries sorted by
  /// (time, seq). Deliberately independent of the physical key layout
  /// (heap versus lane, compaction history), which varies even between
  /// logically identical queues.
  [[nodiscard]] std::vector<PendingEventInfo> pending_events() const;
  /// Next insertion sequence number (counts cancelled entries too — two
  /// runs only replay identically if their schedule() call sequences match).
  [[nodiscard]] std::uint64_t next_sequence() const { return next_seq_; }
  /// Cancelled keys still queued (lazy-cancel garbage).
  [[nodiscard]] std::size_t cancelled_in_heap() const {
    return cancelled_in_heap_;
  }
  /// Advances the clock without firing anything; `to` must be >= now() and
  /// <= the next live event. Restore uses this to reproduce a capture clock
  /// that run_until() parked *between* events — replaying to the event
  /// cursor alone leaves now() at the last fired event's timestamp, which
  /// would diverge from the captured image (see docs/checkpoint.md).
  void advance_now(util::SimTime to);

  /// Installs a cooperative abort check, polled every kAbortCheckStride
  /// fired events; when it returns true the loop throws AbortedError. The
  /// check must not touch simulation state — the sweep executor installs a
  /// wall-clock deadline, which only ever decides whether a run *dies*,
  /// never what a surviving run computes.
  void install_abort_check(std::function<bool()> should_abort) {
    abort_check_ = std::move(should_abort);
  }

  // --- cohort boundaries (batched event coalescing) ----------------------
  //
  // A *cohort* is a maximal run of events firing at the same simulated
  // instant. A subsystem that coalesces work across a cohort (the fabric's
  // batched rate recompute) registers a listener and calls
  // mark_cohort_activity() whenever it defers work; the queue then invokes
  // every listener, in registration order, at the cohort boundary — before
  // the clock advances past the current instant, when the queue drains, and
  // before run_until() parks the clock. Listeners may schedule new events
  // (at now() or later); the loop re-examines the queue after notifying, so
  // a completion event scheduled by a flush still fires at the right time.
  // Notification is level-triggered and idempotent: it only happens while
  // the activity flag is set, and notifying clears the flag, so an inert
  // listener costs one flag test per boundary and nothing else. Listeners
  // are NOT events: they consume no sequence numbers and leave the
  // (time, seq) skeleton — and therefore snapshots and golden traces —
  // untouched.

  using CohortListener = std::function<void()>;

  /// Registers `fn`; returns a token for remove_cohort_listener.
  std::size_t add_cohort_listener(CohortListener fn);
  /// Removes a listener; idempotent, preserves the order of the others.
  void remove_cohort_listener(std::size_t token);
  /// Flags deferred work; the next cohort boundary will notify listeners.
  void mark_cohort_activity() { cohort_dirty_ = true; }
  [[nodiscard]] bool cohort_activity_pending() const { return cohort_dirty_; }

 private:
  friend class EventHandle;

  struct Key {
    util::SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Type-erased operations on the callable stored in a slot.
  struct Ops {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage);
  };
  template <class Fn>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops kOps{&invoke, &destroy};
  };
  template <class Fn>
  struct BoxedOps {
    static void invoke(void* p) { (**static_cast<Fn**>(p))(); }
    static void destroy(void* p) { delete *static_cast<Fn**>(p); }
    static constexpr Ops kOps{&invoke, &destroy};
  };

  /// A slab slot. `seq` is the sequence number of the event it holds, or
  /// kFreeSeq / kFiringSeq; a key is live exactly while its slot's `seq`
  /// equals the key's.
  struct Slot {
    std::uint64_t seq;
    const Ops* ops;
    alignas(alignof(void*)) unsigned char storage[kInlineBytes];
  };
  static constexpr std::uint64_t kFreeSeq = UINT64_MAX;
  static constexpr std::uint64_t kFiringSeq = UINT64_MAX - 1;
  /// Slots per slab chunk; chunks never move, so a callback runs in place
  /// while it schedules more events. A chunk is 72 KiB, left uninitialized
  /// until its slots are used. At 64 KiB or more, freeing it lets glibc
  /// consolidate its fast bins when the queue dies rather than at the next
  /// large allocation, which would otherwise land in the next run's set-up.
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  /// Don't bother compacting tiny queues.
  static constexpr std::size_t kCompactFloor = 64;
  /// Abort-check polling stride (events between wall-clock deadline polls).
  static constexpr std::uint64_t kAbortCheckStride = 1024;

  [[nodiscard]] Slot& slot_at(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t index) const {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }
  [[nodiscard]] bool stale(const Key& k) const {
    return slot_at(k.slot).seq != k.seq;
  }
  /// The slot the next schedule() fills: the most recently freed one, else
  /// the first never-used one. enqueue() claims it, so a throwing callable
  /// constructor leaks nothing.
  [[nodiscard]] std::uint32_t next_free_slot() {
    if (!free_slots_.empty()) return free_slots_.back();
    if (slots_used_ == chunks_.size() * kChunkSlots) add_chunk();
    return slots_used_;
  }
  void add_chunk();
  /// Claims `slot` (already holding the callable) and queues its key.
  EventHandle enqueue(util::SimTime at, std::uint32_t slot, const Ops* ops);
  /// Destroys the slot's callable and returns it to the free list.
  void release(std::uint32_t slot);
  /// Cancels the event in `slot` if it still holds `seq`.
  bool cancel(std::uint32_t slot, std::uint64_t seq);

  /// True when the lane holds the earliest queued key.
  [[nodiscard]] bool lane_is_front() const;
  /// Earliest queued key (possibly stale); nullptr when none is queued.
  [[nodiscard]] const Key* front() const;
  /// Removes front() from the lane or the heap.
  Key pop_front();
  void maybe_compact();
  /// Pops stale keys off the front so front() is the next real event.
  void skim_cancelled();
  void notify_cohort_end();

  // Raw vector + std::push_heap/pop_heap (rather than std::priority_queue)
  // so compaction can erase_if + make_heap in place.
  std::vector<Key> heap_;
  /// Keys in (time, seq) order; [lane_head_, size) are still queued.
  std::vector<Key> lane_;
  std::size_t lane_head_ = 0;
  /// Slots [0, slots_used_) have held an event; later ones are untouched,
  /// so a queue pays for slab pages only as its peak pending count grows.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slots_used_ = 0;
  /// LIFO free list; its capacity covers every slot, so releasing a slot
  /// (also while unwinding) never allocates.
  std::vector<std::uint32_t> free_slots_;

  util::SimTime now_ = util::SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t live_ = 0;
  std::size_t cancelled_in_heap_ = 0;
  std::function<bool()> abort_check_;
  std::vector<std::pair<std::size_t, CohortListener>> cohort_listeners_;
  std::size_t next_cohort_token_ = 0;
  bool cohort_dirty_ = false;
};

template <class F>
EventHandle EventQueue::schedule(util::SimTime at, F&& fn) {
  using Fn = std::decay_t<F>;
  static_assert(std::is_invocable_v<Fn&>, "event callables take no arguments");
  const std::uint32_t slot = next_free_slot();
  void* storage = slot_at(slot).storage;
  if constexpr (sizeof(Fn) <= kInlineBytes &&
                alignof(Fn) <= alignof(void*)) {
    ::new (storage) Fn(std::forward<F>(fn));
    return enqueue(at, slot, &InlineOps<Fn>::kOps);
  } else {
    ::new (storage) Fn*(new Fn(std::forward<F>(fn)));
    return enqueue(at, slot, &BoxedOps<Fn>::kOps);
  }
}

}  // namespace pythia::sim
