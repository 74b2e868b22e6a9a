#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "util/random.hpp"

namespace pythia::sim {
namespace {

using util::Duration;
using util::SimTime;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::from_seconds(3.0), [&] { order.push_back(3); });
  q.schedule(SimTime::from_seconds(1.0), [&] { order.push_back(1); });
  q.schedule(SimTime::from_seconds(2.0), [&] { order.push_back(2); });
  EXPECT_EQ(q.run_all(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), SimTime::from_seconds(3.0));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  const auto t = SimTime::from_seconds(1.0);
  for (int i = 0; i < 10; ++i) {
    q.schedule(t, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, AdvancesClockOnlyToFiredEvents) {
  EventQueue q;
  q.schedule(SimTime::from_seconds(5.0), [] {});
  EXPECT_EQ(q.now(), SimTime::zero());
  q.run_one();
  EXPECT_EQ(q.now(), SimTime::from_seconds(5.0));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  auto h = q.schedule(SimTime::from_seconds(1.0), [&] { ++fired; });
  q.schedule(SimTime::from_seconds(2.0), [&] { ++fired; });
  h.cancel();
  EXPECT_TRUE(h.cancelled());
  EXPECT_EQ(q.run_all(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  auto h = q.schedule(SimTime::from_seconds(1.0), [] {});
  EXPECT_EQ(q.pending(), 1u);
  h.cancel();
  h.cancel();
  h.cancel();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.run_all(), 0u);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  auto h = q.schedule(SimTime::from_seconds(1.0), [] {});
  q.run_all();
  h.cancel();  // must not corrupt the live counter
  EXPECT_EQ(q.pending(), 0u);
  q.schedule(SimTime::from_seconds(2.0), [] {});
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run_all(), 1u);
}

TEST(EventQueue, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.cancelled());
  h.cancel();  // no crash
}

TEST(EventQueue, ScheduleFromWithinEvent) {
  EventQueue q;
  std::vector<double> times;
  q.schedule(SimTime::from_seconds(1.0), [&] {
    times.push_back(q.now().seconds());
    q.schedule_after(Duration::seconds_i(1),
                     [&] { times.push_back(q.now().seconds()); });
  });
  q.run_all();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(EventQueue, RunUntilStopsAndAdvances) {
  EventQueue q;
  int fired = 0;
  q.schedule(SimTime::from_seconds(1.0), [&] { ++fired; });
  q.schedule(SimTime::from_seconds(5.0), [&] { ++fired; });
  EXPECT_EQ(q.run_until(SimTime::from_seconds(3.0)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), SimTime::from_seconds(3.0));
  EXPECT_EQ(q.pending(), 1u);
  q.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilWithCancelledHead) {
  EventQueue q;
  int fired = 0;
  auto h = q.schedule(SimTime::from_seconds(1.0), [&] { ++fired; });
  q.schedule(SimTime::from_seconds(2.0), [&] { ++fired; });
  h.cancel();
  EXPECT_EQ(q.run_until(SimTime::from_seconds(10.0)), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunAllLimit) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime::from_seconds(i), [] {});
  }
  EXPECT_EQ(q.run_all(4), 4u);
  EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, CancelChurnBoundsHeap) {
  // The fluid model's recompute loop schedules a completion event and then
  // cancels it moments later, millions of times per run. Lazy cancellation
  // must not let the heap grow without bound: once cancelled entries
  // outnumber live ones the queue compacts. With one live event per
  // iteration the heap must stay within a small constant of the floor.
  EventQueue q;
  EventHandle pending;
  for (int i = 0; i < 100'000; ++i) {
    pending.cancel();
    pending = q.schedule(SimTime::from_seconds(1.0 + 1e-6 * i), [] {});
    EXPECT_LE(q.pending(), 1u);
    ASSERT_LT(q.heap_size(), 200u) << "at iteration " << i;
  }
  // The survivor still fires exactly once, in order, after all that churn.
  EXPECT_EQ(q.run_all(), 1u);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CompactionPreservesFiringOrder) {
  // Force several compactions while a mix of live and cancelled events with
  // duplicate timestamps is in flight; survivors must still fire in
  // (time, insertion) order.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 500; ++i) {
    const auto t = SimTime::from_seconds(1.0 + (i % 7));
    q.schedule(t, [&order, i] { order.push_back(i); });
    for (int j = 0; j < 4; ++j) {
      doomed.push_back(q.schedule(t, [] { ADD_FAILURE(); }));
    }
    if (doomed.size() > 300) {
      for (auto& h : doomed) h.cancel();
      doomed.clear();
    }
  }
  for (auto& h : doomed) h.cancel();
  EXPECT_EQ(q.run_all(), 500u);
  // Same timestamp bucket -> FIFO by insertion; across buckets -> by time.
  std::vector<int> expect;
  for (int bucket = 0; bucket < 7; ++bucket) {
    for (int i = bucket; i < 500; i += 7) expect.push_back(i);
  }
  EXPECT_EQ(order, expect);
}

TEST(EventQueue, CountsFired) {
  EventQueue q;
  q.schedule(SimTime::from_seconds(1.0), [] {});
  q.schedule(SimTime::from_seconds(2.0), [] {});
  q.run_all();
  EXPECT_EQ(q.events_fired(), 2u);
}

TEST(EventQueue, CallbackCancellingItsOwnHandleIsANoop) {
  // Fabric::on_completion_event re-arms through schedule_next_completion,
  // which cancels the completion handle of the very event that is firing.
  EventQueue q;
  int fired = 0;
  EventHandle self;
  self = q.schedule(SimTime{10}, [&] {
    ++fired;
    self.cancel();
    EXPECT_FALSE(self.cancelled());
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.cancelled_in_heap(), 0u);
    self = q.schedule(SimTime{20}, [&] { ++fired; });
  });
  q.schedule(SimTime{15}, [&] { ++fired; });
  EXPECT_TRUE(q.run_one());
  EXPECT_EQ(q.pending(), 2u);
  self.cancel();  // the re-armed event is live and cancellable
  EXPECT_TRUE(self.cancelled());
  EXPECT_EQ(q.run_all(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StaleHandleCannotCancelLaterEventInItsSlot) {
  // Freed slots are reused last-in first-out, so each later event below
  // lands in the slot of the stale handle that then tries to cancel it.
  EventQueue q;
  std::vector<int> fired;
  EventHandle early = q.schedule(SimTime{1}, [&] { fired.push_back(1); });
  ASSERT_TRUE(q.run_one());
  q.schedule(SimTime{2}, [&] { fired.push_back(2); });
  early.cancel();  // fired: must not touch event 2
  EXPECT_FALSE(early.cancelled());
  EXPECT_EQ(q.pending(), 1u);

  EventHandle doomed = q.schedule(SimTime{3}, [&] { fired.push_back(3); });
  const EventHandle copy = doomed;  // copies do not share the flag
  doomed.cancel();
  EXPECT_TRUE(doomed.cancelled());
  EXPECT_FALSE(copy.cancelled());
  q.schedule(SimTime{4}, [&] { fired.push_back(4); });
  EventHandle stale = copy;
  stale.cancel();  // cancelled through another handle: must not touch 4
  EXPECT_FALSE(stale.cancelled());
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.cancelled_in_heap(), 1u);
  EXPECT_EQ(q.run_all(), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4}));
}

// --- capture lifetimes ------------------------------------------------------

/// Counts its live copies through `live`.
struct LifeProbe {
  explicit LifeProbe(int* l) : live(l) { ++*live; }
  LifeProbe(const LifeProbe& o) : live(o.live) { ++*live; }
  LifeProbe& operator=(const LifeProbe&) = delete;
  ~LifeProbe() { --*live; }
  int* live;
};

/// An event callable of at least PadBytes: small ones are stored in the
/// slab slot, large ones boxed on the heap.
template <std::size_t PadBytes>
struct ProbeEvent {
  void operator()() {
    ++*calls;
    if (throws) throw std::runtime_error("event failed");
  }
  LifeProbe probe;
  int* calls;
  bool throws = false;
  std::array<unsigned char, PadBytes> pad{};
};

template <std::size_t PadBytes>
void expect_each_capture_destroyed_once() {
  using Event = ProbeEvent<PadBytes>;
  int live = 0;
  int calls = 0;
  const auto event = [&](bool throws = false) {
    return Event{LifeProbe{&live}, &calls, throws};
  };
  {
    EventQueue q;
    q.schedule(SimTime{1}, event());
    EXPECT_EQ(live, 1);
    EXPECT_TRUE(q.run_one());  // on fire
    EXPECT_EQ(live, 0);
    EXPECT_EQ(calls, 1);

    EventHandle h = q.schedule(SimTime{2}, event());
    h.cancel();  // on cancel
    EXPECT_EQ(live, 0);

    q.schedule(SimTime{3}, event(/*throws=*/true));
    EXPECT_THROW(q.run_one(), std::runtime_error);  // after a throwing call
    EXPECT_EQ(live, 0);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(q.pending(), 0u);

    // The abort check is polled on every 1024th fired event; it trips
    // before that event's callable runs, and the callable still goes. Two
    // events fired above, so the batch's 1022nd event trips it.
    q.install_abort_check([] { return true; });
    for (int i = 0; i < 1030; ++i) q.schedule(SimTime{4 + i}, event());
    EXPECT_THROW(q.run_all(), AbortedError);
    EXPECT_EQ(q.events_fired(), 1024u);
    EXPECT_EQ(calls, 2 + 1021);
    EXPECT_EQ(q.pending(), 8u);
    EXPECT_EQ(live, 8);
  }
  EXPECT_EQ(live, 0);  // at queue destruction
}

TEST(EventQueue, InlineCaptureDestroyedExactlyOnce) {
  static_assert(sizeof(ProbeEvent<8>) <= EventQueue::kInlineBytes);
  expect_each_capture_destroyed_once<8>();
}

TEST(EventQueue, BoxedCaptureDestroyedExactlyOnce) {
  static_assert(sizeof(ProbeEvent<128>) > EventQueue::kInlineBytes);
  expect_each_capture_destroyed_once<128>();
}

TEST(EventQueue, CohortHookRunsOncePerMarkedBoundary) {
  EventQueue q;
  int hook_runs = 0;
  q.set_cohort_hook([&] { ++hook_runs; });

  // No mark_cohort_activity(): advances and the drain never run the hook.
  q.schedule(SimTime{10}, [] {});
  q.schedule(SimTime{20}, [] {});
  q.run_all();
  EXPECT_EQ(hook_runs, 0);

  // Time advance: two marks in the t=30 cohort, one run before t=40 fires.
  int runs_seen_at_40 = -1;
  q.schedule(SimTime{30}, [&] { q.mark_cohort_activity(); });
  q.schedule(SimTime{30}, [&] { q.mark_cohort_activity(); });
  q.schedule(SimTime{40}, [&] { runs_seen_at_40 = hook_runs; });
  q.run_all();
  EXPECT_EQ(runs_seen_at_40, 1);
  EXPECT_EQ(hook_runs, 1);  // the unmarked drain after t=40 adds none

  // Drain: the last event marks, the hook runs once as the queue empties.
  q.schedule(SimTime{50}, [&] { q.mark_cohort_activity(); });
  q.run_all();
  EXPECT_EQ(hook_runs, 2);

  // run_until park: the hook runs once before the clock parks at t=80,
  // although a later event is still queued.
  q.schedule(SimTime{60}, [&] { q.mark_cohort_activity(); });
  q.schedule(SimTime{100}, [] {});
  q.run_until(SimTime{80});
  EXPECT_EQ(hook_runs, 3);
  EXPECT_EQ(q.now(), SimTime{80});
  q.run_all();
  EXPECT_EQ(hook_runs, 3);

  // One hook at a time: a second registration throws until it is cleared.
  EXPECT_THROW(q.set_cohort_hook([] {}), std::logic_error);
  q.clear_cohort_hook();
  q.set_cohort_hook([] {});
}

// --- lockstep oracle --------------------------------------------------------

/// Reference model of the queue's observable semantics: one list of keys,
/// lazy cancellation, skimming of the global minimum while it is
/// cancelled, and compaction once cancelled keys reach the floor and
/// outnumber live ones. It knows nothing of slots, lanes or handles.
struct ModelQueue {
  using Fired = std::pair<std::int64_t, std::uint64_t>;
  struct Key {
    std::int64_t at;
    std::uint64_t seq;
    bool cancelled;
  };

  std::uint64_t schedule(std::int64_t at) {
    keys.push_back({at, next_seq, false});
    ++live;
    if (cancelled >= 64 && cancelled * 2 > keys.size()) {
      std::erase_if(keys, [](const Key& k) { return k.cancelled; });
      cancelled = 0;
    }
    return next_seq++;
  }
  /// True when `seq` was still queued and not cancelled.
  bool cancel(std::uint64_t seq) {
    for (Key& k : keys) {
      if (k.seq != seq || k.cancelled) continue;
      k.cancelled = true;
      --live;
      ++cancelled;
      return true;
    }
    return false;
  }
  void skim() {
    while (!keys.empty() && min_key()->cancelled) {
      keys.erase(min_key());
      --cancelled;
    }
  }
  /// Skims, then pops the next event as the queue fires it.
  std::optional<Fired> pop() {
    skim();
    if (keys.empty()) return std::nullopt;
    const auto it = min_key();
    const Fired out{it->at, it->seq};
    keys.erase(it);
    --live;
    now = out.first;
    ++fired;
    return out;
  }
  /// run_until's tail: nothing at or before `until` is left to fire.
  void park(std::int64_t until) {
    skim();
    EXPECT_TRUE(keys.empty() || min_key()->at > until);
    now = std::max(now, until);
  }
  [[nodiscard]] std::vector<Fired> pending_events() const {
    std::vector<Fired> out;
    for (const Key& k : keys) {
      if (!k.cancelled) out.emplace_back(k.at, k.seq);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  [[nodiscard]] std::vector<Key>::iterator min_key() {
    return std::min_element(keys.begin(), keys.end(),
                            [](const Key& a, const Key& b) {
                              return std::pair(a.at, a.seq) <
                                     std::pair(b.at, b.seq);
                            });
  }

  std::vector<Key> keys;
  std::int64_t now = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t fired = 0;
  std::size_t live = 0;
  std::size_t cancelled = 0;
};

/// Drives an EventQueue and a ModelQueue with the same random operations,
/// including schedules and cancels made from inside firing callbacks.
class Lockstep {
 public:
  /// `live` counts the live copies of each event's capture (by seq); it
  /// must outlive this object, whose queue destroys the unfired ones.
  Lockstep(std::uint64_t seed, std::deque<int>& live)
      : rng_(seed), live_(live) {}
  Lockstep(const Lockstep&) = delete;
  Lockstep& operator=(const Lockstep&) = delete;

  void step() {
    const std::uint64_t r = rng_.below(100);
    const std::int64_t now = q_.now().ns();
    if (r < 14) {
      // In order: never earlier than anything scheduled in order so far.
      frontier_ = std::max(frontier_, now) +
                  static_cast<std::int64_t>(rng_.below(3)) * 1000;
      schedule(frontier_);
    } else if (r < 26) {
      const std::int64_t window = std::max<std::int64_t>(frontier_ - now, 0);
      schedule(now + static_cast<std::int64_t>(rng_.below(
                         static_cast<std::uint64_t>(window) + 5000)));
    } else if (r < 32) {
      schedule(rng_.below(2) == 0 ? now : std::max(now, frontier_));
    } else if (r < 50) {
      if (!handles_.empty()) cancel(rng_.below(handles_.size()));
    } else if (r < 80) {
      const bool ran = q_.run_one();
      if (!ran) {
        EXPECT_FALSE(model_.pop().has_value());
      }
    } else if (r < 84) {
      const std::int64_t until =
          now + static_cast<std::int64_t>(rng_.below(20'000));
      q_.run_until(SimTime{until});
      model_.park(until);
    } else if (r < 86) {
      // A burst of in-order events, most cancelled at once: drives the
      // compaction trigger with the lane holding many keys.
      const std::size_t first = handles_.size();
      const std::size_t n = 20 + rng_.below(120);
      for (std::size_t i = 0; i < n; ++i) {
        frontier_ = std::max(frontier_, now) + 100;
        schedule(frontier_);
      }
      for (std::size_t i = first; i < handles_.size(); ++i) {
        if (rng_.below(10) < 8) cancel(i);
      }
    }
  }

  void check() {
    ASSERT_EQ(q_.now().ns(), model_.now);
    ASSERT_EQ(q_.events_fired(), model_.fired);
    ASSERT_EQ(q_.pending(), model_.live);
    ASSERT_EQ(q_.heap_size(), model_.keys.size());
    ASSERT_EQ(q_.cancelled_in_heap(), model_.cancelled);
    ASSERT_EQ(q_.next_sequence(), model_.next_seq);
    std::vector<ModelQueue::Fired> real;
    for (const auto& e : q_.pending_events()) {
      real.emplace_back(e.at.ns(), e.seq);
    }
    ASSERT_EQ(real, model_.pending_events());
  }

  [[nodiscard]] const std::vector<ModelQueue::Fired>& fired() const {
    return fired_;
  }

 private:
  enum class Action : std::uint8_t { kNone, kChild, kCancelOther, kCancelSelf };
  struct Tracked {
    EventHandle handle;
    std::uint64_t seq;
    bool cancelled;  // a cancel through this handle took effect (model)
  };
  /// The event callable: `seq` doubles as its handle's index.
  template <std::size_t PadBytes>
  struct Fire {
    void operator()() { owner->fire(seq, live); }
    Lockstep* owner;
    std::uint64_t seq;
    LifeProbe live;
    std::array<unsigned char, PadBytes> pad{};
  };

  void schedule(std::int64_t at) {
    const std::uint64_t seq = q_.next_sequence();
    const std::uint64_t r = rng_.below(100);
    actions_.push_back(r < 50   ? Action::kNone
                       : r < 75 ? Action::kChild
                       : r < 90 ? Action::kCancelOther
                                : Action::kCancelSelf);
    live_.push_back(0);
    EventHandle h;
    if (rng_.below(8) == 0) {  // some callables too large for a slot
      h = q_.schedule(SimTime{at}, Fire<96>{this, seq, LifeProbe{&live_[seq]}});
    } else {
      h = q_.schedule(SimTime{at}, Fire<0>{this, seq, LifeProbe{&live_[seq]}});
    }
    ASSERT_EQ(model_.schedule(at), seq);
    handles_.push_back({h, seq, false});
  }

  void cancel(std::size_t index) {
    Tracked& t = handles_[index];
    if (!t.cancelled) t.cancelled = model_.cancel(t.seq);
    t.handle.cancel();
    EXPECT_EQ(t.handle.cancelled(), t.cancelled) << "seq " << t.seq;
  }

  void fire(std::uint64_t seq, const LifeProbe& probe) {
    EXPECT_EQ(*probe.live, 1) << "seq " << seq << " fired without its capture";
    const auto expected = model_.pop();
    ASSERT_TRUE(expected.has_value()) << "seq " << seq;
    ASSERT_EQ(*expected, ModelQueue::Fired(q_.now().ns(), seq));
    fired_.push_back(*expected);
    EXPECT_EQ(q_.pending(), model_.live);
    switch (actions_[seq]) {
      case Action::kNone:
        break;
      case Action::kChild:
        schedule(q_.now().ns() +
                 static_cast<std::int64_t>(rng_.below(3)) *
                     static_cast<std::int64_t>(rng_.below(4000)));
        break;
      case Action::kCancelOther:
        cancel(rng_.below(handles_.size()));
        break;
      case Action::kCancelSelf:
        cancel(seq);
        break;
    }
  }

  util::Xoshiro256 rng_;
  ModelQueue model_;
  std::vector<ModelQueue::Fired> fired_;
  std::vector<Tracked> handles_;
  std::vector<Action> actions_;
  std::deque<int>& live_;
  std::int64_t frontier_ = 0;
  // Declared last: destroyed first, while live_ still counts the captures.
  EventQueue q_;
};

TEST(EventQueue, LockstepWithSingleHeapModel) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::deque<int> live;
    {
      Lockstep run(seed, live);
      for (int i = 0; i < 6000; ++i) {
        run.step();
        run.check();
        if (::testing::Test::HasFatalFailure()) return;
      }
      EXPECT_GT(run.fired().size(), 1000u);
    }
    EXPECT_TRUE(std::all_of(live.begin(), live.end(),
                            [](int n) { return n == 0; }))
        << "every capture is destroyed exactly once";
  }
}

TEST(Simulation, NamedRngStreamsAreStableAndIndependent) {
  Simulation sim_a(99);
  Simulation sim_b(99);
  // Same seed + same stream name -> identical sequences.
  EXPECT_EQ(sim_a.rng("x")(), sim_b.rng("x")());
  // Different stream names -> different sequences (overwhelmingly likely).
  Simulation sim_c(99);
  EXPECT_NE(sim_c.rng("x")(), sim_c.rng("y")());
}

TEST(Simulation, RunExecutesScheduled) {
  Simulation sim(1);
  int count = 0;
  sim.after(Duration::seconds_i(1), [&] { ++count; });
  sim.at(SimTime::from_seconds(2.0), [&] { ++count; });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), SimTime::from_seconds(2.0));
}

}  // namespace
}  // namespace pythia::sim
