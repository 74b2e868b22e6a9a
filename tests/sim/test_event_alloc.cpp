// Allocation counts of the event core in steady state.
//
// This binary replaces the global operator new/delete with counting
// versions. Counting is off except inside an AllocWindow, so gtest's own
// bookkeeping never shows up in a measurement.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.hpp"
#include "sim/fault_channel.hpp"
#include "sim/simulation.hpp"
#include "util/random.hpp"

namespace {

bool g_counting = false;
std::size_t g_allocs = 0;
std::size_t g_frees = 0;

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p != nullptr && g_counting) ++g_frees;
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr && g_counting) ++g_frees;
  std::free(p);
}

namespace pythia::sim {
namespace {

using util::Duration;
using util::SimTime;

/// Counts allocations and frees made while it is alive.
class AllocWindow {
 public:
  AllocWindow() {
    g_allocs = 0;
    g_frees = 0;
    g_counting = true;
  }
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;
  ~AllocWindow() { g_counting = false; }
  [[nodiscard]] std::size_t allocs() const { return g_allocs; }
  [[nodiscard]] std::size_t frees() const { return g_frees; }
};

constexpr int kEvents = 100'000;

/// A callable of exactly `Bytes` bytes that adds its payload to `*sink`.
template <std::size_t Bytes>
struct Payload {
  void operator()() const {
    for (std::uint64_t w : words) *sink += w;
  }
  std::uint64_t* sink;
  std::array<std::uint64_t, Bytes / 8 - 1> words;
};

TEST(EventAlloc, ScheduleAndFireInlineCaptureAllocatesNothing) {
  static_assert(sizeof(Payload<56>) == EventQueue::kInlineBytes);
  EventQueue q;
  util::Xoshiro256 rng(3);
  std::uint64_t sink = 0;
  // ~1,000 events pending; each fired event is replaced by one more.
  const auto churn = [&](int events) {
    for (int i = 0; i < events; ++i) {
      const Duration delay{static_cast<std::int64_t>(rng.below(1'000'000))};
      q.schedule_after(delay, Payload<56>{&sink, {1, 2, 3, 4, 5, 6}});
      ASSERT_TRUE(q.run_one());
    }
  };
  for (int i = 0; i < 1'000; ++i) {
    q.schedule(SimTime{static_cast<std::int64_t>(rng.below(1'000'000))},
               Payload<56>{&sink, {}});
  }
  churn(kEvents);  // warm-up: slab, heap and lane reach their sizes
  AllocWindow window;
  churn(kEvents);
  EXPECT_EQ(window.allocs(), 0u);
  EXPECT_EQ(q.pending(), 1'000u);
  EXPECT_GT(sink, 0u);
}

TEST(EventAlloc, CancelAndRescheduleChurnAllocatesNothing) {
  // The fabric cancels and re-arms its completion event on every recompute,
  // among ~1,000 other pending events that re-arm themselves as they fire.
  EventQueue q;
  util::Xoshiro256 rng(5);
  struct Rearm {
    void operator()() const {
      q->schedule_after(
          Duration{static_cast<std::int64_t>(rng->below(1'000'000'000))},
          *this);
    }
    EventQueue* q;
    util::Xoshiro256* rng;
  };
  for (int i = 0; i < 1'000; ++i) Rearm{&q, &rng}();
  EventHandle completion;
  const auto churn = [&](int events) {
    for (int i = 0; i < events; ++i) {
      completion.cancel();
      completion = q.schedule_after(
          Duration{static_cast<std::int64_t>(rng.below(1'000'000))}, [] {});
      if (i % 8 == 0) q.run_one();
    }
  };
  churn(kEvents);
  AllocWindow window;
  churn(kEvents);
  EXPECT_EQ(window.allocs(), 0u);
  EXPECT_LE(q.pending(), 1'001u);
  EXPECT_LT(q.heap_size(), 3'000u);
}

TEST(EventAlloc, InterleavedPeriodicSourcesAllocateNothing) {
  // Two sources each re-arm one period after firing, offset by half a
  // period: every key is scheduled in time order, so the lane takes them
  // all and never drains. A lane that kept its consumed prefix (or a deque
  // lane) would allocate as it advances.
  EventQueue q;
  constexpr Duration kPeriod{10};
  std::uint64_t fired = 0;
  struct Source {
    void operator()() const {
      ++*fired;
      q->schedule_after(kPeriod, *this);
    }
    EventQueue* q;
    std::uint64_t* fired;
  };
  q.schedule(SimTime{0}, Source{&q, &fired});
  q.schedule(SimTime{5}, Source{&q, &fired});
  q.run_all(kEvents);
  AllocWindow window;
  q.run_all(kEvents);
  EXPECT_EQ(window.allocs(), 0u);
  EXPECT_EQ(fired, 2u * kEvents);
  EXPECT_EQ(q.heap_size(), 2u);
}

TEST(EventAlloc, TransparentChannelSendAllocatesNothing) {
  static_assert(sizeof(Payload<64>) == 64);
  Simulation sim(1);
  FaultChannel channel(sim, "alloc.channel");
  ASSERT_TRUE(channel.transparent());
  std::uint64_t sink = 0;
  channel.send(Payload<64>{&sink, {}});
  AllocWindow window;
  for (int i = 0; i < kEvents; ++i) {
    channel.send(Payload<64>{&sink, {1, 2, 3, 4, 5, 6, 7}});
  }
  EXPECT_EQ(window.allocs(), 0u);
  EXPECT_EQ(channel.messages_delivered(), kEvents + 1u);
  EXPECT_EQ(sink, 28u * kEvents);
}

TEST(EventAlloc, OversizedCaptureCostsOneAllocation) {
  static_assert(sizeof(Payload<128>) > EventQueue::kInlineBytes);
  EventQueue q;
  std::uint64_t sink = 0;
  q.schedule(SimTime{1}, [] {});  // grows the slab and the lane
  q.run_one();
  AllocWindow window;
  q.schedule(SimTime{2}, Payload<128>{&sink, {}});
  q.run_one();
  EXPECT_EQ(window.allocs(), 1u);
  EXPECT_EQ(window.frees(), 1u);
}

}  // namespace
}  // namespace pythia::sim
