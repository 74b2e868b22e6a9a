// Heap cost of the open-arrival storm at the end-to-end benchmark's size.
//
// This binary replaces the global operator new/delete with versions that
// track the bytes allocated and still live, by malloc_usable_size.
// Counting is off except inside an AllocWindow, so gtest's own bookkeeping
// never shows up in a measurement. The storm is the control_storm
// workload's: 2 000 jobs 40 ms apart on average over a k = 8 fat tree
// (128 hosts), about 410 k intents.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>

#include "core/allocator.hpp"
#include "core/collector.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sdn/controller.hpp"
#include "sim/simulation.hpp"
#include "workloads/open_arrival.hpp"

namespace {

bool g_counting = false;
std::size_t g_allocated = 0;
std::size_t g_freed = 0;

}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (g_counting) g_allocated += malloc_usable_size(p);
  return p;
}
void operator delete(void* p) noexcept {
  if (p != nullptr && g_counting) g_freed += malloc_usable_size(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace pythia::workloads {
namespace {

/// Counts the heap bytes allocated, and those freed, while it is alive.
class AllocWindow {
 public:
  AllocWindow() {
    g_allocated = 0;
    g_freed = 0;
    g_counting = true;
  }
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;
  ~AllocWindow() { g_counting = false; }
  /// Allocated in the window and not freed in it.
  [[nodiscard]] std::size_t live() const { return g_allocated - g_freed; }
  [[nodiscard]] std::size_t freed() const { return g_freed; }
};

net::Topology fat_tree8() {
  net::FatTreeConfig cfg;
  cfg.k = 8;
  return net::make_fat_tree(cfg);
}

OpenArrivalConfig control_storm() {
  OpenArrivalConfig cfg;
  cfg.jobs = 2000;
  cfg.mean_interarrival = util::Duration::millis(40);
  return cfg;
}

// A StormEvent is 96 bytes, and one queue event per storm event kept ~100
// more in the queue: the storm keeps a draw per intent and rows per job and
// per job-instant, and queues one event per instant.
TEST(StormFootprint, StormKeepsAtMost16BytesPerIntent) {
  const net::Topology topo = fat_tree8();
  std::size_t kept = 0;
  std::size_t intents = 0;
  {
    AllocWindow window;
    const Storm storm = generate_storm(control_storm(), topo, /*seed=*/1);
    kept = window.live();
    intents = storm_intent_count(storm);
  }
  ASSERT_GT(intents, 400'000u);
  std::printf("storm: %zu B for %zu intents, %.2f B per intent\n", kept,
              intents,
              static_cast<double>(kept) / static_cast<double>(intents));
  EXPECT_LE(kept, 16 * intents);
}

// The generator sizes its tables up front, the draws a quarter above their
// expected count, so none of them moves while it fills them: growth by
// doubling freed ~4 MB of old draw buffers per storm, holes that decided
// whether repeated runs in one process reused the heap.
TEST(StormFootprint, GenerateFreesNothing) {
  const net::Topology topo = fat_tree8();
  std::size_t freed = 0;
  {
    AllocWindow window;
    const Storm storm = generate_storm(control_storm(), topo, /*seed=*/1);
    freed = window.freed();
  }
  EXPECT_EQ(freed, 0u);
}

TEST(StormFootprint, ScheduleQueuesOneEventPerInstant) {
  const net::Topology topo = fat_tree8();
  const Storm storm = generate_storm(control_storm(), topo, /*seed=*/1);
  std::set<util::SimTime> instants;
  for (const StormEvent& e : storm) instants.insert(e.at);

  sim::Simulation sim(1);
  net::Fabric fabric(sim, topo);
  sdn::Controller controller(sim, fabric, topo);
  core::Allocator allocator(controller);
  core::Collector collector(sim, allocator);
  std::size_t queued = 0;
  {
    AllocWindow window;
    schedule_storm(sim, collector, storm);
    queued = window.live();
  }
  std::printf("queue: %zu events for %zu instants, %zu B\n",
              sim.queue().pending(), instants.size(), queued);
  EXPECT_EQ(sim.queue().pending(), instants.size());
  EXPECT_EQ(sim.queue().next_sequence(), instants.size());
}

}  // namespace
}  // namespace pythia::workloads
