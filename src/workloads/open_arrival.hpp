// Open-arrival multi-tenant intent storm.
//
// The single-job engine drives the collector from one job's lifecycle; this
// driver models the contended cluster of the ROADMAP's multi-tenant item
// (mix shaped after the MapReduce network-load analysis of arXiv 1206.2016):
// a Poisson stream of jobs from several tenants, mixing Sort-like (few large
// flows), Nutch-like (many small flows), and small ad-hoc jobs, each
// emitting reducer locations, per-(map, reducer) shuffle intents in waves,
// and a completion. Arrivals are quantized to a tick so concurrent jobs
// land intents in the same simulation instant — the event cohorts the
// cohort pipelines drain in one batch.
//
// The driver produces a deterministic storm, kept per job rather than per
// event and read in time order. Scheduling it against a Collector is a
// separate step so benches can replay the exact same storm into differently
// configured pipelines.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "core/prediction.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace pythia::core {
class Collector;
}

namespace pythia::workloads {

struct OpenArrivalConfig {
  /// Jobs in the storm.
  std::size_t jobs = 32;
  /// Mean inter-arrival gap (Poisson process); zero starts every job at
  /// t = 0, a negative gap is rejected. Scale this down (and jobs up) to
  /// sweep arrival rate.
  util::Duration mean_interarrival = util::Duration::millis(40);
  /// Arrival quantum: every event time is rounded down to a tick multiple,
  /// so concurrent jobs collide into shared event cohorts.
  util::Duration tick = util::Duration::millis(10);
  /// Tenants (at least one); job j belongs to tenant j % tenants with
  /// scheduling priority tenants - tenant (tenant 0 is the highest-priority
  /// one).
  std::size_t tenants = 4;

  /// Job-class mix: Sort-like (few large flows), Nutch-like (many small
  /// flows), remainder small ad-hoc jobs.
  double sort_fraction = 0.35;
  double nutch_fraction = 0.35;

  /// Per-class shape: servers hosting map tasks, map tasks per server,
  /// reducer count, and per-(map, reducer) flow volume (jittered ±50%).
  std::size_t sort_map_servers = 6;
  std::size_t sort_maps_per_server = 2;
  std::size_t sort_reducers = 4;
  util::Bytes sort_flow_bytes = util::Bytes{8LL * 1000 * 1000};
  std::size_t nutch_map_servers = 8;
  std::size_t nutch_maps_per_server = 3;
  std::size_t nutch_reducers = 6;
  util::Bytes nutch_flow_bytes = util::Bytes{1'500'000};
  std::size_t small_map_servers = 2;
  std::size_t small_maps_per_server = 1;
  std::size_t small_reducers = 2;
  util::Bytes small_flow_bytes = util::Bytes{256'000};

  /// Reducers are spread over this many consecutive servers starting at a
  /// random offset (keeps some pods hotter than others).
  std::size_t reducer_server_spread = 3;
  /// Map-output waves per job: each wave (one tick apart) emits one intent
  /// per (map task, reducer).
  std::size_t waves = 3;
};

/// One collector-facing event of the storm.
struct StormEvent {
  enum class Kind : std::uint8_t {
    kReducerLocated = 0,
    kIntent = 1,
    kJobCompleted = 2,
  };
  Kind kind = Kind::kIntent;
  util::SimTime at;
  core::ShuffleIntent intent;  // kIntent only
  std::size_t job_serial = 0;
  std::size_t reduce_index = 0;   // kReducerLocated only
  net::NodeId server;             // kReducerLocated only
};

/// A generated storm, kept per job: a row per job (start, class, tenant,
/// priority, map and reduce host offsets), each intent's byte draw in
/// generation order, and a segment index. A segment is one job's events at
/// one instant; the index lists the segments by (instant, job), which is the
/// storm's order. StormEvents are rebuilt from these when the storm is
/// iterated or when one of its instants fires.
class Storm {
 public:
  /// Reads the storm's events in time order. Each event is built in a
  /// buffer that holds one segment, valid until the iterator advances.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = StormEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = const StormEvent*;
    using reference = const StormEvent&;

    reference operator*() const { return events_[pos_]; }
    pointer operator->() const { return &events_[pos_]; }
    Iterator& operator++();
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.segment_ == b.segment_ && a.pos_ == b.pos_;
    }

   private:
    friend class Storm;
    Iterator(const Storm& storm, std::size_t segment);
    void load();

    const Storm* storm_ = nullptr;
    std::size_t segment_ = 0;
    std::size_t pos_ = 0;
    std::vector<StormEvent> events_;  // the current segment's
  };

  [[nodiscard]] Iterator begin() const { return {*this, 0}; }
  [[nodiscard]] Iterator end() const { return {*this, segments_.size()}; }
  [[nodiscard]] bool empty() const { return segments_.empty(); }

 private:
  friend Storm generate_storm(const OpenArrivalConfig& cfg,
                              const net::Topology& topo, std::uint64_t seed);
  friend void schedule_storm(sim::Simulation& sim, core::Collector& collector,
                             const Storm& storm);
  friend std::size_t storm_intent_count(const Storm& storm);

  struct Shape {
    std::size_t map_servers = 0;
    std::size_t maps_per_server = 0;
    std::size_t reducers = 0;
    util::Bytes flow_bytes;
    /// One intent per (map task, reducer).
    [[nodiscard]] std::size_t intents_per_wave() const {
      return map_servers * maps_per_server * reducers;
    }
  };
  struct Job {
    std::int64_t start_ns = 0;
    std::size_t first_draw = 0;  // index of its first intent's draw
    std::uint32_t map_offset = 0;
    std::uint32_t reduce_offset = 0;
    std::uint32_t tenant = 0;
    std::int32_t priority = 0;
    std::uint8_t shape = 0;  // index into shapes_
  };
  /// The completion's part; parts below it are waves (part 0 carries the
  /// reducer locations too, and exists when `waves` is 0).
  static constexpr std::uint32_t kCompletion =
      std::numeric_limits<std::uint32_t>::max();
  struct Segment {
    std::int64_t at_ns = 0;
    std::uint32_t job = 0;
    std::uint32_t part = 0;
  };

  /// Calls `visit` with each event of `seg`, in generation order.
  template <class Visit>
  void expand(const Segment& seg, Visit&& visit) const;
  /// Delivers segments [first, last) to `collector`.
  void deliver(core::Collector& collector, std::uint32_t first,
               std::uint32_t last) const;

  std::vector<net::NodeId> hosts_;
  std::array<Shape, 3> shapes_{};
  std::size_t waves_ = 0;
  std::size_t spread_ = 1;
  std::vector<Job> jobs_;
  std::vector<util::Bytes> draws_;
  std::vector<Segment> segments_;
};

/// Deterministic storm for a seed over `topo`'s hosts. Its iteration gives
/// the order a stable sort of the jobs' events by time would give: time
/// never decreases; within an instant, jobs come in index order, and a
/// job's reducer locations come before its intents. Throws
/// std::invalid_argument naming the field, before any random draw or
/// allocation, when `cfg.tenants` is 0, `cfg.mean_interarrival` is
/// negative, a class fraction is NaN or outside [0, 1], the two fractions
/// sum to more than 1, or the storm's event counts overflow std::size_t or
/// its 32-bit segment index.
[[nodiscard]] Storm generate_storm(const OpenArrivalConfig& cfg,
                                   const net::Topology& topo,
                                   std::uint64_t seed);

/// Schedules the storm against `collector` on `sim`'s event queue: one event
/// per instant, which delivers that instant's events in the storm's order.
/// Its events read `storm` when they fire, so it must outlive the run and
/// stay unmodified; a temporary storm is rejected.
void schedule_storm(sim::Simulation& sim, core::Collector& collector,
                    const Storm& storm);
void schedule_storm(sim::Simulation& sim, core::Collector& collector,
                    Storm&& storm) = delete;

/// Number of kIntent events in the storm.
[[nodiscard]] std::size_t storm_intent_count(const Storm& storm);

}  // namespace pythia::workloads
