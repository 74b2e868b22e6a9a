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
// The driver produces a deterministic event list in time order, written in
// that order as the jobs are generated rather than sorted afterwards.
// Scheduling it against a Collector is a separate step so benches can
// replay the exact same storm into differently configured pipelines.
#pragma once

#include <cstdint>
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

/// Deterministic storm for a seed over `topo`'s hosts, in the order a
/// stable sort of the jobs' events by time would give: time never
/// decreases; within an instant, jobs come in index order, and a job's
/// reducer locations come before its intents. Scheduling in this order
/// preserves it per instant. Throws std::invalid_argument, before any
/// random draw, when `cfg.tenants` is 0 or `cfg.mean_interarrival` is
/// negative.
[[nodiscard]] std::vector<StormEvent> generate_storm(
    const OpenArrivalConfig& cfg, const net::Topology& topo,
    std::uint64_t seed);

/// Schedules every storm event against `collector` on `sim`'s event queue.
/// The events are read in place when they fire, so `events` must outlive
/// the run and stay unmodified; a temporary vector is rejected.
void schedule_storm(sim::Simulation& sim, core::Collector& collector,
                    const std::vector<StormEvent>& events);
void schedule_storm(sim::Simulation& sim, core::Collector& collector,
                    std::vector<StormEvent>&& events) = delete;

/// Number of kIntent events in the storm.
[[nodiscard]] std::size_t storm_intent_count(
    const std::vector<StormEvent>& events);

}  // namespace pythia::workloads
