// Workloads of the end-to-end benchmark and its timed (untraced) pass.
//
// A workload is a list of cells. A job cell is one Scenario running one
// HiBench job through hadoop -> core -> sdn -> net; a storm cell drives an
// open-arrival intent storm straight into the collector, allocator and
// controller over an idle fabric. Every knob that selects an implementation
// (rate engine, cohort coalescing, intent pipeline, routing build mode)
// stays at its production default, so a change of default is measured here.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/collector.hpp"
#include "experiments/scenario.hpp"
#include "hadoop/config.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sdn/controller.hpp"
#include "sim/simulation.hpp"
#include "workloads/open_arrival.hpp"

namespace e2e {

using namespace pythia;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// FNV-1a accumulator for behaviour checksums.
class Fnv {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      add_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void add_bytes(const std::vector<std::uint8_t>& bytes) {
    for (const std::uint8_t b : bytes) add_byte(b);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void add_byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Latency samples in which one value stands for `weight` operations: every
/// intent a collector flush decided is charged that flush's wall time.
class WeightedSamples {
 public:
  void add(double value, std::uint64_t weight) {
    if (weight == 0) return;
    samples_.emplace_back(value, weight);
    total_ += weight;
  }
  /// Nearest-rank quantile of the weighted population; 0 when empty.
  [[nodiscard]] double quantile(double q);

 private:
  std::vector<std::pair<double, std::uint64_t>> samples_;
  std::uint64_t total_ = 0;
};

struct JobCell {
  exp::ScenarioConfig cfg;
  /// Called inside the set-up timer: spec generation is set-up work.
  std::function<hadoop::JobSpec()> spec;
};

struct StormCell {
  net::FatTreeConfig topo;
  workloads::OpenArrivalConfig storm;
  std::uint64_t seed = 1;
};

struct Workload {
  std::string name;
  std::vector<JobCell> jobs;
  std::vector<StormCell> storms;
};

/// Builds a workload; all of its randomness derives from `seed`. `smoke`
/// shrinks it for quick local runs. Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool smoke);

/// The stack control_storm drives: the default collector, allocator and
/// controller over an idle fabric.
struct StormStack {
  StormStack(const net::Topology& topo, std::uint64_t seed)
      : sim(seed),
        fabric(sim, topo),
        controller(sim, fabric, topo),
        allocator(controller),
        collector(sim, allocator) {}

  sim::Simulation sim;
  net::Fabric fabric;
  sdn::Controller controller;
  core::Allocator allocator;
  core::Collector collector;
};

/// Deterministic per-layer counts, summed over a pass's cells.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t full_fills = 0;
  std::uint64_t flows_touched = 0;
  std::uint64_t links_touched = 0;
  std::uint64_t deferred_recomputes = 0;
  std::uint64_t pairs_materialized = 0;
  std::uint64_t maps = 0;
  std::uint64_t fetches = 0;
  std::uint64_t map_retries = 0;
  double remote_shuffle_bytes = 0.0;
  std::uint64_t intents = 0;
  std::uint64_t aggregates = 0;
  std::uint64_t batches = 0;
  std::uint64_t allocations = 0;
  std::uint64_t reallocations = 0;
  std::uint64_t refused = 0;
  std::uint64_t install_attempts = 0;
  std::uint64_t rules_installed = 0;
  std::uint64_t install_failures = 0;
  std::uint64_t install_retries = 0;
  std::uint64_t flow_mods = 0;
};

struct PassResult {
  double wall_s = 0.0;   // timed sections, summed over cells
  double setup_s = 0.0;  // everything before each cell's first event
  WeightedSamples decisions;
  std::uint64_t attempted = 0;  // jobs, or intents for storms
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first reason per failed cell
  std::uint64_t checksum = 0;
  Counts counts;
};

/// One timed pass over every cell of `w`, with its correctness gates.
[[nodiscard]] PassResult run_pass(const Workload& w);

/// Adds one sample if `collector` flushed during the run_one() call that
/// took `micros`: that wall time is charged to every intent ingested since
/// the previous flush. `flushed` and `charged` carry that state.
void sample_flush(const core::Collector& collector, double micros,
                  std::uint64_t& flushed, std::uint64_t& charged,
                  WeightedSamples& out);

// --- shared with the traced pass ---

/// Tallies map-output payload as the engine announces it.
class MapOutputTally final : public hadoop::EngineObserver {
 public:
  void on_map_output_ready(const hadoop::MapOutputNotice& notice) override {
    for (const util::Bytes b : notice.per_reducer_payload) bytes_ += b.count();
  }
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }

 private:
  std::int64_t bytes_ = 0;
};

/// Job gates; returns the first violated one, or "" when all hold.
[[nodiscard]] std::string check_job(exp::Scenario& sc,
                                    const hadoop::JobSpec& spec,
                                    const hadoop::JobResult& result,
                                    const MapOutputTally& tally);
void hash_job(const hadoop::JobResult& result, Fnv& fnv);

/// Intents of a storm that failed: refused, expired or install-failed.
[[nodiscard]] std::uint64_t storm_failed_intents(const StormStack& s);
/// Storm gate; returns "" when every intent reached the collector.
[[nodiscard]] std::string check_storm(const StormStack& s,
                                      std::size_t storm_intents);
void hash_storm(const StormStack& s, Fnv& fnv);

}  // namespace e2e
