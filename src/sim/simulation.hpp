// Simulation context: clock + event queue + seeded RNG streams.
//
// Every model component receives a `Simulation&` and interacts with simulated
// time exclusively through it. Components requiring randomness ask for a
// named stream so that adding a new consumer never perturbs existing streams
// (which would silently change every experiment).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/random.hpp"
#include "util/time.hpp"

namespace pythia::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : seed_(seed) {}

  [[nodiscard]] util::SimTime now() const { return queue_.now(); }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  template <class F>
  EventHandle at(util::SimTime t, F&& fn) {
    return queue_.schedule(t, std::forward<F>(fn));
  }
  template <class F>
  EventHandle after(util::Duration d, F&& fn) {
    return queue_.schedule_after(d, std::forward<F>(fn));
  }

  /// Runs the simulation to completion (or `max_events`).
  std::size_t run(std::size_t max_events = SIZE_MAX) {
    return queue_.run_all(max_events);
  }
  std::size_t run_until(util::SimTime t) { return queue_.run_until(t); }

  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

  /// Returns a stable per-name RNG stream derived from the root seed.
  util::Xoshiro256& rng(const std::string& stream_name);

  // --- snapshot support (see sim/snapshot.hpp) ---

  /// Names of every RNG stream materialized so far, sorted — the canonical
  /// order snapshots serialize lanes in.
  [[nodiscard]] std::vector<std::string> rng_stream_names() const;
  /// Stream by name without materializing it; nullptr when never requested.
  [[nodiscard]] const util::Xoshiro256* find_rng(
      const std::string& stream_name) const;

  /// Forwards to EventQueue::install_abort_check (cooperative run timeout).
  void install_abort_check(std::function<bool()> should_abort) {
    queue_.install_abort_check(std::move(should_abort));
  }

 private:
  std::uint64_t seed_;
  EventQueue queue_;
  std::unordered_map<std::string, std::unique_ptr<util::Xoshiro256>> streams_;
};

}  // namespace pythia::sim
