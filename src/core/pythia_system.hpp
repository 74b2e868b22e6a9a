// Pythia, assembled: instrumentation middleware + collector + allocator,
// attached to a MapReduce engine and an SDN controller. This is the main
// user-facing entry point for turning Pythia on over a simulated cluster.
#pragma once

#include <memory>

#include "core/allocator.hpp"
#include "core/collector.hpp"
#include "core/instrumentation.hpp"
#include "core/watchdog.hpp"
#include "hadoop/engine.hpp"
#include "sdn/controller.hpp"

namespace pythia::core {

struct PythiaConfig {
  InstrumentationConfig instrumentation;
  CollectorConfig collector;
  AllocatorConfig allocator;
  /// Orchestra-style proportional bandwidth: weight each shuffle flow by its
  /// destination server's outstanding predicted volume, so a reducer
  /// receiving 5x the data gets ~5x the network capacity (the paper's
  /// Section II intuition, actuated through weighted max-min sharing).
  bool weighted_flows = false;
  /// Weight clamp range when weighted_flows is on. The PythiaSystem
  /// constructor throws std::invalid_argument unless both are finite with
  /// 0 < min_flow_weight <= max_flow_weight.
  double min_flow_weight = 0.25;
  double max_flow_weight = 8.0;
  /// Control-plane health watchdog (falls back to ECMP when the management
  /// channel or rule installs degrade). The system widens the staleness
  /// threshold by the configured instrumentation pipeline latency so
  /// deliberately delayed arms never trip it.
  WatchdogConfig watchdog;
};

class PythiaSystem final : public hadoop::EngineObserver {
 public:
  /// Attaches Pythia to `engine` (registers itself as an observer) and
  /// drives `controller` for rule installation.
  PythiaSystem(sim::Simulation& sim, hadoop::MapReduceEngine& engine,
               sdn::Controller& controller, PythiaConfig cfg = {});

  PythiaSystem(const PythiaSystem&) = delete;
  PythiaSystem& operator=(const PythiaSystem&) = delete;

  [[nodiscard]] Instrumentation& instrumentation() { return *instrumentation_; }
  [[nodiscard]] Collector& collector() { return *collector_; }
  [[nodiscard]] Allocator& allocator() { return *allocator_; }
  [[nodiscard]] ControlPlaneWatchdog& watchdog() { return *watchdog_; }
  [[nodiscard]] const Instrumentation& instrumentation() const {
    return *instrumentation_;
  }
  [[nodiscard]] const Collector& collector() const { return *collector_; }
  [[nodiscard]] const Allocator& allocator() const { return *allocator_; }
  [[nodiscard]] const ControlPlaneWatchdog& watchdog() const {
    return *watchdog_;
  }

  // EngineObserver (delegating to the middleware components):
  void on_map_output_ready(const hadoop::MapOutputNotice& notice) override;
  void on_reducer_started(std::size_t job_serial, std::size_t reduce_index,
                          net::NodeId server, util::SimTime at) override;
  void on_fetch_started(std::size_t job_serial,
                        const hadoop::FetchRecord& fetch,
                        net::FlowId flow) override;
  void on_fetch_completed(std::size_t job_serial,
                          const hadoop::FetchRecord& fetch) override;
  void on_job_completed(std::size_t job_serial,
                        const hadoop::JobResult& result) override;

  /// Serializes the entire Pythia stack for snapshots: instrumentation,
  /// collector, allocator, and watchdog state, in that fixed order.
  void encode_state(sim::StateEncoder& enc) const;

 private:
  // pythia-lint: allow(snapshot-skip, group) wiring and config identity:
  // the controller pointer is re-connected and cfg_ re-supplied by the
  // fingerprinted scenario on restore; the owned subsystems below each
  // contribute their own encode_state sections.
  sdn::Controller* controller_;
  PythiaConfig cfg_;
  std::unique_ptr<Allocator> allocator_;
  std::unique_ptr<Collector> collector_;
  std::unique_ptr<Instrumentation> instrumentation_;
  std::unique_ptr<ControlPlaneWatchdog> watchdog_;
};

}  // namespace pythia::core
