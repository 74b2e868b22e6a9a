// Experiment scenario: one fully wired testbed instance.
//
// Builds the topology, fluid fabric, SDN controller, background traffic,
// MapReduce engine, and the selected flow scheduler, then runs jobs to
// completion. Every evaluation bench and integration test goes through this.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pythia_system.hpp"
#include "hadoop/engine.hpp"
#include "net/background.hpp"
#include "net/fabric.hpp"
#include "net/netflow.hpp"
#include "net/topology.hpp"
#include "sdn/controller.hpp"
#include "sdn/hedera_app.hpp"
#include "sim/simulation.hpp"

namespace pythia::exp {

enum class SchedulerKind {
  kEcmp,          // baseline: hash-based, load-unaware (paper's comparator)
  kPythia,        // full system: prediction + load-aware first-fit
  kHedera,        // reactive load-aware elephant rescheduling
  kFlowCombLike,  // prediction-driven but load-blind and slower to detect
  kStaticOracle,  // offline: pin all cross-rack pairs to the least-loaded path
  kPacketSpray,   // idealized MPTCP-style striping across all equal paths
};

[[nodiscard]] std::string scheduler_name(SchedulerKind kind);

enum class TopologyKind { kTwoRack, kLeafSpine };

struct ScenarioConfig {
  std::uint64_t seed = 1;

  TopologyKind topology_kind = TopologyKind::kTwoRack;
  net::TwoRackConfig two_rack;
  net::LeafSpineConfig leaf_spine;

  net::BackgroundSpec background;
  sdn::ControllerConfig controller;
  sdn::HederaConfig hedera;
  core::PythiaConfig pythia;
  /// Extra intent delay applied in the kFlowCombLike arm.
  util::Duration flowcomb_extra_delay = util::Duration::seconds_i(3);

  /// Slot/copy parameters; `servers` is filled from the topology.
  hadoop::ClusterConfig cluster;

  SchedulerKind scheduler = SchedulerKind::kEcmp;
  /// Attach a NetFlow probe on the shuffle port (needed for Fig. 5).
  bool enable_netflow = false;
};

/// One knob set for the control-plane fault ablation: how broken are the two
/// control channels and the switch tables. All zeros (the default) leaves the
/// scenario byte-identical to a fault-free run.
struct ControlPlaneFaultProfile {
  /// Drop probability on instrumentation→collector intent messages.
  double intent_loss = 0.0;
  /// Random extra delay on intent messages (uniform in [0, jitter]).
  util::Duration intent_jitter = util::Duration::zero();
  /// Duplicate probability on intent messages.
  double intent_duplicate = 0.0;
  /// Drop probability on controller→switch flow-mods.
  double flow_mod_loss = 0.0;
  /// Probability a switch rejects an install attempt outright.
  double install_reject = 0.0;
  /// Per-switch flow-table budget for host-pair rules (0 = unbounded).
  std::size_t flow_table_capacity = 0;
};

/// Applies a fault profile to the scenario's controller + Pythia configs.
void apply_control_plane_faults(ScenarioConfig& cfg,
                                const ControlPlaneFaultProfile& profile);

class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Submits the job, runs the simulation until it completes, returns the
  /// result. Can be called repeatedly for job sequences.
  hadoop::JobResult run_job(const hadoop::JobSpec& spec);

  // --- partial-run API (checkpoint capture, divergence bisection) ---

  /// Submits `spec` without running the simulation. Pair with run_until /
  /// run_to_event_count and close with finish(). One outstanding job at a
  /// time (asserted).
  void submit_job(const hadoop::JobSpec& spec);
  /// Runs events with timestamp <= `until`; the clock parks at `until`.
  void run_until(util::SimTime until);
  /// Runs until the simulation has fired `events` events in total (counted
  /// from construction, i.e. an absolute event cursor); stops early if the
  /// queue drains.
  void run_to_event_count(std::uint64_t events);
  /// True once the job submitted via submit_job has completed.
  [[nodiscard]] bool job_done() const { return pending_result_.has_value(); }
  /// Drains the queue and returns the submitted job's result.
  hadoop::JobResult finish();

  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Simulation& simulation() { return *sim_; }
  [[nodiscard]] const net::Topology& topology() const { return topo_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] sdn::Controller& controller() { return *controller_; }
  [[nodiscard]] hadoop::MapReduceEngine& engine() { return *engine_; }
  /// Null unless the scheduler is kPythia or kFlowCombLike.
  [[nodiscard]] core::PythiaSystem* pythia() { return pythia_.get(); }
  /// Null unless the scheduler is kHedera.
  [[nodiscard]] sdn::HederaApp* hedera() { return hedera_.get(); }
  /// Null unless enable_netflow.
  [[nodiscard]] net::NetFlowProbe* netflow() { return netflow_.get(); }
  [[nodiscard]] const net::BackgroundHandle& background() const {
    return background_;
  }
  [[nodiscard]] const std::vector<net::NodeId>& servers() const {
    return servers_;
  }

 private:
  void install_static_oracle();

  /// Result slot for the partial-run API; engaged when the job completes.
  std::optional<hadoop::JobResult> pending_result_;
  bool job_submitted_ = false;

  ScenarioConfig cfg_;
  net::Topology topo_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<sdn::Controller> controller_;
  std::unique_ptr<net::NetFlowProbe> netflow_;
  net::BackgroundHandle background_;
  std::vector<net::NodeId> servers_;
  std::unique_ptr<hadoop::MapReduceEngine> engine_;
  std::unique_ptr<core::PythiaSystem> pythia_;
  std::unique_ptr<sdn::HederaApp> hedera_;
};

}  // namespace pythia::exp
