#include "experiments/scenario.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace pythia::exp {

std::string scheduler_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kEcmp:
      return "ECMP";
    case SchedulerKind::kPythia:
      return "Pythia";
    case SchedulerKind::kHedera:
      return "Hedera";
    case SchedulerKind::kFlowCombLike:
      return "FlowComb-like";
    case SchedulerKind::kStaticOracle:
      return "StaticOracle";
    case SchedulerKind::kPacketSpray:
      return "PacketSpray";
  }
  return "unknown";
}

namespace {
net::Topology build_topology(const ScenarioConfig& cfg) {
  switch (cfg.topology_kind) {
    case TopologyKind::kTwoRack:
      return net::make_two_rack(cfg.two_rack);
    case TopologyKind::kLeafSpine:
      return net::make_leaf_spine(cfg.leaf_spine);
  }
  throw std::invalid_argument("unknown topology kind");
}

/// Two hosts in distinct racks (for background installation).
std::pair<net::NodeId, net::NodeId> cross_rack_pair(
    const net::Topology& topo) {
  const auto hosts = topo.hosts();
  assert(!hosts.empty());
  const int rack0 = topo.node(hosts.front()).rack;
  for (net::NodeId h : hosts) {
    if (topo.node(h).rack != rack0) return {hosts.front(), h};
  }
  return {hosts.front(), hosts.front()};  // single-rack topology
}
}  // namespace

Scenario::Scenario(ScenarioConfig cfg)
    : cfg_(std::move(cfg)), topo_(build_topology(cfg_)) {
  sim_ = std::make_unique<sim::Simulation>(cfg_.seed);
  fabric_ = std::make_unique<net::Fabric>(*sim_, topo_);
  controller_ =
      std::make_unique<sdn::Controller>(*sim_, *fabric_, topo_,
                                        cfg_.controller);
  if (cfg_.enable_netflow) {
    netflow_ = std::make_unique<net::NetFlowProbe>();
    fabric_->add_observer(netflow_.get());
  }

  const auto [rack_a, rack_b] = cross_rack_pair(topo_);
  if (rack_a != rack_b) {
    background_ = net::install_background(*fabric_, controller_->routing(),
                                          rack_a, rack_b, cfg_.background);
  }

  servers_ = topo_.hosts();
  hadoop::ClusterConfig cluster = cfg_.cluster;
  cluster.servers = servers_;
  if (cfg_.scheduler == SchedulerKind::kPacketSpray) {
    cluster.multipath_spray = true;
  }
  engine_ = std::make_unique<hadoop::MapReduceEngine>(*sim_, *fabric_,
                                                      *controller_, cluster);

  switch (cfg_.scheduler) {
    case SchedulerKind::kEcmp:
      break;  // controller resolves everything through ECMP
    case SchedulerKind::kPythia:
      pythia_ = std::make_unique<core::PythiaSystem>(*sim_, *engine_,
                                                     *controller_,
                                                     cfg_.pythia);
      break;
    case SchedulerKind::kFlowCombLike: {
      core::PythiaConfig fc = cfg_.pythia;
      fc.instrumentation.extra_delay = cfg_.flowcomb_extra_delay;
      fc.allocator.load_aware = false;
      // The ECMP-fallback watchdog is a Pythia robustness feature; the
      // FlowComb-like strawman runs without it.
      fc.watchdog.enabled = false;
      pythia_ = std::make_unique<core::PythiaSystem>(*sim_, *engine_,
                                                     *controller_, fc);
      break;
    }
    case SchedulerKind::kHedera:
      hedera_ = std::make_unique<sdn::HederaApp>(*controller_, cfg_.hedera);
      break;
    case SchedulerKind::kStaticOracle:
      install_static_oracle();
      break;
    case SchedulerKind::kPacketSpray:
      break;  // handled by the transport flag above
  }
}

Scenario::~Scenario() = default;

void apply_control_plane_faults(ScenarioConfig& cfg,
                                const ControlPlaneFaultProfile& profile) {
  auto& intent = cfg.pythia.instrumentation.channel;
  intent.drop_probability = profile.intent_loss;
  intent.jitter = profile.intent_jitter;
  intent.duplicate_probability = profile.intent_duplicate;
  cfg.controller.flow_mod_channel.drop_probability = profile.flow_mod_loss;
  cfg.controller.install_reject_probability = profile.install_reject;
  cfg.controller.flow_table_capacity = profile.flow_table_capacity;
}

void Scenario::install_static_oracle() {
  // Offline reference: with ground-truth knowledge of the background load,
  // pin every cross-rack server pair to the path with the highest residual
  // capacity. What a human operator with perfect knowledge would configure
  // statically — no prediction, no adaptation.
  for (net::NodeId src : topo_.hosts()) {
    for (net::NodeId dst : topo_.hosts()) {
      if (src == dst) continue;
      if (topo_.node(src).rack == topo_.node(dst).rack) continue;
      const auto candidates = controller_->routing().paths(src, dst);
      net::PathId best;
      double best_residual = -1.0;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        double residual = std::numeric_limits<double>::infinity();
        for (net::LinkId l : candidates[i]) {
          residual =
              std::min(residual, fabric_->link_residual_capacity(l).bps());
        }
        if (residual > best_residual) {
          best_residual = residual;
          best = candidates.id(i);
        }
      }
      if (best.valid()) controller_->install_path_id(src, dst, best);
    }
  }
}

hadoop::JobResult Scenario::run_job(const hadoop::JobSpec& spec) {
  submit_job(spec);
  return finish();
}

void Scenario::submit_job(const hadoop::JobSpec& spec) {
  assert(!job_submitted_ && "one outstanding job at a time");
  job_submitted_ = true;
  pending_result_.reset();
  engine_->submit(spec,
                  [this](const hadoop::JobResult& r) { pending_result_ = r; });
}

void Scenario::run_until(util::SimTime until) { sim_->run_until(until); }

void Scenario::run_to_event_count(std::uint64_t events) {
  while (sim_->queue().events_fired() < events && sim_->queue().run_one()) {
  }
}

hadoop::JobResult Scenario::finish() {
  assert(job_submitted_ && "finish() without submit_job()");
  // Run until the queue drains; the engine keeps events pending while the
  // job is live, and all periodic apps self-quiesce once traffic stops.
  sim_->run();
  if (!pending_result_.has_value()) {
    throw std::runtime_error("simulation drained before job completion");
  }
  job_submitted_ = false;
  hadoop::JobResult result = std::move(*pending_result_);
  pending_result_.reset();
  return result;
}

}  // namespace pythia::exp
