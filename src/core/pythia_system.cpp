#include "core/pythia_system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pythia::core {

namespace {

/// The watchdog's staleness clock must tolerate the configured prediction
/// pipeline latency: decode + management hop + any deliberate ablation delay
/// + the fault channel's deterministic base delay. Only time *beyond* this is
/// evidence of a broken channel.
WatchdogConfig widen_for_pipeline(WatchdogConfig wd,
                                  const InstrumentationConfig& inst) {
  wd.staleness_threshold += inst.decode_delay + inst.management_latency +
                            inst.extra_delay + inst.channel.base_delay +
                            inst.channel.jitter;
  return wd;
}

/// The weight clamp feeds std::clamp, which is undefined for min > max, and
/// a weight of 0 freezes a flow at rate 0 forever.
const PythiaConfig& validated(const PythiaConfig& cfg) {
  if (!std::isfinite(cfg.min_flow_weight) ||
      !std::isfinite(cfg.max_flow_weight) || cfg.min_flow_weight <= 0.0 ||
      cfg.min_flow_weight > cfg.max_flow_weight) {
    throw std::invalid_argument(
        "PythiaConfig flow weights must be finite with 0 < min_flow_weight "
        "<= max_flow_weight");
  }
  return cfg;
}

}  // namespace

PythiaSystem::PythiaSystem(sim::Simulation& sim,
                           hadoop::MapReduceEngine& engine,
                           sdn::Controller& controller, PythiaConfig cfg)
    : controller_(&controller),
      cfg_(validated(cfg)),
      allocator_(std::make_unique<Allocator>(controller, cfg.allocator)),
      collector_(std::make_unique<Collector>(sim, *allocator_,
                                             cfg.collector)),
      instrumentation_(std::make_unique<Instrumentation>(
          sim, *collector_, cfg.instrumentation)),
      watchdog_(std::make_unique<ControlPlaneWatchdog>(
          sim, controller, *allocator_,
          widen_for_pipeline(cfg.watchdog, cfg.instrumentation))) {
  collector_->set_watchdog(watchdog_.get());
  engine.add_observer(this);
}

void PythiaSystem::on_map_output_ready(
    const hadoop::MapOutputNotice& notice) {
  // The notice is engine-local (it cannot be lost), so it doubles as the
  // watchdog's "a notification is now owed" signal.
  watchdog_->note_emission(notice.at);
  instrumentation_->on_map_output_ready(notice);
  watchdog_->evaluate();
}

void PythiaSystem::on_reducer_started(std::size_t job_serial,
                                      std::size_t reduce_index,
                                      net::NodeId server, util::SimTime at) {
  instrumentation_->on_reducer_started(job_serial, reduce_index, server, at);
}

void PythiaSystem::on_fetch_started(std::size_t /*job_serial*/,
                                    const hadoop::FetchRecord& fetch,
                                    net::FlowId flow) {
  watchdog_->evaluate();
  if (!cfg_.weighted_flows || !flow.valid() || !fetch.remote) return;
  // During watchdog fallback the prediction state is untrustworthy — leave
  // flows at their fair-share weight.
  if (!watchdog_->engaged()) return;
  // Proportional allocation: a flow feeding a reducer server with k times
  // the average outstanding volume gets ~k times the bandwidth share.
  const double mean =
      collector_->mean_destination_outstanding().as_double();
  if (mean <= 0.0) return;
  const double dst =
      collector_->destination_outstanding(fetch.dst_server).as_double();
  const double weight =
      std::clamp(dst / mean, cfg_.min_flow_weight, cfg_.max_flow_weight);
  controller_->fabric().set_flow_weight(flow, weight);
}

void PythiaSystem::on_fetch_completed(std::size_t /*job_serial*/,
                                      const hadoop::FetchRecord& fetch) {
  collector_->fetch_completed(fetch.src_server, fetch.dst_server,
                              fetch.payload);
  watchdog_->evaluate();
}

void PythiaSystem::on_job_completed(std::size_t job_serial,
                                    const hadoop::JobResult& /*result*/) {
  collector_->job_completed(job_serial);
}

void PythiaSystem::encode_state(sim::StateEncoder& enc) const {
  instrumentation_->encode_state(enc);
  collector_->encode_state(enc);
  allocator_->encode_state(enc);
  watchdog_->encode_state(enc);
}

}  // namespace pythia::core
