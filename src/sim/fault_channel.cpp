#include "sim/fault_channel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/snapshot.hpp"

namespace pythia::sim {

namespace {

[[noreturn]] void reject_field(const char* field, const char* why) {
  throw std::invalid_argument(std::string("FaultChannelConfig::") + field +
                              " " + why);
}

/// `cfg`, once every field is one the event loop can run.
const FaultChannelConfig& validated(const FaultChannelConfig& cfg) {
  const std::pair<const char*, double> probabilities[] = {
      {"drop_probability", cfg.drop_probability},
      {"duplicate_probability", cfg.duplicate_probability},
  };
  for (const auto& [field, p] : probabilities) {
    if (!(p >= 0.0 && p <= 1.0)) reject_field(field, "must be in [0, 1]");
  }
  const std::pair<const char*, util::Duration> delays[] = {
      {"base_delay", cfg.base_delay},
      {"jitter", cfg.jitter},
  };
  for (const auto& [field, d] : delays) {
    if (d < util::Duration::zero()) reject_field(field, "must not be negative");
  }
  return cfg;
}

}  // namespace

FaultChannel::FaultChannel(Simulation& sim, std::string stream_name,
                           FaultChannelConfig cfg)
    : sim_(&sim), stream_(std::move(stream_name)), cfg_(validated(cfg)) {}

util::Duration FaultChannel::sample_delay() {
  util::Duration delay = cfg_.base_delay;
  if (cfg_.jitter > util::Duration::zero()) {
    auto& rng = sim_->rng(stream_);
    const double extra =
        cfg_.jitter_kind == FaultChannelConfig::Jitter::kUniform
            ? rng.uniform(0.0, cfg_.jitter.seconds())
            : rng.exponential(cfg_.jitter.seconds());
    delay += util::Duration::from_seconds(extra);
  }
  return delay;
}

void FaultChannel::schedule_delivery(std::function<void()> deliver) {
  const util::Duration delay = sample_delay();
  if (delay == util::Duration::zero()) {
    // No transit time sampled (e.g. drop-only channel): deliver in place so
    // the event stream stays as close to the fault-free one as possible.
    ++delivered_;
    deliver();
    return;
  }
  const util::SimTime at = sim_->now() + delay;
  if (at < last_scheduled_) ++reordered_;
  last_scheduled_ = std::max(last_scheduled_, at);
  sim_->at(at, [this, deliver = std::move(deliver)] {
    ++delivered_;
    deliver();
  });
}

void FaultChannel::send_lossy(std::function<void()> deliver) {
  if (cfg_.drop_probability > 0.0 &&
      sim_->rng(stream_).uniform01() < cfg_.drop_probability) {
    ++dropped_;
    return;
  }
  const bool duplicate =
      cfg_.duplicate_probability > 0.0 &&
      sim_->rng(stream_).uniform01() < cfg_.duplicate_probability;
  if (duplicate) {
    ++duplicated_;
    schedule_delivery(deliver);
  }
  schedule_delivery(std::move(deliver));
}

void FaultChannel::encode_state(StateEncoder& enc) const {
  enc.put_string(stream_);
  enc.put_time(last_scheduled_);
  enc.put_u64(offered_);
  enc.put_u64(delivered_);
  enc.put_u64(dropped_);
  enc.put_u64(duplicated_);
  enc.put_u64(reordered_);
}

}  // namespace pythia::sim
