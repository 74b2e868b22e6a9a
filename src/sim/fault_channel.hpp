// Lossy control-plane message channel.
//
// The data plane has had a fault model since the resilience work (link and
// switch death, task churn); this channel gives the *control* plane one.
// Every message handed to `send` can be dropped, delayed (fixed base plus a
// uniform or exponential jitter, which also reorders), or duplicated, all
// drawn from a named seed-derived RNG stream so runs stay bit-reproducible.
//
// A channel whose config is all-zero is *transparent*: the message is
// delivered synchronously, no RNG stream is consumed, and no events are
// scheduled — a zero-fault experiment produces exactly the event sequence it
// produced before this layer existed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "sim/simulation.hpp"
#include "util/time.hpp"

namespace pythia::sim {

class StateEncoder;

struct FaultChannelConfig {
  /// Per-message loss probability.
  double drop_probability = 0.0;
  /// Per-message duplication probability (the copy takes its own delay).
  double duplicate_probability = 0.0;
  /// Fixed transit delay added to every surviving message.
  util::Duration base_delay = util::Duration::zero();
  /// Random extra delay on top of `base_delay`; messages with unequal jitter
  /// draws can overtake each other (reordering).
  util::Duration jitter = util::Duration::zero();
  enum class Jitter { kUniform, kExponential };
  /// kUniform draws from [0, jitter); kExponential draws with mean `jitter`
  /// (heavy tail — occasional very stale deliveries).
  Jitter jitter_kind = Jitter::kUniform;

  /// True when the channel cannot alter any message.
  [[nodiscard]] bool transparent() const {
    return drop_probability <= 0.0 && duplicate_probability <= 0.0 &&
           base_delay == util::Duration::zero() &&
           jitter == util::Duration::zero();
  }
};

class FaultChannel {
 public:
  /// `stream_name` names the RNG stream (derived from the simulation's root
  /// seed), so two channels with distinct names fault independently. Throws
  /// std::invalid_argument, naming the field, unless both probabilities are
  /// in [0, 1] and both delays are non-negative (a negative delay would
  /// schedule a delivery in the past).
  FaultChannel(Simulation& sim, std::string stream_name,
               FaultChannelConfig cfg = {});

  /// Offers one message. `deliver` runs zero times (dropped), once, or twice
  /// (duplicated), each at send-time + base_delay + jitter. A transparent
  /// channel invokes it synchronously, in place; only a lossy one type-erases
  /// it, since it may deliver it twice.
  template <class F>
  void send(F&& deliver) {
    ++offered_;
    if (cfg_.transparent()) {
      ++delivered_;
      deliver();
      return;
    }
    send_lossy(std::function<void()>(std::forward<F>(deliver)));
  }

  [[nodiscard]] const FaultChannelConfig& config() const { return cfg_; }
  [[nodiscard]] bool transparent() const { return cfg_.transparent(); }

  // --- accounting ---
  [[nodiscard]] std::uint64_t messages_offered() const { return offered_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t messages_duplicated() const {
    return duplicated_;
  }
  /// Deliveries scheduled to land before an earlier send's delivery.
  [[nodiscard]] std::uint64_t reorderings() const { return reordered_; }

  /// Latest delivery instant scheduled so far (reorder detection baseline).
  /// Surfaced because it is channel state a snapshot must cover: two
  /// channels with equal counters but different high-water marks classify
  /// the *next* delivery differently.
  [[nodiscard]] util::SimTime last_scheduled() const { return last_scheduled_; }

  /// Serializes the channel's logical state (config knobs are identity, not
  /// state, and are covered by the snapshot's config fingerprint instead).
  void encode_state(StateEncoder& enc) const;

 private:
  [[nodiscard]] util::Duration sample_delay();
  /// send() past the transparent fast path: drop, duplicate or delay.
  void send_lossy(std::function<void()> deliver);
  void schedule_delivery(std::function<void()> deliver);

  // pythia-lint: allow(snapshot-skip, group) sim_ is restore-factory wiring
  // and cfg_ is covered by the scenario fingerprint (stream_, the RNG lane
  // name, IS encoded).
  Simulation* sim_;
  std::string stream_;
  FaultChannelConfig cfg_;

  util::SimTime last_scheduled_ = util::SimTime::zero();
  std::uint64_t offered_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
};

}  // namespace pythia::sim
