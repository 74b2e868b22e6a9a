// FaultChannel: deterministic control-plane fault injection.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/fault_channel.hpp"
#include "sim/simulation.hpp"

namespace pythia::sim {
namespace {

using util::Duration;
using util::SimTime;

TEST(FaultChannel, TransparentChannelDeliversSynchronously) {
  Simulation sim(1);
  FaultChannel ch(sim, "test.channel");
  ASSERT_TRUE(ch.transparent());

  int delivered = 0;
  ch.send([&] { ++delivered; });
  // No event round-trip: the callback already ran.
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(ch.messages_offered(), 1u);
  EXPECT_EQ(ch.messages_delivered(), 1u);
  EXPECT_EQ(ch.messages_dropped(), 0u);
}

TEST(FaultChannel, DropRateIsRespectedAndDeterministic) {
  const auto run_once = [](std::uint64_t seed) {
    Simulation sim(seed);
    FaultChannelConfig cfg;
    cfg.drop_probability = 0.3;
    FaultChannel ch(sim, "test.channel", cfg);
    std::vector<int> delivered;
    for (int i = 0; i < 1000; ++i) {
      ch.send([&delivered, i] { delivered.push_back(i); });
    }
    sim.run();
    return delivered;
  };

  const auto a = run_once(42);
  const auto b = run_once(42);
  EXPECT_EQ(a, b) << "same seed must fault identically";

  // ~30% dropped (binomial, 1000 trials: 6 sigma ≈ 87).
  EXPECT_NEAR(static_cast<double>(a.size()), 700.0, 90.0);

  const auto c = run_once(43);
  EXPECT_NE(a, c) << "different seed must fault differently";
}

TEST(FaultChannel, FullLossDeliversNothing) {
  Simulation sim(1);
  FaultChannelConfig cfg;
  cfg.drop_probability = 1.0;
  FaultChannel ch(sim, "test.channel", cfg);
  int delivered = 0;
  for (int i = 0; i < 50; ++i) ch.send([&] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ch.messages_dropped(), 50u);
}

TEST(FaultChannel, DuplicatesDeliverTwice) {
  Simulation sim(1);
  FaultChannelConfig cfg;
  cfg.duplicate_probability = 1.0;
  FaultChannel ch(sim, "test.channel", cfg);
  int delivered = 0;
  for (int i = 0; i < 20; ++i) ch.send([&] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 40);
  EXPECT_EQ(ch.messages_duplicated(), 20u);
  EXPECT_EQ(ch.messages_delivered(), 40u);
}

TEST(FaultChannel, BaseDelayPostponesDelivery) {
  Simulation sim(1);
  FaultChannelConfig cfg;
  cfg.base_delay = Duration::millis(5);
  FaultChannel ch(sim, "test.channel", cfg);
  SimTime delivered_at{-1};
  ch.send([&] { delivered_at = sim.now(); });
  EXPECT_EQ(delivered_at.ns(), -1) << "delayed message must not run inline";
  sim.run();
  EXPECT_EQ(delivered_at, SimTime::zero() + Duration::millis(5));
}

TEST(FaultChannel, JitterReordersMessages) {
  Simulation sim(7);
  FaultChannelConfig cfg;
  cfg.base_delay = Duration::millis(1);
  cfg.jitter = Duration::millis(50);
  FaultChannel ch(sim, "test.channel", cfg);
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) {
    ch.send([&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 200u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
      << "50 ms jitter across simultaneous sends must reorder";
  EXPECT_GT(ch.reorderings(), 0u);
}

TEST(FaultChannel, ExponentialJitterProducesHeavyTail) {
  Simulation sim(3);
  FaultChannelConfig cfg;
  cfg.jitter = Duration::millis(10);
  cfg.jitter_kind = FaultChannelConfig::Jitter::kExponential;
  FaultChannel ch(sim, "test.channel", cfg);
  SimTime last{0};
  for (int i = 0; i < 500; ++i) {
    ch.send([&] { last = std::max(last, sim.now()); });
  }
  sim.run();
  // Mean 10 ms ⇒ max of 500 draws virtually certain to exceed the 10 ms
  // uniform bound.
  EXPECT_GT(last, SimTime::zero() + Duration::millis(10));
}

TEST(FaultChannel, NamedStreamsFaultIndependently) {
  // Drawing from one channel must not perturb another channel's fault
  // pattern (independent named RNG streams).
  const auto pattern = [](bool also_drive_other) {
    Simulation sim(11);
    FaultChannelConfig cfg;
    cfg.drop_probability = 0.5;
    FaultChannel main(sim, "chan.main", cfg);
    FaultChannel other(sim, "chan.other", cfg);
    std::vector<int> delivered;
    for (int i = 0; i < 100; ++i) {
      if (also_drive_other) other.send([] {});
      main.send([&delivered, i] { delivered.push_back(i); });
    }
    sim.run();
    return delivered;
  };
  EXPECT_EQ(pattern(false), pattern(true));
}

TEST(FaultChannel, RejectsConfigsTheEventLoopCannotRun) {
  // A negative delay would schedule a delivery before now(); a probability
  // outside [0, 1] (or NaN) is no probability. Each throws, naming its field.
  Simulation sim(1);
  FaultChannelConfig drop;
  drop.drop_probability = std::nan("");
  FaultChannelConfig duplicate;
  duplicate.duplicate_probability = 1.5;
  FaultChannelConfig base;
  base.base_delay = Duration::millis(-1);
  FaultChannelConfig jitter;
  jitter.jitter = Duration{-1};
  const std::pair<const char*, FaultChannelConfig> bad[] = {
      {"drop_probability", drop},
      {"duplicate_probability", duplicate},
      {"base_delay", base},
      {"jitter", jitter},
  };
  for (const auto& [field, cfg] : bad) {
    EXPECT_THROW(FaultChannel(sim, "test.channel", cfg), std::invalid_argument)
        << field;
    try {
      FaultChannel ch(sim, "test.channel", cfg);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }

  // The bounds themselves are valid.
  FaultChannelConfig edges;
  edges.drop_probability = 1.0;
  edges.duplicate_probability = 0.0;
  EXPECT_NO_THROW(FaultChannel(sim, "test.channel", edges));
}

}  // namespace
}  // namespace pythia::sim
