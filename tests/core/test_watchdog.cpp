// Control-plane watchdog: ECMP fallback on degradation, re-engage on
// recovery.
#include <gtest/gtest.h>

#include "core/allocator.hpp"
#include "core/watchdog.hpp"
#include "net/topology.hpp"
#include "sdn/controller.hpp"
#include "sim/simulation.hpp"

namespace pythia::core {
namespace {

using util::Bytes;
using util::Duration;
using util::SimTime;

struct Fixture {
  net::Topology topo = net::make_two_rack({});
  sim::Simulation sim;
  net::Fabric fabric{sim, topo};
  sdn::Controller controller;
  Allocator allocator{controller};
  net::NodeId src, dst;

  explicit Fixture(sdn::ControllerConfig ccfg = {})
      : controller(sim, fabric, topo, ccfg) {
    const auto hosts = topo.hosts();
    src = hosts[0];
    dst = hosts[9];
  }

  WatchdogConfig quick_config() const {
    WatchdogConfig cfg;
    cfg.staleness_threshold = Duration::seconds_i(2);
    cfg.recovery_grace = Duration::seconds_i(1);
    return cfg;
  }
};

TEST(Watchdog, StaysEngagedWhileNotificationsFlow) {
  Fixture f;
  ControlPlaneWatchdog wd(f.sim, f.controller, f.allocator, f.quick_config());

  f.sim.after(Duration::seconds_i(1), [&] {
    wd.note_emission(f.sim.now());
    wd.note_notification(f.sim.now());
  });
  f.sim.after(Duration::seconds_i(10), [&] { wd.evaluate(); });
  f.sim.run();
  EXPECT_TRUE(wd.engaged());
  EXPECT_EQ(wd.fallbacks(), 0u);
}

TEST(Watchdog, UnansweredEmissionTripsFallback) {
  Fixture f;
  ControlPlaneWatchdog wd(f.sim, f.controller, f.allocator, f.quick_config());

  // Give the controller an active rule so the fallback's clear is visible.
  const auto& paths = f.controller.routing().paths(f.src, f.dst);
  f.controller.install_path_id(f.src, f.dst, paths.id(0));

  f.sim.after(Duration::seconds_i(1),
              [&] { wd.note_emission(f.sim.now()); });
  f.sim.after(Duration::seconds_i(10), [&] { wd.evaluate(); });
  f.sim.run();

  EXPECT_FALSE(wd.engaged());
  EXPECT_EQ(wd.fallbacks(), 1u);
  EXPECT_TRUE(wd.notifications_stale());
  EXPECT_TRUE(f.allocator.suspended());
  EXPECT_EQ(f.controller.active_rule(f.src, f.dst), nullptr);
  EXPECT_EQ(f.controller.rules_cleared(), 1u);
}

TEST(Watchdog, NotificationResetsStalenessClock) {
  Fixture f;
  ControlPlaneWatchdog wd(f.sim, f.controller, f.allocator, f.quick_config());

  f.sim.after(Duration::seconds_i(1),
              [&] { wd.note_emission(f.sim.now()); });
  // Notification lands 1.5 s after the emission — under the 2 s threshold.
  f.sim.after(Duration::millis(2500),
              [&] { wd.note_notification(f.sim.now()); });
  f.sim.after(Duration::seconds_i(60), [&] { wd.evaluate(); });
  f.sim.run();
  EXPECT_TRUE(wd.engaged());
  EXPECT_FALSE(wd.notifications_stale());
}

TEST(Watchdog, InstallFailureRateTripsFallback) {
  sdn::ControllerConfig ccfg;
  ccfg.install_reject_probability = 1.0;  // every attempt rejected
  Fixture f(ccfg);
  ControlPlaneWatchdog wd(f.sim, f.controller, f.allocator, f.quick_config());

  wd.evaluate();  // establish the failure-sampling window at t=0
  // Two rules, each burning its full retry ladder: enough attempts to clear
  // the watchdog's min_install_samples bar.
  const net::NodeId src2 = f.topo.hosts()[1];
  f.controller.install_path_id(f.src, f.dst,
                               f.controller.routing().paths(f.src, f.dst).id(0),
                               Bytes{1000});
  f.controller.install_path_id(src2, f.dst,
                               f.controller.routing().paths(src2, f.dst).id(0),
                               Bytes{1000});
  f.sim.run();  // drain the retry/backoff ladders
  ASSERT_GE(f.controller.install_attempts(), 8u);
  ASSERT_EQ(f.controller.installs_abandoned(), 2u);

  wd.evaluate();
  EXPECT_FALSE(wd.engaged());
  EXPECT_GE(wd.recent_install_failure_rate(), 0.99);
}

TEST(Watchdog, ReengagesAfterRecoveryGrace) {
  Fixture f;
  ControlPlaneWatchdog wd(f.sim, f.controller, f.allocator, f.quick_config());

  // Outstanding volume so the resume path has something to reinstall.
  f.allocator.add_predicted_volume(f.src, f.dst, Bytes{5'000'000});

  f.sim.after(Duration::seconds_i(1),
              [&] { wd.note_emission(f.sim.now()); });
  f.sim.after(Duration::seconds_i(10), [&] { wd.evaluate(); });
  // Channel heals: notifications resume.
  f.sim.after(Duration::seconds_i(11),
              [&] { wd.note_notification(f.sim.now()); });
  f.sim.after(Duration::seconds_i(12), [&] { wd.evaluate(); });  // streak start
  f.sim.after(Duration::seconds_i(14), [&] { wd.evaluate(); });  // > grace
  f.sim.run();

  EXPECT_TRUE(wd.engaged());
  EXPECT_EQ(wd.fallbacks(), 1u);
  EXPECT_EQ(wd.reengagements(), 1u);
  EXPECT_FALSE(f.allocator.suspended());
}

TEST(Watchdog, DisabledWatchdogNeverIntervenes) {
  Fixture f;
  WatchdogConfig cfg = f.quick_config();
  cfg.enabled = false;
  ControlPlaneWatchdog wd(f.sim, f.controller, f.allocator, cfg);

  f.sim.after(Duration::seconds_i(1),
              [&] { wd.note_emission(f.sim.now()); });
  f.sim.after(Duration::seconds_i(100), [&] { wd.evaluate(); });
  f.sim.run();
  EXPECT_TRUE(wd.engaged());
  EXPECT_EQ(wd.fallbacks(), 0u);
  EXPECT_FALSE(f.allocator.suspended());
}

TEST(Watchdog, SuspendedAllocatorSuppressesInstallsAndResumeReinstalls) {
  Fixture f;
  f.allocator.suspend();
  f.allocator.add_predicted_volume(f.src, f.dst, Bytes{1'000'000});
  EXPECT_EQ(f.allocator.installs_suppressed(), 1u);
  EXPECT_EQ(f.controller.rules_installed(), 0u);
  EXPECT_GT(f.allocator.pair_outstanding(f.src, f.dst).count(), 0);

  f.allocator.resume();
  f.sim.run();
  EXPECT_EQ(f.controller.rules_installed(), 1u);
  EXPECT_NE(f.controller.active_rule(f.src, f.dst), nullptr);
}

}  // namespace
}  // namespace pythia::core
