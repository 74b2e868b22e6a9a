// The open-arrival storm keeps a row per job and rebuilds its events in
// time order when iterated. These tests hold that iteration to the
// generate-then-stable-sort reference, field by field, over a grid of
// shapes and arrival rates, check the order contract of its header, and
// check its config rejections.
#include "workloads/open_arrival.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "util/random.hpp"

namespace pythia::workloads {
namespace {

using util::Duration;
using util::SimTime;

/// The generator as it once was: every job's events in generation order,
/// then a stable sort by time.
std::vector<StormEvent> reference_storm(const OpenArrivalConfig& cfg,
                                        const net::Topology& topo,
                                        std::uint64_t seed) {
  struct Shape {
    std::size_t map_servers, maps_per_server, reducers;
    util::Bytes flow_bytes;
  };
  util::Xoshiro256 rng(seed);
  const std::vector<net::NodeId> hosts = topo.hosts();
  std::vector<StormEvent> events;
  if (hosts.empty() || cfg.jobs == 0) return events;
  const std::int64_t tick_ns = std::max<std::int64_t>(1, cfg.tick.ns());
  const std::size_t spread =
      std::max<std::size_t>(1, cfg.reducer_server_spread);
  std::int64_t arrival_ns = 0;
  for (std::size_t j = 0; j < cfg.jobs; ++j) {
    const double u = rng.uniform01();
    arrival_ns += static_cast<std::int64_t>(
        -std::log(1.0 - u) *
        static_cast<double>(cfg.mean_interarrival.ns()));
    const std::int64_t start_ns = (arrival_ns / tick_ns) * tick_ns;
    const double c = rng.uniform01();
    const Shape shape =
        c < cfg.sort_fraction
            ? Shape{cfg.sort_map_servers, cfg.sort_maps_per_server,
                    cfg.sort_reducers, cfg.sort_flow_bytes}
        : c < cfg.sort_fraction + cfg.nutch_fraction
            ? Shape{cfg.nutch_map_servers, cfg.nutch_maps_per_server,
                    cfg.nutch_reducers, cfg.nutch_flow_bytes}
            : Shape{cfg.small_map_servers, cfg.small_maps_per_server,
                    cfg.small_reducers, cfg.small_flow_bytes};
    const auto tenant = static_cast<std::uint32_t>(j % cfg.tenants);
    const auto priority = static_cast<std::int32_t>(cfg.tenants) -
                          static_cast<std::int32_t>(tenant);
    const std::size_t map_offset = rng.below(hosts.size());
    const std::size_t reduce_offset = rng.below(hosts.size());
    for (std::size_t r = 0; r < shape.reducers; ++r) {
      StormEvent e;
      e.kind = StormEvent::Kind::kReducerLocated;
      e.at = SimTime{start_ns};
      e.job_serial = j;
      e.reduce_index = r;
      e.server = hosts[(reduce_offset + r % spread) % hosts.size()];
      events.push_back(e);
    }
    for (std::size_t w = 0; w < cfg.waves; ++w) {
      const SimTime wave_at{start_ns + static_cast<std::int64_t>(w) * tick_ns};
      for (std::size_t s = 0; s < shape.map_servers; ++s) {
        const net::NodeId src = hosts[(map_offset + s) % hosts.size()];
        for (std::size_t m = 0; m < shape.maps_per_server; ++m) {
          for (std::size_t r = 0; r < shape.reducers; ++r) {
            StormEvent e;
            e.kind = StormEvent::Kind::kIntent;
            e.at = wave_at;
            e.job_serial = j;
            e.intent.job_serial = j;
            e.intent.map_index =
                (w * shape.map_servers + s) * shape.maps_per_server + m;
            e.intent.reduce_index = r;
            e.intent.src_server = src;
            e.intent.predicted_wire_bytes = util::Bytes{
                static_cast<std::int64_t>(shape.flow_bytes.as_double() *
                                          (0.5 + rng.uniform01()))};
            e.intent.emitted_at = wave_at;
            e.intent.tenant = tenant;
            e.intent.priority = priority;
            events.push_back(e);
          }
        }
      }
    }
    StormEvent done;
    done.kind = StormEvent::Kind::kJobCompleted;
    done.at = SimTime{start_ns +
                      static_cast<std::int64_t>(cfg.waves + 1) * tick_ns};
    done.job_serial = j;
    events.push_back(done);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const StormEvent& a, const StormEvent& b) {
                     return a.at < b.at;
                   });
  return events;
}

bool same_event(const StormEvent& a, const StormEvent& b) {
  const core::ShuffleIntent& x = a.intent;
  const core::ShuffleIntent& y = b.intent;
  return a.kind == b.kind && a.at == b.at && a.job_serial == b.job_serial &&
         a.reduce_index == b.reduce_index && a.server == b.server &&
         x.job_serial == y.job_serial && x.map_index == y.map_index &&
         x.reduce_index == y.reduce_index && x.src_server == y.src_server &&
         x.predicted_wire_bytes == y.predicted_wire_bytes &&
         x.emitted_at == y.emitted_at && x.tenant == y.tenant &&
         x.priority == y.priority;
}

/// Index of the first event that differs in any field, or the common
/// length when neither storm has one.
std::size_t first_difference(const std::vector<StormEvent>& a,
                             const std::vector<StormEvent>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_event(a[i], b[i])) return i;
  }
  return n;
}

/// Empty when `events` keeps the order contract of generate_storm, else
/// the first breach.
std::string order_breach(const std::vector<StormEvent>& events) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const StormEvent& e = events[i];
    const std::string at = " at event " + std::to_string(i);
    if (e.at < SimTime::zero()) return "time before t = 0" + at;
    if (i == 0) continue;
    const StormEvent& prev = events[i - 1];
    if (e.at < prev.at) return "time decreases" + at;
    if (e.at != prev.at) continue;
    if (e.job_serial < prev.job_serial) {
      return "jobs out of index order" + at;
    }
    if (e.job_serial == prev.job_serial &&
        e.kind == StormEvent::Kind::kReducerLocated &&
        prev.kind == StormEvent::Kind::kIntent) {
      return "reducer location after an intent" + at;
    }
  }
  return "";
}

net::Topology fat_tree(std::size_t k) {
  net::FatTreeConfig cfg;
  cfg.k = k;
  return net::make_fat_tree(cfg);
}

TEST(OpenArrival, MatchesStableSortReferenceOverGrid) {
  for (std::size_t k : {4u, 8u}) {
    const net::Topology topo = fat_tree(k);
    for (std::size_t jobs : {0u, 1u, 7u, 32u, 400u}) {
      for (std::int64_t gap_ms : {0, 1, 5, 40, 200}) {
        for (std::int64_t tick_ms : {1, 10, 50}) {
          for (std::size_t waves : {0u, 1u, 3u}) {
            for (std::uint64_t seed : {1u, 2u, 3u}) {
              OpenArrivalConfig cfg;
              cfg.jobs = jobs;
              cfg.mean_interarrival = Duration::millis(gap_ms);
              cfg.tick = Duration::millis(tick_ms);
              cfg.waves = waves;
              const std::string where =
                  "k=" + std::to_string(k) + " jobs=" + std::to_string(jobs) +
                  " gap=" + std::to_string(gap_ms) +
                  "ms tick=" + std::to_string(tick_ms) +
                  "ms waves=" + std::to_string(waves) +
                  " seed=" + std::to_string(seed);
              const Storm storm = generate_storm(cfg, topo, seed);
              const std::vector<StormEvent> got(storm.begin(), storm.end());
              const auto want = reference_storm(cfg, topo, seed);
              ASSERT_EQ(storm.empty(), jobs == 0) << where;
              ASSERT_EQ(got.size(), want.size()) << where;
              ASSERT_EQ(first_difference(got, want), want.size()) << where;
              ASSERT_EQ(order_breach(got), "") << where;
              ASSERT_EQ(storm_intent_count(storm),
                        static_cast<std::size_t>(std::count_if(
                            want.begin(), want.end(),
                            [](const StormEvent& e) {
                              return e.kind == StormEvent::Kind::kIntent;
                            })))
                  << where;
            }
          }
        }
      }
    }
  }
}

TEST(OpenArrival, EmptyClassesMatchStableSortReference) {
  // Classes that emit no intent, or no reducer location either, leave
  // instants where a job has no event before its completion.
  const net::Topology topo = fat_tree(4);
  for (std::size_t waves : {0u, 1u, 3u}) {
    OpenArrivalConfig cfg;
    cfg.jobs = 40;
    cfg.mean_interarrival = Duration::millis(5);
    cfg.waves = waves;
    cfg.sort_map_servers = 0;
    cfg.small_reducers = 0;
    const Storm storm = generate_storm(cfg, topo, /*seed=*/4);
    const std::vector<StormEvent> got(storm.begin(), storm.end());
    const auto want = reference_storm(cfg, topo, /*seed=*/4);
    ASSERT_EQ(got.size(), want.size()) << "waves=" << waves;
    EXPECT_EQ(first_difference(got, want), want.size()) << "waves=" << waves;
  }
}

/// `cfg` must be rejected naming `field`, with its own job count and,
/// unless the check depends on it, with none. Neither call could allocate a
/// storm were the check missing: the first runs on a topology with no
/// hosts, the second with no jobs, and both return an empty storm then.
void expect_rejected(const OpenArrivalConfig& cfg, const std::string& field,
                     bool needs_jobs = false) {
  const net::Topology no_hosts;
  const net::Topology hosts = fat_tree(4);
  for (const bool empty_topology : {true, false}) {
    if (!empty_topology && needs_jobs) continue;
    OpenArrivalConfig c = cfg;
    if (!empty_topology) c.jobs = 0;
    try {
      (void)generate_storm(c, empty_topology ? no_hosts : hosts, /*seed=*/1);
      ADD_FAILURE() << "accepted a storm with bad " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(OpenArrival, ZeroTenantsRejected) {
  OpenArrivalConfig cfg;
  cfg.tenants = 0;
  expect_rejected(cfg, "tenants");
}

TEST(OpenArrival, NegativeMeanInterarrivalRejected) {
  OpenArrivalConfig cfg;
  cfg.jobs = 5;
  cfg.mean_interarrival = Duration::millis(-40);
  expect_rejected(cfg, "mean_interarrival");
  cfg.mean_interarrival = Duration{-1};
  expect_rejected(cfg, "mean_interarrival");
}

TEST(OpenArrival, SortFractionOutsideUnitIntervalRejected) {
  for (const double f : {std::nan(""), -0.01, 1.01}) {
    OpenArrivalConfig cfg;
    cfg.sort_fraction = f;
    cfg.nutch_fraction = 0.0;
    expect_rejected(cfg, "sort_fraction");
  }
}

TEST(OpenArrival, NutchFractionOutsideUnitIntervalRejected) {
  for (const double f : {std::nan(""), -0.01, 1.01}) {
    OpenArrivalConfig cfg;
    cfg.sort_fraction = 0.0;
    cfg.nutch_fraction = f;
    expect_rejected(cfg, "nutch_fraction");
  }
}

TEST(OpenArrival, FractionsSummingAboveOneRejected) {
  OpenArrivalConfig cfg;
  cfg.sort_fraction = 0.6;
  cfg.nutch_fraction = 0.5;
  expect_rejected(cfg, "sort_fraction + nutch_fraction");
}

TEST(OpenArrival, ClassShapeOverflowRejected) {
  // 2^33 servers × 2^31 maps each: the per-wave intent count wraps.
  OpenArrivalConfig cfg;
  cfg.nutch_map_servers = std::size_t{1} << 33;
  cfg.nutch_maps_per_server = std::size_t{1} << 31;
  expect_rejected(cfg, "nutch_map_servers");
  cfg = OpenArrivalConfig{};
  cfg.small_reducers = std::size_t{1} << 40;
  cfg.small_map_servers = std::size_t{1} << 30;
  expect_rejected(cfg, "small_reducers");
}

TEST(OpenArrival, WavesOverflowRejected) {
  // 144 Nutch intents a wave times 2^60 waves wraps a job's event count.
  OpenArrivalConfig cfg;
  cfg.waves = std::size_t{1} << 60;
  expect_rejected(cfg, "waves");
}

TEST(OpenArrival, JobCountOverflowRejected) {
  // Every job could be a Nutch job of 439 events: 2^60 jobs wrap the
  // storm's event count, and 2^31 jobs of four segments each overflow its
  // 32-bit segment index although their event count fits.
  OpenArrivalConfig cfg;
  cfg.jobs = std::size_t{1} << 60;
  expect_rejected(cfg, "jobs", /*needs_jobs=*/true);
  cfg.jobs = std::size_t{1} << 31;
  expect_rejected(cfg, "jobs", /*needs_jobs=*/true);
}

}  // namespace
}  // namespace pythia::workloads
