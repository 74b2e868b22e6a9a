#include "workloads/open_arrival.hpp"

#include <algorithm>
#include <cmath>

#include "core/collector.hpp"
#include "util/random.hpp"

namespace pythia::workloads {

namespace {

struct ClassShape {
  std::size_t map_servers;
  std::size_t maps_per_server;
  std::size_t reducers;
  util::Bytes flow_bytes;
};

ClassShape pick_class(const OpenArrivalConfig& cfg, double u) {
  if (u < cfg.sort_fraction) {
    return {cfg.sort_map_servers, cfg.sort_maps_per_server, cfg.sort_reducers,
            cfg.sort_flow_bytes};
  }
  if (u < cfg.sort_fraction + cfg.nutch_fraction) {
    return {cfg.nutch_map_servers, cfg.nutch_maps_per_server,
            cfg.nutch_reducers, cfg.nutch_flow_bytes};
  }
  return {cfg.small_map_servers, cfg.small_maps_per_server,
          cfg.small_reducers, cfg.small_flow_bytes};
}

}  // namespace

std::vector<StormEvent> generate_storm(const OpenArrivalConfig& cfg,
                                       const net::Topology& topo,
                                       std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::vector<net::NodeId> hosts = topo.hosts();
  std::vector<StormEvent> events;
  if (hosts.empty() || cfg.jobs == 0) return events;

  const std::int64_t tick_ns = std::max<std::int64_t>(1, cfg.tick.ns());
  const std::size_t spread = std::max<std::size_t>(1, cfg.reducer_server_spread);
  std::int64_t arrival_ns = 0;

  for (std::size_t j = 0; j < cfg.jobs; ++j) {
    // Poisson process, then tick quantization: concurrent jobs share event
    // instants, which is what forms multi-job cohorts at the collector.
    const double u = rng.uniform01();
    arrival_ns += static_cast<std::int64_t>(
        -std::log(1.0 - u) *
        static_cast<double>(cfg.mean_interarrival.ns()));
    const std::int64_t start_ns = (arrival_ns / tick_ns) * tick_ns;

    const ClassShape shape = pick_class(cfg, rng.uniform01());
    const std::uint32_t tenant = static_cast<std::uint32_t>(j % cfg.tenants);
    const std::int32_t priority =
        static_cast<std::int32_t>(cfg.tenants) -
        static_cast<std::int32_t>(tenant);
    const std::size_t map_offset = rng.below(hosts.size());
    const std::size_t reduce_offset = rng.below(hosts.size());

    // Reducers initialize at job start — before the first intent wave in
    // the same instant, so the storm exercises the resolved-intent fast
    // path; held-intent resolution is covered by the engine paths.
    for (std::size_t r = 0; r < shape.reducers; ++r) {
      StormEvent e;
      e.kind = StormEvent::Kind::kReducerLocated;
      e.at = util::SimTime{start_ns};
      e.job_serial = j;
      e.reduce_index = r;
      e.server = hosts[(reduce_offset + r % spread) % hosts.size()];
      events.push_back(e);
    }

    for (std::size_t w = 0; w < cfg.waves; ++w) {
      const util::SimTime wave_at{start_ns +
                                  static_cast<std::int64_t>(w) * tick_ns};
      for (std::size_t s = 0; s < shape.map_servers; ++s) {
        const net::NodeId src = hosts[(map_offset + s) % hosts.size()];
        for (std::size_t m = 0; m < shape.maps_per_server; ++m) {
          const std::size_t map_index =
              (w * shape.map_servers + s) * shape.maps_per_server + m;
          for (std::size_t r = 0; r < shape.reducers; ++r) {
            StormEvent e;
            e.kind = StormEvent::Kind::kIntent;
            e.at = wave_at;
            e.job_serial = j;
            e.intent.job_serial = j;
            e.intent.map_index = map_index;
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
    done.at = util::SimTime{start_ns +
                            static_cast<std::int64_t>(cfg.waves + 1) * tick_ns};
    done.job_serial = j;
    events.push_back(done);
  }

  // Jobs overlap; stable sort keeps per-instant generation order (reducer
  // locations before same-instant intents of the same job).
  std::stable_sort(events.begin(), events.end(),
                   [](const StormEvent& a, const StormEvent& b) {
                     return a.at < b.at;
                   });
  return events;
}

void schedule_storm(sim::Simulation& sim, core::Collector& collector,
                    const std::vector<StormEvent>& events) {
  for (const StormEvent& e : events) {
    switch (e.kind) {
      case StormEvent::Kind::kReducerLocated:
        sim.at(e.at, [&collector, &e] {
          collector.reducer_located(e.job_serial, e.reduce_index, e.server);
        });
        break;
      case StormEvent::Kind::kIntent:
        sim.at(e.at, [&collector, &e] { collector.ingest(e.intent); });
        break;
      case StormEvent::Kind::kJobCompleted:
        sim.at(e.at,
               [&collector, &e] { collector.job_completed(e.job_serial); });
        break;
    }
  }
}

std::size_t storm_intent_count(const std::vector<StormEvent>& events) {
  std::size_t n = 0;
  for (const StormEvent& e : events) {
    if (e.kind == StormEvent::Kind::kIntent) ++n;
  }
  return n;
}

}  // namespace pythia::workloads
