#include "workloads/open_arrival.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <stdexcept>

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

/// Sort-like, Nutch-like and small ad-hoc shapes, in pick order.
std::array<ClassShape, 3> class_shapes(const OpenArrivalConfig& cfg) {
  return {{{cfg.sort_map_servers, cfg.sort_maps_per_server, cfg.sort_reducers,
            cfg.sort_flow_bytes},
           {cfg.nutch_map_servers, cfg.nutch_maps_per_server,
            cfg.nutch_reducers, cfg.nutch_flow_bytes},
           {cfg.small_map_servers, cfg.small_maps_per_server,
            cfg.small_reducers, cfg.small_flow_bytes}}};
}

std::size_t pick_class(const OpenArrivalConfig& cfg, double u) {
  if (u < cfg.sort_fraction) return 0;
  if (u < cfg.sort_fraction + cfg.nutch_fraction) return 1;
  return 2;
}

/// Events one job of `shape` emits: its reducer locations, one intent per
/// (map task, reducer) per wave, and its completion.
std::size_t job_event_count(const ClassShape& shape, std::size_t waves) {
  return shape.reducers +
         waves * shape.map_servers * shape.maps_per_server * shape.reducers +
         1;
}

/// Writes a storm's events to `out` as its jobs are generated, in index
/// order, in the order a stable sort by time would give. Each job's events
/// are in time order and job starts never decrease, so a job's events wait
/// in its buffer only until no later job can have an earlier event. Every
/// job ends with its completion `waves + 1` ticks after its start, so jobs
/// run out in index order.
class InOrderWriter {
 public:
  explicit InOrderWriter(std::vector<StormEvent>& out) : out_(out) {}

  /// An empty buffer for the events of the next job, none dated before
  /// `start`, which is no earlier than the previous job's start. Every
  /// buffered event dated before `start` is written first. Buffers of jobs
  /// that ran out are reused.
  std::vector<StormEvent>& next_job(util::SimTime start) {
    write_through(start - util::Duration{1});
    earliest_ = std::min(earliest_, start);
    Job& job = jobs_.emplace_back();
    if (!spare_.empty()) {
      job.events = std::move(spare_.back());
      spare_.pop_back();
      job.events.clear();
    }
    return job.events;
  }

  /// Writes every event still buffered.
  void finish() { write_through(util::SimTime::max()); }

 private:
  struct Job {
    std::vector<StormEvent> events;
    std::size_t next = 0;  // first event not yet written
  };

  /// Writes every buffered event dated at or before `last`: the earliest
  /// instant first, and within an instant the jobs in index order.
  void write_through(util::SimTime last) {
    while (!jobs_.empty() && earliest_ <= last) {
      const util::SimTime at = earliest_;
      earliest_ = util::SimTime::max();
      for (Job& job : jobs_) {
        while (job.next < job.events.size() && job.events[job.next].at == at) {
          out_.push_back(job.events[job.next++]);
        }
        if (job.next < job.events.size()) {
          earliest_ = std::min(earliest_, job.events[job.next].at);
        }
      }
      while (!jobs_.empty() &&
             jobs_.front().next == jobs_.front().events.size()) {
        spare_.push_back(std::move(jobs_.front().events));
        jobs_.pop_front();
      }
    }
  }

  std::vector<StormEvent>& out_;
  std::deque<Job> jobs_;  // jobs with unwritten events, in index order
  std::vector<std::vector<StormEvent>> spare_;
  // No unwritten event is dated before it, so a job that starts no later
  // costs no pass over the open jobs, however many there are.
  util::SimTime earliest_ = util::SimTime::max();
};

}  // namespace

std::vector<StormEvent> generate_storm(const OpenArrivalConfig& cfg,
                                       const net::Topology& topo,
                                       std::uint64_t seed) {
  // Checked before any draw: zero tenants would divide by zero, and a
  // negative gap would date events before t = 0 and make job starts
  // decrease, which InOrderWriter relies on never happening.
  if (cfg.tenants == 0) {
    throw std::invalid_argument("OpenArrivalConfig::tenants must be positive");
  }
  if (cfg.mean_interarrival < util::Duration::zero()) {
    throw std::invalid_argument(
        "OpenArrivalConfig::mean_interarrival must not be negative");
  }
  util::Xoshiro256 rng(seed);
  const std::vector<net::NodeId> hosts = topo.hosts();
  std::vector<StormEvent> events;
  if (hosts.empty() || cfg.jobs == 0) return events;

  // One allocation, sized for every job being of the largest class; the
  // pages no event reaches are never touched.
  const std::array<ClassShape, 3> shapes = class_shapes(cfg);
  std::size_t most_per_job = 0;
  for (const ClassShape& shape : shapes) {
    most_per_job = std::max(most_per_job, job_event_count(shape, cfg.waves));
  }
  events.reserve(cfg.jobs * most_per_job);

  const std::int64_t tick_ns = std::max<std::int64_t>(1, cfg.tick.ns());
  const std::size_t spread = std::max<std::size_t>(1, cfg.reducer_server_spread);
  std::int64_t arrival_ns = 0;
  InOrderWriter writer(events);

  for (std::size_t j = 0; j < cfg.jobs; ++j) {
    // Poisson process, then tick quantization: concurrent jobs share event
    // instants, which is what forms multi-job cohorts at the collector.
    const double u = rng.uniform01();
    arrival_ns += static_cast<std::int64_t>(
        -std::log(1.0 - u) *
        static_cast<double>(cfg.mean_interarrival.ns()));
    const std::int64_t start_ns = (arrival_ns / tick_ns) * tick_ns;

    const ClassShape& shape = shapes[pick_class(cfg, rng.uniform01())];
    const std::uint32_t tenant = static_cast<std::uint32_t>(j % cfg.tenants);
    const std::int32_t priority =
        static_cast<std::int32_t>(cfg.tenants) -
        static_cast<std::int32_t>(tenant);
    const std::size_t map_offset = rng.below(hosts.size());
    const std::size_t reduce_offset = rng.below(hosts.size());
    std::vector<StormEvent>& job = writer.next_job(util::SimTime{start_ns});

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
      job.push_back(e);
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
            job.push_back(e);
          }
        }
      }
    }

    StormEvent done;
    done.kind = StormEvent::Kind::kJobCompleted;
    done.at = util::SimTime{start_ns +
                            static_cast<std::int64_t>(cfg.waves + 1) * tick_ns};
    done.job_serial = j;
    job.push_back(done);
  }

  writer.finish();
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
