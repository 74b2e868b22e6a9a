#include "workloads/open_arrival.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/collector.hpp"
#include "util/random.hpp"

namespace pythia::workloads {

namespace {

/// The field prefixes of the Sort-like, Nutch-like and small ad-hoc
/// shapes, in pick order.
constexpr std::array<const char*, 3> kClassNames = {"sort", "nutch", "small"};

std::size_t pick_class(const OpenArrivalConfig& cfg, double u) {
  if (u < cfg.sort_fraction) return 0;
  if (u < cfg.sort_fraction + cfg.nutch_fraction) return 1;
  return 2;
}

void check_fraction(double f, const char* field) {
  if (!(f >= 0.0 && f <= 1.0)) {
    throw std::invalid_argument(std::string("OpenArrivalConfig::") + field +
                                " must lie in [0, 1]");
  }
}

[[noreturn]] void reject_overflow(const std::string& fields) {
  throw std::invalid_argument("OpenArrivalConfig::" + fields +
                              " overflow the storm's event counts");
}

bool product_overflows(std::size_t a, std::size_t b) {
  return b != 0 && a > std::numeric_limits<std::size_t>::max() / b;
}

/// Rejects a config the generator cannot honour, before any draw or
/// allocation. Zero tenants would divide by zero; a negative gap would date
/// events before t = 0; a fraction outside [0, 1] or a sum above 1 makes
/// the class mix meaningless; and every job's event count, the storm's
/// event count and its segment count must fit the widths they are kept in.
void check_config(const OpenArrivalConfig& cfg) {
  if (cfg.tenants == 0) {
    throw std::invalid_argument("OpenArrivalConfig::tenants must be positive");
  }
  if (cfg.mean_interarrival < util::Duration::zero()) {
    throw std::invalid_argument(
        "OpenArrivalConfig::mean_interarrival must not be negative");
  }
  check_fraction(cfg.sort_fraction, "sort_fraction");
  check_fraction(cfg.nutch_fraction, "nutch_fraction");
  if (cfg.sort_fraction + cfg.nutch_fraction > 1.0) {
    throw std::invalid_argument(
        "OpenArrivalConfig::sort_fraction + nutch_fraction must not exceed 1");
  }
  const std::array<std::array<std::size_t, 3>, 3> shapes = {{
      {cfg.sort_map_servers, cfg.sort_maps_per_server, cfg.sort_reducers},
      {cfg.nutch_map_servers, cfg.nutch_maps_per_server, cfg.nutch_reducers},
      {cfg.small_map_servers, cfg.small_maps_per_server, cfg.small_reducers},
  }};
  std::size_t most_per_job = 0;
  for (std::size_t c = 0; c < shapes.size(); ++c) {
    const auto [servers, per_server, reducers] = shapes[c];
    if (product_overflows(servers, per_server) ||
        product_overflows(servers * per_server, reducers)) {
      const std::string name = kClassNames[c];
      reject_overflow(name + "_map_servers, " + name +
                      "_maps_per_server and " + name + "_reducers");
    }
    const std::size_t per_wave = servers * per_server * reducers;
    if (product_overflows(per_wave, cfg.waves)) reject_overflow("waves");
    // Reducer locations, intents and the completion.
    const std::size_t intents = per_wave * cfg.waves;
    if (reducers >= std::numeric_limits<std::size_t>::max() - intents) {
      reject_overflow(std::string(kClassNames[c]) + "_reducers");
    }
    most_per_job = std::max(most_per_job, reducers + intents + 1);
  }
  if (product_overflows(cfg.jobs, most_per_job)) reject_overflow("jobs");
  // Each job has a segment per wave (at least one) and its completion.
  constexpr std::size_t kMaxSegments =
      std::numeric_limits<std::uint32_t>::max();
  if (cfg.jobs != 0 &&
      std::max<std::size_t>(cfg.waves, 1) >= kMaxSegments / cfg.jobs) {
    throw std::invalid_argument(
        "OpenArrivalConfig::jobs and waves overflow the storm's 32-bit "
        "segment index");
  }
}

}  // namespace

template <class Visit>
void Storm::expand(const Segment& seg, Visit&& visit) const {
  const Job& job = jobs_[seg.job];
  const Shape& shape = shapes_[job.shape];
  const util::SimTime at{seg.at_ns};
  if (seg.part == kCompletion) {
    StormEvent done;
    done.kind = StormEvent::Kind::kJobCompleted;
    done.at = at;
    done.job_serial = seg.job;
    visit(done);
    return;
  }
  // Reducers initialize at job start — before the first intent wave in
  // the same instant, so the storm exercises the resolved-intent fast
  // path; held-intent resolution is covered by the engine paths.
  if (seg.part == 0) {
    for (std::size_t r = 0; r < shape.reducers; ++r) {
      StormEvent e;
      e.kind = StormEvent::Kind::kReducerLocated;
      e.at = at;
      e.job_serial = seg.job;
      e.reduce_index = r;
      e.server = hosts_[(job.reduce_offset + r % spread_) % hosts_.size()];
      visit(e);
    }
  }
  if (seg.part >= waves_) return;
  StormEvent e;
  e.kind = StormEvent::Kind::kIntent;
  e.at = at;
  e.job_serial = seg.job;
  e.intent.job_serial = seg.job;
  e.intent.emitted_at = at;
  e.intent.tenant = job.tenant;
  e.intent.priority = job.priority;
  const std::size_t w = seg.part;
  const util::Bytes* draw =
      draws_.data() + job.first_draw + w * shape.intents_per_wave();
  for (std::size_t s = 0; s < shape.map_servers; ++s) {
    e.intent.src_server = hosts_[(job.map_offset + s) % hosts_.size()];
    for (std::size_t m = 0; m < shape.maps_per_server; ++m) {
      e.intent.map_index =
          (w * shape.map_servers + s) * shape.maps_per_server + m;
      for (std::size_t r = 0; r < shape.reducers; ++r) {
        e.intent.reduce_index = r;
        e.intent.predicted_wire_bytes = *draw++;
        visit(e);
      }
    }
  }
}

void Storm::deliver(core::Collector& collector, std::uint32_t first,
                    std::uint32_t last) const {
  for (std::uint32_t i = first; i < last; ++i) {
    expand(segments_[i], [&collector](const StormEvent& e) {
      switch (e.kind) {
        case StormEvent::Kind::kReducerLocated:
          collector.reducer_located(e.job_serial, e.reduce_index, e.server);
          break;
        case StormEvent::Kind::kIntent:
          collector.ingest(e.intent);
          break;
        case StormEvent::Kind::kJobCompleted:
          collector.job_completed(e.job_serial);
          break;
      }
    });
  }
}

Storm::Iterator::Iterator(const Storm& storm, std::size_t segment)
    : storm_(&storm), segment_(segment) {
  load();
}

void Storm::Iterator::load() {
  events_.clear();
  pos_ = 0;
  if (segment_ == storm_->segments_.size()) return;
  storm_->expand(storm_->segments_[segment_],
                 [this](const StormEvent& e) { events_.push_back(e); });
}

Storm::Iterator& Storm::Iterator::operator++() {
  ++pos_;
  if (pos_ == events_.size()) {
    ++segment_;
    load();
  }
  return *this;
}

Storm generate_storm(const OpenArrivalConfig& cfg, const net::Topology& topo,
                     std::uint64_t seed) {
  check_config(cfg);
  Storm storm;
  const std::vector<net::NodeId>& hosts = topo.hosts();
  if (hosts.empty() || cfg.jobs == 0) return storm;

  storm.hosts_ = hosts;
  storm.shapes_ = {{{cfg.sort_map_servers, cfg.sort_maps_per_server,
                     cfg.sort_reducers, cfg.sort_flow_bytes},
                    {cfg.nutch_map_servers, cfg.nutch_maps_per_server,
                     cfg.nutch_reducers, cfg.nutch_flow_bytes},
                    {cfg.small_map_servers, cfg.small_maps_per_server,
                     cfg.small_reducers, cfg.small_flow_bytes}}};
  storm.waves_ = cfg.waves;
  storm.spread_ = std::max<std::size_t>(1, cfg.reducer_server_spread);
  const std::size_t wave_parts = std::max<std::size_t>(cfg.waves, 1);
  storm.jobs_.reserve(cfg.jobs);
  storm.segments_.reserve(cfg.jobs * (wave_parts + 1));
  // Draws: a quarter above the expected count (each class's intents
  // weighted by its fraction), at most what all-largest jobs would draw, so
  // a storm of many jobs fills the buffer without moving it. Growth by
  // doubling copied the draws again and freed ~4 MB of old buffers per
  // control_storm-sized storm: holes that decided whether repeated runs in
  // one process reused the heap or faulted it in again. A storm that draws
  // more still grows.
  {
    const std::array<double, 3> fractions = {
        cfg.sort_fraction, cfg.nutch_fraction,
        1.0 - cfg.sort_fraction - cfg.nutch_fraction};
    double expected = 0.0;
    std::size_t most = 0;
    for (std::size_t c = 0; c < fractions.size(); ++c) {
      const std::size_t n = cfg.waves * storm.shapes_[c].intents_per_wave();
      expected += fractions[c] * static_cast<double>(n);
      most = std::max(most, n);
    }
    const double want = 1.25 * expected * static_cast<double>(cfg.jobs);
    const std::size_t cap = cfg.jobs * most;
    storm.draws_.reserve(want < static_cast<double>(cap)
                             ? static_cast<std::size_t>(want)
                             : cap);
  }

  const std::int64_t tick_ns = std::max<std::int64_t>(1, cfg.tick.ns());
  util::Xoshiro256 rng(seed);
  std::int64_t arrival_ns = 0;
  for (std::size_t j = 0; j < cfg.jobs; ++j) {
    // Poisson process, then tick quantization: concurrent jobs share event
    // instants, which is what forms multi-job cohorts at the collector.
    const double u = rng.uniform01();
    arrival_ns += static_cast<std::int64_t>(
        -std::log(1.0 - u) *
        static_cast<double>(cfg.mean_interarrival.ns()));
    const std::int64_t start_ns = (arrival_ns / tick_ns) * tick_ns;

    const std::size_t c = pick_class(cfg, rng.uniform01());
    const Storm::Shape& shape = storm.shapes_[c];
    const auto tenant = static_cast<std::uint32_t>(j % cfg.tenants);
    const std::int32_t priority = static_cast<std::int32_t>(cfg.tenants) -
                                  static_cast<std::int32_t>(tenant);
    const auto map_offset =
        static_cast<std::uint32_t>(rng.below(hosts.size()));
    const auto reduce_offset =
        static_cast<std::uint32_t>(rng.below(hosts.size()));
    storm.jobs_.push_back({start_ns, storm.draws_.size(), map_offset,
                           reduce_offset, tenant, priority,
                           static_cast<std::uint8_t>(c)});

    // Each intent's volume, jittered ±50%, in wave, server, map, reducer
    // order: the order the events are rebuilt in.
    const std::size_t per_wave = shape.intents_per_wave();
    for (std::size_t i = 0; i < cfg.waves * per_wave; ++i) {
      storm.draws_.push_back(
          util::Bytes{static_cast<std::int64_t>(shape.flow_bytes.as_double() *
                                                (0.5 + rng.uniform01()))});
    }

    // A wave's segment holds no event when the class emits no intent,
    // unless it also carries the reducer locations.
    const auto job = static_cast<std::uint32_t>(j);
    for (std::size_t w = 0; w < wave_parts; ++w) {
      const bool any = (w < cfg.waves && per_wave > 0) ||
                       (w == 0 && shape.reducers > 0);
      if (any) {
        storm.segments_.push_back(
            {start_ns + static_cast<std::int64_t>(w) * tick_ns, job,
             static_cast<std::uint32_t>(w)});
      }
    }
    storm.segments_.push_back(
        {start_ns + static_cast<std::int64_t>(cfg.waves + 1) * tick_ns, job,
         Storm::kCompletion});
  }

  // Jobs in index order within an instant: the order a stable sort of the
  // jobs' events by time gives, since each job has one segment per instant.
  std::sort(storm.segments_.begin(), storm.segments_.end(),
            [](const Storm::Segment& a, const Storm::Segment& b) {
              return a.at_ns != b.at_ns ? a.at_ns < b.at_ns : a.job < b.job;
            });
  return storm;
}

void schedule_storm(sim::Simulation& sim, core::Collector& collector,
                    const Storm& storm) {
  // One event per instant, all scheduled here: they take one contiguous
  // block of sequence numbers, so no other event can fire between two of
  // an instant's storm events, and the cohort hook, which runs only
  // between instants, sees the same boundaries as one event per storm
  // event would give.
  const std::vector<Storm::Segment>& segments = storm.segments_;
  for (std::size_t first = 0; first < segments.size();) {
    std::size_t last = first + 1;
    while (last < segments.size() &&
           segments[last].at_ns == segments[first].at_ns) {
      ++last;
    }
    sim.at(util::SimTime{segments[first].at_ns},
           [&storm, &collector, first = static_cast<std::uint32_t>(first),
            last = static_cast<std::uint32_t>(last)] {
             storm.deliver(collector, first, last);
           });
    first = last;
  }
}

std::size_t storm_intent_count(const Storm& storm) {
  return storm.draws_.size();
}

}  // namespace pythia::workloads
