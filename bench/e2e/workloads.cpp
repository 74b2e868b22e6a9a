#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>

#include "sim/snapshot.hpp"
#include "workloads/hibench.hpp"

namespace e2e {

double WeightedSamples::quantile(double q) {
  if (samples_.empty()) return 0.0;
  std::sort(samples_.begin(), samples_.end());
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (const auto& [value, weight] : samples_) {
    seen += weight;
    if (seen >= rank) return value;
  }
  return samples_.back().first;
}

namespace {

exp::ScenarioConfig leaf_spine(std::size_t racks, std::uint64_t seed) {
  exp::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.topology_kind = exp::TopologyKind::kLeafSpine;
  cfg.leaf_spine.racks = racks;
  cfg.leaf_spine.servers_per_rack = 8;
  cfg.leaf_spine.spines = 4;
  cfg.controller.k_paths = 4;
  cfg.scheduler = exp::SchedulerKind::kPythia;
  return cfg;
}

}  // namespace

// A pass takes 1.5-3 s, so a 10 s run reports the median of several; smoke
// passes take well under 1 s.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  w.name = name;
  if (name == "paper_testbed") {
    // The paper's testbed and jobs: 2 racks x 5 servers over 2 cables,
    // every Fig. 3/4 oversubscription point, ECMP and Pythia.
    const std::vector<double> ratios =
        smoke ? std::vector<double>{1.0, 10.0}
              : std::vector<double>{1.0, 2.0, 5.0, 10.0, 20.0};
    for (const bool nutch : {false, true}) {
      for (const double ratio : ratios) {
        for (const auto kind :
             {exp::SchedulerKind::kEcmp, exp::SchedulerKind::kPythia}) {
          JobCell cell;
          cell.cfg.seed = seed;
          cell.cfg.background.oversubscription = ratio;
          cell.cfg.scheduler = kind;
          if (nutch) {
            cell.spec = [] { return workloads::paper_nutch(); };
          } else {
            cell.spec = [] { return workloads::paper_sort(); };
          }
          w.jobs.push_back(std::move(cell));
        }
      }
    }
  } else if (name == "sort_leafspine") {
    // Few large flows under 1:10 background: the fabric fill dominates.
    JobCell cell;
    cell.cfg = leaf_spine(16, seed);
    cell.cfg.background.oversubscription = 10.0;
    // 768 MB blocks keep ~310 concurrent flows at a third of the events
    // of the default 256 MB blocks.
    const std::int64_t gb = smoke ? 24 : 240;
    cell.spec = [gb] {
      hadoop::JobSpec spec =
          workloads::sort_job(util::Bytes{gb * 1000 * 1000 * 1000}, 64);
      spec.block = util::Bytes{768LL * 1000 * 1000};
      return spec;
    };
    w.jobs.push_back(std::move(cell));
  } else if (name == "nutch_leafspine") {
    // 20 k short flows over 16 320 server pairs: lazy routing first-touch
    // dominates, and the fabric sees many small components.
    JobCell cell;
    cell.cfg = leaf_spine(32, seed);
    const std::size_t pages = smoke ? 2'500'000 : 12'500'000;
    cell.spec = [pages] { return workloads::nutch_indexing(pages, 64); };
    w.jobs.push_back(std::move(cell));
  } else if (name == "control_storm") {
    // Open loop in simulated time: arrivals follow the storm's schedule.
    // ~410 k events stay clear of the event heap's 2^19 growth step at
    // every seed, so peak memory does not jump between seeds.
    StormCell cell;
    cell.topo.k = 8;
    cell.storm.jobs = smoke ? 400 : 2000;
    cell.storm.mean_interarrival = util::Duration::millis(40);
    cell.seed = seed;
    w.storms.push_back(cell);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

void sample_flush(const core::Collector& collector, double micros,
                  std::uint64_t& flushed, std::uint64_t& charged,
                  WeightedSamples& out) {
  if (collector.batches_flushed() == flushed) return;
  flushed = collector.batches_flushed();
  const std::uint64_t received = collector.intents_received();
  out.add(micros, received - charged);
  charged = received;
}

namespace {

/// Steps the queue to exhaustion, sampling flushes when a collector runs.
void drive(sim::EventQueue& q, const core::Collector* collector,
           WeightedSamples& decisions) {
  if (collector == nullptr) {
    while (q.run_one()) {
    }
    return;
  }
  std::uint64_t flushed = collector->batches_flushed();
  std::uint64_t charged = collector->intents_received();
  for (;;) {
    const auto a = Clock::now();
    if (!q.run_one()) break;
    const std::chrono::duration<double, std::micro> took = Clock::now() - a;
    sample_flush(*collector, took.count(), flushed, charged, decisions);
  }
}

void count_queue(const sim::EventQueue& q, Counts& c) {
  c.events += q.events_fired();
  c.scheduled += q.next_sequence();
  c.cancelled += q.next_sequence() - q.events_fired() - q.pending();
}

void count_fabric(const net::Fabric& f, Counts& c) {
  const net::FabricCounters& fc = f.counters();
  c.flows_started += f.flows_started();
  c.recomputes += fc.recomputes;
  c.full_fills += fc.full_fills;
  c.flows_touched += fc.flows_touched;
  c.links_touched += fc.links_touched;
  c.deferred_recomputes += fc.deferred_recomputes;
}

void count_control(const core::Collector& col, const core::Allocator& alloc,
                   Counts& c) {
  c.intents += col.intents_received();
  c.aggregates += col.aggregate_count();
  c.batches += col.batches_flushed();
  c.allocations += alloc.allocations();
  c.reallocations += alloc.reallocations();
  c.refused += alloc.installs_refused() + col.admission_refused();
}

void count_sdn(const sdn::Controller& ctl, Counts& c) {
  c.pairs_materialized += ctl.routing().pairs_materialized();
  c.install_attempts += ctl.install_attempts();
  c.rules_installed += ctl.rules_installed();
  c.install_failures += ctl.install_failures();
  c.install_retries += ctl.install_retries();
  c.flow_mods += ctl.flow_mod_messages();
}

void fail(PassResult& out, const std::string& why) {
  ++out.failed;
  out.failures.push_back(why);
}

void run_job_cell(const JobCell& cell, PassResult& out, Fnv& fnv) {
  const auto t0 = Clock::now();
  exp::Scenario sc(cell.cfg);
  const hadoop::JobSpec spec = cell.spec();
  MapOutputTally tally;
  sc.engine().add_observer(&tally);
  sc.submit_job(spec);
  const auto t1 = Clock::now();
  core::PythiaSystem* pythia = sc.pythia();
  drive(sc.simulation().queue(),
        pythia != nullptr ? &pythia->collector() : nullptr, out.decisions);
  const auto t2 = Clock::now();
  out.setup_s += seconds_between(t0, t1);
  out.wall_s += seconds_between(t1, t2);
  ++out.attempted;

  hadoop::JobResult result;
  try {
    result = sc.finish();
  } catch (const std::exception& e) {
    fail(out, spec.name + ": " + e.what());
    return;
  }
  if (std::string why = check_job(sc, spec, result, tally); !why.empty()) {
    fail(out, spec.name + ": " + why);
  }
  hash_job(result, fnv);

  Counts& c = out.counts;
  count_queue(sc.simulation().queue(), c);
  count_fabric(sc.fabric(), c);
  count_sdn(sc.controller(), c);
  if (pythia != nullptr) {
    count_control(pythia->collector(), pythia->allocator(), c);
  }
  c.maps += result.maps.size();
  c.fetches += result.fetches.size();
  c.map_retries += result.map_retries;
  c.remote_shuffle_bytes += result.remote_shuffle_bytes().as_double();
}

void run_storm_cell(const StormCell& cell, PassResult& out, Fnv& fnv) {
  const auto t0 = Clock::now();
  const net::Topology topo = net::make_fat_tree(cell.topo);
  const auto events = workloads::generate_storm(cell.storm, topo, cell.seed);
  StormStack s(topo, cell.seed);
  workloads::schedule_storm(s.sim, s.collector, events);
  const auto t1 = Clock::now();
  drive(s.sim.queue(), &s.collector, out.decisions);
  const auto t2 = Clock::now();
  out.setup_s += seconds_between(t0, t1);
  out.wall_s += seconds_between(t1, t2);

  const std::size_t intents = workloads::storm_intent_count(events);
  out.attempted += intents;
  const std::uint64_t failed = storm_failed_intents(s);
  out.failed += failed;
  if (failed > 0) {
    out.failures.push_back("storm: " + std::to_string(failed) +
                           " intents refused, expired or not installed");
  }
  if (std::string why = check_storm(s, intents); !why.empty()) {
    fail(out, "storm: " + why);
  }
  hash_storm(s, fnv);

  Counts& c = out.counts;
  count_queue(s.sim.queue(), c);
  count_fabric(s.fabric, c);
  count_sdn(s.controller, c);
  count_control(s.collector, s.allocator, c);
}

}  // namespace

std::string check_job(exp::Scenario& sc, const hadoop::JobSpec& spec,
                      const hadoop::JobResult& result,
                      const MapOutputTally& tally) {
  if (result.completed <= result.submitted) return "job did not complete";
  if (result.maps.size() != spec.num_maps()) return "map count mismatch";
  for (const hadoop::TaskSpan& m : result.maps) {
    if (m.finished <= m.started) {
      return "map " + std::to_string(m.index) + " did not finish";
    }
  }
  std::int64_t shuffled = 0;
  for (const hadoop::ReducerRecord& r : result.reducers) {
    shuffled += r.shuffled.count();
  }
  if (shuffled != tally.bytes()) {
    return "reducers shuffled " + std::to_string(shuffled) +
           " B but maps produced " + std::to_string(tally.bytes()) + " B";
  }
  // Every remote fetch is one fabric flow of exactly its payload.
  std::uint64_t remote = 0;
  std::int64_t remote_bytes = 0;
  for (const hadoop::FetchRecord& f : result.fetches) {
    if (!f.remote) continue;
    ++remote;
    remote_bytes += f.payload.count();
  }
  const net::Fabric& fabric = sc.fabric();
  if (fabric.flows_started() != remote ||
      fabric.flows_completed() != remote) {
    return "fabric started " + std::to_string(fabric.flows_started()) +
           " flows for " + std::to_string(remote) + " remote fetches";
  }
  if (fabric.bytes_delivered().count() != remote_bytes) {
    return "fabric delivered " +
           std::to_string(fabric.bytes_delivered().count()) + " B of " +
           std::to_string(remote_bytes) + " B started";
  }
  if (const core::PythiaSystem* p = sc.pythia(); p != nullptr) {
    const std::uint64_t want = spec.num_maps() * spec.num_reducers;
    if (p->collector().intents_received() != want) {
      return "collector received " +
             std::to_string(p->collector().intents_received()) +
             " intents, want maps x reducers = " + std::to_string(want);
    }
  }
  return "";
}

void hash_job(const hadoop::JobResult& result, Fnv& fnv) {
  fnv.add_u64(static_cast<std::uint64_t>(result.completion_time().ns()));
  for (const hadoop::ReducerRecord& r : result.reducers) {
    fnv.add_u64(static_cast<std::uint64_t>(r.shuffled.count()));
  }
}

std::uint64_t storm_failed_intents(const StormStack& s) {
  return s.collector.admission_refused() + s.collector.intents_expired() +
         s.controller.table_reject_intents() +
         s.controller.install_failure_intents();
}

std::string check_storm(const StormStack& s, std::size_t storm_intents) {
  if (s.collector.intents_received() != storm_intents) {
    return "collector received " +
           std::to_string(s.collector.intents_received()) + " of " +
           std::to_string(storm_intents) + " intents";
  }
  return "";
}

void hash_storm(const StormStack& s, Fnv& fnv) {
  sim::StateEncoder enc;
  s.collector.encode_behavior(enc);
  s.allocator.encode_state(enc);
  s.controller.encode_state(enc);
  fnv.add_bytes(enc.bytes());
}

PassResult run_pass(const Workload& w) {
  PassResult out;
  Fnv fnv;
  for (const JobCell& cell : w.jobs) run_job_cell(cell, out, fnv);
  for (const StormCell& cell : w.storms) run_storm_cell(cell, out, fnv);
  out.checksum = fnv.value();
  return out;
}

}  // namespace e2e
