#include "experiments/checkpoint.hpp"

#include <utility>

namespace pythia::exp {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = kFnvOffset;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

void encode_fault_channel_config(const sim::FaultChannelConfig& cfg,
                                 sim::StateEncoder& enc) {
  enc.put_f64(cfg.drop_probability);
  enc.put_f64(cfg.duplicate_probability);
  enc.put_duration(cfg.base_delay);
  enc.put_duration(cfg.jitter);
  enc.put_u8(static_cast<std::uint8_t>(cfg.jitter_kind));
}

void encode_scenario_config(const ScenarioConfig& cfg,
                            sim::StateEncoder& enc) {
  enc.put_u64(cfg.seed);
  enc.put_u8(static_cast<std::uint8_t>(cfg.topology_kind));
  enc.put_u64(cfg.two_rack.servers_per_rack);
  enc.put_u64(cfg.two_rack.inter_rack_links);
  enc.put_f64(cfg.two_rack.host_link.bps());
  enc.put_f64(cfg.two_rack.inter_rack_capacity.bps());
  enc.put_u64(cfg.leaf_spine.racks);
  enc.put_u64(cfg.leaf_spine.servers_per_rack);
  enc.put_u64(cfg.leaf_spine.spines);
  enc.put_f64(cfg.leaf_spine.host_link.bps());
  enc.put_f64(cfg.leaf_spine.uplink.bps());

  enc.put_f64(cfg.background.oversubscription);
  enc.put_u32(static_cast<std::uint32_t>(cfg.background.path_intensity.size()));
  for (double v : cfg.background.path_intensity) enc.put_f64(v);

  const sdn::ControllerConfig& ctl = cfg.controller;
  enc.put_u64(ctl.k_paths);
  enc.put_duration(ctl.rule_install_latency);
  enc.put_duration(ctl.link_stats_period);
  enc.put_bool(ctl.reroute_active_flows_on_install);
  encode_fault_channel_config(ctl.flow_mod_channel, enc);
  enc.put_f64(ctl.install_reject_probability);
  enc.put_u64(ctl.flow_table_capacity);
  enc.put_u64(ctl.max_install_retries);
  enc.put_duration(ctl.retry_backoff);
  enc.put_duration(ctl.install_timeout);

  enc.put_duration(cfg.hedera.poll_period);
  enc.put_f64(cfg.hedera.elephant_fraction);

  const core::PythiaConfig& py = cfg.pythia;
  enc.put_duration(py.instrumentation.decode_delay);
  enc.put_duration(py.instrumentation.management_latency);
  enc.put_duration(py.instrumentation.extra_delay);
  encode_fault_channel_config(py.instrumentation.channel, enc);
  enc.put_f64(py.instrumentation.overhead.header_bytes_per_segment);
  enc.put_f64(py.instrumentation.overhead.assumed_mss);
  enc.put_f64(py.instrumentation.overhead.http_framing_bytes);
  enc.put_duration(py.collector.batch_window);
  enc.put_bool(py.collector.criticality_aware);
  enc.put_duration(py.collector.intent_ttl);
  enc.put_u8(static_cast<std::uint8_t>(py.collector.pipeline));
  enc.put_u64(py.collector.pod_queue_capacity);
  enc.put_f64(py.allocator.min_available_bps);
  enc.put_bool(py.allocator.load_aware);
  enc.put_u8(static_cast<std::uint8_t>(py.allocator.aggregation));
  enc.put_bool(py.weighted_flows);
  enc.put_f64(py.min_flow_weight);
  enc.put_f64(py.max_flow_weight);
  enc.put_bool(py.watchdog.enabled);
  enc.put_duration(py.watchdog.staleness_threshold);
  enc.put_f64(py.watchdog.install_failure_threshold);
  enc.put_u64(py.watchdog.min_install_samples);
  enc.put_duration(py.watchdog.failure_window);
  enc.put_duration(py.watchdog.recovery_grace);
  enc.put_u64(py.watchdog.max_fallbacks);
  enc.put_duration(cfg.flowcomb_extra_delay);

  const hadoop::ClusterConfig& cl = cfg.cluster;
  enc.put_u64(cl.map_slots_per_server);
  enc.put_u64(cl.reduce_slots_per_server);
  enc.put_f64(cl.reduce_slowstart);
  enc.put_u64(cl.parallel_copies);
  enc.put_f64(cl.local_copy_rate.bps());
  enc.put_duration(cl.fetch_setup);
  enc.put_duration(cl.completion_event_poll);
  enc.put_duration(cl.heartbeat_jitter);
  enc.put_f64(cl.straggler_probability);
  enc.put_f64(cl.straggler_slowdown);
  enc.put_f64(cl.map_failure_probability);
  enc.put_u64(cl.max_task_attempts);
  enc.put_bool(cl.speculative_execution);
  enc.put_f64(cl.speculative_slowdown_threshold);
  enc.put_bool(cl.multipath_spray);

  enc.put_u8(static_cast<std::uint8_t>(cfg.scheduler));
  enc.put_bool(cfg.enable_netflow);
}

void encode_job_spec(const hadoop::JobSpec& job, sim::StateEncoder& enc) {
  enc.put_string(job.name);
  enc.put_i64(job.input.count());
  enc.put_i64(job.block.count());
  enc.put_u64(job.num_maps_override);
  enc.put_u64(job.num_reducers);
  enc.put_f64(job.map_output_ratio);
  enc.put_u8(static_cast<std::uint8_t>(job.skew.kind));
  enc.put_f64(job.skew.zipf_s);
  enc.put_u32(static_cast<std::uint32_t>(job.skew.weights.size()));
  for (double w : job.skew.weights) enc.put_f64(w);
  enc.put_f64(job.mapper_output_jitter);
  enc.put_duration(job.map_overhead);
  enc.put_f64(job.map_rate.bps());
  enc.put_f64(job.map_duration_jitter);
  enc.put_duration(job.reduce_overhead);
  enc.put_f64(job.reduce_rate.bps());
  enc.put_f64(job.reduce_duration_jitter);
  enc.put_f64(job.output_ratio);
  enc.put_u64(job.dfs_replication);
}

/// One subsystem section, encoded into a named byte blob.
template <typename Fn>
void add_section(sim::Snapshot& snap, const char* name, Fn&& encode) {
  sim::StateEncoder enc;
  encode(enc);
  snap.add_section(name, enc.take());
}

}  // namespace

std::uint64_t scenario_fingerprint(const ScenarioConfig& cfg,
                                   const hadoop::JobSpec& job) {
  sim::StateEncoder enc;
  encode_scenario_config(cfg, enc);
  encode_job_spec(job, enc);
  return fnv1a(enc.bytes());
}

sim::Snapshot capture_snapshot(Scenario& scenario,
                               const hadoop::JobSpec& job,
                               std::string label) {
  sim::Snapshot snap;
  snap.root_seed = scenario.config().seed;
  snap.config_fingerprint = scenario_fingerprint(scenario.config(), job);
  snap.cursor_events = scenario.simulation().queue().events_fired();
  snap.cursor_time = scenario.simulation().now();
  snap.label = std::move(label);

  // Fixed section order — verification and bisection compare pairwise.
  add_section(snap, "sim.queue", [&](sim::StateEncoder& enc) {
    sim::encode_event_queue_state(scenario.simulation().queue(), enc);
  });
  add_section(snap, "sim.rng", [&](sim::StateEncoder& enc) {
    sim::encode_rng_state(scenario.simulation(), enc);
  });
  add_section(snap, "fabric", [&](sim::StateEncoder& enc) {
    scenario.fabric().encode_state(enc);
  });
  add_section(snap, "fabric.counters", [&](sim::StateEncoder& enc) {
    scenario.fabric().encode_counters(enc);
  });
  // k and the sorted banned set (RoutingGraph::kStateVersion), which name
  // the table without computing it: graphs queried in different orders, or
  // not at all, capture the same bytes here, and capturing leaves the lazy
  // table and routing.counters as they were.
  add_section(snap, "routing", [&](sim::StateEncoder& enc) {
    scenario.controller().routing().encode_state(enc);
  });
  add_section(snap, "routing.counters", [&](sim::StateEncoder& enc) {
    scenario.controller().routing().encode_counters(enc);
  });
  add_section(snap, "controller", [&](sim::StateEncoder& enc) {
    scenario.controller().encode_state(enc);
  });
  add_section(snap, "pythia", [&](sim::StateEncoder& enc) {
    enc.put_bool(scenario.pythia() != nullptr);
    if (scenario.pythia() != nullptr) scenario.pythia()->encode_state(enc);
  });
  add_section(snap, "engine", [&](sim::StateEncoder& enc) {
    scenario.engine().encode_state(enc);
  });
  return snap;
}

RestoreResult restore_snapshot(const sim::Snapshot& snap,
                               const ScenarioConfig& cfg,
                               const hadoop::JobSpec& job,
                               const ScenarioPrologue& prologue) {
  if (snap.root_seed != cfg.seed) {
    throw sim::SnapshotError("restore: seed mismatch (snapshot " +
                             std::to_string(snap.root_seed) + ", config " +
                             std::to_string(cfg.seed) + ")");
  }
  const std::uint64_t fp = scenario_fingerprint(cfg, job);
  if (snap.config_fingerprint != fp) {
    throw sim::SnapshotError(
        "restore: config fingerprint mismatch — the snapshot was captured "
        "in a different universe (snapshot " +
        std::to_string(snap.config_fingerprint) + ", config " +
        std::to_string(fp) + ")");
  }

  RestoreResult result;
  result.scenario = std::make_unique<Scenario>(cfg);
  if (prologue) prologue(*result.scenario);
  result.scenario->submit_job(job);
  // Replay the deterministic event loop to the capture's event cursor, then
  // reproduce a clock that run_until() may have parked *between* events —
  // without advance_now the replayed clock sits at the last fired event's
  // timestamp and the sim.queue section diverges (see docs/checkpoint.md).
  result.scenario->run_to_event_count(snap.cursor_events);
  sim::EventQueue& queue = result.scenario->simulation().queue();
  std::string early_event;
  if (snap.cursor_time > queue.now()) {
    // A faithful replay holds no live event before the capture clock
    // (advance_now's precondition). A diverged one can — a restore without
    // the capture's prologue, say — so it stays unverified, unadvanced.
    const auto pending = queue.pending_events();
    if (!pending.empty() && pending.front().at < snap.cursor_time) {
      early_event = "replay holds a live event at " +
                    std::to_string(pending.front().at.ns()) +
                    " ns, before the capture clock " +
                    std::to_string(snap.cursor_time.ns()) + " ns";
    } else {
      queue.advance_now(snap.cursor_time);
    }
  }

  sim::Snapshot replayed = capture_snapshot(*result.scenario, job, snap.label);
  result.divergence = sim::Snapshot::describe_divergence(snap, replayed);
  if (!early_event.empty()) {
    result.divergence = result.divergence.empty()
                            ? early_event
                            : early_event + "; " + result.divergence;
  }
  result.verified = result.divergence.empty();
  return result;
}

}  // namespace pythia::exp
