#include "hadoop/engine.hpp"

#include <algorithm>
#include <cassert>

#include "hadoop/partition.hpp"
#include "sim/snapshot.hpp"
#include "util/log.hpp"

namespace pythia::hadoop {

MapReduceEngine::MapReduceEngine(sim::Simulation& sim, net::Fabric& fabric,
                                 sdn::Controller& controller,
                                 ClusterConfig cluster)
    : sim_(&sim),
      fabric_(&fabric),
      controller_(&controller),
      cluster_(std::move(cluster)) {
  assert(!cluster_.servers.empty());
  assert(cluster_.map_slots_per_server > 0);
  assert(cluster_.reduce_slots_per_server > 0);
  assert(cluster_.parallel_copies > 0);
  slots_.resize(cluster_.servers.size());
  for (auto& s : slots_) {
    s.map_free = cluster_.map_slots_per_server;
    s.reduce_free = cluster_.reduce_slots_per_server;
  }
}

std::size_t MapReduceEngine::submit(JobSpec spec, JobCallback on_done) {
  const std::size_t serial = jobs_.size();
  auto job = std::make_unique<JobState>();
  job->serial = serial;
  job->spec = std::move(spec);
  job->on_done = std::move(on_done);
  job->submitted = sim_->now();
  job->weights = reducer_weights(job->spec.skew, job->spec.num_reducers,
                                 sim_->rng("hadoop.skew"));
  const std::size_t maps = job->spec.num_maps();
  for (std::size_t m = 0; m < maps; ++m) job->pending_maps.push_back(m);
  job->map_attempts.assign(maps, 0);
  job->map_runtime.assign(maps, {});
  job->reducers.resize(job->spec.num_reducers);
  for (std::size_t r = 0; r < job->spec.num_reducers; ++r) {
    job->reducers[r].index = r;
  }
  job->result.name = job->spec.name;
  job->result.submitted = job->submitted;
  job->result.maps.resize(maps);
  job->result.reducers.resize(job->spec.num_reducers);

  jobs_.push_back(std::move(job));
  PYTHIA_LOG(kInfo, "hadoop") << "submitted job '" << jobs_.back()->spec.name
                              << "' (" << maps << " maps, "
                              << jobs_.back()->spec.num_reducers
                              << " reducers)";
  // Run the scheduler from the event loop so submit() itself stays cheap.
  sim_->after(util::Duration::zero(), [this] { schedule_pass(); });
  return serial;
}

const std::vector<double>& MapReduceEngine::job_reducer_weights(
    std::size_t serial) const {
  assert(serial < jobs_.size());
  return jobs_[serial]->weights;
}

util::Duration MapReduceEngine::jittered(util::Duration base,
                                         double rel_stddev,
                                         util::Xoshiro256& rng) const {
  if (rel_stddev <= 0.0) return base;
  const double factor = std::max(0.2, 1.0 + rng.gaussian(0.0, rel_stddev));
  return util::Duration::from_seconds(base.seconds() * factor);
}

std::uint16_t MapReduceEngine::next_ephemeral_port() {
  if (ephemeral_port_ >= 60000) ephemeral_port_ = 30000;
  return ephemeral_port_++;
}

std::size_t MapReduceEngine::find_free_map_slot() {
  for (std::size_t probe = 0; probe < slots_.size(); ++probe) {
    const std::size_t s = (map_rr_cursor_ + probe) % slots_.size();
    if (slots_[s].map_free > 0) {
      map_rr_cursor_ = (s + 1) % slots_.size();
      return s;
    }
  }
  return SIZE_MAX;
}

void MapReduceEngine::schedule_pass() {
  // FIFO across jobs: earlier jobs grab slots first.
  for (auto& job_ptr : jobs_) {
    JobState& job = *job_ptr;
    if (job.completed) continue;

    // Map tasks onto free map slots, round-robin over servers.
    while (!job.pending_maps.empty()) {
      const std::size_t chosen = find_free_map_slot();
      if (chosen == SIZE_MAX) break;  // cluster map-saturated
      const std::size_t map_index = job.pending_maps.front();
      job.pending_maps.pop_front();
      --slots_[chosen].map_free;
      launch_map(job, map_index, chosen);
    }

    // Reducers once slow-start is met (at least one map must be done).
    const auto maps_total = static_cast<double>(job.spec.num_maps());
    const bool slowstart_met =
        job.maps_finished >= 1 &&
        static_cast<double>(job.maps_finished) >=
            cluster_.reduce_slowstart * maps_total;
    if (slowstart_met) {
      while (job.reducers_scheduled < job.spec.num_reducers) {
        std::size_t chosen = SIZE_MAX;
        for (std::size_t probe = 0; probe < slots_.size(); ++probe) {
          const std::size_t s = (reduce_rr_cursor_ + probe) % slots_.size();
          if (slots_[s].reduce_free > 0) {
            chosen = s;
            break;
          }
        }
        if (chosen == SIZE_MAX) break;  // no reduce slot free
        reduce_rr_cursor_ = (chosen + 1) % slots_.size();
        --slots_[chosen].reduce_free;
        launch_reducer(job, job.reducers_scheduled++, chosen);
      }
    }
  }
}

void MapReduceEngine::launch_map(JobState& job, std::size_t map_index,
                                 std::size_t server_ordinal) {
  auto& rng = sim_->rng("hadoop.map");
  // Heartbeat stagger: the tasktracker picks the task up within the window.
  const auto stagger = util::Duration{static_cast<std::int64_t>(
      rng.uniform01() *
      static_cast<double>(cluster_.heartbeat_jitter.ns()))};
  ++job.maps_running;

  auto& runtime = job.map_runtime[map_index];
  const std::uint64_t attempt_id = ++attempt_counter_;
  runtime.running.push_back(
      JobState::MapAttempt{attempt_id, server_ordinal, {}});

  auto find_attempt = [&job, map_index,
                       attempt_id]() -> JobState::MapAttempt* {
    for (auto& att : job.map_runtime[map_index].running) {
      if (att.id == attempt_id) return &att;
    }
    return nullptr;
  };
  auto drop_attempt = [&job, map_index, attempt_id] {
    auto& running = job.map_runtime[map_index].running;
    running.erase(std::remove_if(running.begin(), running.end(),
                                 [attempt_id](const auto& a) {
                                   return a.id == attempt_id;
                                 }),
                  running.end());
  };

  runtime.running.back().next_event = sim_->after(stagger, [this, &job,
                                                            map_index,
                                                            server_ordinal,
                                                            find_attempt,
                                                            drop_attempt] {
    const util::SimTime started = sim_->now();
    auto& rng2 = sim_->rng("hadoop.map");
    const auto work = util::transfer_time(job.spec.input_per_map(),
                                          job.spec.map_rate);
    auto duration = jittered(job.spec.map_overhead + work,
                             job.spec.map_duration_jitter, rng2);

    // Fault injection: straggling and mid-attempt failure.
    auto& fault_rng = sim_->rng("hadoop.fault");
    if (cluster_.straggler_probability > 0.0 &&
        fault_rng.uniform01() < cluster_.straggler_probability) {
      duration = util::Duration::from_seconds(duration.seconds() *
                                              cluster_.straggler_slowdown);
      ++job.result.stragglers;
    }
    const std::size_t attempt_no = ++job.map_attempts[map_index];
    const bool may_fail = cluster_.map_failure_probability > 0.0 &&
                          attempt_no < cluster_.max_task_attempts;
    JobState::MapAttempt* att = find_attempt();
    assert(att != nullptr && "attempt retired before its stagger elapsed");

    if (may_fail &&
        fault_rng.uniform01() < cluster_.map_failure_probability) {
      // The attempt dies partway through; the slot is held until the death,
      // then the task re-enters the pending queue unless a sibling attempt
      // (speculation) is still alive or already won.
      const auto fail_after = util::Duration::from_seconds(
          duration.seconds() * fault_rng.uniform(0.1, 0.9));
      att->next_event = sim_->after(
          fail_after, [this, &job, map_index, server_ordinal, drop_attempt] {
            ++job.result.map_retries;
            --job.maps_running;
            ++slots_[server_ordinal].map_free;
            drop_attempt();
            auto& rt = job.map_runtime[map_index];
            if (!rt.done && rt.running.empty()) {
              job.pending_maps.push_back(map_index);
            }
            PYTHIA_LOG(kDebug, "hadoop")
                << "map " << map_index << " attempt failed; rescheduling";
            schedule_pass();
          });
      return;
    }

    att->next_event = sim_->after(
        duration, [this, &job, map_index, server_ordinal, started] {
          finish_map(job, map_index, server_ordinal, started);
        });

    maybe_speculate(job, map_index);
  });
}

void MapReduceEngine::maybe_speculate(JobState& job, std::size_t map_index) {
  if (!cluster_.speculative_execution) return;
  auto& runtime = job.map_runtime[map_index];
  if (runtime.backup_launched) return;
  // The jobtracker compares an attempt's age against the typical map
  // duration; the nominal (spec) duration serves as the progress model.
  const auto nominal =
      job.spec.map_overhead +
      util::transfer_time(job.spec.input_per_map(), job.spec.map_rate);
  const auto check_after = util::Duration::from_seconds(
      nominal.seconds() * cluster_.speculative_slowdown_threshold);
  sim_->after(check_after, [this, &job, map_index] {
    auto& rt = job.map_runtime[map_index];
    if (rt.done || rt.backup_launched || rt.running.empty()) return;
    const std::size_t chosen = find_free_map_slot();
    if (chosen == SIZE_MAX) return;  // no spare capacity to speculate with
    rt.backup_launched = true;
    --slots_[chosen].map_free;
    PYTHIA_LOG(kDebug, "hadoop")
        << "speculative backup for map " << map_index;
    launch_map(job, map_index, chosen);
  });
}

void MapReduceEngine::retire_attempts(JobState& job, std::size_t map_index) {
  auto& runtime = job.map_runtime[map_index];
  for (auto& att : runtime.running) {
    att.next_event.cancel();  // no-op for the winner's already-fired event
    ++slots_[att.server_ordinal].map_free;
    --job.maps_running;
  }
  runtime.running.clear();
}

void MapReduceEngine::finish_map(JobState& job, std::size_t map_index,
                                 std::size_t server_ordinal,
                                 util::SimTime started) {
  auto& runtime = job.map_runtime[map_index];
  if (runtime.done) {
    // A losing attempt whose finish event slipped through: just release.
    --job.maps_running;
    ++slots_[server_ordinal].map_free;
    return;
  }
  runtime.done = true;
  const net::NodeId server = cluster_.servers[server_ordinal];
  job.result.maps[map_index] =
      TaskSpan{map_index, server, started, sim_->now()};
  ++job.maps_finished;
  job.finished_map_duration_sum += (sim_->now() - started).seconds();
  retire_attempts(job, map_index);  // frees this slot and kills any backup

  // Spill the intermediate output and compute its per-reducer index — the
  // information Pythia's middleware decodes at this exact moment.
  auto& rng = sim_->rng("hadoop.output");
  const double out_jitter =
      std::max(0.1, 1.0 + rng.gaussian(0.0, job.spec.mapper_output_jitter));
  const util::Bytes total_out =
      job.spec.input_per_map().scaled(job.spec.map_output_ratio * out_jitter);
  const auto split =
      mapper_partition(job.weights, job.spec.mapper_output_jitter, rng);

  MapOutputNotice notice;
  notice.job_serial = job.serial;
  notice.map_index = map_index;
  notice.server = server;
  notice.at = sim_->now();
  notice.per_reducer_payload.reserve(job.spec.num_reducers);
  for (std::size_t r = 0; r < job.spec.num_reducers; ++r) {
    notice.per_reducer_payload.push_back(total_out.scaled(split[r]));
  }
  for (auto* obs : observers_) obs->on_map_output_ready(notice);

  // Each reducer learns of this output on its next completion-event poll
  // (uniform within the poll window), then enqueues the fetch.
  for (std::size_t r = 0; r < job.spec.num_reducers; ++r) {
    // The event fetcher polls periodically; delivery lands no earlier than
    // 20% into the window (a fresh event is never visible before the next
    // poll tick) and uniformly across the rest of it.
    const auto poll_delay = util::Duration{static_cast<std::int64_t>(
        (0.2 + 0.8 * rng.uniform01()) *
        static_cast<double>(cluster_.completion_event_poll.ns()))};
    const util::Bytes payload = notice.per_reducer_payload[r];
    sim_->after(poll_delay, [this, &job, r, map_index, server, payload] {
      ReducerState& red = job.reducers[r];
      red.pending.push_back(
          PendingFetch{map_index, server, payload, sim_->now()});
      if (red.scheduled) pump_reducer(job, red);
    });
  }

  schedule_pass();
}

void MapReduceEngine::launch_reducer(JobState& job, std::size_t reduce_index,
                                     std::size_t server_ordinal) {
  ReducerState& red = job.reducers[reduce_index];
  auto& rng = sim_->rng("hadoop.reduce");
  const auto stagger = util::Duration{static_cast<std::int64_t>(
      rng.uniform01() *
      static_cast<double>(cluster_.heartbeat_jitter.ns()))};
  sim_->after(stagger, [this, &job, &red, server_ordinal] {
    red.server = cluster_.servers[server_ordinal];
    red.scheduled = true;
    red.started = sim_->now();
    // Rewrite the enqueue timestamps of outputs that were waiting for this
    // reducer: they only became fetchable now.
    for (auto& f : red.pending) f.enqueued = sim_->now();
    for (auto* obs : observers_) {
      obs->on_reducer_started(job.serial, red.index, red.server, sim_->now());
    }
    PYTHIA_LOG(kDebug, "hadoop")
        << "reducer " << red.index << " of job " << job.serial
        << " started on server " << red.server.value();
    pump_reducer(job, red);
    // Remember which server ordinal holds the slot for release at finish.
    red.shuffle_done = util::SimTime::max();  // sentinel until done
    (void)server_ordinal;
  });
  // Stash ordinal inside the record for slot release.
  job.result.reducers[reduce_index].index = reduce_index;
  job.result.reducers[reduce_index].server = cluster_.servers[server_ordinal];
}

void MapReduceEngine::pump_reducer(JobState& job, ReducerState& red) {
  while (red.inflight < cluster_.parallel_copies && !red.pending.empty()) {
    PendingFetch fetch = red.pending.front();
    red.pending.pop_front();
    ++red.inflight;
    begin_fetch(job, red, std::move(fetch));
  }
}

void MapReduceEngine::begin_fetch(JobState& job, ReducerState& red,
                                  PendingFetch fetch) {
  // HTTP fetch setup to the mapper-side tasktracker, then the transfer.
  sim_->after(cluster_.fetch_setup, [this, &job, &red, fetch] {
    FetchRecord record;
    record.map_index = fetch.map_index;
    record.reduce_index = red.index;
    record.src_server = fetch.src_server;
    record.dst_server = red.server;
    record.payload = fetch.payload;
    record.enqueued = fetch.enqueued;
    record.started = sim_->now();
    record.remote = fetch.src_server != red.server;

    if (!record.remote) {
      // Server-local copy: memory-to-memory, no network involvement.
      const auto d =
          util::transfer_time(fetch.payload, cluster_.local_copy_rate);
      for (auto* obs : observers_) {
        obs->on_fetch_started(job.serial, record, net::FlowId{});
      }
      sim_->after(d, [this, &job, &red, record]() mutable {
        record.completed = sim_->now();
        finish_fetch(job, red, record);
      });
      return;
    }

    net::FiveTuple tuple;
    const auto& topo = fabric_->topology();
    tuple.src_ip = topo.address_of(fetch.src_server);
    tuple.dst_ip = topo.address_of(red.server);
    tuple.src_port = net::kShufflePort;
    tuple.dst_port = next_ephemeral_port();
    tuple.proto = 6;

    if (cluster_.multipath_spray) {
      // MPTCP-style striping: one subflow per equal-cost path, equal shares;
      // the fetch completes when the last stripe lands.
      const auto& candidates =
          controller_->routing().paths(fetch.src_server, red.server);
      assert(!candidates.empty());
      const auto stripes = static_cast<std::int64_t>(candidates.size());
      auto remaining = std::make_shared<std::int64_t>(stripes);
      bool first_stripe = true;
      for (std::int64_t s = 0; s < stripes; ++s) {
        net::FlowSpec spec;
        spec.src = fetch.src_server;
        spec.dst = red.server;
        // Last stripe takes the rounding remainder.
        const std::int64_t share = fetch.payload.count() / stripes;
        spec.size = util::Bytes{s + 1 == stripes
                                    ? fetch.payload.count() - share * (stripes - 1)
                                    : share};
        spec.path = candidates[static_cast<std::size_t>(s)].to_vector();
        spec.tuple = tuple;
        spec.tuple.dst_port = next_ephemeral_port();  // distinct subflows
        spec.cls = net::FlowClass::kShuffle;
        const net::FlowId flow = fabric_->start_flow(
            std::move(spec), [this, &job, &red, record, remaining](
                                 net::FlowId, util::SimTime at) mutable {
              if (--*remaining == 0) {
                record.completed = at;
                finish_fetch(job, red, record);
              }
            });
        if (first_stripe) {
          first_stripe = false;
          for (auto* obs : observers_) {
            obs->on_fetch_started(job.serial, record, flow);
          }
        }
      }
      return;
    }

    net::FlowSpec spec;
    spec.src = fetch.src_server;
    spec.dst = red.server;
    spec.size = fetch.payload;
    spec.path =
        controller_->resolve(fetch.src_server, red.server, tuple).to_vector();
    spec.tuple = tuple;
    spec.cls = net::FlowClass::kShuffle;
    const net::FlowId flow = fabric_->start_flow(
        std::move(spec),
        [this, &job, &red, record](net::FlowId, util::SimTime at) mutable {
          record.completed = at;
          finish_fetch(job, red, record);
        });
    for (auto* obs : observers_) {
      obs->on_fetch_started(job.serial, record, flow);
    }
  });
}

void MapReduceEngine::finish_fetch(JobState& job, ReducerState& red,
                                   const FetchRecord& record) {
  assert(red.inflight > 0);
  --red.inflight;
  ++red.fetched;
  red.shuffled += record.payload;
  job.result.fetches.push_back(record);
  for (auto* obs : observers_) obs->on_fetch_completed(job.serial, record);

  if (red.fetched == job.spec.num_maps()) {
    // Shuffle barrier cleared for this reducer: run the reduce function.
    red.shuffle_done = sim_->now();
    auto& rng = sim_->rng("hadoop.reduce");
    const auto work = util::transfer_time(red.shuffled, job.spec.reduce_rate);
    const auto duration = jittered(job.spec.reduce_overhead + work,
                                   job.spec.reduce_duration_jitter, rng);
    // Locate the slot holder: the server this reducer runs on.
    std::size_t ordinal = SIZE_MAX;
    for (std::size_t s = 0; s < cluster_.servers.size(); ++s) {
      if (cluster_.servers[s] == red.server) {
        ordinal = s;
        break;
      }
    }
    assert(ordinal != SIZE_MAX);
    sim_->after(duration, [this, &job, &red, ordinal] {
      write_output(job, red, ordinal);
    });
  } else {
    pump_reducer(job, red);
  }
}

void MapReduceEngine::write_output(JobState& job, ReducerState& red,
                                   std::size_t server_ordinal) {
  const std::size_t replicas = job.spec.dfs_replication;
  if (replicas < 2 || cluster_.servers.size() < 2) {
    // Output modelling disabled (or single local replica): done.
    finish_reducer(job, red, server_ordinal);
    return;
  }
  const util::Bytes output = red.shuffled.scaled(job.spec.output_ratio);
  if (output <= util::Bytes::zero()) {
    finish_reducer(job, red, server_ordinal);
    return;
  }

  // First replica is the local write; each additional replica streams to a
  // distinct other server as ordinary datacenter traffic (not shuffle: the
  // Pythia middleware neither predicts nor steers it).
  auto& rng = sim_->rng("hadoop.dfs");
  auto remaining = std::make_shared<std::size_t>(replicas - 1);
  for (std::size_t r = 0; r + 1 < replicas; ++r) {
    std::size_t target = server_ordinal;
    while (target == server_ordinal) {
      target = static_cast<std::size_t>(rng.below(cluster_.servers.size()));
    }
    const net::NodeId dst = cluster_.servers[target];
    net::FiveTuple tuple;
    const auto& topo = fabric_->topology();
    tuple.src_ip = topo.address_of(red.server);
    tuple.dst_ip = topo.address_of(dst);
    tuple.src_port = next_ephemeral_port();
    tuple.dst_port = 50010;  // HDFS datanode
    net::FlowSpec spec;
    spec.src = red.server;
    spec.dst = dst;
    spec.size = output;
    spec.path = controller_->resolve(red.server, dst, tuple).to_vector();
    spec.tuple = tuple;
    spec.cls = net::FlowClass::kOther;
    fabric_->start_flow(spec, [this, &job, &red, server_ordinal, remaining](
                                  net::FlowId, util::SimTime) {
      if (--*remaining == 0) finish_reducer(job, red, server_ordinal);
    });
  }
}

void MapReduceEngine::finish_reducer(JobState& job, ReducerState& red,
                                     std::size_t server_ordinal) {
  ++slots_[server_ordinal].reduce_free;
  ++job.reducers_finished;

  ReducerRecord& rec = job.result.reducers[red.index];
  rec.index = red.index;
  rec.server = red.server;
  rec.started = red.started;
  rec.shuffle_done = red.shuffle_done;
  rec.finished = sim_->now();
  rec.shuffled = red.shuffled;

  if (job.reducers_finished == job.spec.num_reducers) {
    complete_job(job);
  }
  schedule_pass();
}

void MapReduceEngine::complete_job(JobState& job) {
  job.completed = true;
  job.result.completed = sim_->now();
  ++jobs_completed_;
  PYTHIA_LOG(kInfo, "hadoop")
      << "job '" << job.spec.name << "' completed in "
      << job.result.completion_time().seconds() << "s";
  for (auto* obs : observers_) {
    obs->on_job_completed(job.serial, job.result);
  }
  if (job.on_done) job.on_done(job.result);
}

void MapReduceEngine::encode_state(sim::StateEncoder& enc) const {
  enc.put_u32(static_cast<std::uint32_t>(slots_.size()));
  for (const ServerSlots& s : slots_) {
    enc.put_u64(s.map_free);
    enc.put_u64(s.reduce_free);
  }
  enc.put_u64(attempt_counter_);
  enc.put_u64(map_rr_cursor_);
  enc.put_u64(reduce_rr_cursor_);
  enc.put_u32(ephemeral_port_);
  enc.put_u64(jobs_completed_);

  enc.put_u32(static_cast<std::uint32_t>(jobs_.size()));
  for (const auto& job_ptr : jobs_) {
    const JobState& job = *job_ptr;
    enc.put_u64(job.serial);
    enc.put_time(job.submitted);
    enc.put_bool(job.completed);
    enc.put_u32(static_cast<std::uint32_t>(job.weights.size()));
    for (double w : job.weights) enc.put_f64(w);
    enc.put_u32(static_cast<std::uint32_t>(job.pending_maps.size()));
    for (std::size_t m : job.pending_maps) enc.put_u64(m);
    enc.put_u32(static_cast<std::uint32_t>(job.map_attempts.size()));
    for (std::size_t a : job.map_attempts) enc.put_u64(a);
    enc.put_u32(static_cast<std::uint32_t>(job.map_runtime.size()));
    for (const JobState::MapRuntime& rt : job.map_runtime) {
      enc.put_bool(rt.done);
      enc.put_bool(rt.backup_launched);
      enc.put_u32(static_cast<std::uint32_t>(rt.running.size()));
      for (const JobState::MapAttempt& att : rt.running) {
        enc.put_u64(att.id);
        enc.put_u64(att.server_ordinal);
        enc.put_bool(att.next_event.valid());
        enc.put_bool(att.next_event.valid() && att.next_event.cancelled());
      }
    }
    enc.put_f64(job.finished_map_duration_sum);
    enc.put_u64(job.maps_finished);
    enc.put_u64(job.maps_running);
    enc.put_u64(job.reducers_scheduled);
    enc.put_u64(job.reducers_finished);

    enc.put_u32(static_cast<std::uint32_t>(job.reducers.size()));
    for (const ReducerState& red : job.reducers) {
      enc.put_u64(red.index);
      enc.put_u32(red.server.value());
      enc.put_bool(red.scheduled);
      enc.put_time(red.started);
      enc.put_u32(static_cast<std::uint32_t>(red.pending.size()));
      for (const PendingFetch& pf : red.pending) {
        enc.put_u64(pf.map_index);
        enc.put_u32(pf.src_server.value());
        enc.put_i64(pf.payload.count());
        enc.put_time(pf.enqueued);
      }
      enc.put_u64(red.inflight);
      enc.put_u64(red.fetched);
      enc.put_i64(red.shuffled.count());
      enc.put_time(red.shuffle_done);
    }

    const JobResult& res = job.result;
    enc.put_string(res.name);
    enc.put_time(res.submitted);
    enc.put_time(res.completed);
    enc.put_u64(res.map_retries);
    enc.put_u64(res.stragglers);
    enc.put_u32(static_cast<std::uint32_t>(res.maps.size()));
    for (const TaskSpan& t : res.maps) {
      enc.put_u64(t.index);
      enc.put_u32(t.server.value());
      enc.put_time(t.started);
      enc.put_time(t.finished);
    }
    enc.put_u32(static_cast<std::uint32_t>(res.reducers.size()));
    for (const ReducerRecord& r : res.reducers) {
      enc.put_u64(r.index);
      enc.put_u32(r.server.value());
      enc.put_time(r.started);
      enc.put_time(r.shuffle_done);
      enc.put_time(r.finished);
      enc.put_i64(r.shuffled.count());
    }
    enc.put_u32(static_cast<std::uint32_t>(res.fetches.size()));
    for (const FetchRecord& f : res.fetches) {
      enc.put_u64(f.map_index);
      enc.put_u64(f.reduce_index);
      enc.put_u32(f.src_server.value());
      enc.put_u32(f.dst_server.value());
      enc.put_i64(f.payload.count());
      enc.put_time(f.enqueued);
      enc.put_time(f.started);
      enc.put_time(f.completed);
      enc.put_bool(f.remote);
    }
  }
}

}  // namespace pythia::hadoop
