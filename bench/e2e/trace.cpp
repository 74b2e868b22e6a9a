#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <utility>

#include "net/routing.hpp"

namespace e2e {

SpanLog::SpanLog(std::string workload)
    : workload_(std::move(workload)), epoch_(Clock::now()) {}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint32_t SpanLog::open(const char* name) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(
      Span{name, open_.empty() ? kNoParent : open_.back(), 0, 0});
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void SpanLog::close(std::uint32_t id) {
  spans_[id].end_ns = now_ns();
  // Spans nest: the one closing is always the innermost open one.
  open_.pop_back();
}

double SpanLog::seconds(std::uint32_t id) const {
  return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) * 1e-9;
}

double SpanLog::child_seconds(std::uint32_t parent) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent == parent) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tparent\tworkload\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string parent =
        s.parent == kNoParent ? "-" : std::to_string(s.parent);
    std::fprintf(out, "%zu\t%s\t%s\t%s\t%lld\t%lld\n", i, parent.c_str(),
                 workload_.c_str(), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

namespace {

using HostPair = std::pair<std::uint32_t, std::uint32_t>;

/// Host pairs in the order the routing graph materialized them. The graph
/// only counts materializations (RoutingCounters::lazy_materializations),
/// so pairs are named per event: pairs of flows started in the event come
/// first, then pairs whose intents had reached the collector, in arrival
/// order.
class PairOrder {
 public:
  /// `src` -> `dst` is queried once an intent for it arrives at `at`.
  void offer(util::SimTime at, net::NodeId src, net::NodeId dst) {
    if (src == dst) return;
    const HostPair p{src.value(), dst.value()};
    if (used_.contains(p)) return;
    if (const auto it = index_.find(p); it != index_.end()) {
      if (std::get<0>(*it->second) <= at.ns()) return;
      pending_.erase(it->second);
    }
    index_[p] = pending_.emplace(at.ns(), seq_++, p).first;
  }

  /// A flow between `src` and `dst` started in the current event.
  void note_flow(net::NodeId src, net::NodeId dst) {
    if (src != dst) event_flows_.emplace_back(src.value(), dst.value());
  }

  /// The event that just ran at `now` materialized `n` pairs.
  void attribute(std::uint64_t n, util::SimTime now) {
    for (const HostPair& p : event_flows_) {
      if (used_.contains(p)) continue;
      // With n exhausted the pair was materialized before recording began
      // (background set-up): known, but not part of the run's order.
      use(p, n > 0);
      if (n > 0) --n;
    }
    event_flows_.clear();
    while (n > 0 && !pending_.empty() &&
           std::get<0>(*pending_.begin()) <= now.ns()) {
      use(std::get<2>(*pending_.begin()), true);
      --n;
    }
    if (n > 0) consistent_ = false;
  }

  [[nodiscard]] const std::vector<HostPair>& order() const { return order_; }
  [[nodiscard]] bool consistent() const { return consistent_; }

 private:
  using Pending = std::set<std::tuple<std::int64_t, std::uint64_t, HostPair>>;

  // By value: `p` may name an element of pending_, which this erases.
  void use(HostPair p, bool materialized_now) {
    used_.insert(p);
    if (const auto it = index_.find(p); it != index_.end()) {
      pending_.erase(it->second);
      index_.erase(it);
    }
    if (materialized_now) order_.push_back(p);
  }

  Pending pending_;
  std::map<HostPair, Pending::iterator> index_;
  std::set<HostPair> used_;
  std::vector<HostPair> event_flows_;
  std::vector<HostPair> order_;
  std::uint64_t seq_ = 0;
  bool consistent_ = true;
};

struct FlowRec {
  net::FlowSpec spec;
  std::vector<net::LinkId> path;  // current path; reroutes move it
  std::int64_t completed_ns = -1;
};

struct FabricOp {
  std::uint32_t flow = 0;  // FlowRec index
  bool reroute = false;
  std::vector<net::LinkId> path;  // reroute target
};

/// Fabric mutations of one event. A top-level group ran at `t_ns` after
/// `completed_before` completions; a callback group ran inside a completion
/// event, after the callback of its last completed flow `after_flow`.
struct FabricGroup {
  std::int64_t t_ns = 0;
  std::uint64_t completed_before = 0;
  std::int64_t after_flow = -1;
  std::vector<FabricOp> ops;
};

struct FabricLog {
  std::vector<std::vector<net::LinkId>> cbr_paths;
  std::vector<util::BitsPerSec> cbr_rates;
  std::vector<FlowRec> flows;
  std::vector<FabricGroup> groups;
  util::Bytes delivered;
  bool consistent = true;
};

struct EngineCall {
  enum class Kind : std::uint8_t {
    kMapOutput,
    kReducerStarted,
    kFetchStarted,
    kFetchCompleted,
    kJobCompleted,
  };
  Kind kind = Kind::kMapOutput;
  util::SimTime at;
  std::size_t job = 0;
  std::size_t reduce = 0;  // kReducerStarted; result index for kJobCompleted
  net::NodeId server;
  net::FlowId flow;
  hadoop::MapOutputNotice notice;
  hadoop::FetchRecord fetch;
};

/// Records one job cell's run through public observers, event by event.
class Recorder final : public net::FabricObserver,
                       public hadoop::EngineObserver {
 public:
  /// `inst` is the Pythia instrumentation config, null in ECMP cells.
  Recorder(const sim::Simulation& sim, const core::InstrumentationConfig* inst)
      : sim_(sim) {
    if (inst != nullptr) {
      locate_delay_ = inst->management_latency;
      intent_delay_ =
          inst->decode_delay + inst->management_latency + inst->extra_delay;
    }
  }

  void before_event(const net::Fabric& f, const net::RoutingGraph& g) {
    recomputes_ = f.counters().recomputes;
    completion_events_ = f.counters().completion_events;
    lazy_ = g.counters().lazy_materializations;
    completed_at_start_ = completed_;
  }

  void after_event(const net::Fabric& f, const net::RoutingGraph& g) {
    // Every start of a non-empty flow, completion event and reroute runs
    // exactly one rate recompute; the rest of the recomputes are reroutes.
    const auto reroutes =
        static_cast<std::int64_t>(f.counters().recomputes - recomputes_) -
        static_cast<std::int64_t>(nonzero_starts_) -
        static_cast<std::int64_t>(f.counters().completion_events -
                                  completion_events_);
    if (reroutes > 0) {
      find_reroutes(f, static_cast<std::uint64_t>(reroutes));
    } else if (reroutes < 0) {
      fabric.consistent = false;
    }
    pairs.attribute(g.counters().lazy_materializations - lazy_, sim_.now());
    group_ = -1;
    batch_.clear();
    nonzero_starts_ = 0;
  }

  void on_flow_started(const net::Fabric& f, net::FlowId id,
                       util::SimTime /*at*/) override {
    const net::Flow& flow = f.flow(id);
    const auto rec = static_cast<std::uint32_t>(fabric.flows.size());
    fabric.flows.push_back(FlowRec{flow.spec, flow.spec.path, -1});
    if (live_.size() <= id.value()) live_.resize(id.value() + 1);
    live_[id.value()] = rec;
    if (flow.spec.size > util::Bytes::zero()) ++nonzero_starts_;
    peak_active = std::max<std::uint64_t>(peak_active, f.active_flow_count());
    group().ops.push_back(FabricOp{rec, false, {}});
    pairs.note_flow(flow.spec.src, flow.spec.dst);
  }

  void on_flow_completed(const net::Fabric& /*f*/, net::FlowId id,
                         util::SimTime at) override {
    const std::uint32_t rec = live_[id.value()];
    fabric.flows[rec].completed_ns = at.ns();
    ++completed_;
    // Completions precede every mutation their callbacks make.
    if (group_ >= 0) fabric.consistent = false;
    batch_.push_back(rec);
  }

  void on_map_output_ready(const hadoop::MapOutputNotice& notice) override {
    push(EngineCall::Kind::kMapOutput).notice = notice;
    const util::SimTime arrival = sim_.now() + intent_delay_;
    for (std::size_t r = 0; r < notice.per_reducer_payload.size(); ++r) {
      const auto key = std::pair{notice.job_serial, r};
      if (const auto it = located_.find(key); it != located_.end()) {
        pairs.offer(std::max(arrival, it->second.second), notice.server,
                    it->second.first);
      } else {
        waiting_[key].emplace_back(notice.server, arrival);
      }
    }
  }

  void on_reducer_started(std::size_t job_serial, std::size_t reduce_index,
                          net::NodeId server, util::SimTime at) override {
    EngineCall& c = push(EngineCall::Kind::kReducerStarted);
    c.job = job_serial;
    c.reduce = reduce_index;
    c.server = server;
    const auto key = std::pair{job_serial, reduce_index};
    const util::SimTime located = at + locate_delay_;
    located_[key] = {server, located};
    for (const auto& [src, arrival] : waiting_[key]) {
      pairs.offer(std::max(arrival, located), src, server);
    }
    waiting_.erase(key);
  }

  void on_fetch_started(std::size_t job_serial,
                        const hadoop::FetchRecord& fetch,
                        net::FlowId flow) override {
    EngineCall& c = push(EngineCall::Kind::kFetchStarted);
    c.job = job_serial;
    c.fetch = fetch;
    c.flow = flow;
  }

  void on_fetch_completed(std::size_t job_serial,
                          const hadoop::FetchRecord& fetch) override {
    EngineCall& c = push(EngineCall::Kind::kFetchCompleted);
    c.job = job_serial;
    c.fetch = fetch;
  }

  void on_job_completed(std::size_t job_serial,
                        const hadoop::JobResult& result) override {
    EngineCall& c = push(EngineCall::Kind::kJobCompleted);
    c.job = job_serial;
    c.reduce = results.size();
    results.push_back(result);
  }

  FabricLog fabric;
  std::vector<EngineCall> calls;
  std::vector<hadoop::JobResult> results;
  PairOrder pairs;
  std::uint64_t peak_active = 0;
  std::uint64_t reroutes = 0;

 private:
  EngineCall& push(EngineCall::Kind kind) {
    calls.emplace_back();
    calls.back().kind = kind;
    calls.back().at = sim_.now();
    return calls.back();
  }

  FabricGroup& group() {
    if (group_ < 0) {
      FabricGroup g;
      if (!batch_.empty()) {
        g.after_flow = batch_.back();
      } else {
        g.t_ns = sim_.now().ns();
        g.completed_before = completed_at_start_;
      }
      group_ = static_cast<std::int64_t>(fabric.groups.size());
      fabric.groups.push_back(std::move(g));
    }
    return fabric.groups[static_cast<std::size_t>(group_)];
  }

  /// Active flows whose path moved during the event, in ascending id order
  /// (the order the controller reroutes them in).
  void find_reroutes(const net::Fabric& f, std::uint64_t expected) {
    std::uint64_t found = 0;
    for (const net::FlowId id : f.active_flows()) {
      FlowRec& rec = fabric.flows[live_[id.value()]];
      const std::span<const net::LinkId> now = f.flow_path(id);
      if (std::equal(now.begin(), now.end(), rec.path.begin(),
                     rec.path.end())) {
        continue;
      }
      rec.path.assign(now.begin(), now.end());
      group().ops.push_back(FabricOp{live_[id.value()], true, rec.path});
      ++found;
    }
    reroutes += found;
    if (found != expected) fabric.consistent = false;
  }

  const sim::Simulation& sim_;
  util::Duration intent_delay_ = util::Duration::zero();
  util::Duration locate_delay_ = util::Duration::zero();
  std::vector<std::uint32_t> live_;  // fabric slot -> FlowRec index
  std::uint64_t completed_ = 0;
  // Per-event state.
  std::uint64_t recomputes_ = 0;
  std::uint64_t completion_events_ = 0;
  std::uint64_t lazy_ = 0;
  std::uint64_t completed_at_start_ = 0;
  std::uint64_t nonzero_starts_ = 0;
  std::int64_t group_ = -1;
  std::vector<std::uint32_t> batch_;  // flows completed in this event
  // Reducer locations as the collector learns them, and intents that
  // arrived before their reducer was located.
  using ReducerKey = std::pair<std::size_t, std::size_t>;
  std::map<ReducerKey, std::pair<net::NodeId, util::SimTime>> located_;
  std::map<ReducerKey, std::vector<std::pair<net::NodeId, util::SimTime>>>
      waiting_;
};

/// Replays a FabricLog into a fresh Fabric: CBR streams, then each event's
/// mutations at its recorded time and completion count, with mutations
/// made inside completion callbacks replayed from the same callback.
class FabricReplay {
 public:
  FabricReplay(const net::Topology& topo, const FabricLog& log,
               SpanLog& spans)
      : fabric_(sim_, topo),
        log_(log),
        spans_(spans),
        ids_(log.flows.size()),
        done_ns_(log.flows.size(), -1),
        after_(log.flows.size(), -1) {
    for (std::size_t i = 0; i < log.groups.size(); ++i) {
      if (log.groups[i].after_flow >= 0) {
        after_[static_cast<std::size_t>(log.groups[i].after_flow)] =
            static_cast<std::int64_t>(i);
      }
    }
  }

  void run(LayerTime& out) {
    if (!log_.consistent) out.fail("recorded mutations do not add up");
    const ScopedSpan root(spans_, "replay.fabric");
    for (std::size_t i = 0; i < log_.cbr_paths.size(); ++i) {
      std::vector<net::LinkId> path = log_.cbr_paths[i];
      const ScopedSpan s(spans_, "fabric.start_cbr");
      fabric_.start_cbr(std::move(path), log_.cbr_rates[i]);
    }
    for (const FabricGroup& g : log_.groups) {
      if (g.after_flow >= 0) continue;
      {
        const ScopedSpan s(spans_, "fabric.run");
        if (g.t_ns > sim_.now().ns()) sim_.run_until(util::SimTime{g.t_ns - 1});
        while (completed_ < g.completed_before && sim_.queue().run_one()) {
        }
      }
      if (sim_.now().ns() > g.t_ns || completed_ != g.completed_before) {
        out.fail("replay diverged before t=" + std::to_string(g.t_ns) + "ns");
        break;
      }
      if (sim_.now().ns() < g.t_ns) {
        sim_.queue().advance_now(util::SimTime{g.t_ns});
      }
      apply(g);
    }
    {
      const ScopedSpan s(spans_, "fabric.run");
      sim_.run();
    }
    out.self_s += spans_.child_seconds(root.id());

    for (std::size_t i = 0; i < done_ns_.size(); ++i) {
      if (done_ns_[i] != log_.flows[i].completed_ns) {
        out.fail("flow " + std::to_string(i) + " completed at " +
                 std::to_string(done_ns_[i]) + "ns, recorded " +
                 std::to_string(log_.flows[i].completed_ns) + "ns");
        break;
      }
    }
    if (fabric_.bytes_delivered() != log_.delivered) {
      out.fail("delivered bytes differ from the recording");
    }
  }

 private:
  void apply(const FabricGroup& g) {
    for (const FabricOp& op : g.ops) {
      if (op.reroute) {
        std::vector<net::LinkId> path = op.path;
        const ScopedSpan s(spans_, "fabric.reroute_flow");
        fabric_.reroute_flow(ids_[op.flow], std::move(path));
        continue;
      }
      net::FlowSpec spec = log_.flows[op.flow].spec;
      net::FlowCompleteFn done = [this, idx = op.flow](net::FlowId,
                                                       util::SimTime at) {
        finished(idx, at);
      };
      const ScopedSpan s(spans_, "fabric.start_flow");
      ids_[op.flow] = fabric_.start_flow(std::move(spec), std::move(done));
    }
  }

  void finished(std::uint32_t idx, util::SimTime at) {
    done_ns_[idx] = at.ns();
    ++completed_;
    if (after_[idx] >= 0) {
      apply(log_.groups[static_cast<std::size_t>(after_[idx])]);
    }
  }

  sim::Simulation sim_{1};
  net::Fabric fabric_;
  const FabricLog& log_;
  SpanLog& spans_;
  std::vector<net::FlowId> ids_;
  std::vector<std::int64_t> done_ns_;
  std::vector<std::int64_t> after_;  // flow -> callback group, or -1
  std::uint64_t completed_ = 0;
};

void replay_routing(const net::Topology& topo, std::size_t k,
                    const PairOrder& pairs, std::uint64_t materialized,
                    SpanLog& spans, TraceResult& tr) {
  if (!pairs.consistent()) {
    tr.routing.fail("an event materialized more pairs than it could name");
  }
  net::RoutingGraph graph(topo, k, net::BuildMode::kLazy);
  const ScopedSpan root(spans, "replay.routing");
  for (const auto& [src, dst] : pairs.order()) {
    const std::uint32_t id = spans.open("routing.paths");
    (void)graph.paths(net::NodeId{src}, net::NodeId{dst});
    spans.close(id);
    tr.first_touch_us.push_back(spans.seconds(id) * 1e6);
  }
  tr.routing.self_s += spans.child_seconds(root.id());
  if (graph.pairs_materialized() != materialized) {
    tr.routing.fail("replay materialized " +
                    std::to_string(graph.pairs_materialized()) +
                    " pairs, the run " + std::to_string(materialized));
  }
}

/// Warms routing untimed, so control time excludes path computation.
void warm(const net::RoutingGraph& graph, const PairOrder& pairs) {
  for (const auto& [src, dst] : pairs.order()) {
    (void)graph.paths(net::NodeId{src}, net::NodeId{dst});
  }
}

/// Steps a control-plane replay, one span and one flush sample per event.
void drive_control(sim::EventQueue& q, const core::Collector& collector,
                   SpanLog& spans, TraceResult& tr) {
  const ScopedSpan root(spans, "replay.control");
  std::uint64_t flushed = collector.batches_flushed();
  std::uint64_t charged = collector.intents_received();
  for (;;) {
    const std::uint32_t id = spans.open("control.event");
    const bool ran = q.run_one();
    spans.close(id);
    if (!ran) break;
    sample_flush(collector, spans.seconds(id) * 1e6, flushed, charged,
                 tr.warm_decisions);
  }
  tr.control.self_s += spans.child_seconds(root.id());
}

void check_control(const core::Collector& replay, const core::Collector& run,
                   LayerTime& out) {
  if (replay.intents_received() != run.intents_received() ||
      replay.aggregate_count() != run.aggregate_count() ||
      replay.batches_flushed() != run.batches_flushed()) {
    out.fail("replay collector saw " +
             std::to_string(replay.intents_received()) + " intents/" +
             std::to_string(replay.aggregate_count()) + " aggregates/" +
             std::to_string(replay.batches_flushed()) + " batches, the run " +
             std::to_string(run.intents_received()) + "/" +
             std::to_string(run.aggregate_count()) + "/" +
             std::to_string(run.batches_flushed()));
  }
}

const char* call_name(EngineCall::Kind kind) {
  switch (kind) {
    case EngineCall::Kind::kMapOutput:
      return "control.on_map_output_ready";
    case EngineCall::Kind::kReducerStarted:
      return "control.on_reducer_started";
    case EngineCall::Kind::kFetchStarted:
      return "control.on_fetch_started";
    case EngineCall::Kind::kFetchCompleted:
      return "control.on_fetch_completed";
    case EngineCall::Kind::kJobCompleted:
      return "control.on_job_completed";
  }
  return "control.unknown";
}

void dispatch(core::PythiaSystem& p, const EngineCall& c,
              const std::vector<hadoop::JobResult>& results) {
  switch (c.kind) {
    case EngineCall::Kind::kMapOutput:
      p.on_map_output_ready(c.notice);
      break;
    case EngineCall::Kind::kReducerStarted:
      p.on_reducer_started(c.job, c.reduce, c.server, c.at);
      break;
    case EngineCall::Kind::kFetchStarted:
      p.on_fetch_started(c.job, c.fetch, c.flow);
      break;
    case EngineCall::Kind::kFetchCompleted:
      p.on_fetch_completed(c.job, c.fetch);
      break;
    case EngineCall::Kind::kJobCompleted:
      p.on_job_completed(c.job, results[c.reduce]);
      break;
  }
}

/// The engine -> Pythia stream, fed at its recorded times into a Pythia
/// stack over a job-less engine.
void replay_control_job(const exp::ScenarioConfig& cfg, const Recorder& rec,
                        const core::Collector& run, SpanLog& spans,
                        TraceResult& tr) {
  exp::Scenario sc(cfg);
  warm(sc.controller().routing(), rec.pairs);
  core::PythiaSystem& pythia = *sc.pythia();
  for (const EngineCall& call : rec.calls) {
    sc.simulation().at(call.at, [&pythia, &call, &rec, &spans] {
      const ScopedSpan s(spans, call_name(call.kind));
      dispatch(pythia, call, rec.results);
    });
  }
  drive_control(sc.simulation().queue(), pythia.collector(), spans, tr);
  check_control(pythia.collector(), run, tr.control);
}

void trace_job_cell(const JobCell& cell, SpanLog& spans, TraceResult& tr,
                    Fnv& fnv) {
  exp::Scenario sc(cell.cfg);
  const hadoop::JobSpec spec = cell.spec();
  MapOutputTally tally;
  sc.engine().add_observer(&tally);
  core::PythiaSystem* pythia = sc.pythia();
  Recorder rec(sc.simulation(),
               pythia != nullptr ? &cell.cfg.pythia.instrumentation : nullptr);
  sc.fabric().add_observer(&rec);
  if (pythia != nullptr) sc.engine().add_observer(&rec);
  rec.fabric.cbr_paths = sc.background().chains;
  rec.fabric.cbr_rates = sc.background().rates;
  sc.submit_job(spec);

  const net::RoutingGraph& graph = sc.controller().routing();
  const std::uint64_t lazy_start = graph.counters().lazy_materializations;
  std::uint32_t record_span = 0;
  {
    const ScopedSpan s(spans, "trace.record");
    record_span = s.id();
    sim::EventQueue& q = sc.simulation().queue();
    for (;;) {
      rec.before_event(sc.fabric(), graph);
      if (!q.run_one()) break;
      rec.after_event(sc.fabric(), graph);
    }
  }
  tr.total_s += spans.seconds(record_span);
  tr.peak_active_flows = std::max(tr.peak_active_flows, rec.peak_active);
  tr.reroutes += rec.reroutes;

  try {
    const hadoop::JobResult result = sc.finish();
    if (std::string why = check_job(sc, spec, result, tally); !why.empty()) {
      tr.failures.push_back(spec.name + ": " + why);
    }
    hash_job(result, fnv);
  } catch (const std::exception& e) {
    tr.failures.push_back(spec.name + ": " + e.what());
  }

  rec.fabric.delivered = sc.fabric().bytes_delivered();
  FabricReplay(sc.topology(), rec.fabric, spans).run(tr.fabric);
  replay_routing(sc.topology(), cell.cfg.controller.k_paths, rec.pairs,
                 graph.counters().lazy_materializations - lazy_start, spans,
                 tr);
  if (pythia != nullptr) {
    replay_control_job(cell.cfg, rec, pythia->collector(), spans, tr);
  }
}

void trace_storm_cell(const StormCell& cell, SpanLog& spans, TraceResult& tr,
                      Fnv& fnv) {
  const net::Topology topo = net::make_fat_tree(cell.topo);
  const auto events = workloads::generate_storm(cell.storm, topo, cell.seed);
  StormStack s(topo, cell.seed);
  workloads::schedule_storm(s.sim, s.collector, events);

  // Storm intents reach the collector at their scheduled instants.
  PairOrder pairs;
  std::map<std::pair<std::size_t, std::size_t>, net::NodeId> located;
  for (const workloads::StormEvent& e : events) {
    if (e.kind == workloads::StormEvent::Kind::kReducerLocated) {
      located[{e.job_serial, e.reduce_index}] = e.server;
    } else if (e.kind == workloads::StormEvent::Kind::kIntent) {
      const auto it =
          located.find({e.intent.job_serial, e.intent.reduce_index});
      if (it != located.end()) {
        pairs.offer(e.at, e.intent.src_server, it->second);
      }
    }
  }

  const net::RoutingGraph& graph = s.controller.routing();
  const std::uint64_t lazy_start = graph.counters().lazy_materializations;
  std::uint32_t record_span = 0;
  {
    const ScopedSpan span(spans, "trace.record");
    record_span = span.id();
    sim::EventQueue& q = s.sim.queue();
    for (;;) {
      const std::uint64_t before = graph.counters().lazy_materializations;
      if (!q.run_one()) break;
      pairs.attribute(graph.counters().lazy_materializations - before,
                      s.sim.now());
    }
  }
  tr.total_s += spans.seconds(record_span);

  if (std::string why =
          check_storm(s, workloads::storm_intent_count(events));
      !why.empty()) {
    tr.failures.push_back("storm: " + why);
  }
  hash_storm(s, fnv);

  // The storm never touches the fabric: its replay is the empty log.
  FabricReplay(topo, FabricLog{}, spans).run(tr.fabric);
  replay_routing(topo, s.controller.config().k_paths, pairs,
                 graph.counters().lazy_materializations - lazy_start, spans,
                 tr);

  StormStack warm_stack(topo, cell.seed);
  warm(warm_stack.controller.routing(), pairs);
  workloads::schedule_storm(warm_stack.sim, warm_stack.collector, events);
  drive_control(warm_stack.sim.queue(), warm_stack.collector, spans, tr);
  check_control(warm_stack.collector, s.collector, tr.control);
}

}  // namespace

TraceResult run_traced(const Workload& w, SpanLog& spans) {
  TraceResult tr;
  Fnv fnv;
  for (const JobCell& cell : w.jobs) trace_job_cell(cell, spans, tr, fnv);
  for (const StormCell& cell : w.storms) {
    trace_storm_cell(cell, spans, tr, fnv);
  }
  tr.checksum = fnv.value();
  return tr;
}

}  // namespace e2e
