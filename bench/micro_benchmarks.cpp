// Micro-benchmarks (google-benchmark) of the simulator's hot paths:
// event-queue throughput, fluid max-min recomputation at varying flow
// counts, Yen's k-shortest paths, ECMP hashing and Zipf sampling. These
// bound how large an experiment the harness can sweep.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "net/ecmp.hpp"
#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "sim/simulation.hpp"
#include "util/random.hpp"

namespace {

using namespace pythia;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) {
      q.schedule(util::SimTime{static_cast<std::int64_t>(i * 997 % 100000)},
                 [] {});
    }
    benchmark::DoNotOptimize(q.run_all());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1'000)->Arg(10'000)->Arg(100'000);

// Arrivals scheduled in time order up front, then drained: the shape of the
// intent storm's pre-scheduled events (the queue's in-order lane).
void BM_EventQueuePrescheduled(benchmark::State& state) {
  const auto arrivals = static_cast<std::size_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < arrivals; ++i) {
      // Four arrivals per 10 ms tick, like the storm's quantized instants.
      q.schedule(util::SimTime{static_cast<std::int64_t>(i / 4) * 10'000'000},
                 [&sink, i] { sink += i; });
    }
    benchmark::DoNotOptimize(q.run_all());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(arrivals));
}
BENCHMARK(BM_EventQueuePrescheduled)->Arg(400'000);

// One event among ~`pending` others is cancelled and rescheduled at a random
// time, then the earliest event fires and re-arms itself: the fabric's
// completion-event churn (the queue's heap side). One item = one reschedule
// plus one fired event.
void BM_EventQueueRescheduleChurn(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  util::Xoshiro256 rng(11);
  constexpr std::uint64_t kSpanNs = 1'000'000'000;
  std::function<void()> rearm = [&] {
    q.schedule_after(util::Duration{static_cast<std::int64_t>(
                         rng.below(kSpanNs))},
                     [&rearm] { rearm(); });
  };
  for (std::size_t i = 0; i < pending; ++i) rearm();
  sim::EventHandle churn;
  for (auto _ : state) {
    churn.cancel();
    churn = q.schedule_after(
        util::Duration{static_cast<std::int64_t>(rng.below(kSpanNs))}, [] {});
    benchmark::DoNotOptimize(q.run_one());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueRescheduleChurn)->Arg(1'000);

void BM_MaxMinRecompute(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  net::LeafSpineConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 5;
  cfg.spines = 2;
  const net::Topology topo = net::make_leaf_spine(cfg);
  const net::RoutingGraph routing(topo, 2);
  sim::Simulation sim(1);
  net::Fabric fabric(sim, topo);
  util::Xoshiro256 rng(7);
  const auto hosts = topo.hosts();
  for (std::size_t i = 0; i < flows; ++i) {
    const net::NodeId src = hosts[rng.below(hosts.size())];
    net::NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    const auto& paths = routing.paths(src, dst);
    net::FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = util::Bytes{1'000'000'000'000LL};
    spec.path = paths[rng.below(paths.size())].links;
    spec.tuple = net::FiveTuple{static_cast<std::uint32_t>(i), 1, 2,
                                static_cast<std::uint16_t>(i), 6};
    fabric.start_flow(spec);
  }
  for (auto _ : state) {
    fabric.settle_and_recompute();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_MaxMinRecompute)->Arg(10)->Arg(100)->Arg(400);

void BM_YenKShortestPaths(benchmark::State& state) {
  const auto spines = static_cast<std::size_t>(state.range(0));
  net::LeafSpineConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 4;
  cfg.spines = spines;
  const net::Topology topo = net::make_leaf_spine(cfg);
  const auto hosts = topo.hosts();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::k_shortest_paths(topo, hosts.front(), hosts.back(), spines));
  }
}
BENCHMARK(BM_YenKShortestPaths)->Arg(2)->Arg(4)->Arg(8);

// A full table: construction plus every pair's Yen run.
void BM_RoutingGraphRebuild(benchmark::State& state) {
  net::TwoRackConfig cfg;
  cfg.servers_per_rack = static_cast<std::size_t>(state.range(0));
  const net::Topology topo = net::make_two_rack(cfg);
  for (auto _ : state) {
    net::RoutingGraph routing(topo, 2);
    routing.materialize_all();
    benchmark::DoNotOptimize(&routing);
  }
}
BENCHMARK(BM_RoutingGraphRebuild)->Arg(5)->Arg(10)->Arg(20);

void BM_EcmpHash(benchmark::State& state) {
  std::uint64_t acc = 0;
  std::uint16_t port = 0;
  for (auto _ : state) {
    const net::FiveTuple t{0x0a000001, 0x0a010009, 50060, ++port, 6};
    acc += net::EcmpSelector::select_index(t, 4);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_EcmpHash);

void BM_ZipfSample(benchmark::State& state) {
  util::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 1.0);
  util::Xoshiro256 rng(3);
  std::size_t acc = 0;
  for (auto _ : state) {
    acc += zipf.sample(rng);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ZipfSample)->Arg(100)->Arg(10'000);

}  // namespace

BENCHMARK_MAIN();
