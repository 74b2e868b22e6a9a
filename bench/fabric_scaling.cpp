// Fabric hot-path scaling sweep: wall-time per flow event on fat-tree
// k=4/8 at 100 → 5 000 concurrent flows, for the production rate engine
// (dirty-set incremental) against its oracle (legacy full recompute).
// Writes BENCH_fabric.json (recompute counts, links touched, fill rounds run
// and reused, ramp and window times, per-cell RSS, per-arm behavior
// checksums and an all_identical verdict CI gates on) to track the perf
// trajectory across PRs. `--smoke` runs a tiny sweep for CI.
//
// Protocol per cell: ramp N long-lived flows to steady state, then time a
// window of M additional flow arrivals grouped into shuffle waves — bursts
// of simultaneous starts, the traffic shape a MapReduce shuffle stage (and
// Pythia's predicted-transfer hot path) actually generates. Every arrival
// dirties the fabric against the N-flow backdrop; ns/event is the timed
// window divided by arrivals. Flows are never drained (teardown is
// untimed), so the window isolates per-event cost.
//
// Both arms run eager throughout: the ramp pays one progressive fill per
// started flow (untimed but reported as ramp_ms), and the window pays one
// recompute per arrival. End-of-window behavior checksums are compared
// across the arms, so the speedup never trades away the bit-identical
// contract.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "util/random.hpp"

namespace {

using namespace pythia;
using net::Fabric;
using net::FabricConfig;
using net::FlowSpec;
using net::LinkId;
using net::NodeId;
using net::RateEngine;
using net::Topology;
using util::Bytes;
using util::SimTime;

NodeId edge_of(const Topology& topo, NodeId host) {
  return topo.link(topo.out_links(host)[0]).dst;
}

std::vector<NodeId> switch_neighbors(const Topology& topo, NodeId sw,
                                     const char* prefix) {
  std::vector<NodeId> out;
  for (LinkId l : topo.out_links(sw)) {
    const auto& n = topo.node(topo.link(l).dst);
    if (n.kind == net::NodeKind::kSwitch && n.name.starts_with(prefix)) {
      out.push_back(n.id);
    }
  }
  return out;
}

/// Builds one up/down fat-tree path src→dst without running Yen: pick an
/// aggregation (and, across pods, core) switch at random and chain the
/// links. O(k) per path, so pools for thousands of flows build instantly.
std::vector<LinkId> fat_tree_path(const Topology& topo, NodeId src, NodeId dst,
                                  util::Xoshiro256& rng) {
  const NodeId e1 = edge_of(topo, src);
  const NodeId e2 = edge_of(topo, dst);
  std::vector<LinkId> path{*topo.find_link(src, e1)};
  if (e1 == e2) {
    path.push_back(*topo.find_link(e1, dst));
    return path;
  }
  const auto aggs = switch_neighbors(topo, e1, "agg-");
  const std::size_t pick = rng.below(aggs.size());
  // Same pod: some agg neighbors e2 directly.
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    const NodeId agg = aggs[(pick + i) % aggs.size()];
    if (const auto down = topo.find_link(agg, e2)) {
      path.push_back(*topo.find_link(e1, agg));
      path.push_back(*down);
      path.push_back(*topo.find_link(e2, dst));
      return path;
    }
  }
  // Cross-pod: up to a core over the picked agg, down to the same-index agg
  // in dst's pod (every core sees exactly one agg per pod).
  const NodeId agg1 = aggs[pick];
  const auto cores = switch_neighbors(topo, agg1, "core-");
  const NodeId core = cores[rng.below(cores.size())];
  for (LinkId l : topo.out_links(core)) {
    const NodeId agg2 = topo.link(l).dst;
    if (agg2 == agg1) continue;
    if (const auto down = topo.find_link(agg2, e2)) {
      path.push_back(*topo.find_link(e1, agg1));
      path.push_back(*topo.find_link(agg1, core));
      path.push_back(l);
      path.push_back(*down);
      path.push_back(*topo.find_link(e2, dst));
      return path;
    }
  }
  std::fprintf(stderr, "no fat-tree path %u -> %u\n", src.value(),
               dst.value());
  std::abort();
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Current resident set (VmRSS) in KiB from /proc/self/status. Unlike
/// getrusage's ru_maxrss — a process-lifetime high-water mark that freezes
/// at whichever cell was largest — this is sampled per cell while the
/// fabric is live, so every cell reports its own footprint.
long current_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

struct CellResult {
  double wall_ns_per_event = 0.0;
  std::uint64_t events = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t links_touched = 0;
  std::uint64_t fill_rounds = 0;    // progressive-fill rounds run live
  std::uint64_t reused_rounds = 0;  // rounds replayed from the last fill
  double ramp_ms = 0.0;
  double window_ms = 0.0;
  long rss_kb = 0;
  /// FNV-1a over the fabric's behavioral state image at the end of the
  /// window (counters excluded — engines legitimately differ there). Equal
  /// checksums across arms certify the run the numbers came from really
  /// allocated identical rates.
  std::uint64_t behavior_checksum = 0;
};

/// Arrivals per wave: every wave schedules this many simultaneous
/// starts, like one mapper wave fanning out to reducers.
constexpr int kWaveSize = 25;

CellResult run_cell(const Topology& topo, RateEngine engine,
                    std::size_t concurrent, int churn, std::uint64_t seed) {
  sim::Simulation sim(seed);
  Fabric fabric(sim, topo, FabricConfig{.rate_engine = engine});
  util::Xoshiro256 rng(seed);
  const auto hosts = topo.hosts();

  auto random_pair = [&] {
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    return std::pair{src, dst};
  };

  const auto ramp_begin = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < concurrent; ++i) {
    const auto [src, dst] = random_pair();
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{1'000'000'000'000};  // outlives the measurement window
    spec.path = fat_tree_path(topo, src, dst, rng);
    fabric.start_flow(spec);
  }
  const auto ramp_end = std::chrono::steady_clock::now();

  // Measurement window: churn arrivals in waves of kWaveSize simultaneous
  // starts, waves 5 ms apart. The flows are sized to outlive the window so
  // every recompute runs against the full steady-state backdrop.
  for (int i = 0; i < churn; ++i) {
    const auto [src, dst] = random_pair();
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = Bytes{1'000'000'000'000};
    spec.path = fat_tree_path(topo, src, dst, rng);
    const std::int64_t wave_ns = (i / kWaveSize + 1) * 5'000'000LL;
    sim.at(SimTime{wave_ns}, [&fabric, spec] { fabric.start_flow(spec); });
  }

  const auto c0 = fabric.counters();
  const std::uint64_t started0 = fabric.flows_started();
  const auto window_begin = std::chrono::steady_clock::now();
  while (fabric.flows_started() - started0 <
             static_cast<std::uint64_t>(churn) &&
         sim.queue().run_one()) {
  }
  const auto window_end = std::chrono::steady_clock::now();
  const auto c1 = fabric.counters();

  CellResult r;
  r.events = (fabric.flows_started() - started0) +
             (c1.completion_events - c0.completion_events);
  const auto wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(window_end -
                                                           window_begin)
          .count());
  r.wall_ns_per_event = r.events ? wall_ns / static_cast<double>(r.events) : 0;
  r.recomputes = c1.recomputes - c0.recomputes;
  r.links_touched = c1.links_touched - c0.links_touched;
  r.fill_rounds = c1.fill_rounds - c0.fill_rounds;
  r.reused_rounds = c1.reused_rounds - c0.reused_rounds;
  r.ramp_ms = std::chrono::duration_cast<std::chrono::microseconds>(
                  ramp_end - ramp_begin)
                  .count() /
              1000.0;
  r.window_ms = wall_ns / 1e6;
  r.rss_kb = current_rss_kb();  // fabric still live: the cell's footprint
  sim::StateEncoder enc;
  fabric.encode_state(enc);
  r.behavior_checksum = fnv1a(enc.bytes());
  return r;
  // The N long flows are dropped untimed with the fabric.
}

/// Medians out machine noise: the cell is run kReps times (the seed makes
/// every run identical, so event counts and counters agree) and the run
/// with the median window time is reported.
constexpr int kReps = 3;

CellResult run_cell_median(const Topology& topo, RateEngine engine,
                           std::size_t concurrent, int churn,
                           std::uint64_t seed) {
  std::vector<CellResult> runs;
  runs.reserve(kReps);
  for (int i = 0; i < kReps; ++i) {
    runs.push_back(run_cell(topo, engine, concurrent, churn, seed));
  }
  std::sort(runs.begin(), runs.end(),
            [](const CellResult& a, const CellResult& b) {
              return a.wall_ns_per_event < b.wall_ns_per_event;
            });
  return runs[runs.size() / 2];
}

struct Cell {
  std::size_t k;
  std::size_t flows;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_fabric.json";
  std::string one;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
    // --json-out: shared artifact-redirect flag (see bench_cli.hpp); wins
    // over --out so CI can point every bench somewhere collision-free.
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
    // --one k:flows:engine runs a single arm once (no JSON) — the loop for
    // profiling one cell under gprof/perf without sweeping the whole grid.
    if (std::strcmp(argv[i], "--one") == 0 && i + 1 < argc) one = argv[++i];
  }
  if (!one.empty()) {
    std::size_t k = 8;
    std::size_t flows = 5000;
    char engine_c = 'i';
    std::sscanf(one.c_str(), "%zu:%zu:%c", &k, &flows, &engine_c);
    const RateEngine engine = engine_c == 'f' ? RateEngine::kFullRecompute
                                              : RateEngine::kIncremental;
    net::FatTreeConfig cfg;
    cfg.k = k;
    const Topology topo = net::make_fat_tree(cfg);
    const CellResult r = run_cell(topo, engine, flows, 200, 7);
    std::printf("k%zu flows=%zu engine=%c: %.0f ns/event (%llu events)\n", k,
                flows, engine_c, r.wall_ns_per_event,
                static_cast<unsigned long long>(r.events));
    return 0;
  }

  std::vector<Cell> cells;
  if (smoke) {
    cells = {{4, 100}, {4, 300}};
  } else {
    for (const std::size_t k : {std::size_t{4}, std::size_t{8}}) {
      for (const std::size_t n : {100u, 500u, 1000u, 2000u, 5000u}) {
        cells.push_back({k, n});
      }
    }
  }
  const int churn = smoke ? 40 : 200;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"fabric_scaling\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n  \"churn_events\": %d,\n",
               smoke ? "true" : "false", churn);

  std::printf("%-14s %8s | %12s %12s | %9s\n", "topology", "flows",
              "full ns/ev", "incr ns/ev", "incr/full");
  std::string cells_json;
  bool all_identical = true;
  std::size_t prev_k = 0;
  Topology topo;
  for (const Cell& cell : cells) {
    if (cell.k != prev_k) {
      net::FatTreeConfig cfg;
      cfg.k = cell.k;
      topo = net::make_fat_tree(cfg);
      prev_k = cell.k;
    }
    const std::string label = "fat_tree_k" + std::to_string(cell.k);
    const std::size_t n = cell.flows;

    const CellResult inc =
        run_cell_median(topo, RateEngine::kIncremental, n, churn, 7);
    const CellResult full =
        run_cell_median(topo, RateEngine::kFullRecompute, n, churn, 7);
    const bool identical = full.behavior_checksum == inc.behavior_checksum;
    all_identical = all_identical && identical;

    const double speedup = inc.wall_ns_per_event > 0.0
                               ? full.wall_ns_per_event / inc.wall_ns_per_event
                               : 0.0;
    std::printf("%-14s %8zu | %12.0f %12.0f | %8.1fx%s\n", label.c_str(), n,
                full.wall_ns_per_event, inc.wall_ns_per_event, speedup,
                identical ? "" : "  CHECKSUM MISMATCH");
    std::fflush(stdout);

    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"topology\": \"%s\", \"k\": %zu, \"flows\": %zu,\n",
                  label.c_str(), cell.k, n);
    cells_json += (cells_json.empty() ? "" : ",\n") + std::string(buf);
    auto arm_json = [](const char* name, const CellResult& r) {
      char b[512];
      std::snprintf(b, sizeof b,
                    "      \"%s\": {\"wall_ns_per_event\": %.1f, "
                    "\"events\": %llu, \"recomputes\": %llu, "
                    "\"links_touched\": %llu, \"fill_rounds\": %llu, "
                    "\"reused_rounds\": %llu, \"ramp_ms\": %.2f, "
                    "\"window_ms\": %.2f, \"rss_kb\": %ld, "
                    "\"behavior_checksum\": \"%016llx\"}",
                    name, r.wall_ns_per_event,
                    static_cast<unsigned long long>(r.events),
                    static_cast<unsigned long long>(r.recomputes),
                    static_cast<unsigned long long>(r.links_touched),
                    static_cast<unsigned long long>(r.fill_rounds),
                    static_cast<unsigned long long>(r.reused_rounds),
                    r.ramp_ms, r.window_ms, r.rss_kb,
                    static_cast<unsigned long long>(r.behavior_checksum));
      return std::string(b);
    };
    cells_json += arm_json("full", full) + ",\n";
    cells_json += arm_json("incremental", inc) + ",\n";
    std::snprintf(buf, sizeof buf,
                  "      \"speedup\": %.2f, \"peak_rss_kb\": %ld, "
                  "\"identical\": %s}",
                  speedup, std::max(full.rss_kb, inc.rss_kb),
                  identical ? "true" : "false");
    cells_json += buf;
  }
  std::fprintf(out, "  \"all_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(out, "  \"cells\": [\n%s\n  ]\n}\n", cells_json.c_str());
  std::fclose(out);
  std::printf("wrote %s (all_identical=%s)\n", out_path.c_str(),
              all_identical ? "true" : "false");
  return all_identical ? 0 : 1;
}
