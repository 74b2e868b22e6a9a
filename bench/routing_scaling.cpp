// Routing-engine scaling sweep: k-shortest-path table rebuild latency on
// fat-tree k=4/8/16 for a single-cable (duplex) failure and its restore, a
// fresh full table vs the incremental rebuild (drop the affected pairs, then
// materialize them again), the cold-build cost across construction paths
// (materialize_all serial, materialize_all on a thread pool, lazy
// on-demand), plus the per-flow allocator choose_path decision latency on
// the interned tables. Writes BENCH_routing.json (rebuild wall times, pairs
// recomputed vs reused, cold-build arms, choose_path ns, peak RSS).
// `--smoke` runs k=4 only for CI.
//
// Two victims per topology: the cable with the *median* reverse-index
// fanout (a representative physical failure) and the one with the *largest*
// (the adversarial case — on a fat tree that is a core uplink whose
// candidate sets cover a quarter of all cross-pod pairs, which bounds the
// achievable speedup by the work ratio itself). Before timing, one untimed
// fail+restore cycle checks the incremental table is byte-identical to a
// fresh full one, pair by pair — a speedup against a wrong table is
// meaningless. Each timed cycle runs 3 reps; the median is reported. Full
// cold builds drop to 1 rep above 4096 pairs — at k16-sparse each costs
// ~13 s and the reps were pure redundancy.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sdn/controller.hpp"
#include "sim/simulation.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pythia;
using net::LinkId;
using net::NodeId;
using net::RoutingGraph;
using net::Topology;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         1e6;
}

double median3(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// A cable plus its opposite direction (a physical failure takes both).
std::unordered_set<LinkId> duplex(const Topology& topo, LinkId l) {
  std::unordered_set<LinkId> banned{l};
  if (const auto peer = topo.find_link(topo.link(l).dst, topo.link(l).src)) {
    banned.insert(*peer);
  }
  return banned;
}

/// A fresh graph with every pair computed under `banned`: the full-rebuild
/// arm, and the reference every incremental table is checked against.
RoutingGraph full_table(const Topology& topo, std::size_t k_paths,
                        const std::unordered_set<LinkId>& banned) {
  RoutingGraph rg(topo, k_paths);
  rg.rebuild(banned);
  rg.materialize_all();
  return rg;
}

/// Switch-switch cables actually present in some candidate set of `rg` (a
/// full table), sorted by reverse-index fanout ascending. Cables no pair
/// routes over (common in the sparse k=16 cell, whose 128 hosts cannot
/// exercise the full core) are excluded — "failing" one is a no-op for
/// routing and measures nothing.
std::vector<LinkId> cables_by_fanout(const Topology& topo,
                                     const RoutingGraph& rg) {
  std::vector<LinkId> cables;
  for (const auto& link : topo.links()) {
    if (topo.node(link.src).kind == net::NodeKind::kSwitch &&
        topo.node(link.dst).kind == net::NodeKind::kSwitch &&
        rg.pairs_using(link.id) > 0) {
      cables.push_back(link.id);
    }
  }
  std::sort(cables.begin(), cables.end(), [&](LinkId a, LinkId b) {
    if (rg.pairs_using(a) != rg.pairs_using(b)) {
      return rg.pairs_using(a) < rg.pairs_using(b);
    }
    return a.value() < b.value();
  });
  return cables;
}

bool tables_identical(const Topology& topo, const RoutingGraph& a,
                      const RoutingGraph& b) {
  const auto hosts = topo.hosts();
  for (NodeId s : hosts) {
    for (NodeId d : hosts) {
      if (s == d) continue;
      const auto pa = a.paths(s, d);
      const auto pb = b.paths(s, d);
      if (pa.size() != pb.size()) return false;
      for (std::size_t i = 0; i < pa.size(); ++i) {
        if (pa[i].links != pb[i].links) return false;
      }
    }
  }
  return true;
}

/// Cold-build cost across the three construction paths. `build_ms` comes
/// from the timed serial full builds in main(); the lazy arm splits
/// construction from first-query and working-set materialization (the pairs
/// a real workload would actually touch); the parallel arm is a full build
/// fanned across a thread pool with slot-order interning.
struct ColdResult {
  double lazy_ctor_ms = 0.0;
  double lazy_first_query_ms = 0.0;
  /// Lazy ctor + Yen for every working-set pair: the effective cost of
  /// having routing ready for the pairs that carry flows.
  double lazy_working_set_ms = 0.0;
  std::size_t working_set_pairs = 0;
  std::uint64_t pairs_materialized = 0;
  /// Switch-level Yen runs behind those pairs (stub-host decomposition).
  std::uint64_t attach_pairs_computed = 0;
  double parallel_ms = 0.0;
  std::size_t parallel_threads = 0;
  /// Switch-level Yen runs behind the full parallel table.
  std::uint64_t parallel_attach_pairs_computed = 0;
  bool identical = false;
};

/// `reference` must be a clean (no banned links), fully materialized graph
/// on `topo`.
ColdResult run_cold(const Topology& topo, std::size_t k_paths,
                    std::uint64_t pairs, const RoutingGraph& reference) {
  ColdResult r;
  const auto hosts = topo.hosts();
  util::Xoshiro256 rng(42);
  r.working_set_pairs = static_cast<std::size_t>(
      std::min<std::uint64_t>(256, pairs));
  std::vector<std::pair<NodeId, NodeId>> sample;
  sample.reserve(r.working_set_pairs);
  for (std::size_t i = 0; i < r.working_set_pairs; ++i) {
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    sample.emplace_back(src, dst);
  }

  auto t0 = std::chrono::steady_clock::now();
  RoutingGraph lazy(topo, k_paths);
  r.lazy_ctor_ms = ms_since(t0);
  t0 = std::chrono::steady_clock::now();
  (void)lazy.paths(sample.front().first, sample.front().second);
  r.lazy_first_query_ms = ms_since(t0);
  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 1; i < sample.size(); ++i) {
    (void)lazy.paths(sample[i].first, sample[i].second);
  }
  r.lazy_working_set_ms =
      r.lazy_ctor_ms + r.lazy_first_query_ms + ms_since(t0);
  r.pairs_materialized = lazy.pairs_materialized();
  r.attach_pairs_computed = lazy.counters().attach_pairs_computed;

  // Parallel full build. At least 2 workers even on a single-core box so the
  // scratch/commit fan-out path is actually exercised (and visible to TSan
  // when this runs in CI smoke).
  util::ThreadPool pool(
      std::max<std::size_t>(2, std::thread::hardware_concurrency()));
  r.parallel_threads = pool.thread_count();
  t0 = std::chrono::steady_clock::now();
  RoutingGraph parallel(topo, k_paths);
  parallel.materialize_all(&pool);
  r.parallel_ms = ms_since(t0);
  r.parallel_attach_pairs_computed =
      parallel.counters().attach_pairs_computed;

  // Identity gate: fully materialize the lazy arm, then all three paths
  // must agree pair by pair. A fast cold build that computes a different
  // table measures nothing.
  lazy.materialize_all();
  r.identical = tables_identical(topo, reference, lazy) &&
                tables_identical(topo, reference, parallel);
  return r;
}

struct VictimResult {
  std::size_t fanout = 0;
  double fail_inc_cold_ms = 0.0;
  std::uint64_t pairs_recomputed_cold = 0;
  double fail_full_ms = 0.0;
  double fail_inc_ms = 0.0;
  double restore_full_ms = 0.0;
  double restore_inc_ms = 0.0;
  std::uint64_t pairs_recomputed_fail = 0;
  std::uint64_t pairs_recomputed_restore = 0;
  bool identical = false;

  [[nodiscard]] double fail_speedup() const {
    return fail_inc_ms > 0.0 ? fail_full_ms / fail_inc_ms : 0.0;
  }
  [[nodiscard]] double restore_speedup() const {
    return restore_inc_ms > 0.0 ? restore_full_ms / restore_inc_ms : 0.0;
  }
};

/// `inc` must be fully materialized; it is again on return. The incremental
/// arm is rebuild() plus materialize_all() of the pairs it dropped; the full
/// arm builds a fresh table under the same banned set.
VictimResult run_victim(const Topology& topo, RoutingGraph& inc,
                        LinkId victim, int reps) {
  VictimResult r;
  r.fanout = inc.pairs_using(victim);
  const auto banned = duplex(topo, victim);
  const std::unordered_set<LinkId> none;
  const auto incremental = [&inc](const std::unordered_set<LinkId>& b) {
    inc.rebuild(b);
    inc.materialize_all();
  };

  // Cold first failure: the reverse index still carries the initial build's
  // touched unions, which include every unchosen Yen candidate. A
  // fail+restore cycle shrinks the recomputed pairs' stored witness runs to
  // the ban-era unions (still sound — the routing suites check it against
  // the oracle), so repeat failures of the same cable recompute fewer
  // pairs. Both costs are real: cold is the first-ever failure, warm is
  // every one after.
  const auto cold_before = inc.counters().pairs_recomputed;
  auto t0 = std::chrono::steady_clock::now();
  incremental(banned);
  r.fail_inc_cold_ms = ms_since(t0);
  r.pairs_recomputed_cold = inc.counters().pairs_recomputed - cold_before;
  r.identical =
      tables_identical(topo, inc, full_table(topo, inc.k(), banned));
  incremental(none);
  r.identical = r.identical &&
                tables_identical(topo, inc, full_table(topo, inc.k(), none));

  std::vector<double> fail_full, fail_inc, restore_full, restore_inc;
  for (int i = 0; i < reps; ++i) {
    t0 = std::chrono::steady_clock::now();
    (void)full_table(topo, inc.k(), banned);
    fail_full.push_back(ms_since(t0));
    t0 = std::chrono::steady_clock::now();
    (void)full_table(topo, inc.k(), none);
    restore_full.push_back(ms_since(t0));

    const auto before_fail = inc.counters().pairs_recomputed;
    t0 = std::chrono::steady_clock::now();
    incremental(banned);
    fail_inc.push_back(ms_since(t0));
    const auto before_restore = inc.counters().pairs_recomputed;
    t0 = std::chrono::steady_clock::now();
    incremental(none);
    restore_inc.push_back(ms_since(t0));
    r.pairs_recomputed_fail = before_restore - before_fail;
    r.pairs_recomputed_restore =
        inc.counters().pairs_recomputed - before_restore;
  }
  r.fail_full_ms = median3(fail_full);
  r.fail_inc_ms = median3(fail_inc);
  r.restore_full_ms = median3(restore_full);
  r.restore_inc_ms = median3(restore_inc);
  return r;
}

/// Per-flow decision latency: the allocator's drain-time scan over the
/// interned candidate set, measured over random host pairs on an idle
/// network (pure table + pool traversal, no packing feedback).
double choose_path_ns(const Topology& topo, int iters) {
  sim::Simulation sim(1);
  net::Fabric fabric(sim, topo);
  sdn::ControllerConfig cfg;
  cfg.k_paths = 4;
  sdn::Controller controller(sim, fabric, topo, cfg);
  core::Allocator alloc(controller);
  const auto hosts = topo.hosts();
  util::Xoshiro256 rng(7);

  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    pairs.emplace_back(src, dst);
  }

  // Untimed warm-up: the controller's routing graph is lazy, so the first
  // touch of each pair pays its Yen materialization. That cost belongs to
  // the cold-build arms above, not to the steady-state decision latency
  // measured here.
  for (const auto& [src, dst] : pairs) {
    (void)controller.routing().paths(src, dst);
  }

  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& [src, dst] : pairs) {
    sink += alloc.choose_path(src, dst, util::Bytes{1'000'000}).value();
  }
  const double total_ms = ms_since(t0);
  if (sink == 0) std::fprintf(stderr, "choose_path sink unexpectedly zero\n");
  return total_ms * 1e6 / iters;
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

void print_victim(const std::string& label, const char* victim,
                  std::size_t hosts, std::uint64_t pairs,
                  const VictimResult& r) {
  std::printf(
      "%-20s %-7s %6zu %7llu %7zu | %10.3f %10.3f %7.1fx | %10.3f %10.3f "
      "%7.1fx\n",
      label.c_str(), victim, hosts, static_cast<unsigned long long>(pairs),
      r.fanout, r.fail_full_ms, r.fail_inc_ms, r.fail_speedup(),
      r.restore_full_ms, r.restore_inc_ms, r.restore_speedup());
  std::fflush(stdout);
}

void emit_victim(std::FILE* out, const char* name, const VictimResult& r) {
  std::fprintf(out,
               "      \"%s\": {\"fanout\": %zu,\n"
               "        \"fail_incremental_cold_ms\": %.4f, "
               "\"pairs_recomputed_cold\": %llu,\n"
               "        \"fail_full_ms\": %.4f, \"fail_incremental_ms\": "
               "%.4f, \"fail_speedup\": %.2f,\n"
               "        \"restore_full_ms\": %.4f, "
               "\"restore_incremental_ms\": %.4f, \"restore_speedup\": "
               "%.2f,\n"
               "        \"pairs_recomputed_fail\": %llu, "
               "\"pairs_recomputed_restore\": %llu, \"identical\": %s}",
               name, r.fanout, r.fail_inc_cold_ms,
               static_cast<unsigned long long>(r.pairs_recomputed_cold),
               r.fail_full_ms, r.fail_inc_ms, r.fail_speedup(),
               r.restore_full_ms, r.restore_inc_ms, r.restore_speedup(),
               static_cast<unsigned long long>(r.pairs_recomputed_fail),
               static_cast<unsigned long long>(r.pairs_recomputed_restore),
               r.identical ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_routing.json";
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
  }

  // k=16 at canonical density would be 1024 hosts / ~1M pairs; one host per
  // edge switch keeps the initial Yen pass tractable while preserving the
  // 320-switch core the rebuild has to reason about.
  struct Cell {
    std::size_t fat_tree_k;
    std::size_t hosts_per_edge;
  };
  const std::vector<Cell> cells = smoke
                                      ? std::vector<Cell>{{4, 0}}
                                      : std::vector<Cell>{{4, 0}, {8, 0},
                                                          {16, 1}};
  const std::size_t k_paths = 4;
  const int reps = 3;
  const int choose_iters = smoke ? 2'000 : 20'000;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"routing_scaling\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n  \"k_paths\": %zu,\n",
               smoke ? "true" : "false", k_paths);
  std::fprintf(out, "  \"reps_per_cell\": %d,\n  \"cells\": [\n", reps);

  std::printf("%-20s %-7s %6s %7s %7s | %10s %10s %8s | %10s %10s %8s\n",
              "topology", "victim", "hosts", "pairs", "fanout", "fail full",
              "fail incr", "speedup", "rest full", "rest incr", "speedup");
  bool first = true;
  bool all_identical = true;
  for (const Cell& cell : cells) {
    net::FatTreeConfig cfg;
    cfg.k = cell.fat_tree_k;
    cfg.hosts_per_edge = cell.hosts_per_edge;
    const Topology topo = net::make_fat_tree(cfg);
    const std::string label = "fat_tree_k" + std::to_string(cell.fat_tree_k) +
                              (cell.hosts_per_edge == 1 ? "_sparse" : "");
    const auto hosts = topo.hosts().size();
    const auto pairs = static_cast<std::uint64_t>(hosts) * (hosts - 1);

    // One full-build rep above 4096 pairs: each k16-sparse build costs
    // ~13 s and repeating it told us nothing a single rep doesn't.
    const int build_reps = pairs > 4096 ? 1 : reps;
    std::vector<double> build;
    for (int i = 0; i < build_reps; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      RoutingGraph rg(topo, k_paths);
      rg.materialize_all();
      build.push_back(ms_since(t0));
    }
    const double build_ms = median3(build);

    RoutingGraph inc(topo, k_paths);
    inc.materialize_all();
    const ColdResult cold = run_cold(topo, k_paths, pairs, inc);
    const auto cables = cables_by_fanout(topo, inc);
    const VictimResult median =
        run_victim(topo, inc, cables[cables.size() / 2], reps);
    const VictimResult worst = run_victim(topo, inc, cables.back(), reps);
    const double choose_ns = choose_path_ns(topo, choose_iters);
    all_identical = all_identical && median.identical && worst.identical &&
                    cold.identical;

    const double lazy_speedup = cold.lazy_working_set_ms > 0.0
                                    ? build_ms / cold.lazy_working_set_ms
                                    : 0.0;
    const double parallel_speedup =
        cold.parallel_ms > 0.0 ? build_ms / cold.parallel_ms : 0.0;
    print_victim(label, "median", hosts, pairs, median);
    print_victim(label, "worst", hosts, pairs, worst);
    std::printf("%-20s   build %.2f ms, choose_path %.0f ns\n", label.c_str(),
                build_ms, choose_ns);
    std::printf(
        "%-20s   cold: lazy ctor %.3f ms, first query %.3f ms, "
        "%zu-pair working set %.2f ms (%.1fx, %llu switch-pair runs), "
        "parallel %.2f ms (%zu thr, %.1fx, %llu switch-pair runs)%s\n",
        label.c_str(), cold.lazy_ctor_ms, cold.lazy_first_query_ms,
        cold.working_set_pairs, cold.lazy_working_set_ms, lazy_speedup,
        static_cast<unsigned long long>(cold.attach_pairs_computed),
        cold.parallel_ms, cold.parallel_threads, parallel_speedup,
        static_cast<unsigned long long>(cold.parallel_attach_pairs_computed),
        cold.identical ? "" : "  TABLE MISMATCH");

    if (!first) std::fprintf(out, ",\n");
    first = false;
    std::fprintf(out,
                 "    {\"topology\": \"%s\", \"hosts\": %zu, "
                 "\"pairs\": %llu,\n",
                 label.c_str(), hosts,
                 static_cast<unsigned long long>(pairs));
    std::fprintf(out, "      \"build_ms\": %.3f, \"build_reps\": %d,\n",
                 build_ms, build_reps);
    std::fprintf(
        out,
        "      \"cold\": {\"lazy_ctor_ms\": %.4f, "
        "\"lazy_first_query_ms\": %.4f,\n"
        "        \"lazy_working_set_ms\": %.3f, \"working_set_pairs\": %zu, "
        "\"pairs_materialized\": %llu,\n"
        "        \"attach_pairs_computed\": %llu,\n"
        "        \"cold_speedup_lazy\": %.1f, \"parallel_build_ms\": %.3f, "
        "\"parallel_threads\": %zu,\n"
        "        \"parallel_attach_pairs_computed\": %llu,\n"
        "        \"cold_speedup_parallel\": %.2f, \"identical\": %s},\n",
        cold.lazy_ctor_ms, cold.lazy_first_query_ms, cold.lazy_working_set_ms,
        cold.working_set_pairs,
        static_cast<unsigned long long>(cold.pairs_materialized),
        static_cast<unsigned long long>(cold.attach_pairs_computed),
        lazy_speedup, cold.parallel_ms, cold.parallel_threads,
        static_cast<unsigned long long>(cold.parallel_attach_pairs_computed),
        parallel_speedup, cold.identical ? "true" : "false");
    emit_victim(out, "median_cable", median);
    std::fprintf(out, ",\n");
    emit_victim(out, "worst_cable", worst);
    std::fprintf(out, ",\n      \"choose_path_ns\": %.1f,\n", choose_ns);
    std::fprintf(out, "      \"peak_rss_kb\": %ld}", peak_rss_kb());
  }
  std::fprintf(out, "\n  ],\n  \"all_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(out, "  \"peak_rss_kb\": %ld\n}\n", peak_rss_kb());
  std::fclose(out);
  std::printf("wrote %s (peak RSS %ld KiB)%s\n", out_path.c_str(),
              peak_rss_kb(),
              all_identical ? "" : " — TABLE MISMATCH, numbers invalid");
  return all_identical ? 0 : 1;
}
