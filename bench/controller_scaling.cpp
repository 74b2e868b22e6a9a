// Controller fast-path scaling sweep: prediction-to-install latency under
// open-arrival multi-tenant intent storms, serial reference vs the batched
// cohort pipeline. Writes BENCH_controller.json (intents/sec,
// median/p99 per-intent latency, drain wall time, amortization factor, and
// an all_identical verdict CI gates on) across a 1x -> 10x arrival-rate
// sweep. `--smoke` runs a reduced sweep for CI.
//
// Protocol per rate point: one storm (workloads::generate_storm, fixed seed)
// is replayed verbatim into two independently built stacks —
//
//   serial   kCohortSerial   (the per-intent reference)
//   batched  kCohortBatched  (coalescing + batch install)
//
// Per-intent latency is wall time from the cohort drain's start to the
// allocator submission covering that intent (CohortDrainObserver); the
// batched arm charges every intent of a coalesced run the run's single
// submission time, which is exactly the amortization being measured. The
// rate sweep scales jobs up and mean inter-arrival down together, so sim
// duration stays roughly fixed while offered intents/sec grows ~rate^2.
//
// Identity gate: after each arm finishes, the collector's behavior image
// plus the allocator and controller state images are hashed; both arms
// must agree at every rate or the bench exits nonzero. This is the
// "byte-identical to the serial reference" proof run on every CI push.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_cli.hpp"
#include "core/allocator.hpp"
#include "core/collector.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sdn/controller.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "workloads/open_arrival.hpp"

namespace {

using namespace pythia;
using Clock = std::chrono::steady_clock;

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Wall-clock drain instrumentation (bench-side: the simulation itself never
/// observes this clock, so attaching the observer cannot perturb behavior).
class TimingObserver final : public core::CohortDrainObserver {
 public:
  void on_drain_begin(std::size_t) override { begin_ = Clock::now(); }

  void on_intents_submitted(std::size_t intents) override {
    const double us =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - begin_)
                                .count()) /
        1000.0;
    for (std::size_t i = 0; i < intents; ++i) samples_us_.push_back(us);
    ++allocator_calls_;
  }

  void on_drain_end(std::size_t intents, std::size_t runs,
                    std::size_t) override {
    drain_ns_ += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             begin_)
            .count());
    intents_ += intents;
    runs_ += runs;
  }

  std::vector<double>& samples_us() { return samples_us_; }
  [[nodiscard]] double drain_ms() const { return drain_ns_ / 1e6; }
  [[nodiscard]] std::uint64_t allocator_calls() const {
    return allocator_calls_;
  }
  [[nodiscard]] std::uint64_t intents() const { return intents_; }
  [[nodiscard]] std::uint64_t runs() const { return runs_; }

 private:
  Clock::time_point begin_{};
  std::vector<double> samples_us_;
  double drain_ns_ = 0.0;
  std::uint64_t allocator_calls_ = 0;
  std::uint64_t intents_ = 0;
  std::uint64_t runs_ = 0;
};

struct ArmResult {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double drain_ms = 0.0;
  double run_ms = 0.0;
  std::uint64_t allocator_calls = 0;
  std::uint64_t runs = 0;
  std::uint64_t drained_intents = 0;
  std::uint64_t coalesced_saved = 0;
  std::uint64_t checksum = 0;
  double sim_seconds = 0.0;
};

ArmResult run_arm(const net::Topology& topo,
                  const workloads::Storm& storm,
                  core::IntentPipeline pipeline, std::uint64_t seed) {
  sim::Simulation sim(seed);
  net::Fabric fabric(sim, topo);
  sdn::Controller controller(sim, fabric, topo);
  core::Allocator allocator(controller);
  core::CollectorConfig ccfg;
  ccfg.pipeline = pipeline;
  core::Collector collector(sim, allocator, ccfg);
  TimingObserver obs;
  collector.set_drain_observer(&obs);
  workloads::schedule_storm(sim, collector, storm);

  const auto t0 = Clock::now();
  sim.run();
  const auto t1 = Clock::now();

  ArmResult r;
  auto& samples = obs.samples_us();
  std::sort(samples.begin(), samples.end());
  r.p50_us = percentile(samples, 0.50);
  r.p99_us = percentile(samples, 0.99);
  r.drain_ms = obs.drain_ms();
  r.run_ms =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count()) /
      1000.0;
  r.allocator_calls = obs.allocator_calls();
  r.runs = obs.runs();
  r.drained_intents = obs.intents();
  r.coalesced_saved = collector.coalesced_submissions_saved();
  r.sim_seconds = sim.now().seconds();

  sim::StateEncoder enc;
  collector.encode_behavior(enc);
  allocator.encode_state(enc);
  controller.encode_state(enc);
  r.checksum = fnv1a(enc.bytes());
  return r;
}

/// Medians out machine noise: reps identical runs (same storm, same seed),
/// report the run with median p99. Checksums agree across reps by
/// construction — determinism is what the pipeline guarantees.
ArmResult run_arm_median(const net::Topology& topo,
                         const workloads::Storm& storm,
                         core::IntentPipeline pipeline, std::uint64_t seed,
                         int reps) {
  std::vector<ArmResult> runs;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    runs.push_back(run_arm(topo, storm, pipeline, seed));
  }
  std::sort(runs.begin(), runs.end(),
            [](const ArmResult& a, const ArmResult& b) {
              return a.p99_us < b.p99_us;
            });
  return runs[runs.size() / 2];
}

std::string arm_json(const char* name, const ArmResult& r) {
  char b[512];
  std::snprintf(b, sizeof b,
                "      \"%s\": {\"p50_us\": %.2f, \"p99_us\": %.2f, "
                "\"drain_ms\": %.3f, \"run_ms\": %.1f, "
                "\"allocator_calls\": %llu, \"runs\": %llu, "
                "\"drained_intents\": %llu, \"coalesced_saved\": %llu, "
                "\"checksum\": \"%016llx\"}",
                name, r.p50_us, r.p99_us, r.drain_ms, r.run_ms,
                static_cast<unsigned long long>(r.allocator_calls),
                static_cast<unsigned long long>(r.runs),
                static_cast<unsigned long long>(r.drained_intents),
                static_cast<unsigned long long>(r.coalesced_saved),
                static_cast<unsigned long long>(r.checksum));
  return std::string(b);
}

}  // namespace

int main(int argc, char** argv) {
  const benchcli::Args args = benchcli::parse(argc, argv);
  const std::string out_path = args.json_path("BENCH_controller.json");

  std::vector<std::size_t> rates;
  if (args.smoke) {
    rates = {1, 4, 10};
  } else {
    rates = {1, 2, 4, 7, 10};
  }
  const std::size_t base_jobs = args.smoke ? 8 : 24;
  const std::int64_t base_interarrival_ns = 40'000'000;  // 40 ms at rate 1
  const int reps = args.smoke ? 1 : 3;
  constexpr std::uint64_t kSeed = 7;

  net::FatTreeConfig tcfg;
  tcfg.k = 4;
  const net::Topology topo = net::make_fat_tree(tcfg);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"controller_scaling\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n  \"topology\": \"fat_tree_k4\",\n",
               args.smoke ? "true" : "false");

  std::printf("%-5s %8s %10s | %10s %10s | %10s %10s | %7s %5s\n", "rate",
              "intents", "int/sec", "ser p99us", "bat p99us", "ser drain",
              "bat drain", "amort", "ident");

  std::string cells_json;
  bool all_identical = true;
  double p99_serial_first = 0.0, p99_serial_last = 0.0;
  double p99_batched_first = 0.0, p99_batched_last = 0.0;
  double amortization_last = 0.0;

  for (std::size_t i = 0; i < rates.size(); ++i) {
    const std::size_t rate = rates[i];
    workloads::OpenArrivalConfig wcfg;
    wcfg.jobs = base_jobs * rate;
    wcfg.mean_interarrival = util::Duration{
        std::max<std::int64_t>(1, base_interarrival_ns /
                                      static_cast<std::int64_t>(rate))};
    const workloads::Storm storm = workloads::generate_storm(wcfg, topo, kSeed);
    const std::size_t intents = workloads::storm_intent_count(storm);

    const ArmResult serial = run_arm_median(
        topo, storm, core::IntentPipeline::kCohortSerial, kSeed, reps);
    const ArmResult batched = run_arm_median(
        topo, storm, core::IntentPipeline::kCohortBatched, kSeed, reps);

    const bool identical = serial.checksum == batched.checksum;
    all_identical = all_identical && identical;

    const double intents_per_sec =
        serial.sim_seconds > 0.0
            ? static_cast<double>(intents) / serial.sim_seconds
            : 0.0;
    // Per-intent amortization: how many prediction+allocation passes (each
    // one routing lookup + rule-table touch on the controller) the serial
    // reference spends per pass of the batched pipeline. Deterministic —
    // it counts calls, not wall time.
    const double amortization =
        batched.allocator_calls > 0
            ? static_cast<double>(serial.allocator_calls) /
                  static_cast<double>(batched.allocator_calls)
            : 0.0;
    const double drain_speedup = batched.drain_ms > 0.0
                                     ? serial.drain_ms / batched.drain_ms
                                     : 0.0;
    if (i == 0) {
      p99_serial_first = serial.p99_us;
      p99_batched_first = batched.p99_us;
    }
    p99_serial_last = serial.p99_us;
    p99_batched_last = batched.p99_us;
    amortization_last = amortization;

    std::printf("%-5zu %8zu %10.0f | %10.2f %10.2f | %9.2fms %9.2fms | "
                "%6.1fx %5s\n",
                rate, intents, intents_per_sec, serial.p99_us,
                batched.p99_us, serial.drain_ms, batched.drain_ms,
                amortization, identical ? "yes" : "NO");
    std::fflush(stdout);

    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"rate\": %zu, \"jobs\": %zu, \"intents\": %zu, "
                  "\"intents_per_sec\": %.0f,\n",
                  rate, wcfg.jobs, intents, intents_per_sec);
    cells_json += (cells_json.empty() ? "" : ",\n") + std::string(buf);
    cells_json += arm_json("serial", serial) + ",\n";
    cells_json += arm_json("batched", batched) + ",\n";
    std::snprintf(buf, sizeof buf,
                  "      \"amortization\": %.2f, \"drain_speedup\": %.2f, "
                  "\"identical\": %s}",
                  amortization, drain_speedup, identical ? "true" : "false");
    cells_json += buf;
  }

  const double serial_growth =
      p99_serial_first > 0.0 ? p99_serial_last / p99_serial_first : 0.0;
  const double batched_growth =
      p99_batched_first > 0.0 ? p99_batched_last / p99_batched_first : 0.0;
  std::fprintf(out, "  \"all_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(out, "  \"p99_growth_serial\": %.2f,\n", serial_growth);
  std::fprintf(out, "  \"p99_growth_batched\": %.2f,\n", batched_growth);
  std::fprintf(out, "  \"amortization_at_max_rate\": %.2f,\n",
               amortization_last);
  std::fprintf(out, "  \"cells\": [\n%s\n  ]\n}\n", cells_json.c_str());
  std::fclose(out);
  std::printf("wrote %s (all_identical=%s, batched p99 growth %.2fx, "
              "amortization %.1fx)\n",
              out_path.c_str(), all_identical ? "true" : "false",
              batched_growth, amortization_last);
  return all_identical ? 0 : 1;
}
