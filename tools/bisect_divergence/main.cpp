// bisect_divergence — event-level divergence bisection between two
// simulation arms that are supposed to be behaviorally identical.
//
// The determinism contract (docs/determinism.md) promises that two fresh
// replays of one scenario produce bit-identical behavior. When that promise
// breaks, or when two arms that should agree do not, the symptom (a
// diverged golden trace or final metric) is far downstream of the cause.
// This tool localizes the break to the exact first event:
//
//  1. run both arms to completion with an EventTraceRecorder and report the
//     first differing trace line (coarse, human-readable context);
//  2. binary-search the event count: fresh-replay each arm to N events,
//     capture a snapshot (experiments/checkpoint.hpp), and compare
//     *behavioral* checksums — observability sections ("fabric.counters",
//     "routing.counters") are excluded, since they count work, not
//     behavior;
//  3. report the first event count at which the images diverge, plus the
//     section-level byte diff at that point.
//
// Every probe is a fresh deterministic replay, so the search is exact: the
// reported event is the true first divergence, not a sampling artifact.
//
// `--smoke` runs the self-test pairs used by CI: two fresh replays of one
// arm must agree, and a deliberately perturbed arm must be caught by the
// bisection.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "experiments/checkpoint.hpp"
#include "experiments/scenario.hpp"
#include "experiments/trace.hpp"
#include "sim/snapshot.hpp"
#include "workloads/hibench.hpp"

namespace {

using pythia::exp::Scenario;
using pythia::exp::ScenarioConfig;
using pythia::exp::SchedulerKind;

struct Arm {
  std::string name;
  ScenarioConfig cfg;
};

struct Options {
  std::uint64_t seed = 1;
  double oversub = 10.0;
  std::int64_t input_mb = 2000;
  std::size_t reducers = 4;
  std::string arm_b_scheduler;  // empty = same as arm A (pythia)
  std::uint64_t arm_b_seed = 0;  // 0 = same as arm A
  bool smoke = false;
};

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: bisect_divergence [flags]\n"
      "localize the first divergent event between two simulation arms\n"
      "that should be behaviorally identical (arm B defaults to a fresh\n"
      "replay of arm A).\n\n"
      "  --seed N            root seed for both arms (default 1)\n"
      "  --oversub R         background oversubscription ratio, finite and\n"
      "                      >= 1 (default 10)\n"
      "  --input-mb M        sort job input size in MB, >= 1 (default 2000)\n"
      "  --reducers K        sort job reducer count, >= 1 (default 4)\n"
      "  --arm-b-scheduler S perturb arm B's scheduler "
      "(ecmp|pythia|hedera|flowcomb)\n"
      "  --arm-b-seed N      perturb arm B's seed\n"
      "  --smoke             run the CI self-test pairs and exit\n\n"
      "exit status: 0 arms agree, 2 divergence found and localized,\n"
      "1 usage/self-test failure\n");
}

/// Prints `why` and the usage to stderr and exits 1, before any run.
[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "bisect_divergence: %s\n", why.c_str());
  usage(stderr);
  std::exit(1);
}

/// The whole of `text` as a number of type T: no sign a T cannot hold, no
/// leading space, no trailing characters, no overflow.
template <class T>
T parse_number(const std::string& flag, const std::string& text) {
  T v{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (text.empty() || ec != std::errc{} || ptr != last) {
    fail(flag + " wants a number, not '" + text + "'");
  }
  return v;
}

std::optional<SchedulerKind> parse_scheduler(const std::string& name) {
  if (name == "ecmp") return SchedulerKind::kEcmp;
  if (name == "pythia") return SchedulerKind::kPythia;
  if (name == "hedera") return SchedulerKind::kHedera;
  if (name == "flowcomb") return SchedulerKind::kFlowCombLike;
  return std::nullopt;
}

ScenarioConfig base_config(std::uint64_t seed, double oversub) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.scheduler = SchedulerKind::kPythia;
  cfg.background.oversubscription = oversub;
  return cfg;
}

struct FullRun {
  std::vector<std::string> trace;
  std::uint64_t events = 0;
  double completion_s = 0.0;
};

FullRun run_full(const Arm& arm, const pythia::hadoop::JobSpec& job) {
  Scenario scenario(arm.cfg);
  pythia::exp::EventTraceRecorder recorder(scenario);
  FullRun out;
  out.completion_s = scenario.run_job(job).completion_time().seconds();
  out.trace = recorder.lines();
  out.events = scenario.simulation().queue().events_fired();
  return out;
}

/// Fresh deterministic replay of one arm to an absolute event cursor,
/// returning its state image.
pythia::sim::Snapshot capture_at(const Arm& arm,
                                 const pythia::hadoop::JobSpec& job,
                                 std::uint64_t events) {
  Scenario scenario(arm.cfg);
  scenario.submit_job(job);
  scenario.run_to_event_count(events);
  return pythia::exp::capture_snapshot(scenario, job, arm.name);
}

struct BisectReport {
  bool diverged = false;
  std::uint64_t first_event = 0;
  std::string divergence;  // section-level diff at first_event
  std::size_t probes = 0;
};

BisectReport bisect(const Arm& a, const Arm& b,
                    const pythia::hadoop::JobSpec& job,
                    std::uint64_t max_events) {
  BisectReport report;
  auto differs = [&](std::uint64_t n) {
    ++report.probes;
    return capture_at(a, job, n).behavior_checksum() !=
           capture_at(b, job, n).behavior_checksum();
  };
  if (!differs(max_events)) return report;
  report.diverged = true;
  if (differs(0)) {
    report.first_event = 0;
  } else {
    // Invariant: identical at lo, divergent at hi.
    std::uint64_t lo = 0;
    std::uint64_t hi = max_events;
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (differs(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
      std::printf("  bisect: [%llu, %llu]\n",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    }
    report.first_event = hi;
  }
  report.divergence = pythia::sim::Snapshot::describe_behavior_divergence(
      capture_at(a, job, report.first_event),
      capture_at(b, job, report.first_event));
  return report;
}

/// Compares two arms end to end; prints the findings. Returns true when the
/// arms are behaviorally identical.
bool compare_arms(const Arm& a, const Arm& b,
                  const pythia::hadoop::JobSpec& job) {
  std::printf("arm A: %s\narm B: %s\n", a.name.c_str(), b.name.c_str());

  const FullRun full_a = run_full(a, job);
  const FullRun full_b = run_full(b, job);
  std::printf("full runs: A fired %llu events (%.3f s sim), "
              "B fired %llu events (%.3f s sim)\n",
              static_cast<unsigned long long>(full_a.events),
              full_a.completion_s,
              static_cast<unsigned long long>(full_b.events),
              full_b.completion_s);

  // Coarse signal first: the golden-trace line where the runs part ways.
  const std::size_t lines =
      std::min(full_a.trace.size(), full_b.trace.size());
  std::size_t first_line = lines;
  for (std::size_t i = 0; i < lines; ++i) {
    if (full_a.trace[i] != full_b.trace[i]) {
      first_line = i;
      break;
    }
  }
  if (first_line < lines) {
    std::printf("trace: first differing line #%zu\n  A: %s\n  B: %s\n",
                first_line + 1, full_a.trace[first_line].c_str(),
                full_b.trace[first_line].c_str());
  } else if (full_a.trace.size() != full_b.trace.size()) {
    std::printf("trace: common prefix identical, lengths differ "
                "(%zu vs %zu lines)\n",
                full_a.trace.size(), full_b.trace.size());
  } else {
    std::printf("trace: %zu lines, byte-identical\n", full_a.trace.size());
  }

  // Exact signal: binary search on the event cursor.
  const std::uint64_t max_events = std::min(full_a.events, full_b.events);
  const BisectReport report = bisect(a, b, job, max_events);
  if (!report.diverged) {
    if (full_a.events != full_b.events) {
      std::printf("bisect: identical through event %llu, but totals differ "
                  "— divergence is in the drained tail\n",
                  static_cast<unsigned long long>(max_events));
      return false;
    }
    std::printf("bisect: behavior identical through event %llu "
                "(%zu probes) — arms agree\n",
                static_cast<unsigned long long>(max_events), report.probes);
    return true;
  }
  if (report.first_event == 0) {
    std::printf("bisect: arms diverge in their initial state "
                "(before any event fires)\n");
  } else {
    std::printf("bisect: first divergent event: %llu "
                "(identical at %llu; %zu probes)\n",
                static_cast<unsigned long long>(report.first_event),
                static_cast<unsigned long long>(report.first_event - 1),
                report.probes);
  }
  std::printf("  divergence: %s\n", report.divergence.c_str());
  return false;
}

int run_smoke() {
  // Small job so the O(log N) fresh replays stay fast.
  const auto job =
      pythia::workloads::sort_job(pythia::util::Bytes{200LL * 1000 * 1000}, 2);

  std::printf("--- smoke 1: two fresh replays of one arm must agree ---\n");
  const Arm a{"scheduler=pythia seed=1", base_config(1, 10.0)};
  if (!compare_arms(a, a, job)) {
    std::printf("SMOKE FAIL: replays of one arm diverged\n");
    return 1;
  }

  std::printf("--- smoke 2: bisection must localize a real divergence ---\n");
  Arm c{"scheduler=pythia seed=1", base_config(1, 10.0)};
  Arm d{"scheduler=flowcomb seed=1", base_config(1, 10.0)};
  d.cfg.scheduler = SchedulerKind::kFlowCombLike;
  const bool perturbed_agree = compare_arms(c, d, job);
  if (perturbed_agree) {
    std::printf("SMOKE FAIL: bisection missed an injected divergence\n");
    return 1;
  }

  std::printf("SMOKE PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Every flag is parsed and checked before any run.
  Options opt;
  std::optional<SchedulerKind> sched_b;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) fail(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--seed") {
      opt.seed = parse_number<std::uint64_t>(flag, value());
    } else if (flag == "--oversub") {
      opt.oversub = parse_number<double>(flag, value());
      if (!std::isfinite(opt.oversub) || opt.oversub < 1.0) {
        fail("--oversub must be finite and >= 1");
      }
    } else if (flag == "--input-mb") {
      opt.input_mb = parse_number<std::int64_t>(flag, value());
      // The job size in bytes, input_mb * 10^6, must fit an int64.
      constexpr std::int64_t kMaxMb =
          std::numeric_limits<std::int64_t>::max() / 1'000'000;
      if (opt.input_mb < 1 || opt.input_mb > kMaxMb) {
        fail("--input-mb must be in [1, " + std::to_string(kMaxMb) + "]");
      }
    } else if (flag == "--reducers") {
      opt.reducers = parse_number<std::size_t>(flag, value());
      if (opt.reducers == 0) fail("--reducers must be >= 1");
    } else if (flag == "--arm-b-scheduler") {
      opt.arm_b_scheduler = value();
      sched_b = parse_scheduler(opt.arm_b_scheduler);
      if (!sched_b) {
        fail("unknown scheduler '" + opt.arm_b_scheduler +
             "' (ecmp|pythia|hedera|flowcomb)");
      }
    } else if (flag == "--arm-b-seed") {
      opt.arm_b_seed = parse_number<std::uint64_t>(flag, value());
    } else if (flag == "--smoke") {
      opt.smoke = true;
    } else if (flag == "--help" || flag == "-h") {
      usage(stdout);
      return 0;
    } else {
      fail("unknown flag " + flag);
    }
  }

  if (opt.smoke) return run_smoke();

  const auto job = pythia::workloads::sort_job(
      pythia::util::Bytes{opt.input_mb * 1000 * 1000}, opt.reducers);

  const Arm a{"scheduler=pythia seed=" + std::to_string(opt.seed),
              base_config(opt.seed, opt.oversub)};

  const std::uint64_t seed_b = opt.arm_b_seed != 0 ? opt.arm_b_seed : opt.seed;
  Arm b{"scheduler=" +
            (sched_b ? opt.arm_b_scheduler : std::string("pythia")) +
            " seed=" + std::to_string(seed_b),
        base_config(seed_b, opt.oversub)};
  if (sched_b) b.cfg.scheduler = *sched_b;

  return compare_arms(a, b, job) ? 0 : 2;
}
