// Ablation A5 — fault tolerance (paper §IV: the routing graph is updated on
// link/switch failure events).
//
// Two drills on a 60 GB sort at 1:10 over-subscription:
//  (a) an inter-rack cable dies mid-shuffle and comes back a minute later —
//      completion-time impact per scheduler;
//  (b) Hadoop-level faults: straggling and failing map attempts — does
//      Pythia's prediction pipeline tolerate task churn?
#include <cstdio>
#include <vector>

#include "bench_cli.hpp"
#include "experiments/parallel_runner.hpp"
#include "experiments/sweep.hpp"
#include "workloads/hibench.hpp"

int main(int argc, char** argv) {
  using namespace pythia;
  using util::Duration;
  const auto args = benchcli::parse(argc, argv);
  exp::ParallelRunner runner(args.threads);

  const auto job =
      workloads::sort_job(util::Bytes{60LL * 1000 * 1000 * 1000}, 20);

  std::printf("=== Ablation A5a: inter-rack cable failure mid-job ===\n\n");
  {
    const std::vector<exp::SchedulerKind> kinds = {
        exp::SchedulerKind::kEcmp, exp::SchedulerKind::kHedera,
        exp::SchedulerKind::kPythia};
    struct DrillResult {
      double clean_s = 0.0;
      double faulty_s = 0.0;
    };
    const auto results = runner.map<DrillResult>(
        kinds.size(), [&](std::size_t i) {
          exp::ScenarioConfig cfg;
          cfg.seed = 4;
          cfg.background.oversubscription = 10.0;
          cfg.scheduler = kinds[i];

          DrillResult r;
          r.clean_s = exp::run_completion_seconds(cfg, job);

          exp::Scenario scenario(cfg);
          const auto& paths = scenario.controller().routing().paths(
              scenario.servers()[0], scenario.servers()[9]);
          // Kill the *lightly loaded* cable (the one Pythia depends on) at
          // 10 s — mid-shuffle for every scheduler — and restore at 50 s.
          const net::LinkId victim = paths[1][1];
          scenario.simulation().after(Duration::seconds_i(10), [&] {
            scenario.controller().handle_link_failure(victim);
          });
          scenario.simulation().after(Duration::seconds_i(50), [&] {
            scenario.controller().handle_link_restore(victim);
          });
          r.faulty_s = scenario.run_job(job).completion_time().seconds();
          return r;
        });
    util::Table table({"scheduler", "no failure (s)", "with failure (s)",
                       "penalty"});
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      table.add_row({exp::scheduler_name(kinds[i]),
                     util::Table::num(results[i].clean_s, 1),
                     util::Table::num(results[i].faulty_s, 1),
                     util::Table::percent(
                         results[i].faulty_s / results[i].clean_s - 1.0)});
    }
    std::printf("%s\n", table.to_string().c_str());
  }

  std::printf("=== Ablation A5b: Hadoop task faults under Pythia ===\n\n");
  {
    struct Profile {
      const char* name;
      double fail_p;
      double straggle_p;
    };
    const std::vector<Profile> profiles = {
        {"none", 0.0, 0.0}, {"5% failures", 0.05, 0.0},
        {"10% stragglers", 0.0, 0.10}, {"both", 0.05, 0.10}};
    struct FaultResult {
      double ecmp_s = 0.0;
      double pythia_s = 0.0;
      std::size_t map_retries = 0;
      std::size_t stragglers = 0;
    };
    const auto results = runner.map<FaultResult>(
        profiles.size(), [&](std::size_t i) {
          exp::ScenarioConfig cfg;
          cfg.seed = 4;
          cfg.background.oversubscription = 10.0;
          cfg.cluster.map_failure_probability = profiles[i].fail_p;
          cfg.cluster.straggler_probability = profiles[i].straggle_p;

          FaultResult r;
          cfg.scheduler = exp::SchedulerKind::kEcmp;
          r.ecmp_s = exp::run_completion_seconds(cfg, job);

          cfg.scheduler = exp::SchedulerKind::kPythia;
          exp::Scenario scenario(cfg);
          const auto result = scenario.run_job(job);
          r.pythia_s = result.completion_time().seconds();
          r.map_retries = result.map_retries;
          r.stragglers = result.stragglers;
          return r;
        });
    util::Table table({"fault profile", "ECMP (s)", "Pythia (s)",
                       "speedup", "map retries", "stragglers"});
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      table.add_row({profiles[i].name, util::Table::num(results[i].ecmp_s, 1),
                     util::Table::num(results[i].pythia_s, 1),
                     util::Table::percent(
                         results[i].ecmp_s / results[i].pythia_s - 1.0),
                     std::to_string(results[i].map_retries),
                     std::to_string(results[i].stragglers)});
    }
    std::printf("%s\n", table.to_string().c_str());
  }

  std::printf("[sweep] %s\n\n",
              exp::runner_counters_summary(runner.counters()).c_str());

  std::printf(
      "expected shape: losing the clean cable hurts Pythia most (its escape "
      "path vanishes) but jobs\nalways complete and recover on restore; task "
      "churn slows everyone while Pythia's relative edge\nsurvives — "
      "predictions are per-attempt-spill, so retries never poison the "
      "collector.\n");
  return 0;
}
