// Path-load timelines: watch the two inter-rack cables during a shuffle
// under ECMP vs Pythia — the live version of the paper's Fig. 1b port-load
// snapshot. ECMP splits traffic onto both paths including the nearly-dead
// one; Pythia steers everything onto the healthy cable.
//
//   ./build/examples/path_loads
#include <cstdio>

#include "experiments/scenario.hpp"
#include "net/link_recorder.hpp"
#include "util/table.hpp"
#include "workloads/hibench.hpp"

int main() {
  using namespace pythia;

  util::Table table({"scheduler", "hot cable mean util", "cold cable mean util",
                     "completion"});
  for (const auto kind :
       {exp::SchedulerKind::kEcmp, exp::SchedulerKind::kPythia}) {
    exp::ScenarioConfig cfg;
    cfg.seed = 3;
    cfg.scheduler = kind;
    cfg.background.oversubscription = 10.0;
    exp::Scenario scenario(cfg);

    const auto& paths = scenario.controller().routing().paths(
        scenario.servers()[0], scenario.servers()[9]);
    const net::LinkId hot = paths[0][1];   // carries the heavy CBR
    const net::LinkId cold = paths[1][1];
    net::LinkRecorder recorder(scenario.fabric(), {hot, cold},
                               util::Duration::millis(250));

    const auto result = scenario.run_job(
        workloads::sort_job(util::Bytes{30LL * 1000 * 1000 * 1000}, 12));

    table.add_row({exp::scheduler_name(kind),
                   util::Table::percent(recorder.mean_utilization(hot)),
                   util::Table::percent(recorder.mean_utilization(cold)),
                   util::Table::seconds(result.completion_time().seconds())});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nhot cable carries 90%% background; the cold one is where "
              "the shuffle belongs.\n");
  return 0;
}
