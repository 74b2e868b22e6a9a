// Failure drill: run a sort job under Pythia while an inter-rack cable dies
// and recovers mid-shuffle. Demonstrates the controller's topology-update
// service (paper §IV): the routing graph is rebuilt, rules over the dead
// link are purged, stranded flows are rerouted, and the job completes.
//
//   ./build/examples/failure_drill
#include <cstdio>

#include "experiments/scenario.hpp"
#include "viz/gantt.hpp"
#include "workloads/hibench.hpp"

int main() {
  using namespace pythia;
  using util::Duration;

  exp::ScenarioConfig cfg;
  cfg.seed = 13;
  cfg.scheduler = exp::SchedulerKind::kPythia;
  cfg.background.oversubscription = 10.0;

  exp::Scenario scenario(cfg);
  const auto& paths = scenario.controller().routing().paths(
      scenario.servers()[0], scenario.servers()[9]);
  const net::LinkId victim = paths[1][1];

  std::printf("t=10s: failing inter-rack cable (link %u), t=30s: restore\n\n",
              victim.value());
  scenario.simulation().after(Duration::seconds_i(10), [&] {
    scenario.controller().handle_link_failure(victim);
    std::printf("  [t=%.1fs] link down; routing graph rebuilt (%zu path(s) "
                "remain for a cross-rack pair)\n",
                scenario.simulation().now().seconds(),
                scenario.controller()
                    .routing()
                    .paths(scenario.servers()[0], scenario.servers()[9])
                    .size());
  });
  scenario.simulation().after(Duration::seconds_i(30), [&] {
    scenario.controller().handle_link_restore(victim);
    std::printf("  [t=%.1fs] link restored\n",
                scenario.simulation().now().seconds());
  });

  const auto job =
      workloads::sort_job(util::Bytes{30LL * 1000 * 1000 * 1000}, 12);
  const auto result = scenario.run_job(job);

  std::printf("\njob completed in %.1f s (%zu maps, %zu reducers, %zu "
              "topology rebuilds)\n",
              result.completion_time().seconds(), result.maps.size(),
              result.reducers.size(),
              static_cast<std::size_t>(
                  scenario.controller().topology_rebuilds()));
  std::printf("\n%s", viz::render_phase_summary(result).c_str());
  return 0;
}
