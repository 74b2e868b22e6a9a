// Figure 1b — "Adversarial shuffle flow allocation to the network".
//
// The paper's example: two inter-rack paths, Path-1 at ~95% utilization and
// Path-2 nearly idle; ECMP's load-unaware hashing can land a large shuffle
// flow (159 MB, reducer-0's fetch) on the loaded path even though capacity
// is available. This bench reconstructs the situation, enumerates ECMP's
// behaviour over ephemeral ports, and contrasts the resulting transfer time
// with Pythia's load-aware placement.
#include <cstdio>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "net/background.hpp"
#include "net/ecmp.hpp"
#include "net/fabric.hpp"
#include "sdn/controller.hpp"
#include "sim/simulation.hpp"
#include "util/table.hpp"

int main() {
  using namespace pythia;
  using util::BitsPerSec;
  using util::Bytes;

  std::printf("=== Figure 1b: adversarial ECMP flow allocation ===\n\n");

  net::TwoRackConfig topo_cfg;
  topo_cfg.host_link = BitsPerSec{1e9};          // 1 Gbps, as in Fig. 1
  topo_cfg.inter_rack_capacity = BitsPerSec{1e9};
  const net::Topology topo = net::make_two_rack(topo_cfg);
  sim::Simulation sim(1);
  net::Fabric fabric(sim, topo);
  sdn::Controller controller(sim, fabric, topo);

  const auto hosts = topo.hosts();
  const net::NodeId mapper0 = hosts[0];
  const net::NodeId mapper1 = hosts[1];
  const net::NodeId reducer0 = hosts[5];
  const net::NodeId reducer1 = hosts[6];

  // Path-1 at 95% (Fig. 1b's port buffer view), Path-2 at 7%.
  net::BackgroundSpec bg;
  bg.oversubscription = 20.0;                // 95% base fraction
  bg.path_intensity = {1.0, 0.07 / 0.95};
  net::install_background(fabric, controller.routing(), hosts[0], hosts[5],
                          bg);

  const auto& paths = controller.routing().paths(mapper0, reducer0);
  util::Table loads({"path", "background load", "available"});
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const net::LinkId inter = paths[i][1];
    loads.add_row({"Path-" + std::to_string(i + 1),
                   util::Table::percent(fabric.link_cbr_load(inter).bps() /
                                        1e9),
                   util::format_rate(fabric.link_residual_capacity(inter))});
  }
  std::printf("%s\n", loads.to_string().c_str());

  // Flow-1: reducer-0 fetching 159 MB from mapper-0 (the elephant).
  // Flow-2: reducer-1 fetching 32 MB from mapper-1.
  const Bytes flow1_size{159'000'000};
  const Bytes flow2_size{32'000'000};

  // (a) How often does ECMP put the elephant on the 95%-loaded path?
  net::EcmpSelector ecmp(controller.routing());
  int elephant_on_hot = 0;
  constexpr int kTrials = 10'000;
  for (int i = 0; i < kTrials; ++i) {
    net::FiveTuple t{topo.address_of(mapper0), topo.address_of(reducer0),
                     net::kShufflePort,
                     static_cast<std::uint16_t>(30000 + i % 30000), 6};
    if (ecmp.select(mapper0, reducer0, t) == paths[0]) {
      ++elephant_on_hot;
    }
  }

  // (b) Transfer time of the 159 MB flow on each path, alone.
  auto transfer_seconds = [&](std::vector<net::LinkId> path, Bytes size) {
    sim::Simulation s2(1);
    net::Fabric f2(s2, topo);
    net::install_background(f2, controller.routing(), hosts[0], hosts[5], bg);
    double done = 0.0;
    net::FlowSpec spec;
    spec.src = mapper0;
    spec.dst = reducer0;
    spec.size = size;
    spec.path = std::move(path);
    spec.tuple = net::FiveTuple{1, 2, net::kShufflePort, 30000, 6};
    spec.cls = net::FlowClass::kShuffle;
    f2.start_flow(spec,
                  [&](net::FlowId, util::SimTime at) { done = at.seconds(); });
    s2.run();
    return done;
  };
  const double hot_time = transfer_seconds(paths[0].to_vector(), flow1_size);
  const double cold_time = transfer_seconds(paths[1].to_vector(), flow1_size);

  // (c) Pythia's allocator choice for the same two predicted flows.
  core::Allocator alloc(controller);
  alloc.add_predicted_volume(mapper0, reducer0, flow1_size);
  alloc.add_predicted_volume(mapper1, reducer1, flow2_size);
  sim.run();
  const auto* rule1 = controller.active_rule(mapper0, reducer0);
  const auto* rule2 = controller.active_rule(mapper1, reducer1);

  util::Table out({"metric", "value"});
  out.add_row({"ECMP: P(159MB flow on 95%-loaded path)",
               util::Table::percent(static_cast<double>(elephant_on_hot) /
                                    kTrials)});
  out.add_row({"159MB transfer on loaded Path-1",
               util::Table::seconds(hot_time, 2)});
  out.add_row({"159MB transfer on idle Path-2",
               util::Table::seconds(cold_time, 2)});
  out.add_row({"adversarial slowdown",
               util::Table::num(hot_time / cold_time, 1) + "x"});
  out.add_row({"Pythia: 159MB aggregate placed on",
               rule1 && controller.path(rule1->path_id) == paths[1]
                   ? "Path-2 (idle)"
                   : "Path-1"});
  out.add_row({"Pythia: 32MB aggregate placed on",
               rule2 && controller.path(rule2->path_id)[1] == paths[0][1]
                   ? "Path-1"
                   : "Path-2"});
  std::printf("%s", out.to_string().c_str());
  std::printf(
      "\npaper: ECMP's random hashing assigns the large flow to the 95%%-"
      "loaded path ~half the time;\nPythia, knowing size and load, never "
      "does.\n");
  return 0;
}
