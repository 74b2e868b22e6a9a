#include "net/background.hpp"

#include <algorithm>
#include <cassert>

namespace pythia::net {

namespace {

/// Strips the first and last hop (host <-> ToR access links) from a
/// host-to-host path, leaving the inter-rack chain.
std::vector<LinkId> inter_rack_chain(const PathView& path) {
  assert(path.size() >= 2);
  std::vector<LinkId> chain;
  for (std::size_t i = 1; i + 1 < path.size(); ++i) chain.push_back(path[i]);
  return chain;
}

util::BitsPerSec chain_capacity(const Topology& topo,
                                const std::vector<LinkId>& chain) {
  double cap = std::numeric_limits<double>::infinity();
  for (LinkId l : chain) {
    cap = std::min(cap, topo.link(l).capacity.bps());
  }
  return util::BitsPerSec{cap};
}

}  // namespace

BackgroundHandle install_background(Fabric& fabric,
                                    const RoutingGraph& routing,
                                    NodeId host_in_rack_a,
                                    NodeId host_in_rack_b,
                                    const BackgroundSpec& spec) {
  assert(spec.oversubscription >= 1.0);
  BackgroundHandle handle;
  if (spec.oversubscription <= 1.0) return handle;
  const double base_fraction = 1.0 - 1.0 / spec.oversubscription;

  const auto intensity = [&spec](std::size_t i) {
    if (spec.path_intensity.empty()) return 1.0;
    return spec.path_intensity[std::min(i, spec.path_intensity.size() - 1)];
  };

  for (const auto& [src, dst] :
       {std::pair{host_in_rack_a, host_in_rack_b},
        std::pair{host_in_rack_b, host_in_rack_a}}) {
    const auto& paths = routing.paths(src, dst);
    assert(!paths.empty() && "background reference hosts must be connected");
    for (std::size_t i = 0; i < paths.size(); ++i) {
      auto chain = inter_rack_chain(paths[i]);
      if (chain.empty()) continue;  // same-rack reference hosts
      const auto cap = chain_capacity(fabric.topology(), chain);
      const util::BitsPerSec rate{cap.bps() * base_fraction * intensity(i)};
      if (rate.bps() <= 0.0) continue;
      handle.streams.push_back(fabric.start_cbr(chain, rate));
      handle.chains.push_back(std::move(chain));
      handle.rates.push_back(rate);
    }
  }
  return handle;
}

void remove_background(Fabric& fabric, const BackgroundHandle& handle) {
  for (CbrId id : handle.streams) {
    fabric.stop_cbr(id);
  }
}

}  // namespace pythia::net
