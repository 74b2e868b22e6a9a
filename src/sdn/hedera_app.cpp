#include "sdn/hedera_app.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/log.hpp"

namespace pythia::sdn {

HederaApp::HederaApp(Controller& controller, HederaConfig cfg)
    : controller_(&controller), cfg_(cfg) {
  controller_->fabric().add_observer(this);
}

// The fabric keeps a raw observer pointer; apps are expected to outlive the
// fabric in every harness (both live in the same experiment scope), so the
// destructor only exists to keep the vtable anchored here.
HederaApp::~HederaApp() = default;

void HederaApp::on_flow_started(const net::Fabric& fabric, net::FlowId flow,
                                util::SimTime /*at*/) {
  if (fabric.flow(flow).spec.cls != net::FlowClass::kShuffle) return;
  schedule_round();
}

void HederaApp::schedule_round() {
  if (round_pending_) return;
  round_pending_ = true;
  controller_->simulation().after(cfg_.poll_period, [this] {
    round_pending_ = false;
    run_round();
  });
}

bool HederaApp::is_elephant(const net::Flow& flow) const {
  if (flow.spec.path.empty()) return false;
  // Hedera classifies on *natural demand*, not achieved rate: the rate the
  // flow would reach were it limited only by its endpoints' NICs shared
  // fairly with the other flows using them. A flow starved by an in-network
  // bottleneck still has full demand.
  const auto& fabric = controller_->fabric();
  const auto& topo = controller_->topology();
  const net::LinkId first = flow.spec.path.front();
  const net::LinkId last = flow.spec.path.back();
  std::size_t sharing_first = 0;
  std::size_t sharing_last = 0;
  for (net::FlowId other : fabric.active_flows()) {
    const auto& of = fabric.flow(other);
    if (of.spec.path.empty()) continue;
    if (of.spec.path.front() == first) ++sharing_first;
    if (of.spec.path.back() == last) ++sharing_last;
  }
  const double demand =
      std::min(topo.link(first).capacity.bps() /
                   static_cast<double>(std::max<std::size_t>(sharing_first, 1)),
               topo.link(last).capacity.bps() /
                   static_cast<double>(std::max<std::size_t>(sharing_last, 1)));
  const double nic = topo.link(first).capacity.bps();
  return demand >= cfg_.elephant_fraction * nic;
}

void HederaApp::run_round() {
  auto& fabric = controller_->fabric();
  ++rounds_;

  // Collect active shuffle elephants, largest current demand first so the
  // greedy fit is deterministic.
  std::vector<net::FlowId> elephants;
  bool any_shuffle = false;
  for (net::FlowId fid : fabric.active_flows()) {
    const net::Flow& f = fabric.flow(fid);
    if (f.spec.cls != net::FlowClass::kShuffle) continue;
    any_shuffle = true;
    if (is_elephant(f)) elephants.push_back(fid);
  }
  std::sort(elephants.begin(), elephants.end(),
            [&](net::FlowId a, net::FlowId b) {
              const auto ra = fabric.flow(a).rate.bps();
              const auto rb = fabric.flow(b).rate.bps();
              if (ra != rb) return ra > rb;
              return a.value() < b.value();
            });

  for (net::FlowId fid : elephants) {
    const net::Flow& f = fabric.flow(fid);
    const auto candidates =
        controller_->routing().paths(f.spec.src, f.spec.dst);
    if (candidates.size() < 2) continue;
    // Pick the path with the most snapshot-available bandwidth, discounting
    // the elephant's own current contribution (otherwise a rehomed flow
    // saturates its new path and the next round bounces it back). Hedera has
    // no flow-size knowledge, only the load snapshot.
    net::PathId best;
    double best_avail = -1.0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      double avail = std::numeric_limits<double>::infinity();
      for (net::LinkId l : candidates[i]) {
        const bool own = std::find(f.spec.path.begin(), f.spec.path.end(),
                                   l) != f.spec.path.end();
        const double load = controller_->snapshot_load(l).bps() -
                            (own ? f.rate.bps() : 0.0);
        const double cap = controller_->topology().link(l).capacity.bps();
        avail = std::min(avail, std::max(0.0, cap - load));
      }
      if (avail > best_avail) {
        best_avail = avail;
        best = candidates.id(i);
      }
    }
    if (best.valid() && controller_->path(best) != f.spec.path) {
      controller_->install_path_id(f.spec.src, f.spec.dst, best);
      ++rerouted_;
      PYTHIA_LOG(kDebug, "hedera")
          << "rerouting elephant flow " << fid.value();
    }
  }

  // Keep polling while shuffle traffic remains in flight.
  if (any_shuffle) schedule_round();
}

}  // namespace pythia::sdn
