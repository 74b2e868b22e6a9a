// Independent oracle for net::RoutingGraph: a direct host-level call of the
// reference Yen (yen_reference.hpp: Dijkstra spur searches, hashed dedupe)
// for every ordered host pair under one banned set. The table under test
// reaches its candidates another way — a BFS Yen, lazily, through the
// stub-host decomposition, kept current by incremental rebuilds — so a bug
// in any of those shows up here as a mismatch rather than being shared by
// both sides of a comparison.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/yen_reference.hpp"
#include "sim/snapshot.hpp"

namespace pythia::net::oracle {

struct Oracle {
  std::vector<NodeId> hosts;
  std::vector<std::vector<Path>> paths;  // slot = src index * H + dst index
  std::vector<std::size_t> pairs_using;  // link id → pairs touching it

  [[nodiscard]] const std::vector<Path>& pair(NodeId src, NodeId dst) const {
    const auto index = [this](NodeId n) {
      return static_cast<std::size_t>(
          std::find(hosts.begin(), hosts.end(), n) - hosts.begin());
    };
    return paths[index(src) * hosts.size() + index(dst)];
  }
};

inline Oracle run_oracle(const Topology& topo, std::size_t k,
                         const std::unordered_set<LinkId>& banned) {
  Oracle o;
  o.hosts = topo.hosts();
  const std::size_t H = o.hosts.size();
  o.paths.resize(H * H);
  o.pairs_using.assign(topo.link_count(), 0);
  for (std::size_t a = 0; a < H; ++a) {
    for (std::size_t b = 0; b < H; ++b) {
      if (a == b) continue;
      std::vector<LinkId> touched;
      o.paths[a * H + b] = reference::k_shortest_paths(
          topo, o.hosts[a], o.hosts[b], k, banned, &touched);
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      for (LinkId l : touched) ++o.pairs_using[l.value()];
    }
  }
  return o;
}

/// run_oracle memoized per banned set, for churn suites that revisit sets.
class OracleCache {
 public:
  OracleCache(const Topology& topo, std::size_t k) : topo_(&topo), k_(k) {}

  const Oracle& get(const std::unordered_set<LinkId>& banned) {
    std::vector<LinkId> key(banned.begin(), banned.end());
    std::sort(key.begin(), key.end());
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_.emplace(std::move(key), run_oracle(*topo_, k_, banned))
               .first;
    }
    return it->second;
  }

 private:
  const Topology* topo_;
  std::size_t k_;
  std::map<std::vector<LinkId>, Oracle> cache_;
};

/// The routing snapshot section RoutingGraph::encode_state must write for a
/// table of `k` candidates per pair under `banned`: k, then the sorted
/// banned set (docs/checkpoint.md, "The routing section"). The candidates
/// are a function of these and the topology, so they are not encoded.
inline std::vector<std::uint8_t> oracle_state(
    std::size_t k, const std::unordered_set<LinkId>& banned) {
  sim::StateEncoder enc;
  enc.put_u32(RoutingGraph::kStateVersion);
  enc.put_u64(k);
  std::vector<LinkId> ban(banned.begin(), banned.end());
  std::sort(ban.begin(), ban.end());
  enc.put_u32(static_cast<std::uint32_t>(ban.size()));
  for (LinkId l : ban) enc.put_u32(l.value());
  return enc.take();
}

/// One pair's candidates equal `want`, link for link.
inline void expect_pair_matches(const RoutingGraph& rg, NodeId src,
                                NodeId dst, const std::vector<Path>& want,
                                const std::string& what) {
  const auto got = rg.paths(src, dst);
  ASSERT_EQ(got.size(), want.size())
      << what << ": pair " << src.value() << "->" << dst.value();
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].to_vector(), want[i].links)
        << what << ": pair " << src.value() << "->" << dst.value()
        << " path " << i;
  }
}

/// Every pair's candidates equal the oracle's; with `check_index`, so does
/// pairs_using(l) for every link (queried after the candidates, so the
/// graph is fully materialized by then).
inline void expect_matches_oracle(const RoutingGraph& rg, const Oracle& o,
                                  bool check_index, const std::string& what) {
  const std::size_t H = o.hosts.size();
  for (std::size_t a = 0; a < H; ++a) {
    for (std::size_t b = 0; b < H; ++b) {
      if (a == b) continue;
      ASSERT_NO_FATAL_FAILURE(expect_pair_matches(
          rg, o.hosts[a], o.hosts[b], o.paths[a * H + b], what));
    }
  }
  if (!check_index) return;
  for (std::size_t l = 0; l < o.pairs_using.size(); ++l) {
    ASSERT_EQ(rg.pairs_using(LinkId{static_cast<std::uint32_t>(l)}),
              o.pairs_using[l])
        << what << ": link " << l;
  }
}

}  // namespace pythia::net::oracle
