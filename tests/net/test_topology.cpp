#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

namespace pythia::net {
namespace {

using util::BitsPerSec;

TEST(Topology, AddNodesAndLinks) {
  Topology topo;
  const NodeId h0 = topo.add_host("h0", 0);
  const NodeId s0 = topo.add_switch("s0");
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.node(h0).kind, NodeKind::kHost);
  EXPECT_EQ(topo.node(s0).kind, NodeKind::kSwitch);
  EXPECT_EQ(topo.node(h0).rack, 0);
  EXPECT_EQ(topo.node(s0).rack, -1);

  const LinkId l = topo.add_link(h0, s0, BitsPerSec{1e9});
  EXPECT_EQ(topo.link_count(), 1u);
  EXPECT_EQ(topo.link(l).src, h0);
  EXPECT_EQ(topo.link(l).dst, s0);
  EXPECT_DOUBLE_EQ(topo.link(l).capacity.bps(), 1e9);
}

TEST(Topology, DuplexAddsBothDirections) {
  Topology topo;
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_switch("b");
  topo.add_duplex(a, b, BitsPerSec{1e9});
  EXPECT_EQ(topo.link_count(), 2u);
  EXPECT_TRUE(topo.find_link(a, b).has_value());
  EXPECT_TRUE(topo.find_link(b, a).has_value());
  EXPECT_FALSE(topo.find_link(a, a).has_value());
}

TEST(Topology, HostsAndSwitchesPartition) {
  const Topology topo = make_two_rack({});
  EXPECT_EQ(topo.hosts().size(), 10u);
  // 2 ToRs + 2 wire switches for the two inter-rack cables.
  EXPECT_EQ(topo.switches().size(), 4u);
}

TEST(Topology, TwoRackShape) {
  TwoRackConfig cfg;
  cfg.servers_per_rack = 3;
  cfg.inter_rack_links = 4;
  const Topology topo = make_two_rack(cfg);
  EXPECT_EQ(topo.hosts().size(), 6u);
  EXPECT_EQ(topo.switches().size(), 2u + 4u);
  // Each host: 2 links; each wire: 4 links; plus ToR sides == total degree.
  // 6 hosts*2 + 4 wires*(2 up + 2 down) = 12 + 16 = 28 directed links.
  EXPECT_EQ(topo.link_count(), 28u);
  // Rack assignment: first 3 hosts rack 0, next 3 rack 1.
  const auto hosts = topo.hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_EQ(topo.node(hosts[i]).rack, i < 3 ? 0 : 1);
  }
}

TEST(Topology, LeafSpineShape) {
  LeafSpineConfig cfg;
  cfg.racks = 3;
  cfg.servers_per_rack = 2;
  cfg.spines = 4;
  const Topology topo = make_leaf_spine(cfg);
  EXPECT_EQ(topo.hosts().size(), 6u);
  EXPECT_EQ(topo.switches().size(), 3u + 4u);
  // Links: 6 hosts*2 + 3 tors*4 spines*2 = 12 + 24 = 36.
  EXPECT_EQ(topo.link_count(), 36u);
}

TEST(Topology, ValidatePath) {
  const Topology topo = make_two_rack({});
  const auto hosts = topo.hosts();
  const NodeId src = hosts[0];
  const NodeId dst = hosts[7];  // other rack
  // Build a valid path by hand: host->tor0->wire0->tor1->host.
  const auto out = topo.out_links(src);
  ASSERT_EQ(out.size(), 1u);
  const NodeId tor0 = topo.link(out[0]).dst;
  // Find a wire hop.
  std::vector<LinkId> path{out[0]};
  for (LinkId l : topo.out_links(tor0)) {
    const NodeId mid = topo.link(l).dst;
    if (topo.node(mid).kind != NodeKind::kSwitch) continue;
    if (topo.node(mid).rack != -1) continue;  // want a wire switch
    for (LinkId l2 : topo.out_links(mid)) {
      const NodeId tor1 = topo.link(l2).dst;
      if (auto last = topo.find_link(tor1, dst)) {
        path.push_back(l);
        path.push_back(l2);
        path.push_back(*last);
        break;
      }
    }
    if (path.size() == 4) break;
  }
  ASSERT_EQ(path.size(), 4u);
  EXPECT_TRUE(topo.validate_path(src, dst, path));
  EXPECT_FALSE(topo.validate_path(dst, src, path));  // wrong direction
  std::vector<LinkId> broken{path[0], path[2]};      // gap in the chain
  EXPECT_FALSE(topo.validate_path(src, dst, broken));
  EXPECT_TRUE(topo.validate_path(src, src, {}));     // empty loop-path
  EXPECT_FALSE(topo.validate_path(src, dst, {}));
}

TEST(Topology, FatTreeCanonicalShape) {
  FatTreeConfig cfg;
  cfg.k = 4;
  const Topology topo = make_fat_tree(cfg);
  // k=4: 4 pods × (2 edge + 2 agg) + 4 cores = 20 switches, 16 hosts.
  EXPECT_EQ(topo.hosts().size(), 16u);
  EXPECT_EQ(topo.switches().size(), 20u);
  // Directed links: 16 host + 16 edge-agg + 16 agg-core duplex pairs.
  EXPECT_EQ(topo.link_count(), 2u * (16u + 16u + 16u));
  // Racks are pod·(k/2)+edge, contiguous over hosts.
  const auto hosts = topo.hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_EQ(topo.node(hosts[i]).rack, static_cast<int>(i / 2));
  }
}

TEST(Topology, FatTreeK8Shape) {
  FatTreeConfig cfg;
  cfg.k = 8;
  cfg.hosts_per_edge = 2;  // thinner than canonical k/2 = 4
  const Topology topo = make_fat_tree(cfg);
  // 8 pods × (4 edge + 4 agg) + 16 cores = 80 switches.
  EXPECT_EQ(topo.switches().size(), 80u);
  EXPECT_EQ(topo.hosts().size(), 8u * 4u * 2u);
  // 64 host + 8 pods×16 edge-agg + 8 pods×16 agg-core duplex pairs.
  EXPECT_EQ(topo.link_count(), 2u * (64u + 128u + 128u));
}

TEST(Topology, FatTreeUpDownPathValidates) {
  const Topology topo = make_fat_tree({});
  const auto hosts = topo.hosts();
  const NodeId src = hosts.front();
  const NodeId dst = hosts.back();  // different pod
  // Walk up host→edge→agg→core, then down the same agg index in dst's pod.
  const LinkId up0 = topo.out_links(src)[0];
  const NodeId edge = topo.link(up0).dst;
  NodeId agg;
  LinkId up1{};
  for (LinkId l : topo.out_links(edge)) {
    const Node& n = topo.node(topo.link(l).dst);
    if (n.kind == NodeKind::kSwitch && n.rack == -1) {
      up1 = l;
      agg = topo.link(l).dst;
      break;
    }
  }
  NodeId core;
  LinkId up2{};
  for (LinkId l : topo.out_links(agg)) {
    const Node& n = topo.node(topo.link(l).dst);
    if (n.kind == NodeKind::kSwitch && n.name.starts_with("core-")) {
      up2 = l;
      core = topo.link(l).dst;
      break;
    }
  }
  ASSERT_TRUE(up1.valid());
  ASSERT_TRUE(up2.valid());
  // From the core, find the agg in dst's pod, then the dst edge, then dst.
  const NodeId dst_edge = topo.link(topo.out_links(dst)[0]).dst;
  std::vector<LinkId> path;
  for (LinkId l : topo.out_links(core)) {
    const NodeId agg2 = topo.link(l).dst;
    const auto down_edge = topo.find_link(agg2, dst_edge);
    if (!down_edge) continue;
    const auto last = topo.find_link(dst_edge, dst);
    ASSERT_TRUE(last.has_value());
    path = {up0, up1, up2, l, *down_edge, *last};
    break;
  }
  ASSERT_EQ(path.size(), 6u);
  EXPECT_TRUE(topo.validate_path(src, dst, path));
}

TEST(Topology, FatTreeHostsUnderEdge) {
  const Topology topo = make_fat_tree({});
  const auto hosts = topo.hosts();
  const NodeId edge = topo.link(topo.out_links(hosts[0])[0]).dst;
  const auto under = hosts_under(topo, edge);
  ASSERT_EQ(under.size(), 2u);  // canonical k=4: k/2 hosts per edge
  EXPECT_EQ(under[0], hosts[0]);
  EXPECT_EQ(under[1], hosts[1]);
}

TEST(Topology, AddressEncodesRack) {
  const Topology topo = make_two_rack({});
  const auto hosts = topo.hosts();
  const std::uint32_t a0 = topo.address_of(hosts[0]);
  const std::uint32_t a5 = topo.address_of(hosts[5]);
  EXPECT_EQ(a0 >> 24, 10u);
  EXPECT_EQ((a0 >> 16) & 0xff, 0u);
  EXPECT_EQ((a5 >> 16) & 0xff, 1u);
  EXPECT_NE(a0, topo.address_of(hosts[1]));
}

TEST(Topology, OutLinksDeterministicOrder) {
  const Topology a = make_two_rack({});
  const Topology b = make_two_rack({});
  for (std::size_t n = 0; n < a.node_count(); ++n) {
    const NodeId id{static_cast<std::uint32_t>(n)};
    EXPECT_EQ(a.out_links(id), b.out_links(id));
  }
}

/// Expects `build` to throw std::invalid_argument whose message names
/// `field`.
void expect_rejects(const std::function<void()>& build,
                    const std::string& field) {
  try {
    build();
    ADD_FAILURE() << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TopologyValidation, AddLinkRejectsUnknownEndpointsSelfLoopsAndBadRates) {
  Topology topo;
  const NodeId a = topo.add_host("a", 0);
  const NodeId s = topo.add_switch("s");
  expect_rejects([&] { topo.add_link(a, NodeId{7}, BitsPerSec{1e9}); },
                 "not in the topology");
  expect_rejects([&] { topo.add_link(NodeId{}, s, BitsPerSec{1e9}); },
                 "not in the topology");
  expect_rejects([&] { topo.add_link(s, s, BitsPerSec{1e9}); }, "self-loop");
  for (const double bps : {0.0, -1.0, kNaN, kInf}) {
    expect_rejects([&] { topo.add_link(a, s, BitsPerSec{bps}); },
                   "capacity");
  }
  EXPECT_EQ(topo.link_count(), 0u);
}

TEST(TopologyValidation, TwoRackServersPerRack) {
  TwoRackConfig cfg;
  cfg.servers_per_rack = 0;
  expect_rejects([&] { make_two_rack(cfg); }, "servers_per_rack");
}

TEST(TopologyValidation, TwoRackInterRackLinks) {
  TwoRackConfig cfg;
  cfg.inter_rack_links = 0;
  expect_rejects([&] { make_two_rack(cfg); }, "inter_rack_links");
}

TEST(TopologyValidation, TwoRackHostLink) {
  for (const double bps : {0.0, kNaN}) {
    TwoRackConfig cfg;
    cfg.host_link = BitsPerSec{bps};
    expect_rejects([&] { make_two_rack(cfg); }, "host_link");
  }
}

TEST(TopologyValidation, TwoRackInterRackCapacity) {
  for (const double bps : {0.0, -5e9, kNaN, kInf}) {
    TwoRackConfig cfg;
    cfg.inter_rack_capacity = BitsPerSec{bps};
    expect_rejects([&] { make_two_rack(cfg); }, "inter_rack_capacity");
  }
}

TEST(TopologyValidation, LeafSpineRacks) {
  LeafSpineConfig cfg;
  cfg.racks = 0;
  expect_rejects([&] { make_leaf_spine(cfg); }, "racks");
}

TEST(TopologyValidation, LeafSpineServersPerRack) {
  LeafSpineConfig cfg;
  cfg.servers_per_rack = 0;
  expect_rejects([&] { make_leaf_spine(cfg); }, "servers_per_rack");
}

TEST(TopologyValidation, LeafSpineSpines) {
  LeafSpineConfig cfg;
  cfg.spines = 0;
  expect_rejects([&] { make_leaf_spine(cfg); }, "spines");
}

TEST(TopologyValidation, LeafSpineHostLink) {
  LeafSpineConfig cfg;
  cfg.host_link = BitsPerSec{kNaN};
  expect_rejects([&] { make_leaf_spine(cfg); }, "host_link");
}

TEST(TopologyValidation, LeafSpineUplink) {
  LeafSpineConfig cfg;
  cfg.uplink = BitsPerSec{0.0};
  expect_rejects([&] { make_leaf_spine(cfg); }, "uplink");
}

TEST(TopologyValidation, FatTreeK) {
  for (const std::size_t k : {0UL, 1UL, 3UL, 5UL}) {
    FatTreeConfig cfg;
    cfg.k = k;
    expect_rejects([&] { make_fat_tree(cfg); }, "k must be even");
  }
}

TEST(TopologyValidation, FatTreeHostLink) {
  FatTreeConfig cfg;
  cfg.host_link = BitsPerSec{-1.0};
  expect_rejects([&] { make_fat_tree(cfg); }, "host_link");
}

TEST(TopologyValidation, FatTreeEdgeAgg) {
  FatTreeConfig cfg;
  cfg.edge_agg = BitsPerSec{kInf};
  expect_rejects([&] { make_fat_tree(cfg); }, "edge_agg");
}

TEST(TopologyValidation, FatTreeAggCore) {
  FatTreeConfig cfg;
  cfg.agg_core = BitsPerSec{0.0};
  expect_rejects([&] { make_fat_tree(cfg); }, "agg_core");
}

}  // namespace
}  // namespace pythia::net
