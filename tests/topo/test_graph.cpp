#include "ranycast/topo/graph.hpp"

#include <gtest/gtest.h>

namespace ranycast::topo {
namespace {

constexpr CityId kCity{0};

TEST(Graph, AddAsAssignsSequentialAsns) {
  Graph g;
  const Asn a = g.add_as(AsKind::Stub, kCity, {kCity});
  const Asn b = g.add_as(AsKind::Transit, kCity, {kCity});
  EXPECT_EQ(value(a), 1u);
  EXPECT_EQ(value(b), 2u);
  EXPECT_EQ(g.nodes().size(), 2u);
}

TEST(Graph, FindByAsn) {
  Graph g;
  const Asn a = g.add_as(AsKind::Tier1, kCity, {kCity}, true);
  ASSERT_NE(g.find(a), nullptr);
  EXPECT_EQ(g.find(a)->kind, AsKind::Tier1);
  EXPECT_TRUE(g.find(a)->international);
  EXPECT_EQ(g.find(make_asn(999)), nullptr);
}

TEST(Graph, EmptyFootprintFallsBackToHome) {
  Graph g;
  const Asn a = g.add_as(AsKind::Stub, CityId{5}, {});
  ASSERT_EQ(g.find(a)->footprint.size(), 1u);
  EXPECT_EQ(g.find(a)->footprint[0], CityId{5});
}

TEST(Graph, TransitCreatesReciprocalEdges) {
  Graph g;
  const Asn c = g.add_as(AsKind::Stub, kCity, {kCity});
  const Asn p = g.add_as(AsKind::Transit, kCity, {kCity});
  ASSERT_TRUE(g.add_transit(c, p, {kCity}));
  ASSERT_EQ(g.find(c)->edges.size(), 1u);
  ASSERT_EQ(g.find(p)->edges.size(), 1u);
  EXPECT_EQ(g.find(c)->edges[0].rel, Rel::Provider);
  EXPECT_EQ(g.find(c)->edges[0].neighbor, p);
  EXPECT_EQ(g.find(p)->edges[0].rel, Rel::Customer);
  EXPECT_EQ(g.find(p)->edges[0].neighbor, c);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, PeeringKinds) {
  Graph g;
  const Asn a = g.add_as(AsKind::Transit, kCity, {kCity});
  const Asn b = g.add_as(AsKind::Transit, kCity, {kCity});
  ASSERT_TRUE(g.add_peering(a, b, true, {kCity}));
  EXPECT_EQ(g.find(a)->edges[0].rel, Rel::PeerRouteServer);
  EXPECT_EQ(g.find(b)->edges[0].rel, Rel::PeerRouteServer);
}

TEST(Graph, RejectsDuplicateAndDegenerateEdges) {
  Graph g;
  const Asn a = g.add_as(AsKind::Transit, kCity, {kCity});
  const Asn b = g.add_as(AsKind::Transit, kCity, {kCity});
  EXPECT_TRUE(g.add_transit(a, b, {kCity}));
  EXPECT_FALSE(g.add_transit(a, b, {kCity}));   // duplicate
  EXPECT_FALSE(g.add_peering(a, b, false, {kCity}));  // already related
  EXPECT_FALSE(g.add_transit(a, a, {kCity}));   // self loop
  EXPECT_FALSE(g.add_transit(a, make_asn(99), {kCity}));  // unknown
  EXPECT_FALSE(g.add_peering(a, b, false, {}));  // no interconnect city
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, HasEdgeIsSymmetric) {
  Graph g;
  const Asn a = g.add_as(AsKind::Transit, kCity, {kCity});
  const Asn b = g.add_as(AsKind::Transit, kCity, {kCity});
  g.add_peering(a, b, false, {kCity});
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_TRUE(g.has_edge(b, a));
}

TEST(Graph, IndexOfDense) {
  Graph g;
  const Asn a = g.add_as(AsKind::Stub, kCity, {kCity});
  const Asn b = g.add_as(AsKind::Stub, kCity, {kCity});
  EXPECT_EQ(a, make_asn(1));
  EXPECT_EQ(b, make_asn(2));
  EXPECT_EQ(g.index_of(a), 0u);
  EXPECT_EQ(g.index_of(b), 1u);
  EXPECT_EQ(g.find(b), &g.nodes()[1]);
  // Outside 1..nodes().size(): just past the end, ASN 0 (which would wrap
  // to the largest index) and the invalid sentinel.
  for (const Asn outside : {make_asn(3), make_asn(77), make_asn(0), kInvalidAsn}) {
    EXPECT_FALSE(g.index_of(outside).has_value()) << value(outside);
    EXPECT_EQ(g.find(outside), nullptr) << value(outside);
  }
}

TEST(Rel, ReverseIsInvolution) {
  for (Rel r : {Rel::Customer, Rel::Provider, Rel::PeerPublic, Rel::PeerRouteServer}) {
    EXPECT_EQ(reverse(reverse(r)), r);
  }
  EXPECT_EQ(reverse(Rel::Customer), Rel::Provider);
  EXPECT_EQ(reverse(Rel::PeerPublic), Rel::PeerPublic);
}

TEST(Rel, IsPeerClassifier) {
  EXPECT_TRUE(is_peer(Rel::PeerPublic));
  EXPECT_TRUE(is_peer(Rel::PeerRouteServer));
  EXPECT_FALSE(is_peer(Rel::Customer));
  EXPECT_FALSE(is_peer(Rel::Provider));
}

TEST(Graph, LinkStateTogglesBothDirections) {
  Graph g;
  const Asn a = g.add_as(AsKind::Transit, kCity, {kCity});
  const Asn b = g.add_as(AsKind::Transit, kCity, {kCity});
  ASSERT_TRUE(g.add_peering(a, b, false, {kCity}));
  EXPECT_TRUE(g.link_is_up(a, b));
  EXPECT_TRUE(g.link_is_up(b, a));

  EXPECT_TRUE(g.set_link_state(a, b, false));
  EXPECT_FALSE(g.link_is_up(a, b));
  EXPECT_FALSE(g.link_is_up(b, a));
  // The adjacency survives in the graph for cheap restoration.
  EXPECT_TRUE(g.has_edge(a, b));

  EXPECT_TRUE(g.set_link_state(b, a, true));
  EXPECT_TRUE(g.link_is_up(a, b));
}

TEST(Graph, LinkStateRejectsUnknownAdjacency) {
  Graph g;
  const Asn a = g.add_as(AsKind::Transit, kCity, {kCity});
  const Asn b = g.add_as(AsKind::Transit, kCity, {kCity});
  EXPECT_FALSE(g.set_link_state(a, b, false));          // no edge
  EXPECT_FALSE(g.set_link_state(a, make_asn(99), false));  // unknown AS
  EXPECT_FALSE(g.link_is_up(a, b));
}

TEST(Graph, RouteServerStateTogglesMultilateralPeeringsOnly) {
  Graph g;
  const Asn a = g.add_as(AsKind::Transit, kCity, {kCity});
  const Asn b = g.add_as(AsKind::Transit, kCity, {kCity});
  const Asn c = g.add_as(AsKind::Transit, kCity, {kCity});
  ASSERT_TRUE(g.add_peering(a, b, true, {kCity}));   // via route server
  ASSERT_TRUE(g.add_peering(a, c, false, {kCity}));  // bilateral
  Ixp ixp;
  ixp.name = "IX-TST";
  ixp.city = kCity;
  ixp.members = {a, b, c};
  const auto idx = g.add_ixp(std::move(ixp));

  EXPECT_EQ(g.set_route_server_state(idx, false), 1u);
  EXPECT_FALSE(g.link_is_up(a, b));  // multilateral peering dropped
  EXPECT_TRUE(g.link_is_up(a, c));   // bilateral peering unaffected

  EXPECT_EQ(g.set_route_server_state(idx, true), 1u);
  EXPECT_TRUE(g.link_is_up(a, b));
}

TEST(Graph, IxpRegistry) {
  Graph g;
  const Asn a = g.add_as(AsKind::Transit, kCity, {kCity});
  Ixp ixp;
  ixp.name = "IX-TST";
  ixp.city = kCity;
  ixp.members = {a};
  const auto idx = g.add_ixp(std::move(ixp));
  ASSERT_EQ(g.ixps().size(), 1u);
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(g.ixps()[0].name, "IX-TST");
}

}  // namespace
}  // namespace ranycast::topo
