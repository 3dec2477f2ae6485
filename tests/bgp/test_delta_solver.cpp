// Differential tests for the incremental DeltaSolver: every resolve must be
// byte-identical to a from-scratch solve_anycast over the same mutated
// inputs — on hand-built graphs, on generated worlds, under randomized
// fault soaks, and across fallback/verify/clone paths.
#include "ranycast/bgp/delta_solver.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "outcome_equality.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/geo/gazetteer.hpp"
#include "ranycast/topo/generator.hpp"

namespace ranycast::bgp {
namespace {

using topo::AsKind;
using topo::Graph;
using topo::Rel;

constexpr Asn kCdn = make_asn(65000);
constexpr std::uint64_t kSeed = 2023;

CityId city(const char* iata) { return *geo::Gazetteer::world().find_by_iata(iata); }

OriginAttachment attach(SiteId site, CityId c, Asn neighbor, Rel rel = Rel::Customer) {
  return OriginAttachment{site, c, neighbor, rel, true};
}

/// A small world with IXPs, used by the generated-topology tests. The
/// origins attach the CDN at a handful of transit ASes spread over the
/// graph, plus one route-server peering.
struct Fixture {
  topo::World world;
  std::vector<OriginAttachment> origins;

  explicit Fixture(int stubs = 260) {
    topo::GeneratorParams params;
    params.seed = 7;
    params.stub_count = stubs;
    params.tier1_count = 8;
    params.international_transits = 12;
    params.ixp_count = 6;
    world = topo::generate_world(params);
    const auto nodes = world.graph.nodes();
    std::uint16_t site = 0;
    for (std::size_t i = 0; i < nodes.size() && site < 5; ++i) {
      if (nodes[i].kind != AsKind::Transit) continue;
      if (i % 7 != 0) continue;  // spread the sites out
      origins.push_back(attach(SiteId{site}, nodes[i].home_city, nodes[i].asn));
      ++site;
    }
    // One peer origination at an IXP member, exercising stage 2.
    if (!world.graph.ixps().empty() && !world.graph.ixps()[0].members.empty()) {
      const topo::Ixp& ixp = world.graph.ixps()[0];
      origins.push_back(
          attach(SiteId{site}, ixp.city, ixp.members[0], Rel::PeerRouteServer));
    }
    EXPECT_GE(origins.size(), 4u);
  }

  Graph& graph() { return world.graph; }
};

TEST(DeltaSolver, PrimeMatchesFullSolve) {
  Fixture fx;
  DeltaSolver solver(fx.graph(), kCdn, 1);
  DeltaStats stats;
  const auto primed = solver.prime(0, fx.origins, kSeed, &stats);
  const auto scratch = solve_anycast(fx.graph(), kCdn, fx.origins, kSeed);
  expect_outcomes_equal(fx.graph(), primed, scratch, "prime");
  EXPECT_EQ(stats.full_regions, 1u);
  EXPECT_TRUE(solver.primed(0));
  EXPECT_FALSE(solver.primed(1));
}

TEST(DeltaSolver, ResolveOfUnprimedRegionThrows) {
  // Only prime() learns a region's tie-break seed; resolving a region that
  // was never primed must not silently solve it with a default seed.
  Fixture fx;
  DeltaSolver solver(fx.graph(), kCdn, 2);
  solver.prime(0, fx.origins, kSeed);
  EXPECT_THROW(solver.resolve(1, fx.origins, {}, {}), std::logic_error);
  EXPECT_FALSE(solver.primed(1));
  // A clone carries the same gap.
  EXPECT_THROW(solver.clone()->resolve(1, fx.origins, {}, {}), std::logic_error);
  EXPECT_NO_THROW(solver.resolve(0, fx.origins, {}, {}));
}

TEST(DeltaSolver, EmptyDeltaChangesNothing) {
  Fixture fx;
  DeltaSolver solver(fx.graph(), kCdn, 1);
  solver.prime(0, fx.origins, kSeed);
  DeltaStats stats;
  const auto out = solver.resolve(0, fx.origins, {}, {}, &stats);
  const auto scratch = solve_anycast(fx.graph(), kCdn, fx.origins, kSeed);
  expect_outcomes_equal(fx.graph(), out, scratch, "empty delta");
  EXPECT_EQ(stats.delta_regions, 1u);
  EXPECT_EQ(stats.affected_ases, 0u);
  EXPECT_EQ(stats.full_regions, 0u);
}

TEST(DeltaSolver, TransitLinkFlapMatchesFullSolve) {
  Fixture fx;
  Graph& g = fx.graph();
  DeltaSolver solver(g, kCdn, 1);
  solver.prime(0, fx.origins, kSeed);

  // Down the first origin holder's first transit adjacency — squarely in
  // the hot part of the route tree.
  const auto holder = g.index_of(fx.origins[0].neighbor);
  ASSERT_TRUE(holder.has_value());
  Asn other = kInvalidAsn;
  for (const topo::Edge& e : g.nodes()[*holder].edges) {
    if (e.rel == Rel::Provider || e.rel == Rel::Customer) {
      other = e.neighbor;
      break;
    }
  }
  ASSERT_NE(other, kInvalidAsn);

  ASSERT_TRUE(g.set_link_state(fx.origins[0].neighbor, other, false));
  const LinkDelta down{fx.origins[0].neighbor, other, false};
  DeltaStats stats;
  const auto after_down = solver.resolve(0, fx.origins, {}, {&down, 1}, &stats);
  expect_outcomes_equal(g, after_down, solve_anycast(g, kCdn, fx.origins, kSeed),
                        "link down");
  EXPECT_EQ(stats.delta_regions + stats.full_regions, 1u);

  ASSERT_TRUE(g.set_link_state(fx.origins[0].neighbor, other, true));
  const LinkDelta up{fx.origins[0].neighbor, other, true};
  const auto after_up = solver.resolve(0, fx.origins, {}, {&up, 1});
  expect_outcomes_equal(g, after_up, solve_anycast(g, kCdn, fx.origins, kSeed),
                        "link up");
}

TEST(DeltaSolver, SiteWithdrawAndRestoreMatchFullSolve) {
  Fixture fx;
  Graph& g = fx.graph();
  DeltaSolver solver(g, kCdn, 1);
  solver.prime(0, fx.origins, kSeed);

  // Withdraw one site's origination.
  std::vector<OriginAttachment> without = fx.origins;
  without.erase(without.begin() + 1);
  const auto withdraw = diff_origin_changes(fx.origins, without);
  ASSERT_EQ(withdraw.size(), 1u);
  EXPECT_FALSE(withdraw[0].announce);
  DeltaStats stats;
  const auto after = solver.resolve(0, without, withdraw, {}, &stats);
  expect_outcomes_equal(g, after, solve_anycast(g, kCdn, without, kSeed), "withdraw");
  EXPECT_GT(stats.affected_ases + stats.full_regions, 0u);

  // Restore it (announcement lands at the end, in after-order).
  const auto restore = diff_origin_changes(without, fx.origins);
  ASSERT_EQ(restore.size(), 1u);
  EXPECT_TRUE(restore[0].announce);
  const auto back = solver.resolve(0, fx.origins, restore, {});
  expect_outcomes_equal(g, back, solve_anycast(g, kCdn, fx.origins, kSeed), "restore");
}

TEST(DeltaSolver, RouteServerOutageMatchesFullSolve) {
  Fixture fx;
  Graph& g = fx.graph();
  ASSERT_FALSE(g.ixps().empty());
  DeltaSolver solver(g, kCdn, 1);
  solver.prime(0, fx.origins, kSeed);

  const auto pairs = g.route_server_peerings(0);
  g.set_route_server_state(0, false);
  std::vector<LinkDelta> links;
  for (const auto& [a, b] : pairs) links.push_back(LinkDelta{a, b, false});
  const auto after = solver.resolve(0, fx.origins, {}, links);
  expect_outcomes_equal(g, after, solve_anycast(g, kCdn, fx.origins, kSeed),
                        "route-server down");

  g.set_route_server_state(0, true);
  for (LinkDelta& l : links) l.up = true;
  const auto back = solver.resolve(0, fx.origins, {}, links);
  expect_outcomes_equal(g, back, solve_anycast(g, kCdn, fx.origins, kSeed),
                        "route-server up");
}

TEST(DeltaSolver, RegionalWithdrawalFallsBackAndStillMatches) {
  Fixture fx;
  Graph& g = fx.graph();
  DeltaSolver solver(g, kCdn, 1);
  solver.prime(0, fx.origins, kSeed);

  const std::vector<OriginAttachment> none;
  const auto changes = diff_origin_changes(fx.origins, none);
  ASSERT_EQ(changes.size(), fx.origins.size());
  DeltaStats stats;
  const auto after = solver.resolve(0, none, changes, {}, &stats);
  EXPECT_EQ(stats.full_regions, 1u) << "whole-prefix withdrawal must exceed a quarter of ASes";
  EXPECT_EQ(stats.delta_regions, 0u);
  expect_outcomes_equal(g, after, solve_anycast(g, kCdn, none, kSeed), "fallback");
  EXPECT_EQ(after.reachable_count(), 0u);
}

TEST(DeltaSolver, SampledVerifyRunsClean) {
  Fixture fx;
  Graph& g = fx.graph();
  DeltaSolver solver(g, kCdn, 1, DeltaConfig{.verify_every = 1});
  solver.prime(0, fx.origins, kSeed);

  std::vector<OriginAttachment> without = fx.origins;
  without.pop_back();
  DeltaStats stats;
  solver.resolve(0, without, diff_origin_changes(fx.origins, without), {}, &stats);
  EXPECT_EQ(stats.verified, 1u);
  EXPECT_EQ(stats.mismatches, 0u);
}

TEST(DeltaSolver, CloneDivergesIndependently) {
  Fixture fx;
  Graph& g = fx.graph();
  DeltaSolver solver(g, kCdn, 1);
  solver.prime(0, fx.origins, kSeed);
  const auto clone = solver.clone();

  // Mutate through the clone only.
  std::vector<OriginAttachment> without = fx.origins;
  without.erase(without.begin());
  const auto after =
      clone->resolve(0, without, diff_origin_changes(fx.origins, without), {});
  expect_outcomes_equal(g, after, solve_anycast(g, kCdn, without, kSeed), "clone");

  // The original still answers for the unmutated origin set.
  const auto original = solver.resolve(0, fx.origins, {}, {});
  expect_outcomes_equal(g, original, solve_anycast(g, kCdn, fx.origins, kSeed),
                        "original after clone");
}

TEST(DeltaSolver, RandomizedFaultSoakMatchesFullSolveEveryStep) {
  Fixture fx(320);
  Graph& g = fx.graph();
  DeltaSolver solver(g, kCdn, 1);
  solver.prime(0, fx.origins, kSeed);

  // Collect candidate transit links near the route tree to flap.
  std::vector<std::pair<Asn, Asn>> links;
  for (const topo::AsNode& node : g.nodes()) {
    for (const topo::Edge& e : node.edges) {
      if (e.rel == Rel::Provider && links.size() < 64) {
        links.emplace_back(node.asn, e.neighbor);
      }
    }
  }
  ASSERT_FALSE(links.empty());

  Rng rng{0xD17A};
  std::vector<OriginAttachment> origins = fx.origins;
  std::vector<bool> link_up(links.size(), true);
  std::vector<bool> origin_live(fx.origins.size(), true);
  for (int step = 0; step < 40; ++step) {
    std::vector<LinkDelta> link_delta;
    std::vector<OriginChange> changes;
    const std::vector<OriginAttachment> before = origins;
    if (rng() % 2 == 0) {
      const std::size_t i = rng() % links.size();
      link_up[i] = !link_up[i];
      ASSERT_TRUE(g.set_link_state(links[i].first, links[i].second, link_up[i]));
      link_delta.push_back(LinkDelta{links[i].first, links[i].second, link_up[i]});
    } else {
      const std::size_t i = rng() % fx.origins.size();
      origin_live[i] = !origin_live[i];
      origins.clear();
      for (std::size_t k = 0; k < fx.origins.size(); ++k) {
        if (origin_live[k]) origins.push_back(fx.origins[k]);
      }
      changes = diff_origin_changes(before, origins);
    }
    const auto out = solver.resolve(0, origins, changes, link_delta);
    const auto scratch = solve_anycast(g, kCdn, origins, kSeed);
    expect_outcomes_equal(g, out, scratch, "soak step");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DeltaSolver, HandBuiltPeerPreferenceDelta) {
  // X prefers its customer route; when the customer link dies it must fall
  // to the peer route — re-decided incrementally.
  Graph g;
  const CityId ams = city("AMS");
  const Asn x = g.add_as(AsKind::Transit, ams, {ams});
  const Asn c = g.add_as(AsKind::Transit, ams, {ams});
  const Asn p = g.add_as(AsKind::Transit, ams, {ams});
  g.add_transit(c, x, {ams});
  g.add_peering(x, p, false, {ams});
  const std::vector<OriginAttachment> origins = {
      attach(SiteId{0}, ams, c),
      attach(SiteId{1}, ams, p),
  };

  DeltaSolver solver(g, kCdn, 1);
  solver.prime(0, origins, kSeed);
  ASSERT_TRUE(g.set_link_state(c, x, false));
  const LinkDelta down{c, x, false};
  const auto out = solver.resolve(0, origins, {}, {&down, 1});
  expect_outcomes_equal(g, out, solve_anycast(g, kCdn, origins, kSeed), "peer fallback");
  ASSERT_NE(out.route_for(x), nullptr);
  EXPECT_EQ(out.route_for(x)->origin_site, SiteId{1});
  EXPECT_EQ(out.route_for(x)->cls, RouteClass::PeerPublic);
}

TEST(DiffOriginChanges, WithdrawalsThenAnnouncementsInOrder) {
  const CityId ams = city("AMS");
  const CityId fra = city("FRA");
  const std::vector<OriginAttachment> before = {
      attach(SiteId{0}, ams, make_asn(10)),
      attach(SiteId{1}, fra, make_asn(11)),
      attach(SiteId{2}, ams, make_asn(12)),
  };
  const std::vector<OriginAttachment> after = {
      attach(SiteId{1}, fra, make_asn(11)),
      attach(SiteId{3}, fra, make_asn(13)),
      attach(SiteId{4}, ams, make_asn(14)),
  };
  const auto changes = diff_origin_changes(before, after);
  ASSERT_EQ(changes.size(), 4u);
  EXPECT_FALSE(changes[0].announce);
  EXPECT_EQ(changes[0].origin.site, SiteId{0});
  EXPECT_FALSE(changes[1].announce);
  EXPECT_EQ(changes[1].origin.site, SiteId{2});
  EXPECT_TRUE(changes[2].announce);
  EXPECT_EQ(changes[2].origin.site, SiteId{3});
  EXPECT_TRUE(changes[3].announce);
  EXPECT_EQ(changes[3].origin.site, SiteId{4});

  EXPECT_TRUE(diff_origin_changes(before, before).empty());
}

}  // namespace
}  // namespace ranycast::bgp
