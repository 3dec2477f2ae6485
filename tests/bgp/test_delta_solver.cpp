// Differential tests for the incremental DeltaSolver: every resolve must be
// byte-identical to a from-scratch solve_anycast over the same mutated
// inputs — on hand-built graphs, on generated worlds, under randomized
// fault soaks, and across fallback/verify/clone paths. The rows a resolve
// reports as changed are held against the routes that differ between two
// scratch solves, and every full solve must report all rows.
#include "ranycast/bgp/delta_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "outcome_equality.hpp"
#include "ranycast/cdn/catalog.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/geo/gazetteer.hpp"
#include "ranycast/lab/lab.hpp"
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

/// Dense indices of the ASes whose route differs between two outcomes:
/// reachability, origin site, class, AS path or geo path — everything a
/// catchment or an RTT reads.
std::vector<std::uint32_t> routes_that_differ(const Graph& g, const RoutingOutcome& a,
                                              const RoutingOutcome& b) {
  std::vector<std::uint32_t> out;
  const auto nodes = g.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Route* x = a.route_for(nodes[i].asn);
    const Route* y = b.route_for(nodes[i].asn);
    const bool differs =
        (x == nullptr) != (y == nullptr) ||
        (x != nullptr && (x->origin_site != y->origin_site || x->cls != y->cls ||
                          x->as_path != y->as_path || x->geo_path != y->geo_path));
    if (differs) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

/// `changed` must list (ascending, without repeats) every row of `moved`.
/// Returns whether it lists exactly those.
bool expect_reports_moved(const ChangedRows& changed, const std::vector<std::uint32_t>& moved,
                          const std::string& what) {
  EXPECT_FALSE(changed.all) << what;
  EXPECT_TRUE(std::is_sorted(changed.rows.begin(), changed.rows.end())) << what;
  EXPECT_EQ(std::adjacent_find(changed.rows.begin(), changed.rows.end()), changed.rows.end())
      << what;
  for (const std::uint32_t x : moved) {
    EXPECT_TRUE(std::binary_search(changed.rows.begin(), changed.rows.end(), x))
        << what << ": the route of row " << x << " changed but was not reported";
  }
  return changed.rows == moved;
}

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
  // Stale content in the out-parameter must be replaced, not appended to.
  ChangedRows changed{.all = false, .rows = {1, 2}};
  const auto after = solver.resolve(0, none, changes, {}, &stats, &changed);
  EXPECT_EQ(stats.full_regions, 1u) << "whole-prefix withdrawal must exceed a quarter of ASes";
  EXPECT_EQ(stats.delta_regions, 0u);
  expect_outcomes_equal(g, after, solve_anycast(g, kCdn, none, kSeed), "fallback");
  EXPECT_EQ(after.reachable_count(), 0u);
  // A fallback solves into a fresh arena: every row is reported.
  EXPECT_TRUE(changed.all);
  EXPECT_TRUE(changed.rows.empty());
  EXPECT_EQ(stats.affected_ases, 0u);
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
  // The reported rows are held against two scratch solves: the previous
  // step's and this step's.
  RoutingOutcome previous = solve_anycast(g, kCdn, origins, kSeed);
  std::size_t incremental = 0;
  std::size_t exact = 0;
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
    DeltaStats stats;
    ChangedRows changed;
    const auto out = solver.resolve(0, origins, changes, link_delta, &stats, &changed);
    RoutingOutcome scratch = solve_anycast(g, kCdn, origins, kSeed);
    const std::string what = "soak step " + std::to_string(step);
    expect_outcomes_equal(g, out, scratch, what);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(changed.all, stats.full_regions == 1) << what;
    if (!changed.all) {
      ++incremental;
      const auto moved = routes_that_differ(g, previous, scratch);
      if (expect_reports_moved(changed, moved, what)) ++exact;
      EXPECT_EQ(stats.affected_ases, changed.rows.size()) << what;
    }
    previous = std::move(scratch);
  }
  EXPECT_GE(incremental, 20u);  // the rest fell back to full solves
  std::printf("changed rows exactly the moved routes on %zu of %zu incremental resolves\n",
              exact, incremental);
  ::testing::Test::RecordProperty("exact_reports", static_cast<int>(exact));
}

TEST(ChangedRows, VerifierSelfHealReportsAll) {
  Fixture fx;
  Graph& g = fx.graph();
  const RoutingOutcome baseline = solve_anycast(g, kCdn, fx.origins, kSeed);
  // A transit link of an origin holder whose loss moves some route.
  std::pair<Asn, Asn> link{kInvalidAsn, kInvalidAsn};
  for (const OriginAttachment& o : fx.origins) {
    for (const topo::Edge& e : g.find(o.neighbor)->edges) {
      if (link.first != kInvalidAsn || (e.rel != Rel::Provider && e.rel != Rel::Customer)) {
        continue;
      }
      ASSERT_TRUE(g.set_link_state(o.neighbor, e.neighbor, false));
      if (!routes_that_differ(g, baseline, solve_anycast(g, kCdn, fx.origins, kSeed)).empty()) {
        link = {o.neighbor, e.neighbor};
      }
      ASSERT_TRUE(g.set_link_state(o.neighbor, e.neighbor, true));
    }
  }
  ASSERT_NE(link.first, kInvalidAsn);

  DeltaSolver solver(g, kCdn, 1, DeltaConfig{.verify_every = 1});
  solver.prime(0, fx.origins, kSeed);
  // The link goes down behind the solver's back: the incremental pass sees
  // an empty delta, the verifier catches the stale outcome and self-heals.
  ASSERT_TRUE(g.set_link_state(link.first, link.second, false));
  DeltaStats stats;
  ChangedRows changed;
  const auto out = solver.resolve(0, fx.origins, {}, {}, &stats, &changed);
  EXPECT_EQ(stats.verified, 1u);
  EXPECT_EQ(stats.mismatches, 1u);
  EXPECT_TRUE(changed.all);
  EXPECT_TRUE(changed.rows.empty());
  expect_outcomes_equal(g, out, solve_anycast(g, kCdn, fx.origins, kSeed), "self-heal");
  ASSERT_TRUE(g.set_link_state(link.first, link.second, true));
}

TEST(ChangedRows, LabListsRouteDiffsOfAPrimeAndNothingForUntouchedRegions) {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  auto laboratory = lab::Lab::create(config);
  lab::DeploymentHandle& handle =
      *laboratory.handle_mut(laboratory.add_deployment(cdn::catalog::imperva6()));
  cdn::Deployment& dep = handle.deployment;
  const std::size_t regions = dep.regions().size();
  ASSERT_GE(regions, 2u);
  // A site announcing to exactly one region: its withdrawal touches that
  // region's prefix only.
  SiteId site = kInvalidSite;
  std::size_t home = regions;
  for (const cdn::Site& s : dep.sites()) {
    std::size_t count = 0;
    for (std::size_t r = 0; r < regions; ++r) count += s.announces(r) ? 1 : 0;
    if (count == 1 && site == kInvalidSite) {
      site = s.id;
      for (std::size_t r = 0; r < regions; ++r) home = s.announces(r) ? r : home;
    }
  }
  ASSERT_NE(site, kInvalidSite);

  const auto origins = [&] {
    std::vector<std::vector<OriginAttachment>> out;
    for (std::size_t r = 0; r < regions; ++r) out.push_back(dep.origins_for_region(r));
    return out;
  };
  const auto delta_between = [&](const auto& before, const auto& after) {
    SolveDelta delta;
    for (std::size_t r = 0; r < regions; ++r) {
      delta.origins.push_back(diff_origin_changes(before[r], after[r]));
    }
    return delta;
  };
  const auto scratch = [&](std::size_t r) {
    return laboratory.solve_origins(dep.asn(), dep.origins_for_region(r), r);
  };

  // Withdraw: the home region is touched for the first time and primed. The
  // prime's fresh arena renumbers every path, so the lab lists the rows
  // whose route content differs from the outcome the prime replaced.
  const auto announced = origins();
  const RoutingOutcome announced_home = scratch(home);
  const auto undo = dep.withdraw_site(site);
  std::vector<ChangedRows> changed{ChangedRows{.all = true, .rows = {7}}};
  const DeltaStats primed =
      laboratory.resolve_delta(handle, delta_between(announced, origins()), &changed);
  ASSERT_EQ(changed.size(), regions);
  for (std::size_t r = 0; r < regions; ++r) {
    EXPECT_FALSE(changed[r].all) << "region " << r;
    if (r != home) {
      EXPECT_TRUE(changed[r].rows.empty()) << "region " << r;
    }
  }
  const auto withdrawn_moved =
      routes_that_differ(laboratory.world().graph, announced_home, scratch(home));
  EXPECT_FALSE(withdrawn_moved.empty());
  EXPECT_TRUE(expect_reports_moved(changed[home], withdrawn_moved, "prime"));
  // The solver's accounting is unchanged: a primed region is a full one
  // and counts no affected rows.
  EXPECT_EQ(primed.full_regions, 1u);
  EXPECT_EQ(primed.affected_ases, 0u);

  // Restore: the home region is primed now and reports the rows that moved.
  const auto withdrawn = origins();
  const RoutingOutcome withdrawn_home = scratch(home);
  dep.restore_site(site, undo);
  const DeltaStats stats =
      laboratory.resolve_delta(handle, delta_between(withdrawn, origins()), &changed);
  ASSERT_EQ(changed.size(), regions);
  EXPECT_EQ(stats.regions, 1u);
  for (std::size_t r = 0; r < regions; ++r) {
    if (r == home) continue;
    EXPECT_FALSE(changed[r].all) << "region " << r;
    EXPECT_TRUE(changed[r].rows.empty()) << "region " << r;
  }
  const auto moved = routes_that_differ(laboratory.world().graph, withdrawn_home, scratch(home));
  EXPECT_FALSE(moved.empty());
  expect_reports_moved(changed[home], moved, "restore");
  EXPECT_EQ(stats.affected_ases, changed[home].rows.size());
  expect_outcomes_equal(laboratory.world().graph, handle.outcomes[home], announced_home,
                        "restored");
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
