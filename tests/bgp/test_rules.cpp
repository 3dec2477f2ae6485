// An independent check of the route-selection rules the steady-state solver
// and the convergence simulator share (bgp/rules.hpp). The sim-versus-solver
// equality tests compare two callers of the same rules, so they catch a
// wrong propagation but not a wrong rule. Here every expected value comes
// from hash_combine, Gazetteer::distance and the edge city lists of a
// hand-sized graph, never from rules.hpp, and each is asserted on
// solve_anycast, on a DeltaSolver resolve and on a quiesced PrefixSim.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "ranycast/bgp/delta_solver.hpp"
#include "ranycast/converge/sim.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/geo/gazetteer.hpp"

namespace ranycast::bgp {
namespace {

using topo::AsKind;
using topo::Graph;
using topo::Rel;

constexpr Asn kCdn = make_asn(65000);
constexpr std::uint64_t kSeed = 11;

CityId city(const char* iata) { return *geo::Gazetteer::world().find_by_iata(iata); }
double km(CityId a, CityId b) { return geo::Gazetteer::world().distance(a, b).km; }

OriginAttachment attach(std::uint16_t site, CityId c, Asn neighbor, Rel rel = Rel::Customer) {
  return OriginAttachment{SiteId{site}, c, neighbor, rel, true};
}

const topo::AsNode& node(const Graph& g, Asn asn) { return *g.find(asn); }

/// The interconnection cities of the a->b adjacency.
const std::vector<CityId>& edge_cities(const Graph& g, Asn a, Asn b) {
  for (const topo::Edge& e : node(g, a).edges) {
    if (e.neighbor == b) return e.cities;
  }
  ADD_FAILURE() << "no edge";
  static const std::vector<CityId> kNone;
  return kNone;
}

/// The city of `cities` nearest `from`, the first of equals.
CityId nearest(CityId from, const std::vector<CityId>& cities) {
  return *std::min_element(cities.begin(), cities.end(), [&](CityId x, CityId y) {
    return km(from, x) < km(from, y);
  });
}

/// The tie-break hash chain: the origination folds in the seed, the site
/// city and the CDN; each export folds in the exporter.
std::uint64_t origin_hash(std::uint64_t seed, CityId site_city) {
  return hash_combine(hash_combine(seed, value(site_city)), value(kCdn));
}
std::uint64_t fold(std::uint64_t h, Asn asn) { return hash_combine(h, value(asn)); }

/// The selection one plane made at one AS.
struct Seen {
  SiteId site{kInvalidSite};
  RouteClass cls{RouteClass::Provider};
  std::size_t len{0};
  CityId last_city{kInvalidCity};
  double ingress_km{0.0};
  std::uint64_t tiebreak{0};
};

constexpr std::array<const char*, 3> kPlanes = {"solve_anycast", "DeltaSolver", "PrefixSim"};

/// The three planes over one graph and origin set. The DeltaSolver is
/// primed without the last origination, which its resolve then announces.
class Planes {
 public:
  Planes(const Graph& g, std::vector<OriginAttachment> origins, std::uint64_t seed = kSeed)
      : g_(g),
        origins_(std::move(origins)),
        full_(solve_anycast(g, kCdn, origins_, seed)),
        delta_(g, kCdn, 1),
        sim_(g, kCdn, seed, converge::Config{}) {
    const std::span<const OriginAttachment> all(origins_);
    delta_.prime(0, all.first(all.size() - 1), seed);
    const OriginChange announce{true, origins_.back()};
    DeltaStats stats;
    resolved_.emplace(delta_.resolve(0, all, {&announce, 1}, {}, &stats));
    EXPECT_EQ(stats.delta_regions, 1u) << "the resolve fell back to a full solve";
    EXPECT_FALSE(sim_.cold_start(all).oscillating);
  }

  /// Each plane's selection at `asn`, in kPlanes order.
  std::array<std::optional<Seen>, 3> at(Asn asn) const {
    std::array<std::optional<Seen>, 3> out;
    const RoutingOutcome* outcomes[] = {&full_, &*resolved_};
    for (std::size_t k = 0; k < 2; ++k) {
      if (const Route* r = outcomes[k]->route_for(asn)) {
        out[k] = Seen{r->origin_site,     r->cls,        r->path_length(),
                      r->ingress_city(), r->ingress_km, r->tiebreak};
      }
    }
    if (const auto a = sim_.route_view(*g_.index_of(asn))) {
      out[2] = Seen{a->site, a->cls, a->len, a->last_city, a->ingress_km, a->tiebreak};
    }
    return out;
  }

 private:
  const Graph& g_;
  std::vector<OriginAttachment> origins_;
  RoutingOutcome full_;
  DeltaSolver delta_;
  std::optional<RoutingOutcome> resolved_;
  converge::PrefixSim sim_;
};

void expect_route(const Planes& planes, Asn asn, const Seen& want) {
  const auto seen = planes.at(asn);
  for (std::size_t k = 0; k < seen.size(); ++k) {
    SCOPED_TRACE(kPlanes[k]);
    ASSERT_TRUE(seen[k].has_value());
    EXPECT_EQ(seen[k]->site, want.site);
    EXPECT_EQ(seen[k]->cls, want.cls);
    EXPECT_EQ(seen[k]->len, want.len);
    EXPECT_EQ(seen[k]->last_city, want.last_city);
    EXPECT_EQ(seen[k]->ingress_km, want.ingress_km);
    EXPECT_EQ(seen[k]->tiebreak, want.tiebreak);
  }
}

void expect_no_route(const Planes& planes, Asn asn) {
  const auto seen = planes.at(asn);
  for (std::size_t k = 0; k < seen.size(); ++k) {
    EXPECT_FALSE(seen[k].has_value()) << kPlanes[k];
  }
}

TEST(RouteRules, SeedCustomerProviderDescentChain) {
  // CDN -(LHR site)-> a -> provider p -> p's customer s. The a-p and p-s
  // adjacencies interconnect in several cities; the route leaves each AS
  // at the one nearest where it entered.
  const CityId lhr = city("LHR");
  const CityId fra = city("FRA");
  const CityId cdg = city("CDG");
  const CityId ams = city("AMS");
  const CityId bru = city("BRU");
  Graph g;
  const Asn a = g.add_as(AsKind::Transit, ams, {ams, lhr});
  const Asn p = g.add_as(AsKind::Tier1, fra, {fra, cdg, ams, bru});
  const Asn s = g.add_as(AsKind::Stub, bru, {bru, fra});
  g.add_transit(a, p, {fra, cdg, ams});
  g.add_transit(s, p, {fra, bru});
  const Planes planes(g, {attach(0, lhr, a)});

  const std::uint64_t h_a = origin_hash(kSeed, lhr);
  expect_route(planes, a,
               {SiteId{0}, RouteClass::Customer, 1, lhr, km(ams, lhr), fold(h_a, a)});

  const CityId into_p = nearest(lhr, edge_cities(g, a, p));
  EXPECT_NE(into_p, edge_cities(g, a, p).front());  // the scan, not the first city
  const std::uint64_t h_p = fold(h_a, a);
  expect_route(planes, p,
               {SiteId{0}, RouteClass::Customer, 2, into_p, km(fra, into_p), fold(h_p, p)});

  const CityId into_s = nearest(into_p, edge_cities(g, p, s));
  const std::uint64_t h_s = fold(h_p, p);
  expect_route(planes, s,
               {SiteId{0}, RouteClass::Provider, 3, into_s, km(bru, into_s), fold(h_s, s)});
}

TEST(RouteRules, ClassBeatsLength) {
  // x holds a customer route of length 2 against a peer origination of
  // length 1, and a public-peer route of length 2 against a route-server
  // origination of length 1: the higher class wins both (paper §5.4).
  const CityId ams = city("AMS");
  const CityId fra = city("FRA");
  {
    Graph g;
    const Asn x = g.add_as(AsKind::Transit, ams, {ams, fra});
    const Asn c = g.add_as(AsKind::Stub, fra, {fra});
    g.add_transit(c, x, {fra});
    const Planes planes(g, {attach(0, ams, x, Rel::PeerPublic), attach(1, fra, c)});
    const std::uint64_t h = fold(origin_hash(kSeed, fra), c);
    expect_route(planes, x, {SiteId{1}, RouteClass::Customer, 2, fra, km(ams, fra), fold(h, x)});
  }
  {
    Graph g;
    const Asn x = g.add_as(AsKind::Transit, ams, {ams, fra});
    const Asn y = g.add_as(AsKind::Transit, fra, {fra});
    g.add_peering(x, y, /*via_route_server=*/false, {fra});
    const Planes planes(g, {attach(0, ams, x, Rel::PeerRouteServer), attach(1, fra, y)});
    const std::uint64_t h = fold(origin_hash(kSeed, fra), y);
    expect_route(planes, x,
                 {SiteId{1}, RouteClass::PeerPublic, 2, fra, km(ams, fra), fold(h, x)});
  }
}

/// x (home AMS) learns two routes from its peers y1 and y2, which the CDN
/// reaches as their customer: y1 directly at `site1_city`, y2 either
/// directly at `site2_city` or (`longer`) through y2's customer z. Peer
/// routes are compared across candidates by the preference order proper.
struct TwoPeerRoutes {
  Graph g;
  Asn x, y1, y2, z;
  std::vector<OriginAttachment> origins;

  TwoPeerRoutes(CityId y1_city, CityId y2_city, bool longer) {
    const CityId ams = city("AMS");
    x = g.add_as(AsKind::Transit, ams, {ams, y1_city, y2_city});
    y1 = g.add_as(AsKind::Transit, y1_city, {y1_city});
    y2 = g.add_as(AsKind::Transit, y2_city, {y2_city});
    z = g.add_as(AsKind::Stub, y2_city, {y2_city});
    g.add_peering(x, y1, false, {y1_city});
    g.add_peering(x, y2, false, {y2_city});
    g.add_transit(z, y2, {y2_city});
    origins = {attach(0, y1_city, y1), attach(1, y2_city, longer ? z : y2)};
  }

  /// The tie-break hash of the route via y1 (site 0) or y2 (site 1) at x.
  std::uint64_t tiebreak(std::uint64_t seed, bool via_y1, bool longer) const {
    if (via_y1) return fold(fold(origin_hash(seed, node(g, y1).home_city), y1), x);
    std::uint64_t h = origin_hash(seed, node(g, y2).home_city);
    if (longer) h = fold(h, z);
    return fold(fold(h, y2), x);
  }
};

TEST(RouteRules, LengthBeatsHotPotato) {
  // Via y1: length 2, received in SIN. Via z and y2: length 3, received at
  // home. The shorter route wins.
  const CityId ams = city("AMS");
  const CityId sin = city("SIN");
  TwoPeerRoutes f(sin, ams, /*longer=*/true);
  const Planes planes(f.g, f.origins);
  expect_route(planes, f.x,
               {SiteId{0}, RouteClass::PeerPublic, 2, sin, km(ams, sin),
                f.tiebreak(kSeed, true, true)});
}

TEST(RouteRules, HotPotatoBeatsHash) {
  // Two peer routes of length 2, received in AMS (home) and in FRA. Pick a
  // seed under which the hash prefers the FRA route: the nearer ingress
  // must still win.
  const CityId ams = city("AMS");
  const CityId fra = city("FRA");
  TwoPeerRoutes f(ams, fra, /*longer=*/false);
  std::uint64_t seed = 1;
  while (f.tiebreak(seed, false, false) > f.tiebreak(seed, true, false)) ++seed;
  const Planes planes(f.g, f.origins, seed);
  expect_route(planes, f.x,
               {SiteId{0}, RouteClass::PeerPublic, 2, ams, km(ams, ams),
                f.tiebreak(seed, true, false)});
}

TEST(RouteRules, HashDecidesFullTies) {
  // Two peer routes of length 2, both received in FRA: the lower hash wins,
  // under seeds that order the two routes both ways.
  const CityId ams = city("AMS");
  const CityId fra = city("FRA");
  TwoPeerRoutes f(fra, fra, /*longer=*/false);
  bool won[2] = {false, false};
  for (std::uint64_t seed = 1; !(won[0] && won[1]); ++seed) {
    const std::uint64_t via_y1 = f.tiebreak(seed, true, false);
    const std::uint64_t via_y2 = f.tiebreak(seed, false, false);
    const bool y1_wins = via_y1 < via_y2;
    if (won[y1_wins ? 0 : 1]) continue;
    won[y1_wins ? 0 : 1] = true;
    const Planes planes(f.g, f.origins, seed);
    expect_route(planes, f.x,
                 {SiteId{y1_wins ? std::uint16_t{0} : std::uint16_t{1}}, RouteClass::PeerPublic,
                  2, fra, km(ams, fra), std::min(via_y1, via_y2)});
  }
}

TEST(RouteRules, ProviderSideOriginationSeedsNothing) {
  // The CDN sells transit to d and buys it from u: only u's side seeds a
  // route, so d (and its customer e) learn it only through u.
  const CityId ams = city("AMS");
  const CityId fra = city("FRA");
  {
    Graph g;
    const Asn d = g.add_as(AsKind::Transit, ams, {ams});
    const Asn e = g.add_as(AsKind::Stub, ams, {ams});
    g.add_transit(e, d, {ams});
    const Planes planes(g, {attach(0, ams, d, Rel::Provider)});
    expect_no_route(planes, d);
    expect_no_route(planes, e);
  }
  {
    Graph g;
    const Asn d = g.add_as(AsKind::Transit, ams, {ams});
    const Asn u = g.add_as(AsKind::Tier1, fra, {fra, ams});
    g.add_transit(d, u, {ams});
    const Planes planes(g, {attach(0, ams, d, Rel::Provider), attach(1, fra, u)});
    const std::uint64_t h = fold(origin_hash(kSeed, fra), u);
    expect_route(planes, d, {SiteId{1}, RouteClass::Provider, 2, ams, km(ams, ams), fold(h, d)});
  }
}

}  // namespace
}  // namespace ranycast::bgp
