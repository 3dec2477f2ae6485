// The route-selection rules, written once.
//
// The steady-state solver (solve_anycast and DeltaSolver, both on the SoA
// engine in delta_solver.cpp) and the convergence simulator
// (converge::PrefixSim) decide which route an AS selects by calling these
// functions; neither keeps a copy. That is why a quiesced PrefixSim equals
// the solver by construction for the comparator and the attribute
// arithmetic — the two planes differ only in how routes propagate.
//
// A route's selection attributes follow from its path: an origination
// seeds them at the AS the site attaches to, and every export extends them
// by one hop. The preference order compares them: local-pref class, then
// path length, then hot potato, then the tie-break hash. The paper's §5.4
// root causes are decisions of this one comparator (a customer route
// overriding a shorter peer route, a public peer overriding a route-server
// peer).
#pragma once

#include <cstdint>
#include <limits>

#include "ranycast/bgp/route.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/geo/gazetteer.hpp"
#include "ranycast/topo/graph.hpp"

namespace ranycast::bgp::rules {

/// The selection attributes of one route, in the frame of the AS holding
/// it. A value-initialized record (length 0) stands for "no route"; every
/// route has length >= 1.
struct Attrs {
  std::uint16_t len{0};            ///< AS-path length, the CDN included
  CityId last_city{kInvalidCity};  ///< where the holder received the route
  SiteId site{kInvalidSite};       ///< the originating site
  RouteClass cls{RouteClass::Provider};
  double ingress_km{0.0};       ///< holder's home city to last_city (hot potato)
  std::uint64_t hash_base{0};   ///< tie-break chain over the path so far
  std::uint64_t tiebreak{0};    ///< hash_base folded with the holder's ASN

  bool operator==(const Attrs&) const = default;
};

/// The interconnection city of `edge` nearest `from` (the route's current
/// ingress city): the first minimal one in the edge's city order.
inline CityId egress_city(const geo::Gazetteer& gaz, CityId from, const topo::Edge& edge) {
  if (edge.cities.size() == 1) return edge.cities.front();
  CityId best = edge.cities.front();
  double best_km = std::numeric_limits<double>::infinity();
  for (const CityId city : edge.cities) {
    const double km = gaz.distance(from, city).km;
    if (km < best_km) {
      best_km = km;
      best = city;
    }
  }
  return best;
}

/// Whether an origination seeds a route at its neighbor. Customer and peer
/// originations do; a provider-side one (the neighbor buys transit from the
/// CDN) seeds nothing.
constexpr bool seeds_route(const OriginAttachment& o) noexcept {
  return o.neighbor_rel != topo::Rel::Provider;
}

/// The route origination `o` seeds at `holder` (its neighbor): one hop
/// from the CDN, classed by the relationship it arrives over.
/// `prefix_seed` is the prefix's tie-break seed.
inline Attrs seed(const geo::Gazetteer& gaz, std::uint64_t prefix_seed, Asn cdn,
                  const OriginAttachment& o, const topo::AsNode& holder) {
  Attrs a;
  a.len = 1;
  a.last_city = o.site_city;
  a.site = o.site;
  a.cls = class_of(o.neighbor_rel);
  a.ingress_km = gaz.distance(holder.home_city, o.site_city).km;
  a.hash_base = hash_combine(hash_combine(prefix_seed, value(o.site_city)), value(cdn));
  a.tiebreak = hash_combine(a.hash_base, value(holder.asn));
  return a;
}

/// The route `from`, exported by `via` over `edge`, as `receiver` imports
/// it with class `cls`. `edge` supplies only the interconnection cities,
/// which both directions of an adjacency share.
inline Attrs extend(const geo::Gazetteer& gaz, const Attrs& from, Asn via,
                    const topo::Edge& edge, const topo::AsNode& receiver, RouteClass cls) {
  Attrs a;
  a.len = static_cast<std::uint16_t>(from.len + 1);
  a.last_city = egress_city(gaz, from.last_city, edge);
  a.site = from.site;
  a.cls = cls;
  a.ingress_km = gaz.distance(receiver.home_city, a.last_city).km;
  a.hash_base = hash_combine(from.hash_base, value(via));
  a.tiebreak = hash_combine(a.hash_base, value(receiver.asn));
  return a;
}

/// The rule of the preference order that separated two routes.
enum class Rule : std::uint8_t { Class, Length, HotPotato, Hash };

struct Decision {
  bool first{false};  ///< the first route is preferred
  Rule rule{Rule::Hash};
};

/// The preference order: higher class, then shorter path, then the nearer
/// ingress (hot potato), then the lower tie-break hash.
constexpr Decision decide(const Attrs& a, const Attrs& b) noexcept {
  if (a.cls != b.cls) return {a.cls > b.cls, Rule::Class};
  if (a.len != b.len) return {a.len < b.len, Rule::Length};
  if (a.ingress_km != b.ingress_km) return {a.ingress_km < b.ingress_km, Rule::HotPotato};
  return {a.tiebreak < b.tiebreak, Rule::Hash};
}

/// Whether `a` is preferred over `b`.
constexpr bool better(const Attrs& a, const Attrs& b) noexcept { return decide(a, b).first; }

}  // namespace ranycast::bgp::rules
