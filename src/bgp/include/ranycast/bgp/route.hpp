// BGP route representation for the anycast solver.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ranycast/core/types.hpp"
#include "ranycast/topo/graph.hpp"

namespace ranycast::bgp {

/// Local-preference class, ordered by preference (higher wins). The ordering
/// encodes the two policies the paper shows regional anycast "overrides"
/// (§5.4): customer > peer, and public peer > route-server peer.
enum class RouteClass : std::uint8_t {
  Provider = 0,
  PeerRouteServer = 1,
  PeerPublic = 2,
  Customer = 3,
};

std::string_view to_string(RouteClass c) noexcept;

/// Map the relationship through which a route was learned to its class.
constexpr RouteClass class_of(topo::Rel learned_from) noexcept {
  switch (learned_from) {
    case topo::Rel::Customer:
      return RouteClass::Customer;
    case topo::Rel::PeerPublic:
      return RouteClass::PeerPublic;
    case topo::Rel::PeerRouteServer:
      return RouteClass::PeerRouteServer;
    case topo::Rel::Provider:
      return RouteClass::Provider;
  }
  return RouteClass::Provider;
}

/// A selected route at some AS.
///
/// `as_path` lists the ASes the announcement traversed before reaching the
/// holder, origin first: [cdn_asn, A1, ..., Ak]. `geo_path` lists the
/// corresponding interconnection cities: geo_path[0] is the originating
/// site's city and geo_path[i] is where A_i handed the route to A_{i+1}
/// (or to the holder, for the last element). The two vectors always have
/// equal length — that is a class invariant maintained by the solver.
struct Route {
  SiteId origin_site{kInvalidSite};
  Asn origin_asn{kInvalidAsn};
  RouteClass cls{RouteClass::Provider};
  std::vector<Asn> as_path;
  std::vector<CityId> geo_path;
  /// Hot-potato proxy: distance from the holder's home city to the city
  /// where it received the route. Real BGP breaks ties by IGP metric to the
  /// egress; this is the geographic analogue, applied after local-pref and
  /// path length and before the arbitrary hash tie-break.
  double ingress_km{0.0};
  std::uint64_t tiebreak{0};

  std::size_t path_length() const noexcept { return as_path.size(); }
  /// City where the holder received the route (its upstream interconnect).
  CityId ingress_city() const noexcept { return geo_path.back(); }
};

/// One origination point of an anycast prefix: a site injecting the prefix
/// into a neighbor AS.
struct OriginAttachment {
  SiteId site{kInvalidSite};
  CityId site_city{kInvalidCity};
  Asn neighbor{kInvalidAsn};
  /// Relationship from the neighbor's perspective. Customer = the CDN buys
  /// transit from the neighbor; the peer kinds are IXP-style peerings.
  topo::Rel neighbor_rel{topo::Rel::Customer};
  bool onsite_router{true};  ///< the site runs its own edge router (p-hop owner)

  bool operator==(const OriginAttachment&) const = default;
};

}  // namespace ranycast::bgp
