// Data-path latency model and traceroute synthesis.
//
// The RTT of a path is driven by the geographic route the selected BGP path
// takes: the client city, the chain of interconnection cities the
// announcement traversed (in reverse), and the originating site's city.
// This is what turns policy-routing decisions into the latency pathologies
// the paper measures.
#pragma once

#include <optional>
#include <vector>

#include "ranycast/bgp/path_arena.hpp"
#include "ranycast/bgp/route.hpp"
#include "ranycast/core/fields.hpp"
#include "ranycast/core/ipv4.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/core/types.hpp"
#include "ranycast/geo/earth.hpp"
#include "ranycast/topo/graph.hpp"
#include "ranycast/topo/ip_registry.hpp"

namespace ranycast::bgp {

struct LatencyModel {
  /// Fibre propagation: RTT milliseconds per kilometre of great-circle path.
  /// The paper's constant is 1 ms RTT per 100 km.
  double ms_per_km{1.0 / geo::kKmPerMsRtt};
  /// Per-AS-hop processing/queueing cost (RTT).
  double per_hop_ms{0.15};
  /// Maximum deterministic "jitter" (path indirectness, queueing) added per
  /// (client, path) pair.
  double jitter_max_ms{1.5};
  /// Last-mile access latency added for end hosts (probes).
  double access_base_ms{0.4};

  bool operator==(const LatencyModel&) const = default;

  /// Total geographic length of the data path for a client in `client_city`
  /// using route `r`: client -> ingress interconnect -> ... -> site.
  Km path_distance(const Route& r, CityId client_city) const;

  /// End-to-end RTT for a client (identified by its AS for jitter purposes).
  Rtt path_rtt(const Route& r, CityId client_city, Asn client_asn,
               double client_access_extra_ms = 0.0) const;

  /// path_rtt of the route whose path ends at arena node `node` and
  /// originates at `origin_site`, read from the arena without materializing
  /// a Route: bit-identical to the Route form, allocation-free for paths
  /// of up to kHopBuffer hops.
  Rtt path_rtt(const PathArena& arena, std::uint32_t node, SiteId origin_site,
               CityId client_city, Asn client_asn, double client_access_extra_ms = 0.0) const;

  /// Longest AS path the arena form buffers on the stack; longer paths
  /// fall back to a materialized copy.
  static constexpr std::size_t kHopBuffer = 32;
};

/// LatencyModel's field list (core/fields.hpp): a lab config's "latency".
template <core::RecordOf<LatencyModel> Self, typename F>
void for_each_field(Self& m, F&& f) {
  f("ms_per_km", m.ms_per_km);
  f("per_hop_ms", m.per_hop_ms);
  f("jitter_max_ms", m.jitter_max_ms);
  f("access_base_ms", m.access_base_ms);
}

/// One responding traceroute hop.
struct Hop {
  Ipv4Addr ip;
  Asn owner{kInvalidAsn};
  CityId city{kInvalidCity};
  Rtt rtt;  ///< RTT from the client to this hop
};

struct TracerouteResult {
  std::vector<Hop> hops;  ///< client-side first; the last entry is the p-hop
  Ipv4Addr destination;
  Rtt rtt;              ///< RTT to the destination (== ping RTT)
  bool phop_valid{true};  ///< false when the penultimate hop did not respond

  const Hop& phop() const { return hops.back(); }
};

/// Synthesize the traceroute a client would observe along `route`.
/// `onsite_router` says whether the originating site announces via its own
/// edge router (then the p-hop belongs to the CDN AS at the site city),
/// otherwise the p-hop is the first-hop neighbor's interface at the site.
/// The penultimate hop does not respond for 5% of (client, route) pairs,
/// decided by a hash (filters in §5.3 drop such probes).
TracerouteResult synth_traceroute(const Route& route, CityId client_city, Asn client_asn,
                                  double client_access_extra_ms, bool onsite_router,
                                  Ipv4Addr destination, const LatencyModel& latency,
                                  topo::IpRegistry& registry);

/// Read-only variant for concurrent fan-out: identical output, but never
/// allocates registry state. Every (AS, city) pair on the path must already
/// be registered — run the mutating overload (or Lab::traceroute_all's warm
/// prepass) over the same routes first; throws std::bad_optional_access on a
/// cold registry.
TracerouteResult synth_traceroute(const Route& route, CityId client_city, Asn client_asn,
                                  double client_access_extra_ms, bool onsite_router,
                                  Ipv4Addr destination, const LatencyModel& latency,
                                  const topo::IpRegistry& registry);

/// The registry-touch order of one synth_traceroute call, exposed so batch
/// drivers can warm the registry serially (replicating the exact sequential
/// first-touch order, which fixes block ordinals) before fanning out with
/// the const overload. Calls `touch(asn, city)` once per hop, in hop order.
template <typename TouchFn>
void for_each_traceroute_interface(const Route& route, CityId client_city, Asn client_asn,
                                   bool onsite_router, TouchFn&& touch) {
  touch(client_asn, client_city);
  for (std::size_t i = route.as_path.size(); i-- > 1;) {
    touch(route.as_path[i], route.geo_path[i]);
  }
  const Asn phop_owner = onsite_router                ? route.origin_asn
                         : route.as_path.size() > 1 ? route.as_path[1]
                                                      : client_asn;
  touch(phop_owner, route.geo_path.front());
}

}  // namespace ranycast::bgp
