#include "ranycast/bgp/path_metrics.hpp"

#include <array>
#include <span>

#include "ranycast/geo/gazetteer.hpp"

namespace ranycast::bgp {

namespace {

/// Seeds of the per-path jitter and of the p-hop loss decision.
constexpr std::uint64_t kJitterSeed = 0x9e3779b9;
constexpr std::uint64_t kTracerouteSeed = 0xABCD;
/// Probability a traceroute's penultimate hop does not respond.
constexpr double kPhopLossProb = 0.05;

/// Deterministic uniform [0,1) from a hash of the inputs.
double hash01(std::uint64_t h) noexcept {
  return static_cast<double>(mix64(h) >> 11) * 0x1.0p-53;
}

/// `as_path` origin-first, as Route::as_path holds it.
std::uint64_t path_hash(std::span<const Asn> as_path, SiteId origin_site, Asn client,
                        std::uint64_t seed) noexcept {
  std::uint64_t h = hash_combine(seed, value(client));
  h = hash_combine(h, value(origin_site));
  for (Asn a : as_path) h = hash_combine(h, value(a));
  return h;
}

std::uint64_t path_hash(const Route& r, Asn client, std::uint64_t seed) noexcept {
  return path_hash(r.as_path, r.origin_site, client, seed);
}

/// The RTT arithmetic both path_rtt forms share, so they cannot drift.
Rtt compose_rtt(const LatencyModel& m, Km distance, std::span<const Asn> as_path,
                SiteId origin_site, Asn client_asn, double client_access_extra_ms) {
  const double propagation = distance.km * m.ms_per_km;
  const double hops = m.per_hop_ms * static_cast<double>(as_path.size() + 1);
  const double jitter =
      m.jitter_max_ms * hash01(path_hash(as_path, origin_site, client_asn, kJitterSeed));
  return Rtt{propagation + hops + jitter + m.access_base_ms + client_access_extra_ms};
}

}  // namespace

Km LatencyModel::path_distance(const Route& r, CityId client_city) const {
  const auto& gaz = geo::Gazetteer::world();
  Km total{0.0};
  CityId prev = client_city;
  // Walk the geo path from the client side toward the site.
  for (auto it = r.geo_path.rbegin(); it != r.geo_path.rend(); ++it) {
    total += gaz.distance(prev, *it);
    prev = *it;
  }
  return total;
}

Rtt LatencyModel::path_rtt(const Route& r, CityId client_city, Asn client_asn,
                           double client_access_extra_ms) const {
  return compose_rtt(*this, path_distance(r, client_city), r.as_path, r.origin_site,
                     client_asn, client_access_extra_ms);
}

Rtt LatencyModel::path_rtt(const PathArena& arena, std::uint32_t node, SiteId origin_site,
                           CityId client_city, Asn client_asn,
                           double client_access_extra_ms) const {
  // The parent walk runs from the holder toward the origin: the data path's
  // client-to-site order, so the distance sums in path_distance's order
  // (floating-point addition is not associative). The hash folds the AS
  // path origin-first, so the ASNs fill the buffer from its back.
  const auto& gaz = geo::Gazetteer::world();
  std::array<Asn, kHopBuffer> hops{};
  std::size_t len = 0;
  Km total{0.0};
  CityId prev = client_city;
  for (std::uint32_t cur = node; cur != PathArena::kNone; cur = arena.parent_of(cur)) {
    total += gaz.distance(prev, arena.city_of(cur));
    prev = arena.city_of(cur);
    if (len < hops.size()) hops[hops.size() - 1 - len] = arena.asn_of(cur);
    ++len;
  }
  if (len > hops.size()) {
    std::vector<Asn> as_path;
    std::vector<CityId> geo_path;
    arena.materialize(node, as_path, geo_path);
    return compose_rtt(*this, total, as_path, origin_site, client_asn, client_access_extra_ms);
  }
  return compose_rtt(*this, total, std::span<const Asn>(hops).last(len), origin_site,
                     client_asn, client_access_extra_ms);
}

namespace {

template <typename RouterIpFn>
TracerouteResult synth_traceroute_impl(const Route& route, CityId client_city, Asn client_asn,
                                       double client_access_extra_ms, bool onsite_router,
                                       Ipv4Addr destination, const LatencyModel& latency,
                                       RouterIpFn&& router_ip) {
  const auto& gaz = geo::Gazetteer::world();
  TracerouteResult out;
  out.destination = destination;
  out.rtt = latency.path_rtt(route, client_city, client_asn, client_access_extra_ms);

  // Cumulative RTT along the path; each hop responds with roughly the
  // propagation latency from the client to that interconnection city.
  const double base = latency.access_base_ms + client_access_extra_ms;
  double cum_km = 0.0;
  CityId prev = client_city;
  int hop_count = 1;
  auto hop_rtt = [&](CityId at) {
    cum_km += gaz.distance(prev, at).km;
    prev = at;
    return Rtt{base + cum_km * latency.ms_per_km +
               latency.per_hop_ms * static_cast<double>(hop_count++)};
  };

  // First responding hop: the client AS's own border router.
  out.hops.push_back(Hop{router_ip(client_asn, client_city), client_asn, client_city,
                         hop_rtt(client_city)});

  // Transit hops: walk the AS path from the client side (Ak ... A1); A_i's
  // responding interface is its ingress at geo_path[i] (where it hands the
  // route downstream, i.e. where data enters it from upstream).
  const auto& as_path = route.as_path;
  const auto& geo_path = route.geo_path;
  for (std::size_t i = as_path.size(); i-- > 1;) {
    const Asn owner = as_path[i];
    const CityId city = geo_path[i];
    out.hops.push_back(Hop{router_ip(owner, city), owner, city, hop_rtt(city)});
  }

  // Penultimate hop at the site city: the CDN's own edge router if the site
  // has one, otherwise the first-hop neighbor's interface.
  const CityId site_city = geo_path.front();
  const Asn phop_owner = onsite_router ? route.origin_asn : as_path.size() > 1
                                             ? as_path[1]
                                             : client_asn;
  out.hops.push_back(Hop{router_ip(phop_owner, site_city), phop_owner, site_city,
                         hop_rtt(site_city)});

  const std::uint64_t h = hash_combine(path_hash(route, client_asn, kTracerouteSeed), 0x7E57);
  out.phop_valid = hash01(h) >= kPhopLossProb;
  return out;
}

}  // namespace

TracerouteResult synth_traceroute(const Route& route, CityId client_city, Asn client_asn,
                                  double client_access_extra_ms, bool onsite_router,
                                  Ipv4Addr destination, const LatencyModel& latency,
                                  topo::IpRegistry& registry) {
  return synth_traceroute_impl(route, client_city, client_asn, client_access_extra_ms,
                               onsite_router, destination, latency,
                               [&](Asn a, CityId c) { return registry.router_ip(a, c); });
}

TracerouteResult synth_traceroute(const Route& route, CityId client_city, Asn client_asn,
                                  double client_access_extra_ms, bool onsite_router,
                                  Ipv4Addr destination, const LatencyModel& latency,
                                  const topo::IpRegistry& registry) {
  return synth_traceroute_impl(route, client_city, client_asn, client_access_extra_ms,
                               onsite_router, destination, latency, [&](Asn a, CityId c) {
                                 return registry.router_ip_if_known(a, c).value();
                               });
}

}  // namespace ranycast::bgp
