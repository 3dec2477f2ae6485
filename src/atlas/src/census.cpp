#include "ranycast/atlas/census.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <unordered_map>

#include "ranycast/core/rng.hpp"

namespace ranycast::atlas {

namespace {

/// ASN for public-resolver egress interfaces (a synthetic "8.8.8.8 operator";
/// not part of the routed AS graph — the geolocation databases resolve its
/// interfaces by their registered city).
constexpr Asn kPublicResolverAsn = make_asn(64512);

/// Public-resolver egress PoPs: a probe's non-ECS queries appear to come
/// from the nearest of these.
constexpr std::array<const char*, 10> kResolverPops = {
    "IAD", "SJC", "AMS", "FRA", "LHR", "SIN", "NRT", "SYD", "GRU", "JNB"};

/// RIPE Atlas probe density is wildly uneven even within an area: European
/// and North-American hub metros host hundreds of probes, while much of the
/// Caribbean, Africa and inland Asia hosts a handful. This table encodes
/// that skew relative to the default in-area weight of 1.
struct CityDensity {
  const char* iata;
  double weight;
};

constexpr CityDensity kProbeDensity[] = {
    // Hub metros (dense hosting + hacker communities).
    {"AMS", 3.0}, {"FRA", 3.0}, {"LHR", 3.0}, {"CDG", 2.5}, {"ZRH", 2.0},
    {"ARN", 2.0}, {"WAW", 2.0}, {"PRG", 2.0}, {"VIE", 2.0}, {"BER", 2.0},
    {"JFK", 2.5}, {"IAD", 2.5}, {"SJC", 2.5}, {"SEA", 2.0}, {"SFO", 2.0},
    {"YYZ", 2.0}, {"NRT", 2.0}, {"SIN", 2.0}, {"SYD", 2.0}, {"GRU", 2.0},
    // Sparse probe presence: Caribbean and Central America...
    {"SAL", 0.2}, {"TGU", 0.2}, {"MGA", 0.2}, {"KIN", 0.25}, {"HAV", 0.2},
    {"SJU", 0.3}, {"SDQ", 0.3}, {"GUA", 0.3}, {"SJO", 0.4}, {"PTY", 0.4},
    // ...secondary Latin America...
    {"CWB", 0.5}, {"CNF", 0.5}, {"SSA", 0.4}, {"MAO", 0.3}, {"CLO", 0.4},
    {"BAQ", 0.4}, {"GYE", 0.4}, {"VVI", 0.3}, {"LPB", 0.3}, {"ASU", 0.4},
    // ...Africa...
    {"ABJ", 0.3}, {"ABV", 0.3}, {"FIH", 0.2}, {"LUN", 0.3}, {"GBE", 0.3},
    {"KGL", 0.3}, {"KRT", 0.2}, {"DLA", 0.3}, {"MRU", 0.4}, {"LAD", 0.3},
    {"DSS", 0.3}, {"DAR", 0.3}, {"ADD", 0.3}, {"EBB", 0.3}, {"MPM", 0.3},
    {"HRE", 0.3},
    // ...and inland/secondary Asia.
    {"KTM", 0.3}, {"RGN", 0.25}, {"PNH", 0.3}, {"ULN", 0.25}, {"FRU", 0.3},
    {"XIY", 0.4}, {"WUH", 0.4}, {"CAN", 0.6}, {"AMD", 0.5}, {"PNQ", 0.6},
    {"ISB", 0.4}, {"DAC", 0.4}, {"CMB", 0.4}, {"ALA", 0.4}, {"TAS", 0.3},
};

double probe_density(const geo::Gazetteer& gaz, CityId city) {
  const auto iata = gaz.city(city).iata;
  for (const CityDensity& d : kProbeDensity) {
    if (iata == d.iata) return d.weight;
  }
  return 1.0;
}

}  // namespace

ProbeCensus ProbeCensus::generate(const topo::World& world, topo::IpRegistry& registry,
                                  const CensusConfig& config) {
  const auto& gaz = geo::Gazetteer::world();
  Rng rng{config.seed};
  ProbeCensus census;
  census.probes_.reserve(static_cast<std::size_t>(config.total_probes));

  // Area skew of the probe population (the paper's §3.1 counts: EMEA 6.9k,
  // NA 1.7k, APAC 1.0k, LatAm 0.2k of ~9.7k retained).
  auto area_weight = [](geo::Area a) {
    switch (a) {
      case geo::Area::EMEA:
        return 0.64;
      case geo::Area::NA:
        return 0.175;
      case geo::Area::LatAm:
        return 0.02;
      case geo::Area::APAC:
        return 0.165;
    }
    return 0.0;
  };
  // City weights: area weight spread over the area's cities.
  const std::size_t n_cities = gaz.cities().size();
  std::vector<double> weights(n_cities, 0.0);
  std::array<std::size_t, geo::kAreaCount> area_city_count{0, 0, 0, 0};
  for (std::size_t i = 0; i < n_cities; ++i) {
    area_city_count[static_cast<int>(gaz.area_of_city(CityId{static_cast<std::uint16_t>(i)}))]++;
  }
  for (std::size_t i = 0; i < n_cities; ++i) {
    const CityId city{static_cast<std::uint16_t>(i)};
    const auto area = gaz.area_of_city(city);
    weights[i] = probe_density(gaz, city) * area_weight(area) /
                 static_cast<double>(area_city_count[static_cast<int>(area)]);
  }

  // Resolver egress interfaces (registered so geo DBs can locate them).
  std::vector<CityId> resolver_cities;
  std::vector<Ipv4Addr> resolver_ips;
  for (const char* iata : kResolverPops) {
    if (const auto c = gaz.find_by_iata(iata)) {
      resolver_cities.push_back(*c);
      resolver_ips.push_back(registry.router_ip(kPublicResolverAsn, *c));
    }
  }
  auto nearest_resolver = [&](CityId from) {
    std::size_t best = 0;
    double best_km = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < resolver_cities.size(); ++i) {
      const double d = gaz.distance(from, resolver_cities[i]).km;
      if (d < best_km) {
        best_km = d;
        best = i;
      }
    }
    return best;
  };

  std::unordered_map<Asn, std::uint32_t> hosts_in_as;

  for (int i = 0; i < config.total_probes; ++i) {
    const CityId city{static_cast<std::uint16_t>(rng.weighted_index(weights))};
    const auto& stubs = world.stubs_at(city);
    if (stubs.empty()) continue;  // no eyeball AS in this city
    Probe p;
    p.id = ProbeId{static_cast<std::uint32_t>(census.probes_.size())};
    p.asn = stubs[rng.below(stubs.size())];
    p.city = city;
    p.stable = rng.chance(config.stable_prob);
    p.reliable_geocode = rng.chance(config.reliable_geocode_prob);
    // Unreliable geocodes report a random (often wrong) location; reliable
    // ones match the truth. Retained probes therefore have trustworthy
    // geocodes, mirroring the paper's filtering rationale.
    p.reported_city =
        p.reliable_geocode ? city : CityId{static_cast<std::uint16_t>(rng.below(n_cities))};
    p.ip = registry.probe_ip(p.asn, hosts_in_as[p.asn]++, city);
    p.access_extra_ms =
        std::min(rng.exponential(config.access_extra_mean_ms), config.access_extra_cap_ms);

    const double r = rng.uniform();
    if (r < config.resolver_local_prob) {
      // Resolver inside the probe's ISP, co-located with the probe.
      p.resolver.kind = dns::ResolverKind::LocalIsp;
      p.resolver.egress_city = city;
      p.resolver.address = registry.probe_ip(p.asn, 100000 + value(p.id) % 1000, city);
    } else {
      const std::size_t idx = nearest_resolver(city);
      p.resolver.kind = r < config.resolver_local_prob + config.resolver_public_ecs_prob
                            ? dns::ResolverKind::PublicEcs
                            : dns::ResolverKind::PublicNoEcs;
      p.resolver.egress_city = resolver_cities[idx];
      p.resolver.address = resolver_ips[idx];
    }
    census.probes_.push_back(p);
  }

  // Every probe-host address is registered now, and nothing registers one
  // later: traceroutes add router interfaces below block offset 4096 and
  // anycast prefixes come from 192.0.0.0 up. No AS's home, registration or
  // international flag changes after world generation either, so the truth
  // behind each probe's DNS-visible address is fixed from here on.
  census.dns_truth_.resize(census.probes_.size());
  for (std::size_t i = 0; i < census.probes_.size(); ++i) {
    for (const dns::QueryMode mode : {dns::QueryMode::Ldns, dns::QueryMode::Adns}) {
      census.dns_truth_[i][static_cast<std::size_t>(mode)] = dns::address_truth(
          world.graph, registry,
          dns::effective_address(census.probes_[i].query_context(), mode));
    }
  }
  return census;
}

std::vector<const Probe*> ProbeCensus::retained() const {
  std::vector<const Probe*> out;
  out.reserve(probes_.size());
  for (const Probe& p : probes_) {
    if (p.retained()) out.push_back(&p);
  }
  return out;
}

std::array<std::size_t, geo::kAreaCount> ProbeCensus::retained_by_area() const {
  std::array<std::size_t, geo::kAreaCount> out{0, 0, 0, 0};
  for (const Probe& p : probes_) {
    if (p.retained()) out[static_cast<int>(p.area())]++;
  }
  return out;
}

}  // namespace ranycast::atlas
