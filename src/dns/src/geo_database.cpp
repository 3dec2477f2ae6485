#include "ranycast/dns/geo_database.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "ranycast/obs/metrics.hpp"

namespace ranycast::dns {

namespace {

obs::Counter& lookup_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("dns.geodb.lookups");
  return counter;
}

obs::Counter& outage_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("dns.geodb.outage_lookups");
  return counter;
}

}  // namespace

GeoDatabase::GeoDatabase(Config config, const topo::Graph* graph,
                         const topo::IpRegistry* registry)
    : config_(std::move(config)), graph_(graph), registry_(registry) {}

AddressTruth address_truth(const topo::Graph& graph, const topo::IpRegistry& registry,
                           Ipv4Addr ip) {
  const auto owner = registry.owner(ip);
  if (!owner) return {};
  const topo::AsNode* node = graph.find(owner->asn);
  if (node == nullptr) {
    // Not part of the routed AS graph (e.g. a public resolver's egress):
    // locatable only through the registered interface city.
    if (owner->city == kInvalidCity) return {};
    return AddressTruth{owner->asn, owner->city, owner->city, false};
  }
  const CityId city = owner->city != kInvalidCity ? owner->city : node->home_city;
  return AddressTruth{owner->asn, city, node->registered_city, node->international};
}

std::uint64_t GeoDatabase::ip_hash(Ipv4Addr ip, std::uint64_t salt) const {
  return mix64(hash_combine(hash_combine(config_.seed, ip.bits()), salt));
}

namespace {

constexpr std::size_t kForeignNeighbours = 6;

/// Per city, its kForeignNeighbours nearest cities in other countries,
/// ascending by (km, CityId); computed once for the gazetteer.
struct ForeignNeighbours {
  std::array<CityId, kForeignNeighbours> cities{};
  std::size_t count{0};
};

const std::vector<ForeignNeighbours>& foreign_neighbours() {
  static const std::vector<ForeignNeighbours> table = [] {
    const auto& gaz = geo::Gazetteer::world();
    const std::size_t n = gaz.cities().size();
    std::vector<ForeignNeighbours> out(n);
    std::vector<std::pair<double, CityId>> foreign;
    for (std::size_t t = 0; t < n; ++t) {
      const CityId truth{static_cast<std::uint16_t>(t)};
      foreign.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const CityId c{static_cast<std::uint16_t>(i)};
        if (gaz.city(c).country == gaz.city(truth).country) continue;
        foreign.emplace_back(gaz.distance(truth, c).km, c);
      }
      out[t].count = std::min(kForeignNeighbours, foreign.size());
      std::partial_sort(foreign.begin(), foreign.begin() + out[t].count, foreign.end());
      for (std::size_t k = 0; k < out[t].count; ++k) out[t].cities[k] = foreign[k].second;
    }
    return out;
  }();
  return table;
}

/// Geolocation databases rarely teleport a block across the planet: when
/// they err on the country, the reported location is usually a *nearby*
/// country (shared registry, shared language, border metro). Pick among
/// the closest foreign cities, deterministically per block.
CityId nearby_foreign_city(CityId truth, std::uint64_t h) {
  const ForeignNeighbours& near = foreign_neighbours()[value(truth)];
  return near.cities[h % near.count];
}

}  // namespace

std::uint64_t GeoDatabase::block_hash(Asn owner, std::uint64_t salt) const {
  // Databases assign locations to whole allocations, so error decisions are
  // made per owner AS, not per address: every host of a mis-registered
  // block mis-geolocates the same way.
  return mix64(hash_combine(hash_combine(config_.seed, value(owner)), salt));
}

namespace {
double hash01(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}
}  // namespace

std::optional<geo::CountryIdx> GeoDatabase::country_index(const AddressTruth& truth) const {
  lookup_counter().add();
  if (fault_.outage) {
    outage_counter().add();
    return std::nullopt;
  }
  if (!truth.known()) return std::nullopt;
  const auto& gaz = geo::Gazetteer::world();

  // International organizations' space: databases frequently register the
  // whole allocation to the company's registration country (paper §4.3).
  if (truth.international &&
      hash01(block_hash(truth.asn, 0xA11A)) < config_.intl_home_bias_prob) {
    return gaz.city(truth.registered_city).country;
  }
  // Ordinary mis-registration: the whole AS block reports a nearby foreign
  // country.
  if (hash01(block_hash(truth.asn, 0xBEEF)) < config_.wrong_country_prob) {
    return gaz.city(nearby_foreign_city(truth.city, block_hash(truth.asn, 0xC0DE))).country;
  }
  // Staleness injected by the chaos engine: additional block-granular
  // wrong-country decisions from an independent stream, so degraded and
  // healthy operation disagree on exactly the extra-probability blocks.
  if (fault_.extra_wrong_country_prob > 0.0 &&
      hash01(block_hash(truth.asn, 0x57A1E)) < fault_.extra_wrong_country_prob) {
    return gaz.city(nearby_foreign_city(truth.city, block_hash(truth.asn, 0x57A2E))).country;
  }
  return gaz.city(truth.city).country;
}

std::optional<std::string_view> GeoDatabase::country(Ipv4Addr ip) const {
  const auto idx = country_index(address_truth(*graph_, *registry_, ip));
  if (!idx) return std::nullopt;
  return geo::Gazetteer::world().countries()[*idx].iso2;
}

std::optional<CityId> GeoDatabase::city_estimate(Ipv4Addr ip) const {
  lookup_counter().add();
  if (fault_.outage) {
    outage_counter().add();
    return std::nullopt;
  }
  const AddressTruth truth = address_truth(*graph_, *registry_, ip);
  if (!truth.known()) return std::nullopt;
  const auto& gaz = geo::Gazetteer::world();

  CityId country_anchor = truth.city;
  if (truth.international &&
      hash01(block_hash(truth.asn, 0xA11A)) < config_.intl_home_bias_prob) {
    country_anchor = truth.registered_city;
  } else if (hash01(block_hash(truth.asn, 0xBEEF)) < config_.wrong_country_prob) {
    return nearby_foreign_city(truth.city, block_hash(truth.asn, 0xC0DE));
  } else if (fault_.extra_wrong_country_prob > 0.0 &&
             hash01(block_hash(truth.asn, 0x57A1E)) < fault_.extra_wrong_country_prob) {
    // Same staleness stream as country(), so both views of a degraded
    // database stay mutually consistent.
    return nearby_foreign_city(truth.city, block_hash(truth.asn, 0x57A2E));
  }
  // Country correct; the city may still be off within the country.
  if (hash01(ip_hash(ip, 0xD00F)) < config_.wrong_city_prob) {
    const auto cities = gaz.cities_in_country(gaz.country_code(country_anchor));
    if (!cities.empty()) {
      return cities[ip_hash(ip, 0xF00D) % cities.size()];
    }
  }
  return country_anchor;
}

}  // namespace ranycast::dns
