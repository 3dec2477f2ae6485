// Error-injected IP geolocation database.
//
// The paper attributes "incorrect region mapping" (Table 2, ×Region) to IP
// geolocation errors, with a specific failure mode called out in §4.3:
// addresses belonging to international transit providers are geolocated to
// the provider's *home* country rather than where the host actually is.
// This class models a commercial geo DB (MaxMind / ipinfo / EdgeScape stand-
// ins) as ground truth corrupted by exactly those error processes, each
// database instance with its own independent error stream.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "ranycast/core/fields.hpp"
#include "ranycast/core/ipv4.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/geo/gazetteer.hpp"
#include "ranycast/topo/graph.hpp"
#include "ranycast/topo/ip_registry.hpp"

namespace ranycast::dns {

/// Ground truth of one address: the AS that owns it and where its interface
/// is. The geolocation databases corrupt this and nothing else. It is fixed
/// once the address is registered, because no AS's home, registration or
/// international flag changes after world generation.
struct AddressTruth {
  Asn asn{kInvalidAsn};  ///< owner; kInvalidAsn when the address cannot be located
  CityId city{kInvalidCity};  ///< true interface city (the owner's home if unknown)
  /// Where the owner's space is registered (WHOIS); `city` for an owner
  /// outside the AS graph.
  CityId registered_city{kInvalidCity};
  bool international{false};

  bool known() const noexcept { return asn != kInvalidAsn; }
  bool operator==(const AddressTruth&) const = default;
};

/// The ground truth of `ip` from the address plan and the AS graph. Unknown
/// for unallocated space and for an owner outside the graph with no
/// registered interface city.
AddressTruth address_truth(const topo::Graph& graph, const topo::IpRegistry& registry,
                           Ipv4Addr ip);

class GeoDatabase {
 public:
  struct Config {
    std::string name{"geodb"};
    /// Wrong-country rate for ordinary allocations (applied per owner AS:
    /// databases err on whole blocks, not on individual addresses).
    double wrong_country_prob{0.02};
    /// Probability an address owned by an international AS is geolocated to
    /// the AS's home country instead of the interface's true location.
    double intl_home_bias_prob{0.80};
    /// For city-level estimates: probability the city is wrong even when the
    /// country is right (returns another city of the same country).
    double wrong_city_prob{0.20};
    std::uint64_t seed{1};

    bool operator==(const Config&) const = default;
  };

  /// Degraded operating mode injected by the chaos engine. Staleness models
  /// a database snapshot that has drifted from reality (extra block-granular
  /// wrong-country decisions, drawn from a dedicated deterministic stream);
  /// an outage makes every lookup fail (callers observe nullopt and fall
  /// back, e.g. cdn::Deployment::map_client serves region 0).
  struct Fault {
    double extra_wrong_country_prob{0.0};
    bool outage{false};
  };

  GeoDatabase(Config config, const topo::Graph* graph, const topo::IpRegistry* registry);

  const std::string& name() const noexcept { return config_.name; }

  void set_fault(Fault fault) noexcept { fault_ = fault; }
  void clear_fault() noexcept { fault_ = Fault{}; }
  const Fault& fault() const noexcept { return fault_; }

  /// Country-level lookup (ISO2). `nullopt` for unallocated space.
  std::optional<std::string_view> country(Ipv4Addr ip) const;

  /// The country decision for an address whose ground truth is `truth`:
  /// the one routine behind country(), for callers that resolved the truth
  /// once (the DNS mapping path reads it from the probe). nullopt during an
  /// outage and for an unknown truth.
  std::optional<geo::CountryIdx> country_index(const AddressTruth& truth) const;

  /// City-level point estimate, used by the RTT-range geolocation technique.
  std::optional<CityId> city_estimate(Ipv4Addr ip) const;

 private:
  /// Stable per-IP hash stream so repeated lookups agree with each other.
  std::uint64_t ip_hash(Ipv4Addr ip, std::uint64_t salt) const;
  /// Stable per-owner-AS hash stream: error decisions are block-granular.
  std::uint64_t block_hash(Asn owner, std::uint64_t salt) const;

  Config config_;
  const topo::Graph* graph_;
  const topo::IpRegistry* registry_;
  Fault fault_{};
};

/// GeoDatabase::Config's field list (core/fields.hpp): a "geo_dbs" entry.
template <core::RecordOf<GeoDatabase::Config> Self, typename F>
void for_each_field(Self& c, F&& f) {
  f("name", c.name);
  f("wrong_country_prob", c.wrong_country_prob);
  f("intl_home_bias_prob", c.intl_home_bias_prob);
  f("wrong_city_prob", c.wrong_city_prob);
  f("seed", c.seed);
}

}  // namespace ranycast::dns
