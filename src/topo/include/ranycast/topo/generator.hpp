// Randomized synthetic-Internet generator.
//
// Produces an AS graph with the structural features that cause the paper's
// catchment-inefficiency pathologies:
//  * a clique of continent-spanning tier-1 carriers (long intra-AS hauls),
//  * international transit providers that are *customers* of other transits
//    (Fig. 1's SingTel-under-Zayo pattern),
//  * IXPs whose members peer bilaterally or via route servers (Fig. 7's
//    public-peer-vs-route-server pattern),
//  * thousands of stub/eyeball ASes where measurement probes live.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ranycast/core/fields.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/geo/gazetteer.hpp"
#include "ranycast/topo/graph.hpp"

namespace ranycast::topo {

struct GeneratorParams {
  std::uint64_t seed{42};

  int tier1_count{24};
  /// Fraction of the gazetteer each tier-1 carrier has presence in.
  double tier1_city_coverage{0.40};

  int international_transits{44};
  /// Probability an international transit buys transit from another
  /// international transit (in addition to tier-1s).
  double intl_transit_customer_prob{0.40};

  /// National transits are created per country, scaled by city count.
  int max_national_transits_per_country{3};

  int stub_count{2600};
  double stub_second_provider_prob{0.35};
  /// Fraction of stubs that are multinational organizations whose address
  /// space is registered in another country (their probes mis-geolocate
  /// consistently, the paper's "international transit" effect).
  double stub_foreign_registration_prob{0.025};
  double stub_ixp_join_prob{0.06};

  int ixp_count{18};
  /// Probability two co-located IXP members establish a session at all.
  double ixp_mesh_prob{0.65};
  /// Of established IXP sessions, the fraction that are bilateral (public)
  /// rather than via the route server.
  double ixp_bilateral_prob{0.45};

  bool operator==(const GeneratorParams&) const = default;
};

/// GeneratorParams' field list (core/fields.hpp): a lab config's "world".
template <core::RecordOf<GeneratorParams> Self, typename F>
void for_each_field(Self& p, F&& f) {
  f("seed", p.seed);
  f("tier1_count", p.tier1_count);
  f("tier1_city_coverage", p.tier1_city_coverage);
  f("international_transits", p.international_transits);
  f("intl_transit_customer_prob", p.intl_transit_customer_prob);
  f("max_national_transits_per_country", p.max_national_transits_per_country);
  f("stub_count", p.stub_count);
  f("stub_second_provider_prob", p.stub_second_provider_prob);
  f("stub_foreign_registration_prob", p.stub_foreign_registration_prob);
  f("stub_ixp_join_prob", p.stub_ixp_join_prob);
  f("ixp_count", p.ixp_count);
  f("ixp_mesh_prob", p.ixp_mesh_prob);
  f("ixp_bilateral_prob", p.ixp_bilateral_prob);
}

/// A generated world: the graph plus by-city indices used by downstream
/// modules (probe placement, CDN site attachment).
struct World {
  Graph graph;
  GeneratorParams params;

  std::unordered_map<CityId, std::vector<Asn>> transits_by_city;  // transit+tier1 presence
  std::unordered_map<CityId, std::vector<Asn>> stubs_by_city;
  std::unordered_map<CityId, std::size_t> ixp_by_city;  // index into graph.ixps()

  /// All transit-capable ASes (transit or tier-1) with presence at `c`.
  const std::vector<Asn>& transits_at(CityId c) const;
  const std::vector<Asn>& stubs_at(CityId c) const;
};

World generate_world(const GeneratorParams& params);

}  // namespace ranycast::topo
