// Probe census generator.
//
// Reproduces the RIPE Atlas probe population shape the paper works with
// (§3.1): ~11k probes, heavily skewed toward EMEA and NA, a small fraction
// with missing stability tags or unreliable geocodes (filtered out, leaving
// ~9.7k), and a resolver mix (local ISP resolvers, public resolvers with and
// without ECS) that drives the LDNS-vs-ADNS differences in Table 2.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "ranycast/atlas/probe.hpp"
#include "ranycast/core/fields.hpp"
#include "ranycast/dns/geo_database.hpp"
#include "ranycast/topo/generator.hpp"
#include "ranycast/topo/ip_registry.hpp"

namespace ranycast::atlas {

struct CensusConfig {
  int total_probes{11000};
  double stable_prob{0.93};
  double reliable_geocode_prob{0.95};
  /// Resolver mix.
  double resolver_local_prob{0.70};
  double resolver_public_ecs_prob{0.20};  // remainder: public without ECS
  /// Last-mile latency: exponential with this mean, capped.
  double access_extra_mean_ms{1.5};
  double access_extra_cap_ms{10.0};
  std::uint64_t seed{0xA71A5};

  bool operator==(const CensusConfig&) const = default;
};

/// CensusConfig's field list (core/fields.hpp): a lab config's "census".
template <core::RecordOf<CensusConfig> Self, typename F>
void for_each_field(Self& c, F&& f) {
  f("total_probes", c.total_probes);
  f("stable_prob", c.stable_prob);
  f("reliable_geocode_prob", c.reliable_geocode_prob);
  f("resolver_local_prob", c.resolver_local_prob);
  f("resolver_public_ecs_prob", c.resolver_public_ecs_prob);
  f("access_extra_mean_ms", c.access_extra_mean_ms);
  f("access_extra_cap_ms", c.access_extra_cap_ms);
  f("seed", c.seed);
}

class ProbeCensus {
 public:
  static ProbeCensus generate(const topo::World& world, topo::IpRegistry& registry,
                              const CensusConfig& config);

  std::span<const Probe> probes() const noexcept { return probes_; }

  /// Ground truth of the address the authoritative DNS sees from `probe`
  /// (dns::effective_address) in `mode`. generate() resolves it once the
  /// last probe-host address is registered. nullptr for a probe this census
  /// did not draw (a copy included).
  const dns::AddressTruth* dns_truth(const Probe& probe, dns::QueryMode mode) const {
    const std::size_t i = value(probe.id);
    if (i >= probes_.size() || &probes_[i] != &probe) return nullptr;
    return &dns_truth_[i][static_cast<std::size_t>(mode)];
  }

  /// Probes surviving the §3.1 filter (stability tag + reliable geocode).
  std::vector<const Probe*> retained() const;

  /// Count of retained probes per area.
  std::array<std::size_t, geo::kAreaCount> retained_by_area() const;

 private:
  std::vector<Probe> probes_;
  /// dns_truth_[i] belongs to probes_[i], indexed by dns::QueryMode. Kept
  /// apart from Probe: a larger probe array raises glibc's dynamic mmap
  /// threshold and measurably grows peak RSS.
  std::vector<std::array<dns::AddressTruth, 2>> dns_truth_;
};

}  // namespace ranycast::atlas
