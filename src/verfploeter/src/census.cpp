#include "ranycast/verfploeter/census.hpp"

#include <algorithm>
#include <set>

#include "ranycast/core/rng.hpp"

namespace ranycast::verfploeter {

CatchmentCensus full_census(const lab::Lab& lab, const lab::DeploymentHandle& handle,
                            std::size_t region) {
  CatchmentCensus census;
  for (const topo::AsNode& node : lab.world().graph.nodes()) {
    if (node.kind != topo::AsKind::Stub) continue;
    const auto site = handle.catchment(node.asn, region);
    if (!site) continue;
    census.by_site[*site]++;
    census.total++;
  }
  return census;
}

CatchmentCensus probe_estimate(const lab::Lab& lab, const lab::DeploymentHandle& handle,
                               std::size_t region, std::size_t probe_count,
                               std::uint64_t seed) {
  auto retained = lab.census().retained();
  Rng rng{seed};
  for (std::size_t i = 0; i + 1 < retained.size(); ++i) {
    std::swap(retained[i], retained[i + rng.below(retained.size() - i)]);
  }
  if (retained.size() > probe_count) retained.resize(probe_count);

  CatchmentCensus census;
  std::set<std::uint32_t> seen_ases;
  for (const atlas::Probe* p : retained) {
    if (!seen_ases.insert(value(p->asn)).second) continue;  // one vote per AS
    const auto site = handle.catchment(p->asn, region);
    if (!site) continue;
    census.by_site[*site]++;
    census.total++;
  }
  return census;
}

double total_variation(const CatchmentCensus& a, const CatchmentCensus& b) {
  std::set<SiteId> sites;
  for (const auto& [s, n] : a.by_site) sites.insert(s);
  for (const auto& [s, n] : b.by_site) sites.insert(s);
  double distance = 0.0;
  for (SiteId s : sites) {
    distance += std::abs(a.fraction(s) - b.fraction(s));
  }
  return distance / 2.0;
}

}  // namespace ranycast::verfploeter
