#include "ranycast/proposals/single_provider.hpp"

namespace ranycast::proposals {

Asn best_single_provider(const cdn::DeploymentSpec& spec, const topo::World& world) {
  const auto& gaz = geo::Gazetteer::world();
  Asn best = kInvalidAsn;
  std::size_t best_coverage = 0;
  for (const topo::AsNode& node : world.graph.nodes()) {
    if (node.kind != topo::AsKind::Tier1) continue;
    std::size_t coverage = 0;
    for (const cdn::SiteSpec& site : spec.sites) {
      const auto city = gaz.find_by_iata(site.iata);
      if (city && node.present_in(*city)) ++coverage;
    }
    if (coverage > best_coverage) {
      best_coverage = coverage;
      best = node.asn;
    }
  }
  return best;
}

cdn::Deployment single_provider_deployment(const cdn::DeploymentSpec& spec, Asn provider,
                                           const topo::World& world,
                                           topo::IpRegistry& registry) {
  cdn::Deployment base = cdn::build_deployment(spec, world, registry);
  cdn::Deployment out{base.name() + "-single-provider", base.asn()};
  for (const cdn::Region& r : base.regions()) {
    // Fresh prefixes: the variant coexists with the baseline in one lab.
    const Prefix p = registry.allocate_special(24);
    out.add_region(cdn::Region{r.name, p, p.at(1)});
  }
  for (const cdn::Site& s : base.sites()) {
    cdn::Site site = s;
    // All connectivity via the one carrier, as its transit customer. The
    // carrier backhauls sites outside its footprint (it is paid to).
    site.attachments = {cdn::Attachment{provider, topo::Rel::Customer}};
    out.add_site(std::move(site));
  }
  // Client-mapping policy carries over.
  out.copy_mapping_policy(base);
  return out;
}

}  // namespace ranycast::proposals
