#include "ranycast/resilience/failover.hpp"

#include <tuple>

#include "ranycast/analysis/stats.hpp"

namespace ranycast::resilience {

cdn::Deployment withdraw_site(const cdn::Deployment& deployment, SiteId site,
                              topo::IpRegistry& registry) {
  cdn::Deployment out{deployment.name() + "-minus-" + std::to_string(value(site)),
                      deployment.asn()};
  for (const cdn::Region& r : deployment.regions()) {
    const Prefix p = registry.allocate_special(24);
    out.add_region(cdn::Region{r.name, p, p.at(1)});
  }
  for (const cdn::Site& s : deployment.sites()) {
    cdn::Site copy = s;
    if (s.id == site) copy.regions.clear();  // withdrawn: announces nothing
    out.add_site(std::move(copy));
  }
  out.copy_mapping_policy(deployment);
  return out;
}

FailoverReport fail_site(lab::Lab& lab, const lab::DeploymentHandle& before, SiteId site) {
  FailoverReport report;
  report.failed_site = site;
  report.failed_city = before.deployment.site(site).city;

  // The derived deployment differs from the base only by the failed site's
  // originations, so describe exactly that and let the lab splice it into
  // the base's selection planes.
  cdn::Deployment derived = withdraw_site(before.deployment, site, lab.registry());
  bgp::SolveDelta delta;
  delta.origins.resize(derived.regions().size());
  for (std::size_t r = 0; r < derived.regions().size(); ++r) {
    delta.origins[r] = bgp::diff_origin_changes(before.deployment.origins_for_region(r),
                                                derived.origins_for_region(r));
  }
  const auto& after = lab.add_deployment_derived(before, std::move(derived), delta);

  std::vector<double> before_ms, after_ms;
  for (const atlas::Probe* p : lab.census().retained()) {
    const auto answer = lab.dns_lookup(*p, before, dns::QueryMode::Ldns);
    if (before.catchment(p->asn, answer.region) != site) continue;
    ++report.affected_probes;
    const auto rtt_before = lab.ping(*p, answer.address);
    if (rtt_before) before_ms.push_back(rtt_before->ms);

    // Same DNS answer (DNS does not react to BGP withdrawals), new routing.
    const auto site_after = after.catchment(p->asn, answer.region);
    if (!site_after) {
      // The probe's own regional prefix is gone entirely — the failed site
      // was its only announcer (§4.5's one-site region). The service still
      // survives if another region's prefix, being globally routed, is
      // reachable; the client lands cross-region.
      std::optional<Rtt> best;
      for (std::size_t r2 = 0; r2 < after.deployment.regions().size(); ++r2) {
        if (r2 == answer.region) continue;
        if (!after.catchment(p->asn, r2)) continue;
        const auto rtt = lab.ping(*p, after.deployment.regions()[r2].service_ip);
        if (rtt && (!best || *rtt < *best)) best = rtt;
      }
      if (!best) continue;  // truly unreachable
      ++report.still_served;
      ++report.cross_region;
      after_ms.push_back(best->ms);
      continue;
    }
    ++report.still_served;
    const auto rtt_after =
        lab.ping(*p, after.deployment.regions()[answer.region].service_ip);
    if (rtt_after) after_ms.push_back(rtt_after->ms);
    const auto& failover_site = after.deployment.site(*site_after);
    if (failover_site.announces(answer.region)) {
      // Failover stayed within the announced region by construction; count
      // whether it also stayed within the same geographic area.
      const auto& gaz = geo::Gazetteer::world();
      if (gaz.area_of_city(failover_site.city) == gaz.area_of_city(report.failed_city)) {
        ++report.failover_in_region;
      }
    }
  }
  std::tie(report.before_p50_ms, report.before_p90_ms) =
      analysis::percentile_pair(before_ms, 50, 90);
  std::tie(report.after_p50_ms, report.after_p90_ms) = analysis::percentile_pair(after_ms, 50, 90);
  return report;
}

}  // namespace ranycast::resilience
