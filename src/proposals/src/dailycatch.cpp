#include "ranycast/proposals/dailycatch.hpp"

#include "ranycast/atlas/grouping.hpp"

namespace ranycast::proposals {

cdn::Deployment filtered_deployment(const cdn::DeploymentSpec& spec, bool keep_transit,
                                    bool keep_peers, const topo::World& world,
                                    topo::IpRegistry& registry) {
  cdn::Deployment base = cdn::build_deployment(spec, world, registry);
  const char* suffix = keep_transit && keep_peers ? "-all"
                       : keep_transit            ? "-transit-only"
                                                 : "-all-peer";
  cdn::Deployment out{base.name() + suffix, base.asn()};
  for (const cdn::Region& r : base.regions()) {
    const Prefix p = registry.allocate_special(24);
    out.add_region(cdn::Region{r.name, p, p.at(1)});
  }
  for (const cdn::Site& s : base.sites()) {
    cdn::Site site = s;
    site.attachments.clear();
    for (const cdn::Attachment& a : s.attachments) {
      const bool is_transit = a.rel == topo::Rel::Customer;
      if ((is_transit && keep_transit) || (!is_transit && keep_peers)) {
        site.attachments.push_back(a);
      }
    }
    if (site.attachments.empty()) {
      // A peerless site under the all-peer policy keeps one transit uplink.
      for (const cdn::Attachment& a : s.attachments) {
        if (a.rel == topo::Rel::Customer) {
          site.attachments.push_back(a);
          break;
        }
      }
    }
    out.add_site(std::move(site));
  }
  out.copy_mapping_policy(base);
  return out;
}

namespace {

/// Mean of per-group median RTTs for one deployment (DailyCatch's routine
/// measurement, aggregated the way the paper aggregates everything).
double measure_mean_ms(lab::Lab& lab, const lab::DeploymentHandle& handle) {
  const auto retained = lab.census().retained();
  double total = 0.0;
  std::size_t counted = 0;
  for (const auto& group : atlas::group_probes(retained)) {
    const auto median = atlas::group_median(group, [&](const atlas::Probe* p) {
      const auto answer = lab.dns_lookup(*p, handle, dns::QueryMode::Ldns);
      const auto rtt = lab.ping(*p, answer.address);
      return rtt ? std::optional<double>(rtt->ms) : std::nullopt;
    });
    if (median) {
      total += *median;
      ++counted;
    }
  }
  return counted > 0 ? total / static_cast<double>(counted) : 1e12;
}

}  // namespace

DailyCatchOutcome run_dailycatch(lab::Lab& lab, const cdn::DeploymentSpec& spec) {
  DailyCatchOutcome out;
  out.transit_only = &lab.add_deployment(
      filtered_deployment(spec, true, false, lab.world(), lab.registry()));
  out.all_peer = &lab.add_deployment(
      filtered_deployment(spec, false, true, lab.world(), lab.registry()));
  out.transit_mean_ms = measure_mean_ms(lab, *out.transit_only);
  out.peer_mean_ms = measure_mean_ms(lab, *out.all_peer);
  out.chosen = out.transit_mean_ms <= out.peer_mean_ms ? out.transit_only : out.all_peer;
  return out;
}

}  // namespace ranycast::proposals
