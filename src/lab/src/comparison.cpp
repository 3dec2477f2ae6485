#include "ranycast/lab/comparison.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace ranycast::lab {

namespace {

/// Per-probe paired measurement before grouping.
struct ProbePair {
  const atlas::Probe* probe;
  double regional_ms, global_ms;
  double regional_km, global_km;
  CityId regional_site, global_site;
  bgp::RouteClass regional_cls, global_cls;
  bool rs_feed_visible;
  analysis::ReductionCause cause;
};

/// Deterministic "does this IXP publish its route-server feed?" bit.
bool feed_published(CityId city, double fraction) {
  return static_cast<double>(mix64(hash_combine(0xFEED, value(city))) % 1000) <
         fraction * 1000.0;
}

/// The peer AS through which a route enters the CDN: the first transit hop.
Asn entry_peer(const bgp::Route& r) {
  return r.as_path.size() > 1 ? r.as_path[1] : kInvalidAsn;
}

/// Does `deployment` have a site at `city` with an attachment to `peer`?
bool site_has_peer(const cdn::Deployment& deployment, CityId city, Asn peer) {
  for (const cdn::Site& s : deployment.sites()) {
    if (s.city != city) continue;
    for (const cdn::Attachment& a : s.attachments) {
      if (a.neighbor == peer) return true;
    }
  }
  return false;
}

bool deployment_has_site_city(const cdn::Deployment& deployment, CityId city) {
  return std::any_of(deployment.sites().begin(), deployment.sites().end(),
                     [city](const cdn::Site& s) { return s.city == city; });
}

/// The AS whose different route selection made the two paths diverge: the
/// AS nearest the client that appears in both AS paths at the same position
/// from the client side. When the first-hop choices already differ, the
/// client's own AS is the decision point.
Asn decision_as(const bgp::Route& regional, const bgp::Route& global_route, Asn client) {
  const auto& r = regional.as_path;
  const auto& g = global_route.as_path;
  Asn common = client;
  std::size_t i = r.size(), j = g.size();
  while (i > 0 && j > 0 && r[i - 1] == g[j - 1]) {
    common = r[i - 1];
    --i;
    --j;
  }
  return common;
}

}  // namespace

ComparisonResult compare_regional_global(Lab& lab, const DeploymentHandle& regional,
                                         const DeploymentHandle& global_net,
                                         const ComparisonConfig& config) {
  const auto& gaz = geo::Gazetteer::world();
  ComparisonResult result;
  const auto retained = lab.census().retained();
  const Ipv4Addr global_ip = global_net.deployment.regions()[0].service_ip;

  // ---- per-probe paired measurements ----
  std::unordered_map<const atlas::Probe*, ProbePair> pairs;
  for (const atlas::Probe* p : retained) {
    const auto answer = lab.dns_lookup(*p, regional, dns::QueryMode::Ldns);
    const bgp::Route* reg_route = regional.route_for(p->asn, answer.region);
    const bgp::Route* glob_route = global_net.route_for(p->asn, 0);
    if (reg_route == nullptr || glob_route == nullptr) continue;

    const auto reg_trace = lab.traceroute(*p, answer.address);
    const auto glob_trace = lab.traceroute(*p, global_ip);
    if (!reg_trace || !glob_trace) continue;
    if (config.filter_invalid_phop && (!reg_trace->phop_valid || !glob_trace->phop_valid)) {
      continue;
    }

    const cdn::Site& reg_site = regional.deployment.site(reg_route->origin_site);
    const cdn::Site& glob_site = global_net.deployment.site(glob_route->origin_site);

    // §5.3 filter 2: both catchment sites must exist in both networks.
    if (config.filter_nonoverlapping_sites &&
        (!deployment_has_site_city(global_net.deployment, reg_site.city) ||
         !deployment_has_site_city(regional.deployment, glob_site.city))) {
      continue;
    }
    // §5.3 filter 3: the entry peer must be shared by the co-located site of
    // the other network.
    if (config.filter_nonoverlapping_peers) {
      const Asn reg_peer = entry_peer(*reg_route);
      const Asn glob_peer = entry_peer(*glob_route);
      if (reg_peer != kInvalidAsn &&
          !site_has_peer(global_net.deployment, reg_site.city, reg_peer)) {
        continue;
      }
      if (glob_peer != kInvalidAsn &&
          !site_has_peer(regional.deployment, glob_site.city, glob_peer)) {
        continue;
      }
    }

    ProbePair pair;
    pair.probe = p;
    pair.regional_ms = reg_trace->rtt.ms;
    pair.global_ms = glob_trace->rtt.ms;
    pair.regional_km = gaz.distance(p->reported_city, reg_site.city).km;
    pair.global_km = gaz.distance(p->reported_city, glob_site.city).km;
    pair.regional_site = reg_site.city;
    pair.global_site = glob_site.city;
    // Route classes at the decision AS (where the two selections diverged).
    const Asn decider = decision_as(*reg_route, *glob_route, p->asn);
    const bgp::Route* reg_at_decider = regional.route_for(decider, answer.region);
    const bgp::Route* glob_at_decider = global_net.route_for(decider, 0);
    pair.regional_cls = reg_at_decider != nullptr ? reg_at_decider->cls : reg_route->cls;
    pair.global_cls = glob_at_decider != nullptr ? glob_at_decider->cls : glob_route->cls;
    pair.rs_feed_visible =
        feed_published(reg_trace->phop().city, config.route_server_feed_fraction);

    // §5.4 root cause: walk the client's global-anycast path from the client
    // side and look for the first AS where an overridden preference shows:
    // the AS holds a customer route globally but only a lower class for the
    // client's regional prefix, or a public-peer route globally vs a
    // route-server route regionally.
    pair.cause = analysis::ReductionCause::Unknown;
    std::vector<Asn> scan{p->asn};
    for (auto it = glob_route->as_path.rbegin(); it != glob_route->as_path.rend(); ++it) {
      scan.push_back(*it);  // client-side first; the front element is cdn_asn
    }
    for (Asn x : scan) {
      const bgp::Route* gx = global_net.route_for(x, 0);
      const bgp::Route* rx = regional.route_for(x, answer.region);
      if (gx == nullptr || rx == nullptr) continue;
      const auto cause = analysis::classify_reduction_cause(*gx, *rx, pair.rs_feed_visible);
      if (cause != analysis::ReductionCause::Unknown) {
        pair.cause = cause;
        break;
      }
      // A confirmed public-vs-route-server comparison without a published
      // feed stays Unknown, as in the paper.
      if (gx->cls == bgp::RouteClass::PeerPublic &&
          rx->cls == bgp::RouteClass::PeerRouteServer) {
        break;
      }
    }
    pairs.emplace(p, pair);
  }

  // ---- group to <city, AS> and aggregate ----
  const auto groups = atlas::group_probes(retained);
  for (const auto& group : groups) {
    std::vector<const ProbePair*> members;
    for (const atlas::Probe* p : group.members) {
      if (const auto it = pairs.find(p); it != pairs.end()) members.push_back(&it->second);
    }
    // Count a group as "measurable" if any member produced measurements at
    // all (for the retention statistic) — against the regional prefix DNS
    // actually maps the member to, not an arbitrary region.
    const bool any_measured =
        std::any_of(group.members.begin(), group.members.end(), [&](const atlas::Probe* p) {
          const auto answer = lab.dns_lookup(*p, regional, dns::QueryMode::Ldns);
          return regional.catchment(p->asn, answer.region).has_value();
        });
    if (any_measured) ++result.groups_total;
    if (members.empty()) continue;
    ++result.groups_retained;

    PairedGroup out;
    out.city = group.city;
    out.asn = group.asn;
    out.area = group.area;
    auto median_of = [&](auto&& get) {
      std::vector<double> vals;
      vals.reserve(members.size());
      for (const ProbePair* m : members) vals.push_back(get(*m));
      std::sort(vals.begin(), vals.end());
      const std::size_t n = vals.size();
      return n % 2 == 1 ? vals[n / 2] : 0.5 * (vals[n / 2 - 1] + vals[n / 2]);
    };
    out.regional_ms = median_of([](const ProbePair& m) { return m.regional_ms; });
    out.global_ms = median_of([](const ProbePair& m) { return m.global_ms; });
    out.regional_km = median_of([](const ProbePair& m) { return m.regional_km; });
    out.global_km = median_of([](const ProbePair& m) { return m.global_km; });
    // Representative member (the median-RTT one) provides the categorical
    // fields: catchment sites and route classes.
    const ProbePair* rep = members.front();
    double best_gap = std::numeric_limits<double>::infinity();
    for (const ProbePair* m : members) {
      const double gap = std::abs(m->regional_ms - out.regional_ms);
      if (gap < best_gap) {
        best_gap = gap;
        rep = m;
      }
    }
    out.regional_site = rep->regional_site;
    out.global_site = rep->global_site;
    out.same_site = rep->regional_site == rep->global_site;
    out.regional_cls = rep->regional_cls;
    out.global_cls = rep->global_cls;
    out.route_server_feed_visible = rep->rs_feed_visible;
    out.cause = rep->cause;
    result.groups.push_back(out);
  }
  return result;
}

CauseBreakdown classify_reduction_causes(const ComparisonResult& result, double threshold_ms) {
  CauseBreakdown out;
  for (const PairedGroup& g : result.groups) {
    if (g.global_ms - g.regional_ms <= threshold_ms) continue;
    ++out.reduced_groups;
    switch (g.cause) {
      case analysis::ReductionCause::AsRelationshipOverride:
        ++out.as_relationship;
        break;
      case analysis::ReductionCause::PeeringTypeOverride:
        ++out.peering_type;
        break;
      case analysis::ReductionCause::Unknown:
        ++out.unknown;
        break;
    }
  }
  return out;
}

}  // namespace ranycast::lab
