// The capacity/overload solve: map a window's flows onto the current
// catchment, apply the overload policy, and report per-site serving state.
//
// The solve is a pure serial function of (flows, assignment, config) — flows
// are walked in index order, shed waves visit sites in ascending id and move
// flows from the back of a site's arrival list, and a headroom tie between
// shed targets goes to the one listed first in ProbeAssign::alternates
// (region order, not site id). No RNG, no clock: the same inputs produce the
// same TrafficSolve bytes, which is what lets chaos fold traffic accounting
// into its byte-identical resume guarantee.
#pragma once

#include <cstddef>
#include <vector>

#include "ranycast/core/fields.hpp"
#include "ranycast/core/types.hpp"
#include "ranycast/traffic/flows.hpp"
#include "ranycast/traffic/model.hpp"

namespace ranycast::traffic {

/// Where one probe's flows land: its catchment site, plus the sites it could
/// be steered to via other regional prefixes (DNS-steered shedding targets,
/// deduplicated, ordered by region index — deterministic).
struct ProbeAssign {
  SiteId site{kInvalidSite};
  std::vector<SiteId> alternates;

  bool operator==(const ProbeAssign&) const = default;
};

/// Serving state of one site after the policy ran.
struct SiteLoad {
  double capacity_mbps{0.0};
  double offered_mbps{0.0};  ///< catchment demand arriving at the site
  double served_mbps{0.0};
  double shed_out_mbps{0.0};  ///< steered away under Shed
  double dropped_mbps{0.0};   ///< beyond raw capacity, lost
  /// served / capacity; exactly 0 for a zero-capacity site (which serves
  /// nothing — all arrivals drop; reported as `n/a` by the table renderers).
  double utilization{0.0};
  /// M/M/1 wait: service_ms * rho / (1 - rho), rho clamped to max_rho.
  double queue_delay_ms{0.0};
  std::size_t flows_offered{0};
  std::size_t flows_served{0};
  std::size_t flows_shed_out{0};
  std::size_t flows_shed_in{0};
  std::size_t flows_dropped{0};
  bool overloaded{false};  ///< past the admission threshold (or capacity 0 with demand)

  bool operator==(const SiteLoad&) const = default;
};

/// SiteLoad's field list (core/fields.hpp). Its JSON object also carries
/// the site's position as "site", added by traffic::step_to_json.
template <core::RecordOf<SiteLoad> Self, typename F>
void for_each_field(Self& s, F&& f) {
  f("capacity_mbps", s.capacity_mbps);
  f("offered_mbps", s.offered_mbps);
  f("served_mbps", s.served_mbps);
  f("shed_out_mbps", s.shed_out_mbps);
  f("dropped_mbps", s.dropped_mbps);
  f("utilization", s.utilization);
  f("queue_delay_ms", s.queue_delay_ms);
  f("flows_offered", s.flows_offered);
  f("flows_served", s.flows_served);
  f("flows_shed_out", s.flows_shed_out);
  f("flows_shed_in", s.flows_shed_in);
  f("flows_dropped", s.flows_dropped);
  f("overloaded", s.overloaded);
}

struct TrafficSolve {
  std::vector<SiteLoad> sites;

  double offered_mbps{0.0};
  double served_mbps{0.0};
  double shed_mbps{0.0};
  double dropped_mbps{0.0};
  std::size_t flows_offered{0};
  std::size_t flows_served{0};
  std::size_t flows_shed{0};
  std::size_t flows_dropped{0};
  /// Flows whose probe had no route at all this step (catchment lost, not a
  /// capacity question) — kept out of the per-site math so a dark catchment
  /// cannot divide by zero or masquerade as served load.
  std::size_t flows_unrouted{0};
  double unrouted_mbps{0.0};

  std::size_t overloaded_sites{0};
  /// Shed waves that pushed a previously-healthy site past the admission
  /// threshold (each wave sheds from the sites the previous wave tipped).
  std::size_t cascade_depth{0};
  double max_utilization{0.0};
  double mean_utilization{0.0};  ///< over sites with capacity > 0
  double queue_delay_p50_ms{0.0};
  double queue_delay_p90_ms{0.0};
  double queue_delay_max_ms{0.0};

  bool operator==(const TrafficSolve&) const = default;
};

/// TrafficSolve's field list (core/fields.hpp): nested inline in StepTraffic.
template <core::RecordOf<TrafficSolve> Self, typename F>
void for_each_field(Self& s, F&& f) {
  f("sites", s.sites);
  f("offered_mbps", s.offered_mbps);
  f("served_mbps", s.served_mbps);
  f("shed_mbps", s.shed_mbps);
  f("dropped_mbps", s.dropped_mbps);
  f("flows_offered", s.flows_offered);
  f("flows_served", s.flows_served);
  f("flows_shed", s.flows_shed);
  f("flows_dropped", s.flows_dropped);
  f("flows_unrouted", s.flows_unrouted);
  f("unrouted_mbps", s.unrouted_mbps);
  f("overloaded_sites", s.overloaded_sites);
  f("cascade_depth", s.cascade_depth);
  f("max_utilization", s.max_utilization);
  f("mean_utilization", s.mean_utilization);
  f("queue_delay_p50_ms", s.queue_delay_p50_ms);
  f("queue_delay_p90_ms", s.queue_delay_p90_ms);
  f("queue_delay_max_ms", s.queue_delay_max_ms);
}

/// The M/M/1 wait-time inflation for one site. Monotone non-decreasing in
/// utilization; finite for every input (rho clamps to max_rho, non-positive
/// service time yields 0).
double queueing_delay_ms(double utilization, double service_ms, double max_rho) noexcept;

/// Mean per-flow service time at a site, milliseconds.
double service_time_ms(double mean_flow_bytes, double capacity_mbps) noexcept;

/// Run the policy. `assign` is indexed by Flow::probe; `site_count` sizes the
/// per-site output (assignments referencing sites >= site_count are treated
/// as unrouted).
TrafficSolve solve(const FlowSet& flows, std::span<const ProbeAssign> assign,
                   std::size_t site_count, const TrafficConfig& cfg);

}  // namespace ranycast::traffic
