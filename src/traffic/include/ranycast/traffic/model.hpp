// The flow-level traffic model: empirical flow-size CDFs, per-site capacity
// and the overload policy knobs.
//
// The paper evaluates regional anycast by latency alone; this plane adds the
// production half of the story — real demand against finite site capacity.
// Demand follows the shape reported for production anycast CDNs ("A First
// Look at Anycast CDN Traffic"): Poisson flow arrivals per <city, AS> probe
// group over a heavy-tailed empirical flow-size distribution, so a handful
// of elephants carry most bytes while mice dominate flow counts. Every knob
// is deterministic: no wall clock, no global RNG — two runs with the same
// TrafficConfig and seed generate byte-identical demand.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "ranycast/core/fields.hpp"

namespace ranycast::traffic {

/// What happens to load above a site's admission threshold.
enum class OverloadPolicy : std::uint8_t {
  /// Pure anycast: clients cannot be steered away per-flow, so an overloaded
  /// site serves what it can — queueing delay climbs and flows beyond raw
  /// capacity are dropped. Catchment spill still happens *between* chaos
  /// steps (a withdrawal moves whole catchments onto neighbors), which is
  /// exactly how a failover tips an already-hot site over.
  Spill = 0,
  /// DNS-steered shedding: excess flows above the admission threshold are
  /// re-answered onto another regional prefix the client can reach. Shed
  /// targets accept up to raw capacity, so a shed wave can push a healthy
  /// site past its own threshold — the next wave sheds from it in turn
  /// (cascade accounting).
  Shed = 1,
};

std::string_view to_string(OverloadPolicy p) noexcept;

/// Every policy (core::NamedEnum: configs name a policy by to_string).
constexpr std::array<OverloadPolicy, 2> enum_values(OverloadPolicy) noexcept {
  return {OverloadPolicy::Spill, OverloadPolicy::Shed};
}

/// Piecewise-linear empirical flow-size CDF (bytes). `bytes` and `prob` are
/// parallel, strictly increasing, with prob.back() == 1.0; sampling inverts
/// the CDF with linear interpolation between knots, so quantile u maps to a
/// unique size and the sampler is monotone in u.
struct FlowSizeCdf {
  std::vector<double> bytes;
  std::vector<double> prob;

  /// Inverse-CDF sample for u in [0, 1); clamped to [bytes.front(), back()].
  double sample(double u) const noexcept;

  /// Analytic mean of the piecewise-linear distribution (used for the M/M/1
  /// service-time term so the delay model never re-samples).
  double mean_bytes() const noexcept;

  /// Anycast CDN default: mice-dominated flow counts with an elephant tail
  /// carrying most of the bytes (shape after "A First Look at Anycast CDN
  /// Traffic": ~70% of flows under 10 KB, >half the bytes in the top few
  /// percent of flows).
  static FlowSizeCdf anycast_cdn();

  bool operator==(const FlowSizeCdf&) const = default;
};

/// FlowSizeCdf's field list (core/fields.hpp).
template <core::RecordOf<FlowSizeCdf> Self, typename F>
void for_each_field(Self& c, F&& f) {
  f("bytes", c.bytes);
  f("prob", c.prob);
}

struct TrafficConfig {
  /// Poisson arrival rate per retained probe, flows per second. A group's
  /// rate is members * this (a <city, AS> group aggregates its probes'
  /// users). Scaled by demand_scale and any in-plan traffic_surge event.
  double flows_per_probe_per_s{2.0};
  /// Simulated measurement window per chaos step, seconds.
  double window_s{1.0};
  /// Global demand multiplier (sweeps, surge scenarios).
  double demand_scale{1.0};
  FlowSizeCdf flow_sizes{FlowSizeCdf::anycast_cdn()};

  /// Serving capacity per site, megabits per second. Per-site overrides
  /// (indexed by SiteId) fall back to the default when the vector is short.
  double default_site_capacity_mbps{600.0};
  std::vector<double> site_capacity_mbps;

  OverloadPolicy policy{OverloadPolicy::Spill};
  /// Utilization above which a site is overloaded: Shed starts steering
  /// flows away, reports count the site in overloaded_sites.
  double admission_threshold{0.95};
  /// Clamp for the M/M/1 rho term so the queueing-delay inflation stays
  /// finite as utilization approaches 1 (assert-free in release).
  double max_rho{0.99};
  /// Bound on shed relaxation waves (each wave may tip further sites over).
  std::size_t max_shed_waves{8};
  std::uint64_t seed{0x7AFF1C};

  double capacity_mbps(std::size_t site) const noexcept {
    if (site < site_capacity_mbps.size() && site_capacity_mbps[site] > 0.0) {
      return site_capacity_mbps[site];
    }
    return default_site_capacity_mbps;
  }

  bool operator==(const TrafficConfig&) const = default;
};

/// TrafficConfig's field list (core/fields.hpp): a traffic block's schema.
template <core::RecordOf<TrafficConfig> Self, typename F>
void for_each_field(Self& c, F&& f) {
  f("flows_per_probe_per_s", c.flows_per_probe_per_s);
  f("window_s", c.window_s);
  f("demand_scale", c.demand_scale);
  f("flow_sizes", c.flow_sizes);
  f("default_site_capacity_mbps", c.default_site_capacity_mbps);
  f("site_capacity_mbps", c.site_capacity_mbps);
  f("policy", c.policy);
  f("admission_threshold", c.admission_threshold);
  f("max_rho", c.max_rho);
  f("max_shed_waves", c.max_shed_waves);
  f("seed", c.seed);
}

/// Stable hash over every field of the list, folded into guard checkpoint
/// fingerprints so a resume under a different traffic model is refused
/// (same contract as converge::fingerprint).
std::uint64_t fingerprint(const TrafficConfig& c) noexcept;

}  // namespace ranycast::traffic
