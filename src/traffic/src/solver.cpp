#include "ranycast/traffic/solver.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "ranycast/analysis/stats.hpp"

namespace ranycast::traffic {

double service_time_ms(double mean_flow_bytes, double capacity_mbps) noexcept {
  if (!(mean_flow_bytes > 0.0) || !(capacity_mbps > 0.0)) return 0.0;
  // bytes -> bits, Mbps -> bits/ms leaves bits / (1000 * Mbps).
  return mean_flow_bytes * 8.0 / (capacity_mbps * 1000.0);
}

double queueing_delay_ms(double utilization, double service_ms, double max_rho) noexcept {
  if (!(service_ms > 0.0) || !(utilization > 0.0)) return 0.0;
  const double cap = std::isfinite(max_rho) && max_rho > 0.0 && max_rho < 1.0 ? max_rho : 0.99;
  const double rho = std::min(utilization, cap);
  return service_ms * rho / (1.0 - rho);
}

namespace {

struct SiteState {
  double cap_bytes{0.0};         ///< capacity over the window
  double load_bytes{0.0};        ///< current arrival mass (moves during shed)
  std::vector<std::size_t> flow_list;  ///< indices into flows, arrival order
};

}  // namespace

TrafficSolve solve(const FlowSet& set, std::span<const ProbeAssign> assign,
                   std::size_t site_count, const TrafficConfig& cfg) {
  TrafficSolve out;
  out.sites.resize(site_count);
  const double window = cfg.window_s > 0.0 ? cfg.window_s : 1.0;
  const auto mbps = [window](double bytes) { return bytes * 8.0 / window / 1e6; };

  std::vector<SiteState> state(site_count);
  for (std::size_t s = 0; s < site_count; ++s) {
    out.sites[s].capacity_mbps = cfg.capacity_mbps(s);
    state[s].cap_bytes = std::max(0.0, out.sites[s].capacity_mbps) * 1e6 / 8.0 * window;
  }

  // --- arrival: every flow lands on its probe's catchment site ------------
  for (std::size_t f = 0; f < set.flows.size(); ++f) {
    const Flow& flow = set.flows[f];
    const std::size_t p = flow.probe;
    const std::size_t s = p < assign.size() ? static_cast<std::size_t>(value(assign[p].site))
                                            : static_cast<std::size_t>(value(kInvalidSite));
    if (s >= site_count) {
      ++out.flows_unrouted;
      out.unrouted_mbps += mbps(flow.bytes);
      continue;
    }
    state[s].flow_list.push_back(f);
    state[s].load_bytes += flow.bytes;
    out.sites[s].offered_mbps += mbps(flow.bytes);
    ++out.sites[s].flows_offered;
  }

  const double threshold =
      std::isfinite(cfg.admission_threshold) && cfg.admission_threshold > 0.0
          ? std::min(cfg.admission_threshold, 1.0)
          : 0.95;
  const auto over_threshold = [&](std::size_t s) {
    return state[s].load_bytes > threshold * state[s].cap_bytes;
  };

  // --- shed relaxation (DNS-steered policy only) --------------------------
  // Each wave sheds the newest arrivals of every over-threshold site onto
  // the shed target with the most headroom (on a tie, the one listed first
  // in the probe's alternates). A target accepts up to raw capacity, so a
  // wave can tip a previously-healthy site over the threshold; the next
  // wave sheds from it in turn. cascade_depth counts the waves that tipped
  // someone.
  if (cfg.policy == OverloadPolicy::Shed) {
    std::vector<char> shed_once(set.flows.size(), 0);
    for (std::size_t wave = 0; wave < cfg.max_shed_waves; ++wave) {
      bool tipped_this_wave = false;
      std::vector<char> healthy_at_wave_start(site_count, 0);
      for (std::size_t s = 0; s < site_count; ++s) {
        healthy_at_wave_start[s] = over_threshold(s) ? 0 : 1;
      }
      for (std::size_t s = 0; s < site_count; ++s) {
        if (healthy_at_wave_start[s]) continue;
        auto& list = state[s].flow_list;
        // Walk newest-first; shed candidates move, unsheddable ones stay put.
        for (std::size_t pos = list.size(); pos-- > 0 && over_threshold(s);) {
          const std::size_t f = list[pos];
          if (shed_once[f]) continue;
          const Flow& flow = set.flows[f];
          const ProbeAssign& pa = assign[flow.probe];
          std::size_t best = site_count;
          double best_headroom = 0.0;
          for (SiteId alt : pa.alternates) {
            const std::size_t a = value(alt);
            if (a >= site_count || a == s) continue;
            const double headroom = state[a].cap_bytes - state[a].load_bytes;
            if (headroom < flow.bytes) continue;  // accepts only up to raw capacity
            if (best == site_count || headroom > best_headroom) {
              best = a;
              best_headroom = headroom;
            }
          }
          if (best == site_count) continue;  // nowhere to steer this flow
          const bool target_was_healthy =
              healthy_at_wave_start[best] != 0 && !over_threshold(best);
          list.erase(list.begin() + static_cast<std::ptrdiff_t>(pos));
          state[s].load_bytes -= flow.bytes;
          state[best].flow_list.push_back(f);
          state[best].load_bytes += flow.bytes;
          shed_once[f] = 1;
          out.sites[s].shed_out_mbps += mbps(flow.bytes);
          ++out.sites[s].flows_shed_out;
          ++out.sites[best].flows_shed_in;
          if (target_was_healthy && over_threshold(best)) tipped_this_wave = true;
        }
      }
      if (!tipped_this_wave) break;  // nothing new to shed next wave
      ++out.cascade_depth;
    }
    for (std::size_t s = 0; s < site_count; ++s) {
      out.shed_mbps += out.sites[s].shed_out_mbps;
      out.flows_shed += out.sites[s].flows_shed_out;
    }
  }

  // --- drop past raw capacity, newest arrivals first ----------------------
  const double mean_flow = cfg.flow_sizes.mean_bytes();
  std::vector<double> delays;
  delays.reserve(site_count);
  for (std::size_t s = 0; s < site_count; ++s) {
    SiteLoad& site = out.sites[s];
    auto& list = state[s].flow_list;
    while (state[s].load_bytes > state[s].cap_bytes && !list.empty()) {
      const Flow& flow = set.flows[list.back()];
      list.pop_back();
      state[s].load_bytes -= flow.bytes;
      site.dropped_mbps += mbps(flow.bytes);
      ++site.flows_dropped;
    }
    site.flows_served = list.size();
    site.served_mbps = mbps(state[s].load_bytes);
    if (site.capacity_mbps > 0.0) {
      site.utilization = site.served_mbps / site.capacity_mbps;
      site.queue_delay_ms = queueing_delay_ms(
          site.utilization, service_time_ms(mean_flow, site.capacity_mbps), cfg.max_rho);
      site.overloaded = site.utilization > threshold;
      delays.push_back(site.queue_delay_ms);
      out.mean_utilization += site.utilization;
      out.max_utilization = std::max(out.max_utilization, site.utilization);
      out.queue_delay_max_ms = std::max(out.queue_delay_max_ms, site.queue_delay_ms);
    } else {
      // Zero-capacity site: serves nothing, every arrival dropped above;
      // utilization stays exactly 0 (no 0/0), renderers print `n/a`.
      site.overloaded = site.flows_offered > 0;
    }
    if (site.overloaded) ++out.overloaded_sites;
    out.offered_mbps += site.offered_mbps;
    out.served_mbps += site.served_mbps;
    out.dropped_mbps += site.dropped_mbps;
    out.flows_offered += site.flows_offered;
    out.flows_served += site.flows_served;
    out.flows_dropped += site.flows_dropped;
  }
  out.mean_utilization =
      delays.empty() ? 0.0 : out.mean_utilization / static_cast<double>(delays.size());
  std::tie(out.queue_delay_p50_ms, out.queue_delay_p90_ms) =
      analysis::percentile_pair(delays, 50, 90);
  return out;
}

}  // namespace ranycast::traffic
