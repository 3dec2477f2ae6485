#include "ranycast/converge/plane.hpp"

#include <algorithm>
#include <tuple>

#include "ranycast/analysis/stats.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/metrics.hpp"

namespace ranycast::converge {

namespace {

/// Convergence and outage windows run milliseconds to minutes.
constexpr double kTransientMsBounds[] = {10,  20,  50,  100, 200,   500,  1e3,
                                         2e3, 5e3, 1e4, 2e4, 5e4, 1e5};

}  // namespace

std::vector<std::vector<bgp::OriginAttachment>> origins_by_region(
    const cdn::Deployment& dep) {
  std::vector<std::vector<bgp::OriginAttachment>> out;
  out.reserve(dep.regions().size());
  for (std::size_t r = 0; r < dep.regions().size(); ++r) {
    out.push_back(dep.origins_for_region(r));
  }
  return out;
}

std::vector<std::vector<bgp::OriginChange>> diff_origins(
    const std::vector<std::vector<bgp::OriginAttachment>>& before,
    const std::vector<std::vector<bgp::OriginAttachment>>& after) {
  const std::vector<bgp::OriginAttachment> none;
  std::vector<std::vector<bgp::OriginChange>> out(before.size());
  for (std::size_t r = 0; r < before.size(); ++r) {
    out[r] = bgp::diff_origin_changes(before[r], r < after.size() ? after[r] : none);
  }
  return out;
}

Plane::Plane(const lab::Lab& lab, const lab::DeploymentHandle& handle, const Config& cfg)
    : lab_(lab), handle_(handle), cfg_(cfg) {
  const cdn::Deployment& dep = handle_.deployment;
  const auto mirror = std::make_shared<const Mirror>(lab_.world().graph);
  sims_.reserve(dep.regions().size());
  for (std::size_t r = 0; r < dep.regions().size(); ++r) {
    // The steady-state solve's tie-break seed, so the quiesced attributes
    // are bit-equal to the solver's.
    sims_.push_back(std::make_unique<PrefixSim>(lab_.world().graph, mirror, dep.asn(),
                                                lab_.tiebreak_seed(r), cfg_));
  }
}

void Plane::rebuild() {
  const cdn::Deployment& dep = handle_.deployment;
  exec::ThreadPool::global().parallel_for(sims_.size(), [&](std::size_t r) {
    const auto origins = dep.origins_for_region(r);
    sims_[r]->cold_start(origins);
  });
}

StepTransient Plane::step(std::size_t index, std::string event,
                          std::span<const std::vector<bgp::OriginChange>> changes_by_region,
                          std::span<const ProbeRef> probes,
                          std::optional<std::span<const bgp::LinkDelta>> toggled) {
  StepTransient out;
  out.index = index;
  out.event = std::move(event);
  out.regions.resize(sims_.size());

  const topo::Graph& graph = lab_.world().graph;
  exec::ThreadPool::global().parallel_for(sims_.size(), [&](std::size_t r) {
    static const std::vector<bgp::OriginChange> kEmpty;
    const auto& changes = r < changes_by_region.size() ? changes_by_region[r] : kEmpty;
    PrefixSim& sim = *sims_[r];
    RegionTransient rt = sim.run_step(changes, {}, toggled);
    // Differential verdict: the quiesced catchment must equal the solver's
    // for the same (already re-solved) topology, at every AS.
    const bgp::RoutingOutcome& steady = handle_.outcomes[r];
    for (std::size_t i = 0; i < sim.node_count(); ++i) {
      if (sim.catchment(i) != steady.catchment_at(i)) ++rt.mismatches;
    }
    rt.matches_steady = rt.mismatches == 0;
    out.regions[r] = rt;
  });

  out.matches_steady = true;
  for (const RegionTransient& rt : out.regions) {
    out.matches_steady = out.matches_steady && rt.matches_steady;
    out.oscillating = out.oscillating || rt.oscillating;
  }

  // Probe rollup, in probe order so the reduce is thread-count independent.
  std::vector<double> reconverge_ms;
  std::vector<double> blackhole_ms;
  out.probes = probes.size();
  for (const ProbeRef& p : probes) {
    const auto idx = graph.index_of(p.asn);
    if (!idx || p.region >= sims_.size()) continue;
    const NodeTimeline& t = sims_[p.region]->timelines()[*idx];
    if (t.blackhole_us > 0) {
      ++out.probes_blackholed;
      blackhole_ms.push_back(static_cast<double>(t.blackhole_us) / 1000.0);
    }
    if (t.looped) ++out.probes_looped;
    if (t.site_flips > 0) ++out.probes_flipped;
    if (t.dark_at_end) ++out.probes_dark_at_end;
    if (t.changed) reconverge_ms.push_back(static_cast<double>(t.last_change_us) / 1000.0);
  }
  // Recorded before the percentiles reorder the samples: a histogram's sum
  // adds them in probe order.
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("converge.steps").add();
    if (out.oscillating) reg.counter("converge.oscillations").add();
    reg.histogram("converge.reconverge_ms", kTransientMsBounds).record_batch(reconverge_ms);
    reg.histogram("converge.blackhole_ms", kTransientMsBounds).record_batch(blackhole_ms);
  }
  if (!reconverge_ms.empty()) {
    out.reconverge_max_ms = *std::max_element(reconverge_ms.begin(), reconverge_ms.end());
    std::tie(out.reconverge_p50_ms, out.reconverge_p90_ms) =
        analysis::percentile_pair(reconverge_ms, 50.0, 90.0);
  }
  if (!blackhole_ms.empty()) {
    out.blackhole_max_ms = *std::max_element(blackhole_ms.begin(), blackhole_ms.end());
    std::tie(out.blackhole_p50_ms, out.blackhole_p90_ms) =
        analysis::percentile_pair(blackhole_ms, 50.0, 90.0);
  }

  if (obs::journal() != nullptr) {
    using F = obs::JournalField;
    // The record's scalar fields, then a compact per-region convergence/
    // blackhole envelope (virtual µs), which the trace exporter renders as
    // async blackhole windows.
    std::string regions_json = "[";
    for (std::size_t r = 0; r < out.regions.size(); ++r) {
      const RegionTransient& rt = out.regions[r];
      if (r > 0) regions_json += ',';
      regions_json += "{\"region\":" + std::to_string(r) +
                      ",\"converged_us\":" + std::to_string(rt.converged_us) +
                      ",\"max_blackhole_us\":" + std::to_string(rt.max_blackhole_us) +
                      ",\"blackholed\":" + std::to_string(rt.nodes_blackholed) + "}";
    }
    regions_json += ']';
    std::vector<F> fields = obs::journal_fields(out);
    fields.push_back(F::raw("regions", std::move(regions_json)));
    obs::journal_event("transient_window", fields);
  }
  return out;
}

}  // namespace ranycast::converge
