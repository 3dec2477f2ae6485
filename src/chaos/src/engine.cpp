#include "ranycast/chaos/engine.hpp"

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <tuple>

#include "ranycast/analysis/stats.hpp"
#include "ranycast/core/crc32.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/span.hpp"

namespace ranycast::chaos {

namespace {

obs::MetricsRegistry& metrics() { return obs::MetricsRegistry::global(); }

// --- checkpoint payload (under the guard envelope) -------------------------
// The step list, then the transient list when the plane is on, then the
// traffic list when traffic is on: each a u64 count and its records, each
// record its field list in declaration order (guard::write_fields). Doubles
// travel as raw IEEE-754 bits, so a loaded report is bit-for-bit the one
// that was saved — the property the byte-identical resume guarantee rests
// on.

/// Thrown out of the sweep's process hook on an unappliable event; caught
/// in run_guarded and converted back into the Expected error channel.
struct StepFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One journal line per *measured* step. Resumed runs replay already-measured
/// events without re-measuring, so replayed steps are never re-emitted — a
/// journal's chaos_step events after dedup by index are exactly the report's
/// steps (a mid-step kill can leave one duplicate index before the resume
/// marker; consumers keep the last occurrence).
void journal_step(const StepReport& s, std::uint64_t dur_ns,
                  const std::optional<bgp::DeltaStats>& delta) {
  if (obs::journal() == nullptr) return;
  using F = obs::JournalField;
  std::vector<F> fields = obs::journal_fields(s);
  fields.push_back(F::u64_field("dur_ns", dur_ns));
  // Re-solve accounting, present on routing steps only.
  if (delta) {
    fields.push_back(F::u64_field("delta_affected_ases", delta->affected_ases));
    fields.push_back(F::u64_field("delta_fallback_full", delta->full_regions));
    fields.push_back(F::u64_field("delta_regions", delta->delta_regions));
  }
  obs::journal_event("chaos_step", fields);
}

/// One journal line per measured step when traffic is on, right after the
/// step's chaos_step line (same dedup-by-index contract on resume).
void journal_traffic(const traffic::StepTraffic& t) {
  if (obs::journal() == nullptr) return;
  using F = obs::JournalField;
  obs::journal_event(
      "traffic_step",
      {F::u64_field("index", t.index), F::str("event", t.event),
       F::f64_field("offered_mbps", t.solve.offered_mbps),
       F::f64_field("served_mbps", t.solve.served_mbps),
       F::f64_field("shed_mbps", t.solve.shed_mbps),
       F::f64_field("dropped_mbps", t.solve.dropped_mbps),
       F::u64_field("flows_offered", t.solve.flows_offered),
       F::u64_field("flows_shed", t.solve.flows_shed),
       F::u64_field("flows_dropped", t.solve.flows_dropped),
       F::u64_field("flows_unrouted", t.solve.flows_unrouted),
       F::u64_field("overloaded_sites", t.solve.overloaded_sites),
       F::u64_field("tipped_sites", t.tipped_sites),
       F::u64_field("cascade_depth", t.cascade_depth),
       F::f64_field("max_utilization", t.solve.max_utilization),
       F::f64_field("mean_utilization", t.solve.mean_utilization),
       F::f64_field("queue_delay_p90_ms", t.solve.queue_delay_p90_ms),
       F::f64_field("inflated_p50_ms", t.inflated_p50_ms),
       F::f64_field("inflated_p90_ms", t.inflated_p90_ms)});
}

/// Row equality down to the RTT's sign: the percentiles read its bits. A
/// NaN RTT never compares equal, which only costs a reuse.
bool same_row(const lab::Measurement& a, const lab::Measurement& b) noexcept {
  return a == b && std::signbit(a.rtt_ms) == std::signbit(b.rtt_ms);
}

/// The rows of `after` that differ from `before` among `which` (every row
/// when null), ascending, each with its value in `before`.
std::vector<std::pair<std::uint32_t, lab::Measurement>> changed_rows(
    const std::vector<lab::Measurement>& before, const std::vector<lab::Measurement>& after,
    const std::vector<std::uint32_t>* which) {
  std::vector<std::pair<std::uint32_t, lab::Measurement>> out;
  const auto check = [&](std::uint32_t i) {
    if (!same_row(before[i], after[i])) out.emplace_back(i, before[i]);
  };
  if (which != nullptr) {
    for (const std::uint32_t i : *which) check(i);
  } else {
    for (std::uint32_t i = 0; i < before.size(); ++i) check(i);
  }
  return out;
}

/// Undo frames a carry keeps; past that the oldest is dropped.
constexpr std::size_t kMaxUndoFrames = 8;

}  // namespace

bool reverses(const StepUndo& frame, const StepUndo& step,
              std::span<const traffic::ProbeAssign> assign,
              std::span<const lab::Measurement> rows) {
  const auto undone = [](const auto& saved, const auto& changed, const auto& now,
                         const auto& same) {
    if (saved.size() != changed.size()) return false;
    for (std::size_t k = 0; k < saved.size(); ++k) {
      const std::uint32_t i = saved[k].first;
      if (changed[k].first != i || i >= now.size() || !same(now[i], saved[k].second)) {
        return false;
      }
    }
    return true;
  };
  return undone(frame.assigns, step.assigns, assign, std::equal_to<>{}) &&
         undone(frame.rows, step.rows, rows, same_row);
}

std::uint64_t plan_fingerprint(const lab::Lab& laboratory, const cdn::Deployment& dep,
                               const FaultPlan& plan) {
  std::uint64_t h = io::config_fingerprint(laboratory.config());
  h = hash_combine(h, core::crc32(dep.name().data(), dep.name().size()));
  h = hash_combine(h, core::crc32(plan.name.data(), plan.name.size()));
  for (const FaultEvent& e : plan.events) {
    const std::string d = describe(e);
    h = hash_combine(h, core::crc32(d.data(), d.size()));
  }
  return h;
}

/// The measurements of the lab's current state, carried from one step to
/// the next: step i's after-pass and post-fault traffic solve are step
/// i+1's before-pass and before_solve. Starts empty, so a run's first step
/// (and the first step after a resume's fast-forward, which does not
/// measure) takes a full before-pass.
struct Engine::Carry {
  std::vector<lab::Measurement> before;
  std::vector<lab::Measurement> after;  ///< scratch buffer for the after-pass
  bool measured{false};                 ///< `before` holds the current state's pass
  /// Traffic of the current state: each probe's assignment, the solve over
  /// it (both empty until the first traffic step solves them) and the
  /// inflated-RTT p50/p90 of the pass under that solve (empty until a step
  /// selects them).
  std::vector<traffic::ProbeAssign> assign;
  std::optional<traffic::TrafficSolve> solve;
  std::optional<std::pair<double, double>> inflated;
  /// A traffic state an earlier step left: what that step changed, and the
  /// solve and percentiles of the state before it.
  struct Frame {
    StepUndo undo;
    traffic::TrafficSolve solve;
    std::optional<std::pair<double, double>> inflated;
  };
  /// Newest last, at most kMaxUndoFrames, all over the current flows. Not
  /// checkpointed: a resumed run starts with none, which only costs solves.
  std::vector<Frame> frames;
};

/// Indices into the retained probes, ascending.
struct Engine::Reach {
  std::vector<std::uint32_t> remeasure;  ///< AS row changed in the answered region
  std::vector<std::uint32_t> reassign;   ///< AS row changed in any region
};

Engine::Engine(lab::Lab& laboratory, const lab::DeploymentHandle& handle)
    : lab_(laboratory),
      handle_(laboratory.handle_mut(handle)),
      retained_(laboratory.census().retained()) {}

void Engine::enable_transient(const converge::Config& cfg) {
  transient_cfg_ = cfg;
  plane_.reset();
}

void Engine::enable_traffic(const traffic::TrafficConfig& cfg) {
  traffic_cfg_ = cfg;
  flow_cache_.reset();
  groups_built_ = false;
}

const traffic::FlowSet& Engine::current_flows() {
  if (!groups_built_) {
    probe_groups_ = atlas::group_probes(retained_);
    groups_built_ = true;
  }
  // Demand only changes when a traffic_surge/_restore event moves the scale;
  // key the cache on the exact bits so equal scales never regenerate.
  const std::uint64_t key = std::bit_cast<std::uint64_t>(surge_scale_);
  if (!flow_cache_ || flow_cache_->first != key) {
    flow_cache_.emplace(key, traffic::generate_flows(probe_groups_, retained_,
                                                     *traffic_cfg_, surge_scale_));
  }
  return flow_cache_->second;
}

void Engine::reassign(const std::vector<lab::Measurement>& rows,
                      std::vector<traffic::ProbeAssign>& assign,
                      const std::vector<std::uint32_t>* which,
                      std::vector<std::pair<std::uint32_t, traffic::ProbeAssign>>* changed) const {
  const std::size_t regions = handle_->deployment.regions().size();
  const bool shed = traffic_cfg_->policy == traffic::OverloadPolicy::Shed;
  // A probe's assignment is pure in (row, live routes): disjoint slots, so
  // the fan-out is worker-count independent like every measurement pass.
  // Each changed slot keeps its previous assignment at its own position,
  // compacted in index order below.
  const std::size_t count = which != nullptr ? which->size() : rows.size();
  const auto index = [&](std::size_t k) {
    return static_cast<std::uint32_t>(which != nullptr ? (*which)[k] : k);
  };
  std::vector<std::optional<traffic::ProbeAssign>> was(changed != nullptr ? count : 0);
  exec::ThreadPool::global().parallel_for(count, [&](std::size_t k) {
    const std::size_t i = index(k);
    const lab::Measurement& m = rows[i];
    traffic::ProbeAssign pa;
    if (m.routed) {
      pa.site = SiteId{m.site};
      // DNS can steer this client to any other regional prefix it still
      // has a route to; the shed targets are those prefixes' catchment
      // sites (region order — deterministic).
      for (std::size_t r2 = 0; shed && r2 < regions; ++r2) {
        if (r2 == m.region) continue;
        const auto site = handle_->catchment(retained_[i]->asn, r2);
        if (!site || *site == pa.site) continue;
        bool dup = false;
        for (SiteId existing : pa.alternates) dup = dup || existing == *site;
        if (!dup) pa.alternates.push_back(*site);
      }
    }
    if (pa != assign[i]) {
      if (changed != nullptr) was[k] = std::move(assign[i]);
      assign[i] = std::move(pa);
    }
  });
  if (changed == nullptr) return;
  changed->clear();
  for (std::size_t k = 0; k < count; ++k) {
    if (was[k]) changed->emplace_back(index(k), std::move(*was[k]));
  }
}

traffic::TrafficSolve Engine::solve_traffic(std::span<const traffic::ProbeAssign> assign) {
  return traffic::solve(current_flows(), assign, handle_->deployment.sites().size(),
                        *traffic_cfg_);
}

void Engine::ensure_plane() {
  if (!transient_cfg_ || plane_ != nullptr || handle_ == nullptr) return;
  // Cold-start on whatever the lab looks like right now — before the first
  // step of a fresh run, or after a resume's fast-forward replay. Either
  // way the plane quiesces onto the unique stable state of the current
  // topology, so the transients of the remaining steps are byte-identical
  // to an uninterrupted run's.
  plane_ = std::make_unique<converge::Plane>(lab_, *handle_, *transient_cfg_);
  plane_->rebuild();
}

Engine::Reach Engine::reach(const std::vector<lab::Measurement>& rows,
                            const std::vector<bgp::ChangedRows>& changed, bool assigns) {
  const topo::Graph& graph = lab_.world().graph;
  // Per region with changed rows, a byte per dense node index.
  std::vector<std::vector<std::uint8_t>> marks(changed.size());
  for (std::size_t r = 0; r < changed.size(); ++r) {
    if (changed[r].rows.empty()) continue;
    marks[r].assign(graph.nodes().size(), 0);
    for (const std::uint32_t x : changed[r].rows) marks[r][x] = 1;
  }
  // Lab::resolve_delta lists the rows of a region solved in full as well;
  // it never reports `all`.
  const auto moved_in = [&](std::size_t r, std::optional<std::size_t> x) {
    return !marks[r].empty() && x && marks[r][*x] != 0;
  };
  Reach out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto x = graph.index_of(retained_[i]->asn);
    if (moved_in(rows[i].region, x)) out.remeasure.push_back(static_cast<std::uint32_t>(i));
    if (!assigns) continue;
    for (std::size_t r = 0; r < changed.size(); ++r) {
      if (moved_in(r, x)) {
        out.reassign.push_back(static_cast<std::uint32_t>(i));
        break;
      }
    }
  }
  return out;
}

std::string Engine::apply(const FaultEvent& e, Changes* changed) {
  cdn::Deployment& dep = handle_->deployment;
  const auto sites = handle_->deployment.sites().size();
  const auto regions = handle_->deployment.regions().size();
  // Each kind records which measurement inputs it changed. Routing faults
  // change routes only: DNS reads the probes' census-time address truth, the
  // geo DB and the country/area tables, none of which a routing fault
  // touches, so DNS answers stand.
  // Demand (traffic_surge/_restore) is no measurement input at all.
  Changes changes;
  last_step_delta_.reset();
  // Describe the mutation to the solver as well as performing it. Origin
  // sets are captured around the switch (works for every fault kind
  // uniformly); link-state faults also record the toggled adjacencies.
  bgp::SolveDelta delta;
  const auto origins_before = converge::origins_by_region(dep);
  switch (e.kind) {
    case FaultKind::SiteWithdraw: {
      if (value(e.site) >= sites) return "unknown site " + std::to_string(value(e.site));
      if (withdrawn_sites_.count(value(e.site)) != 0) {
        return "site " + std::to_string(value(e.site)) + " is already withdrawn";
      }
      withdrawn_sites_[value(e.site)] = dep.withdraw_site(e.site);
      changes.routes = true;
      break;
    }
    case FaultKind::SiteRestore: {
      const auto it = withdrawn_sites_.find(value(e.site));
      if (it == withdrawn_sites_.end()) {
        return "site " + std::to_string(value(e.site)) + " was not withdrawn";
      }
      dep.restore_site(e.site, std::move(it->second));
      withdrawn_sites_.erase(it);
      changes.routes = true;
      break;
    }
    case FaultKind::SiteLinkDown:
    case FaultKind::SiteLinkUp: {
      if (value(e.site) >= sites) return "unknown site " + std::to_string(value(e.site));
      if (!dep.set_attachment_state(e.site, e.attachment, e.kind == FaultKind::SiteLinkUp)) {
        return "site " + std::to_string(value(e.site)) + " has no attachment " +
               std::to_string(e.attachment);
      }
      changes.routes = true;
      break;
    }
    case FaultKind::LinkDown:
    case FaultKind::LinkUp: {
      const bool up = e.kind == FaultKind::LinkUp;
      if (!lab_.graph_mut().set_link_state(e.a, e.b, up)) {
        return "no adjacency between AS" + std::to_string(value(e.a)) + " and AS" +
               std::to_string(value(e.b));
      }
      delta.links.push_back(bgp::LinkDelta{e.a, e.b, up});
      changes.routes = true;
      break;
    }
    case FaultKind::RouteServerDown:
    case FaultKind::RouteServerUp: {
      if (e.ixp >= lab_.world().graph.ixps().size()) {
        return "unknown IXP " + std::to_string(e.ixp);
      }
      const bool up = e.kind == FaultKind::RouteServerUp;
      lab_.graph_mut().set_route_server_state(e.ixp, up);
      for (const auto& [a, b] : lab_.world().graph.route_server_peerings(e.ixp)) {
        delta.links.push_back(bgp::LinkDelta{a, b, up});
      }
      changes.routes = true;
      break;
    }
    case FaultKind::RegionWithdraw: {
      if (e.region >= regions) return "unknown region " + std::to_string(e.region);
      if (withdrawn_regions_.count(e.region) != 0) {
        return "region " + std::to_string(e.region) + " is already withdrawn";
      }
      withdrawn_regions_[e.region] = dep.withdraw_region(e.region);
      changes.routes = true;
      break;
    }
    case FaultKind::RegionRestore: {
      const auto it = withdrawn_regions_.find(e.region);
      if (it == withdrawn_regions_.end()) {
        return "region " + std::to_string(e.region) + " was not withdrawn";
      }
      dep.restore_region(e.region, it->second);
      withdrawn_regions_.erase(it);
      changes.routes = true;
      break;
    }
    case FaultKind::GeoDbStale: {
      if (e.db >= 3) return "unknown geolocation database " + std::to_string(e.db);
      if (e.magnitude < 0.0 || e.magnitude > 1.0) {
        return "geodb_stale magnitude must be a probability in [0,1]";
      }
      auto fault = lab_.db_mut(e.db).fault();
      fault.extra_wrong_country_prob = e.magnitude;
      lab_.db_mut(e.db).set_fault(fault);
      changes.dns = true;
      break;
    }
    case FaultKind::GeoDbOutage: {
      if (e.db >= 3) return "unknown geolocation database " + std::to_string(e.db);
      auto fault = lab_.db_mut(e.db).fault();
      fault.outage = true;
      lab_.db_mut(e.db).set_fault(fault);
      changes.dns = true;
      break;
    }
    case FaultKind::GeoDbRestore: {
      if (e.db >= 3) return "unknown geolocation database " + std::to_string(e.db);
      lab_.db_mut(e.db).clear_fault();
      changes.dns = true;
      break;
    }
    case FaultKind::MeasurementDegrade: {
      const auto& f = e.faults;
      if (f.ping_loss_prob < 0.0 || f.ping_loss_prob > 1.0 || f.dns_timeout_prob < 0.0 ||
          f.dns_timeout_prob > 1.0) {
        return "measurement fault probabilities must be in [0,1]";
      }
      if (f.max_retries < 0) return "max_retries must be non-negative";
      lab_.set_measurement_faults(f);
      changes.dns = true;
      break;
    }
    case FaultKind::MeasurementRestore:
      lab_.set_measurement_faults(std::nullopt);
      changes.dns = true;
      break;
    case FaultKind::TrafficSurge:
      // Appliable with or without the traffic plane (so resume fast-forward
      // replays it unconditionally); without the plane it is a routing no-op.
      if (!std::isfinite(e.magnitude) || e.magnitude <= 0.0) {
        return "traffic_surge scale must be positive and finite";
      }
      surge_scale_ = e.magnitude;
      break;
    case FaultKind::TrafficRestore:
      surge_scale_ = 1.0;
      break;
  }
  if (changes.routes) {
    const auto origins_after = converge::origins_by_region(dep);
    delta.origins.resize(origins_after.size());
    for (std::size_t r = 0; r < origins_after.size(); ++r) {
      delta.origins[r] = bgp::diff_origin_changes(origins_before[r], origins_after[r]);
    }
    // Only a pass moved across the event reads the changed rows: a measured
    // step, or serve's drift hook patching its epoch. The resume
    // fast-forward does not ask for them.
    const bgp::DeltaStats stats =
        lab_.resolve_delta(*handle_, delta, changed != nullptr ? &changes.rows : nullptr);
    changes.origins = std::move(delta.origins);
    changes.links = std::move(delta.links);
    last_step_delta_ = stats;
    if (obs::enabled()) {
      auto& reg = metrics();
      reg.counter("chaos.delta.steps").add(1);
      reg.counter("chaos.delta.affected_ases").add(stats.affected_ases);
      reg.counter("chaos.delta.fallback_full").add(stats.full_regions);
      reg.histogram("chaos.delta.affected_ases")
          .record(static_cast<double>(stats.affected_ases));
    }
  }
  if (changed != nullptr) *changed = std::move(changes);
  return "";
}

Engine::Reach Engine::after_pass(const Changes& changes, std::vector<lab::Measurement>& rows,
                                 bool assigns) {
  Reach reached;
  if (changes.dns) {
    lab_.measure(*handle_, rows);
  } else if (changes.routes) {
    reached = reach(rows, changes.rows, assigns);
    lab_.remeasure(*handle_, rows, reached.remeasure);
  }
  return reached;
}

std::string Engine::apply_event(const FaultEvent& e, std::vector<lab::Measurement>* pass) {
  plane_.reset();
  if (pass == nullptr) return apply(e);
  Changes changes;
  if (std::string err = apply(e, &changes); !err.empty()) return err;
  after_pass(changes, *pass, /*assigns=*/false);
  return "";
}

core::Expected<StepReport, std::string> Engine::execute_step(
    const FaultPlan& plan, std::size_t index, Carry& carry,
    std::vector<converge::StepTransient>* transient_out,
    std::vector<traffic::StepTraffic>* traffic_out) {
  static obs::Counter& steps_counter = metrics().counter("chaos.steps");
  static obs::Histogram& step_us = metrics().histogram("chaos.step.total_us");
  static obs::Counter& passes = metrics().counter("chaos.measure.passes");
  static obs::Counter& dns_reused = metrics().counter("chaos.measure.dns_reused");
  static obs::Counter& remeasured = metrics().counter("chaos.measure.remeasured");
  const FaultEvent& event = plan.events[index];
  obs::Span span("chaos.step");
  obs::ScopedTimer timer(step_us);
  steps_counter.add();
  const std::uint64_t step_start_ns = obs::trace_now_ns();

  const auto& gaz = geo::Gazetteer::world();
  const auto& dep = handle_->deployment;
  std::vector<lab::Measurement>& before = carry.before;
  std::vector<lab::Measurement>& after = carry.after;

  const bool transient = transient_cfg_.has_value() && transient_out != nullptr;
  if (transient) {
    obs::Span converge_span("chaos.converge");
    ensure_plane();  // baseline must quiesce on the pre-fault state
  }

  if (!carry.measured) {
    obs::Span measure_span("chaos.measure.before");
    passes.add();
    lab_.measure(*handle_, before);
    carry.measured = true;
  }
  const bool traffic_on = traffic_cfg_.has_value() && traffic_out != nullptr;
  if (traffic_on && !carry.solve) {
    // Assigned pre-apply: the shed alternates are the other regions' live
    // catchments, which the fault's re-solve is about to replace.
    obs::Span traffic_span("chaos.traffic");
    carry.assign.assign(before.size(), traffic::ProbeAssign{});
    reassign(before, carry.assign, nullptr, nullptr);
    carry.solve = solve_traffic(carry.assign);
  }
  const double scale_before = surge_scale_;
  Changes changes;
  {
    obs::Span apply_span("chaos.apply");
    if (const std::string err = apply(event, &changes); !err.empty()) {
      return core::unexpected("step " + std::to_string(index) + " (" + describe(event) +
                              "): " + err);
    }
  }
  Reach reached;
  {
    // Redo only the stages whose inputs the event changed, and on a routing
    // step only for the probes whose AS row the re-solve changed.
    obs::Span measure_span("chaos.measure.after");
    after = before;
    reached = after_pass(changes, after, traffic_on);
    if (changes.dns || changes.routes) passes.add();
    if (!changes.dns && changes.routes) {
      dns_reused.add(after.size());
      remeasured.add(reached.remeasure.size());
    }
  }

  StepReport step;
  step.index = index;
  step.event = describe(event);
  step.probes = before.size();

  std::optional<obs::Span> reduce_span(std::in_place, "chaos.reduce");
  std::vector<double> before_ms, after_ms;
  for (std::size_t p = 0; p < before.size(); ++p) {
    const lab::Measurement& b = before[p];
    const lab::Measurement& a = after[p];
    if (b.routed) ++step.routes_before;
    if (a.routed) ++step.routes_after;
    if (a.degraded) ++step.degraded_dns_answers;
    if (a.ping_lost) ++step.lost_pings;
    const bool moved = b.routed && a.routed && b.site != a.site;
    const bool lost = b.routed && !a.routed;
    if (moved) ++step.moved;
    if (lost) ++step.lost;
    if (!b.routed && a.routed) ++step.gained;

    // The affected subset: the failed element's own clients for the
    // withdrawal kinds (resilience::fail_site semantics), otherwise any
    // probe whose catchment changed.
    bool affected = false;
    switch (event.kind) {
      case FaultKind::SiteWithdraw:
        affected = b.routed && b.site == value(event.site);
        break;
      case FaultKind::RegionWithdraw:
        affected = b.routed && b.region == event.region;
        break;
      default:
        affected = moved || lost;
        break;
    }
    if (!affected) continue;
    ++step.affected_probes;
    if (b.routed && !b.ping_lost) before_ms.push_back(b.rtt_ms);

    if (!a.routed) {
      // The answered region is unreachable. The service survives if some
      // other region's prefix — globally announced — still has a route
      // (§4.5); the client lands cross-region on the nearest one.
      std::optional<Rtt> best;
      for (std::size_t r2 = 0; r2 < dep.regions().size(); ++r2) {
        if (r2 == a.region) continue;
        if (!handle_->catchment(retained_[p]->asn, r2)) continue;
        const auto rtt = lab_.ping(*retained_[p], dep.regions()[r2].service_ip);
        if (rtt && (!best || *rtt < *best)) best = rtt;
      }
      if (!best) continue;  // truly unreachable
      ++step.still_served;
      ++step.cross_region;
      after_ms.push_back(best->ms);
      continue;
    }
    ++step.still_served;
    if (!a.ping_lost) after_ms.push_back(a.rtt_ms);
    const cdn::Site& landed = dep.site(SiteId{a.site});
    if (landed.announces(a.region) && b.site != value(kInvalidSite)) {
      if (gaz.area_of_city(landed.city) == gaz.area_of_city(dep.site(SiteId{b.site}).city)) {
        ++step.failover_in_region;
      }
    }
  }
  std::tie(step.before_p50_ms, step.before_p90_ms) = analysis::percentile_pair(before_ms, 50, 90);
  std::tie(step.after_p50_ms, step.after_p90_ms) = analysis::percentile_pair(after_ms, 50, 90);
  reduce_span.reset();

  if (transient) {
    obs::Span converge_span("chaos.converge");
    // Probes enter the transient rollup from the pre-fault view: the AS they
    // measure from and the regional prefix they were being served from when
    // the fault hit — that prefix's convergence is their outage.
    std::vector<converge::ProbeRef> refs;
    refs.reserve(before.size());
    for (std::size_t p = 0; p < before.size(); ++p) {
      refs.push_back(converge::ProbeRef{retained_[p]->asn, before[p].region});
    }
    transient_out->push_back(
        plane_->step(index, describe(event), changes.origins, refs, changes.links));
  }

  if (traffic_on) {
    static obs::Gauge& util_max = metrics().gauge("traffic.max_utilization");
    static obs::Gauge& util_mean = metrics().gauge("traffic.mean_utilization");
    static obs::Counter& shed_flows = metrics().counter("traffic.flows_shed");
    static obs::Counter& dropped_flows = metrics().counter("traffic.flows_dropped");
    static obs::Histogram& delay_hist = metrics().histogram("traffic.queue_delay_ms");
    static obs::Counter& solves_reused = metrics().counter("chaos.traffic.solves_reused");
    static obs::Counter& solves_restored = metrics().counter("chaos.traffic.solves_restored");
    obs::Span traffic_span("chaos.traffic");
    const traffic::TrafficSolve& before_solve = *carry.solve;
    traffic::StepTraffic t;
    t.index = index;
    t.event = describe(event);
    // What the step changed: the redone rows whose value moved, and the
    // assignments re-assigned — everything after a DNS change, the reached
    // probes after a routing change, nothing after a demand change (whose
    // flows moved instead).
    StepUndo undo;
    if (changes.dns) {
      undo.rows = changed_rows(before, after, nullptr);
      reassign(after, carry.assign, nullptr, &undo.assigns);
    } else if (changes.routes) {
      undo.rows = changed_rows(before, after, &reached.remeasure);
      reassign(after, carry.assign, &reached.reassign, &undo.assigns);
    }
    const bool flows_moved =
        std::bit_cast<std::uint64_t>(surge_scale_) != std::bit_cast<std::uint64_t>(scale_before);
    if (flows_moved) carry.frames.clear();  // their solves are over the old flows
    // The inflated-RTT percentiles, when known without a selection.
    std::optional<std::pair<double, double>> inflated;
    const bool restored =
        !carry.frames.empty() && reverses(carry.frames.back().undo, undo, carry.assign, after);
    if (restored) {
      // Back in the state before the top frame's step: same flows, same
      // assignment, same rows, so its solve and percentiles.
      t.solve = std::move(carry.frames.back().solve);
      inflated = carry.frames.back().inflated;
      carry.frames.pop_back();
      solves_restored.add();
    } else if (!undo.assigns.empty() || flows_moved) {
      t.solve = solve_traffic(carry.assign);
    } else {
      t.solve = before_solve;  // same flows over the same assignment
      solves_reused.add();
      if (undo.rows.empty()) inflated = carry.inflated;  // and the same rows
    }
    t.before_max_utilization = before_solve.max_utilization;
    t.before_mean_utilization = before_solve.mean_utilization;
    const double threshold = traffic_cfg_->admission_threshold;
    const std::size_t site_count =
        std::min(before_solve.sites.size(), t.solve.sites.size());
    for (std::size_t s = 0; s < site_count; ++s) {
      const traffic::SiteLoad& b = before_solve.sites[s];
      const traffic::SiteLoad& a = t.solve.sites[s];
      if (a.capacity_mbps > 0.0 && b.utilization <= threshold && a.utilization > threshold) {
        ++t.tipped_sites;
      }
    }
    // Depth 0: absorbed. 1: the fault itself tipped sites. >1: shedding off
    // the tipped sites overloaded further neighbors in turn.
    t.cascade_depth = (t.tipped_sites > 0 ? 1 : 0) + t.solve.cascade_depth;
    const bool sample_waits = obs::enabled();
    const bool select = !inflated;
    if (sample_waits || select) {
      std::vector<double> rtts;
      std::vector<double> waits;
      if (select) rtts.reserve(after.size());
      if (sample_waits) waits.reserve(after.size());
      for (const lab::Measurement& a : after) {
        if (!a.routed || a.ping_lost) continue;
        const std::size_t s = a.site;
        const double wait =
            s < t.solve.sites.size() ? t.solve.sites[s].queue_delay_ms : 0.0;
        if (select) rtts.push_back(a.rtt_ms + wait);
        if (sample_waits) waits.push_back(wait);
      }
      delay_hist.record_batch(waits);
      if (select) inflated = analysis::percentile_pair(rtts, 50, 90);
    }
    std::tie(t.inflated_p50_ms, t.inflated_p90_ms) = *inflated;
    util_max.set(t.solve.max_utilization);
    util_mean.set(t.solve.mean_utilization);
    shed_flows.add(t.solve.flows_shed);
    dropped_flows.add(t.solve.flows_dropped);
    // This step's frame, unless it undid one: what it changed, and the
    // state before it, which the carry now leaves.
    if (!restored && !flows_moved && !undo.empty()) {
      carry.frames.push_back(
          Carry::Frame{std::move(undo), std::move(*carry.solve), carry.inflated});
      if (carry.frames.size() > kMaxUndoFrames) carry.frames.erase(carry.frames.begin());
    }
    carry.solve = t.solve;  // the next step's before_solve
    carry.inflated = inflated;
    traffic_out->push_back(std::move(t));
  }
  // This step's after-pass is the next step's before-pass.
  std::swap(carry.before, carry.after);
  journal_step(step, obs::trace_now_ns() - step_start_ns, last_step_delta_);
  if (traffic_on) journal_traffic(traffic_out->back());
  return step;
}

core::Expected<ChaosReport, std::string> Engine::run(const FaultPlan& plan) {
  if (handle_ == nullptr) {
    return core::unexpected(std::string("deployment handle is not registered in this lab"));
  }
  obs::Span run_span("chaos.run");
  static obs::Counter& plans = metrics().counter("chaos.plans");
  plans.add();

  ChaosReport report;
  report.plan = plan.name;
  report.deployment = handle_->deployment.name();
  report.seed = lab_.config().seed;
  report.probes = retained_.size();
  report.planned_steps = plan.events.size();

  Carry carry;
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    auto step = execute_step(plan, i, carry, &report.transient, &report.traffic);
    if (!step) return core::unexpected(std::move(step).error());
    report.steps.push_back(std::move(*step));
    report.completed_steps = i + 1;
  }
  return report;
}

core::Expected<GuardedChaosRun, std::string> Engine::run_guarded(
    const FaultPlan& plan, guard::Supervisor& supervisor,
    const guard::CheckpointPolicy& policy) {
  if (handle_ == nullptr) {
    return core::unexpected(std::string("deployment handle is not registered in this lab"));
  }
  obs::Span run_span("chaos.run_guarded");
  static obs::Counter& plans = metrics().counter("chaos.plans");
  plans.add();

  GuardedChaosRun out;
  ChaosReport& report = out.report;
  report.plan = plan.name;
  report.deployment = handle_->deployment.name();
  report.seed = lab_.config().seed;
  report.probes = retained_.size();
  report.planned_steps = plan.events.size();

  std::uint64_t fingerprint = plan_fingerprint(lab_, handle_->deployment, plan);
  // A transient run's checkpoints are a different experiment from a
  // steady-only run's (and from a transient run under other timers).
  if (transient_cfg_) {
    fingerprint = hash_combine(fingerprint, converge::fingerprint(*transient_cfg_));
  }
  // Same for traffic: demand, capacities and policy are part of the
  // experiment's identity.
  if (traffic_cfg_) {
    fingerprint = hash_combine(fingerprint, traffic::fingerprint(*traffic_cfg_));
  }

  Carry carry;
  guard::SweepHooks hooks;
  hooks.process = [&](std::size_t i) {
    auto step = execute_step(plan, i, carry, &report.transient, &report.traffic);
    if (!step) throw StepFailure(std::move(step).error());
    report.steps.push_back(std::move(*step));
  };
  hooks.save = [&](guard::ByteWriter& w) {
    guard::write_fields(w, report.steps);
    if (transient_cfg_) guard::write_fields(w, report.transient);
    if (traffic_cfg_) guard::write_fields(w, report.traffic);
  };
  hooks.load = [&](guard::ByteReader& r) {
    if (!guard::read_fields(r, report.steps)) return false;
    const std::size_t count = report.steps.size();
    if (count > plan.events.size()) return false;
    if (transient_cfg_) {
      if (!guard::read_fields(r, report.transient) || report.transient.size() != count) {
        return false;
      }
      // An oscillation-truncated step leaves the convergence plane in a
      // mid-flight state that the *next* step repairs with an in-step
      // re-flood. A resumed plane cold-starts onto the stable state instead
      // and would not replay those repair events, so a history containing an
      // oscillation cannot be resumed byte-identically — reject it.
      for (const converge::StepTransient& t : report.transient) {
        if (t.oscillating) return false;
      }
    }
    if (traffic_cfg_) {
      if (!guard::read_fields(r, report.traffic) || report.traffic.size() != count) {
        return false;
      }
      // The surge scale and flow cache are rebuilt by the fast-forward
      // replay below (traffic_surge events are appliable mutations like any
      // other fault), so no traffic-plane state travels outside the steps.
      flow_cache_.reset();
    }
    if (!r.ok() || !r.at_end()) return false;
    // The plane (if any) must cold-start after the replay below, on the
    // checkpoint's topology, not before it.
    plane_.reset();
    // Fast-forward: re-apply the already-measured events so the lab reaches
    // the exact state the checkpoint was taken in. No re-measurement — the
    // measurement passes read lab state but never change it, so mutations
    // alone (with the original tie-break salts inside resolve()) are enough.
    for (std::size_t i = 0; i < count; ++i) {
      if (!apply(plan.events[i]).empty()) return false;
    }
    return true;
  };

  try {
    auto swept = guard::run_sweep(plan.events.size(), fingerprint, supervisor, policy, hooks);
    if (!swept) return core::unexpected(swept.error().to_string());
    out.sweep = *swept;
  } catch (const StepFailure& failure) {
    return core::unexpected(std::string(failure.what()));
  }
  // The checkpoint's cursor and step list must agree: completed = cursor +
  // newly-measured steps, so a payload whose step count diverged from its
  // cursor shows up as a size mismatch here.
  if (report.steps.size() != out.sweep.completed) {
    return core::unexpected(policy.path +
                            ": checkpoint cursor disagrees with its step list");
  }
  if (transient_cfg_ && report.transient.size() != report.steps.size()) {
    return core::unexpected(policy.path +
                            ": transient records disagree with the step list");
  }
  if (traffic_cfg_ && report.traffic.size() != report.steps.size()) {
    return core::unexpected(policy.path +
                            ": traffic records disagree with the step list");
  }
  report.completed_steps = out.sweep.completed;
  report.truncated = !out.sweep.complete();
  return out;
}

}  // namespace ranycast::chaos
