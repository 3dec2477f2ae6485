// The chaos engine: apply a FaultPlan step by step and measure the blast
// radius of every step.
//
// Each step: (1) take the before-pass (lab::Lab::measure: every retained
// probe's DNS answer, catchment site and RTT), (2) apply the fault
// mutation in place (announcement state, adjacency state, geo-DB mode,
// measurement-plane degradation or demand), (3) re-solve the regional
// prefixes the mutation touched over the mutated world with the original
// tie-break salts (lab::Lab::resolve_delta: a link or route-server event
// touches every prefix, an announcement change only the prefixes of that
// site), (4) take the after-pass and reduce the deltas into a StepReport.
//
// Measurements are pure in lab state, so each lab state is measured once:
// step i's after-pass (and post-fault traffic solve) is step i+1's
// before-pass, and a full before-pass runs only on a run's first step and
// on the first step after a resume. The after-pass redoes only what the
// event changed. A routing event keeps every probe's DNS answer, and its
// re-solve reports the AS rows it changed per region
// (lab::Lab::resolve_delta); the after-pass is the before-pass with route
// lookup and ping redone only for the probes whose AS row changed in the
// region DNS answered them with (lab::Lab::remeasure) — a probe's row reads
// nothing else, and an unchanged AS row keeps its path and RTT bits. Demand
// events copy the before-pass; geo-DB and measurement-fault events
// re-measure in full. That rule lives in one private routine; apply_event
// runs it too when handed a pass, which is how the serving plane patches
// its previous epoch instead of measuring the world again.
//
// The traffic plane follows the same rule: the engine carries each probe's
// traffic assignment next to the solve over it, a routing step re-assigns
// only the probes whose AS row changed in any region (the shed alternates
// read every region), and the carried solve is reused when neither the
// assignment nor the flows changed — traffic::solve is pure in both. The
// inflated-RTT percentiles are carried too when no row changed either. A
// step that moved anything pushes an undo frame (StepUndo plus the solve
// and percentiles before it); a step that exactly reverses the top frame
// is back in that state and takes its solve and percentiles instead of
// solving again, which is what a restore after its withdrawal, or a link's
// up after its down, does.
//
// Reports carry no wall-clock data and read no observability counters, so
// two runs with the same seed and plan serialize to the same bytes; timings
// and fault telemetry live in the obs layer instead.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ranycast/atlas/grouping.hpp"
#include "ranycast/chaos/plan.hpp"
#include "ranycast/converge/plane.hpp"
#include "ranycast/core/expected.hpp"
#include "ranycast/core/fields.hpp"
#include "ranycast/guard/runtime.hpp"
#include "ranycast/guard/sweep.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/traffic/flows.hpp"
#include "ranycast/traffic/report.hpp"
#include "ranycast/traffic/solver.hpp"

namespace ranycast::chaos {

/// Impact measurement of one applied fault event.
struct StepReport {
  std::size_t index{0};
  std::string event;  ///< describe() of the applied event

  // --- reconvergence churn over all retained probes ---
  std::size_t probes{0};         ///< retained probes measured
  std::size_t routes_before{0};  ///< probes with a route before the event
  std::size_t routes_after{0};
  std::size_t moved{0};   ///< routed both sides, landed on a different site
  std::size_t lost{0};    ///< routed before, unreachable after
  std::size_t gained{0};  ///< unreachable before, routed after

  // --- service impact over the affected subset ---
  // For SiteWithdraw the affected subset is exactly the failed site's
  // catchment (resilience::fail_site semantics); for RegionWithdraw the
  // withdrawn region's clients; otherwise every probe whose catchment
  // moved or vanished.
  std::size_t affected_probes{0};
  std::size_t still_served{0};
  std::size_t failover_in_region{0};  ///< failover stayed in the same geo area
  std::size_t cross_region{0};        ///< served via another region's prefix
  double before_p50_ms{0.0}, before_p90_ms{0.0};
  double after_p50_ms{0.0}, after_p90_ms{0.0};

  // --- measurement-plane effects observed while probing this step ---
  std::size_t degraded_dns_answers{0};  ///< resolutions served the fallback
  std::size_t lost_pings{0};            ///< route existed but probing gave up

  /// Fraction of the routed-before population whose catchment changed.
  double churn() const noexcept {
    return routes_before == 0
               ? 0.0
               : static_cast<double>(moved + lost) / static_cast<double>(routes_before);
  }
  double survival_rate() const noexcept {
    return affected_probes == 0 ? 1.0
                                : static_cast<double>(still_served) /
                                      static_cast<double>(affected_probes);
  }

  bool operator==(const StepReport&) const = default;
};

/// StepReport's field list (core/fields.hpp): its checkpoint record, its
/// JSON step object (plus the derived churn and survival_rate) and its
/// chaos_step journal line.
template <core::RecordOf<StepReport> Self, typename F>
void for_each_field(Self& s, F&& f) {
  f("index", s.index);
  f("event", s.event);
  f("probes", s.probes);
  f("routes_before", s.routes_before);
  f("routes_after", s.routes_after);
  f("moved", s.moved);
  f("lost", s.lost);
  f("gained", s.gained);
  f("affected_probes", s.affected_probes);
  f("still_served", s.still_served);
  f("failover_in_region", s.failover_in_region);
  f("cross_region", s.cross_region);
  f("before_p50_ms", s.before_p50_ms);
  f("before_p90_ms", s.before_p90_ms);
  f("after_p50_ms", s.after_p50_ms);
  f("after_p90_ms", s.after_p90_ms);
  f("degraded_dns_answers", s.degraded_dns_answers);
  f("lost_pings", s.lost_pings);
}

struct ChaosReport {
  std::string plan;
  std::string deployment;
  std::uint64_t seed{0};
  std::size_t probes{0};
  /// Partial-run accounting: a deadline-truncated run reports exactly how
  /// many of the planned events it measured instead of silently looking
  /// like a shorter plan. run() always completes (or fails), so there
  /// planned == completed; run_guarded() may stop early.
  std::size_t planned_steps{0};
  std::size_t completed_steps{0};
  bool truncated{false};
  std::vector<StepReport> steps;
  /// Transient convergence of every completed step, parallel to `steps`.
  /// Empty unless Engine::enable_transient was called before the run.
  std::vector<converge::StepTransient> transient;
  /// Traffic accounting of every completed step, parallel to `steps`.
  /// Empty unless Engine::enable_traffic was called before the run.
  std::vector<traffic::StepTraffic> traffic;
};

/// What one chaos step changed in the per-probe state its traffic
/// accounting reads: each changed slot's index, ascending, with the value
/// the slot held before the step.
struct StepUndo {
  std::vector<std::pair<std::uint32_t, traffic::ProbeAssign>> assigns;
  std::vector<std::pair<std::uint32_t, lab::Measurement>> rows;

  bool empty() const noexcept { return assigns.empty() && rows.empty(); }
};

/// Whether a step that made the changes `step` moved the state back to what
/// it was before the step that recorded `frame`: both changed exactly the
/// same slots, and each of them now (in `assign` and `rows`, the state
/// after `step`) holds again the value `frame` saved. Matching indices
/// alone is not enough: the values must be equal too, an RTT to its bits.
bool reverses(const StepUndo& frame, const StepUndo& step,
              std::span<const traffic::ProbeAssign> assign,
              std::span<const lab::Measurement> rows);

/// Binds a checkpoint to (config, seed, deployment, plan); the guarded run
/// and the serving plane fold their own settings onto it.
std::uint64_t plan_fingerprint(const lab::Lab& laboratory, const cdn::Deployment& dep,
                               const FaultPlan& plan);

/// Outcome of a supervised run: the (possibly partial) report plus how the
/// sweep ended — whether it resumed, how far it got and why it stopped.
struct GuardedChaosRun {
  ChaosReport report;
  guard::SweepResult sweep;
};

/// Applies fault plans to one deployment of one laboratory. The engine
/// mutates lab state in place (that is the point); after run() returns the
/// faults of the plan remain applied unless the plan restored them.
class Engine {
 public:
  Engine(lab::Lab& laboratory, const lab::DeploymentHandle& handle);

  /// Record the transient convergence of every subsequent step: a
  /// converge::Plane is cold-started lazily before the first step and fed
  /// each step's origin deltas, filling ChaosReport::transient alongside
  /// ChaosReport::steps. The convergence config is folded into the guarded
  /// checkpoint fingerprint, so a transient run never resumes from (or into)
  /// a steady-only checkpoint.
  void enable_transient(const converge::Config& cfg);

  /// Record flow-level load for every subsequent step: each step solves the
  /// traffic model against the pre-fault and post-fault catchments, filling
  /// ChaosReport::traffic alongside ChaosReport::steps with per-site
  /// utilization, shed/dropped-flow and cascade-depth accounting. The
  /// traffic config is folded into the guarded checkpoint fingerprint, so a
  /// traffic run never resumes from (or into) a load-free checkpoint.
  void enable_traffic(const traffic::TrafficConfig& cfg);

  /// Accounting of the last applied event's re-solve (set on every routing
  /// event: each is turned into a bgp::SolveDelta for Lab::resolve_delta);
  /// nullopt after a non-routing event. The same accounting lands in the
  /// chaos.delta.* counters and the chaos_step journal fields.
  const std::optional<bgp::DeltaStats>& last_step_delta() const noexcept {
    return last_step_delta_;
  }

  /// Apply every event of the plan in order. Fails (without measuring
  /// further) on an unappliable event: unknown site/region/IXP/database
  /// index, a restore with no matching withdrawal, or an unknown adjacency.
  core::Expected<ChaosReport, std::string> run(const FaultPlan& plan);

  /// run() under a guard::Supervisor: the timeline stops cooperatively at
  /// step boundaries on cancel/deadline/stall (the report is then marked
  /// truncated with completed-vs-planned accounting), persists a
  /// checkpoint on the policy's cadence, and resumes from one by replaying
  /// the already-measured events (mutations only, no re-measurement — the
  /// measurements are pure in lab state) so a killed-and-resumed run's
  /// final report is byte-identical to an uninterrupted same-seed run.
  /// The checkpoint fingerprint binds config, seed, deployment and plan;
  /// resuming across any of those fails with FingerprintMismatch.
  core::Expected<GuardedChaosRun, std::string> run_guarded(
      const FaultPlan& plan, guard::Supervisor& supervisor,
      const guard::CheckpointPolicy& policy);

  /// Apply one fault event — mutation plus re-solve — WITHOUT measuring a
  /// step. This is the world-drift hook the serving plane (serve::Server)
  /// builds on: its refresher advances the world one event per snapshot
  /// build, and its resume path fast-forwards by re-applying the
  /// already-consumed prefix, exactly like run_guarded's own replay.
  /// Given `pass`, a measurement pass (Lab::measure) of the lab before the
  /// event, it also moves that pass onto the lab after the event by the
  /// rule a measured step's after-pass follows, so it ends equal to a fresh
  /// Lab::measure; the serving plane patches its previous epoch this way.
  /// Returns "" on success, else the error message (and then neither the
  /// lab nor `pass` changed). A convergence plane, which is handed each
  /// measured step's changes, does not see this event: it is dropped and
  /// cold-starts before the next measured step.
  std::string apply_event(const FaultEvent& e, std::vector<lab::Measurement>* pass = nullptr);

 private:
  struct Carry;  // measurements of the current lab state, kept across steps
  struct Reach;  // the probes a routing step's re-solve can have moved

  /// Which measurement inputs an applied event changed (none for demand
  /// events: the surge scale only feeds the traffic plane's flows).
  struct Changes {
    bool routes{false};  ///< announcement or adjacency state (re-solved)
    bool dns{false};     ///< geo-DB state or a measurement fault
    /// Routing events: per region, the AS rows the re-solve changed.
    std::vector<bgp::ChangedRows> rows;
    /// Routing events: per region, the origin changes the re-solve was given.
    std::vector<std::vector<bgp::OriginChange>> origins;
    /// Routing events: the adjacencies the re-solve was given as toggled.
    std::vector<bgp::LinkDelta> links;
  };

  /// "" on success, else the error. `changed` (if given) receives what the
  /// event changed, with the re-solve's changed rows.
  std::string apply(const FaultEvent& e, Changes* changed = nullptr);
  /// The rows of a pass that the re-solve reported by `changed` can have
  /// moved; `Reach::reassign` is filled only when `assigns` is set.
  Reach reach(const std::vector<lab::Measurement>& rows,
              const std::vector<bgp::ChangedRows>& changed, bool assigns);
  /// Moves `rows`, a pass of the lab before the applied event that
  /// `changes` describes, onto the lab after it; the one rule both a
  /// measured step and a patching apply_event follow. A geo-DB or
  /// measurement-fault event re-measures every row. A routing event keeps
  /// every DNS answer and redoes route and ping for the rows reach() finds
  /// (and returns that reach). A demand event changes no row.
  Reach after_pass(const Changes& changes, std::vector<lab::Measurement>& rows, bool assigns);
  /// Build (or rebuild after a resume) the convergence plane from the lab's
  /// current state; no-op unless enable_transient was called.
  void ensure_plane();
  /// before-pass → apply → after-pass → reduce for one event; shared
  /// between run() and run_guarded(). Reuses (and leaves behind for the next
  /// step) the measurements in `carry`. When transient recording is on, also
  /// runs the convergence plane for the step and appends to *transient_out;
  /// when traffic is on, solves the load model around the fault and appends
  /// to *traffic_out.
  core::Expected<StepReport, std::string> execute_step(
      const FaultPlan& plan, std::size_t index, Carry& carry,
      std::vector<converge::StepTransient>* transient_out,
      std::vector<traffic::StepTraffic>* traffic_out);
  /// The window's flows under the current surge scale (cached: regenerated
  /// only when a traffic_surge/_restore event changes the scale).
  const traffic::FlowSet& current_flows();
  /// Redo the traffic assignment of the listed probes of a pass (every
  /// probe when `which` is null) against the live routes — the other
  /// regions' catchments supply the shed alternates, so this must run while
  /// the routes the rows were measured from are live. `changed` (if given)
  /// receives the probes whose assignment changed, ascending, each with its
  /// previous one.
  void reassign(const std::vector<lab::Measurement>& rows,
                std::vector<traffic::ProbeAssign>& assign,
                const std::vector<std::uint32_t>* which,
                std::vector<std::pair<std::uint32_t, traffic::ProbeAssign>>* changed) const;
  /// The traffic model over one assignment under the current flows.
  traffic::TrafficSolve solve_traffic(std::span<const traffic::ProbeAssign> assign);

  lab::Lab& lab_;
  lab::DeploymentHandle* handle_;
  /// census().retained(): row i of a pass is retained_[i]'s measurement.
  const std::vector<const atlas::Probe*> retained_;
  /// Undo state for restore events.
  std::unordered_map<std::uint16_t, std::vector<std::size_t>> withdrawn_sites_;
  std::unordered_map<std::size_t, std::vector<SiteId>> withdrawn_regions_;
  std::optional<converge::Config> transient_cfg_;
  std::unique_ptr<converge::Plane> plane_;
  std::optional<traffic::TrafficConfig> traffic_cfg_;
  /// Current arrival-rate multiplier (mutated by traffic_surge/_restore;
  /// restored on resume by the fast-forward replay like every other fault).
  double surge_scale_{1.0};
  std::vector<atlas::ProbeGroup> probe_groups_;  ///< built lazily, stable per run
  bool groups_built_{false};
  std::optional<std::pair<std::uint64_t, traffic::FlowSet>> flow_cache_;
  std::optional<bgp::DeltaStats> last_step_delta_;
};

}  // namespace ranycast::chaos
