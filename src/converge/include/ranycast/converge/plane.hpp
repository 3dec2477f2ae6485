// Deployment-wide transient convergence: one PrefixSim per regional prefix,
// fanned out over the deterministic thread pool, rolled up to probe-level
// outage statistics.
//
// The Plane sits between the chaos engine and the per-prefix simulators. The
// engine mutates topology/announcement state, hands the plane the origin
// changes and toggled adjacencies it gave the re-solve, and gets back a
// StepTransient: per-region convergence aggregates plus per-probe
// blackhole/loop/flip accounting and a differential verdict against the
// freshly re-solved steady state. Regions are independent (one prefix each),
// so they run concurrently; every per-region computation is single-threaded
// and integer-time, which keeps reports byte-identical across thread counts.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ranycast/converge/sim.hpp"
#include "ranycast/lab/lab.hpp"

namespace ranycast::converge {

/// A probe as the convergence plane sees it: the AS it measures from and the
/// regional prefix it was being served from when the step began.
struct ProbeRef {
  Asn asn{kInvalidAsn};
  std::size_t region{0};
};

/// One chaos step's transient, across all regions of a deployment.
struct StepTransient {
  std::size_t index{0};
  std::string event;
  std::vector<RegionTransient> regions;

  std::uint64_t probes{0};
  std::uint64_t probes_blackholed{0};  ///< saw a routed->unrouted window
  std::uint64_t probes_looped{0};      ///< sat on a transient forwarding loop
  std::uint64_t probes_flipped{0};     ///< interim catchment change
  std::uint64_t probes_dark_at_end{0};

  /// Time-to-reconverge over the probes whose route changed, milliseconds.
  double reconverge_p50_ms{0.0};
  double reconverge_p90_ms{0.0};
  double reconverge_max_ms{0.0};

  /// Blackhole time over the probes that went dark at all, milliseconds.
  double blackhole_p50_ms{0.0};
  double blackhole_p90_ms{0.0};
  double blackhole_max_ms{0.0};

  bool matches_steady{true};  ///< every region quiesced onto the solver's answer
  bool oscillating{false};    ///< any region hit its event budget

  bool operator==(const StepTransient&) const = default;
};

/// StepTransient's field list (core/fields.hpp): its checkpoint record, its
/// JSON object and its transient_window journal line (which skips regions
/// and appends a compact envelope of its own).
template <core::RecordOf<StepTransient> Self, typename F>
void for_each_field(Self& s, F&& f) {
  f("index", s.index);
  f("event", s.event);
  f("regions", s.regions);
  f("probes", s.probes);
  f("probes_blackholed", s.probes_blackholed);
  f("probes_looped", s.probes_looped);
  f("probes_flipped", s.probes_flipped);
  f("probes_dark_at_end", s.probes_dark_at_end);
  f("reconverge_p50_ms", s.reconverge_p50_ms);
  f("reconverge_p90_ms", s.reconverge_p90_ms);
  f("reconverge_max_ms", s.reconverge_max_ms);
  f("blackhole_p50_ms", s.blackhole_p50_ms);
  f("blackhole_p90_ms", s.blackhole_p90_ms);
  f("blackhole_max_ms", s.blackhole_max_ms);
  f("matches_steady", s.matches_steady);
  f("oscillating", s.oscillating);
}

/// Snapshot of a deployment's origination state, per region — the input to
/// diff_origins. Captured before and after the engine applies a fault.
std::vector<std::vector<bgp::OriginAttachment>> origins_by_region(
    const cdn::Deployment& dep);

/// Per-region origin changes turning `before` into `after`
/// (bgp::diff_origin_changes of each region): withdrawals first, then
/// announcements, both in `before`/`after` order. chaos::Engine hands the
/// plane the changes its re-solve was given instead; this serves callers
/// that drive the plane around Engine::apply_event.
std::vector<std::vector<bgp::OriginChange>> diff_origins(
    const std::vector<std::vector<bgp::OriginAttachment>>& before,
    const std::vector<std::vector<bgp::OriginAttachment>>& after);

class Plane {
 public:
  /// The lab and handle must outlive the plane; the handle's outcomes must
  /// be re-solved by the caller before step() so the differential check
  /// compares against the current steady state.
  Plane(const lab::Lab& lab, const lab::DeploymentHandle& handle, const Config& cfg);

  /// Cold-start every region's simulator on the graph's and deployment's
  /// current state (no transient recorded — this is the baseline the first
  /// step diverges from).
  void rebuild();

  std::size_t region_count() const noexcept { return sims_.size(); }

  /// Run one transient step: per-region origin changes (the ones the
  /// re-solve was given) feed each region's simulator, and each syncs its
  /// session overlay with the graph — over the `toggled` adjacencies (the
  /// ones the re-solve was given) when the caller lists them, over every
  /// adjacency otherwise (PrefixSim::run_step). Missing trailing regions
  /// mean "no change". Regions fan out over the thread pool; the rollup is
  /// reduced in region/probe order. The steady verdict compares every AS.
  StepTransient step(std::size_t index, std::string event,
                     std::span<const std::vector<bgp::OriginChange>> changes_by_region,
                     std::span<const ProbeRef> probes,
                     std::optional<std::span<const bgp::LinkDelta>> toggled = std::nullopt);

 private:
  const lab::Lab& lab_;
  const lab::DeploymentHandle& handle_;
  Config cfg_;
  std::vector<std::unique_ptr<PrefixSim>> sims_;
};

}  // namespace ranycast::converge
