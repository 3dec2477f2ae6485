// Timer and policy knobs of the transient BGP convergence plane.
//
// All times are integer virtual microseconds: the simulator never reads a
// wall clock, so two runs with the same config, seed and topology replay the
// exact same event sequence. Defaults follow operational folklore — ~tens of
// milliseconds of update processing, a seconds-scale MRAI, RIPE-style flap
// damping thresholds and a 30 s DNS failover TTL — and every one of them is
// sweepable (bench_ablation_convergence).
#pragma once

#include <cstdint>

#include "ranycast/core/fields.hpp"

namespace ranycast::converge {

struct Timers {
  /// Base per-AS update processing delay, plus a deterministic per-AS jitter
  /// in [0, proc_jitter_us] (hashed from seed and ASN) so routers do not run
  /// in lock-step.
  std::uint64_t proc_delay_us{10'000};
  std::uint64_t proc_jitter_us{40'000};

  /// Propagation delay of one update message across an adjacency: a fixed
  /// base plus a distance term between the two ASes' home cities.
  std::uint64_t link_base_delay_us{1'000};
  double link_us_per_km{5.0};

  /// Minimum Route Advertisement Interval per (AS, neighbor) session. With
  /// mrai_jitter each session gets a deterministic stagger in
  /// [0.75*mrai_us, mrai_us] — the RFC 4271 randomization that breaks
  /// synchronized advertisement waves, made reproducible.
  std::uint64_t mrai_us{5'000'000};
  bool mrai_jitter{true};

  bool operator==(const Timers&) const = default;
};

/// Timers' field list (core/fields.hpp).
template <core::RecordOf<Timers> Self, typename F>
void for_each_field(Self& t, F&& f) {
  f("proc_delay_us", t.proc_delay_us);
  f("proc_jitter_us", t.proc_jitter_us);
  f("link_base_delay_us", t.link_base_delay_us);
  f("link_us_per_km", t.link_us_per_km);
  f("mrai_us", t.mrai_us);
  f("mrai_jitter", t.mrai_jitter);
}

/// Route-flap damping (RFC 2439 shape): every change received on a session
/// that already carried a route adds `flap_penalty`; the penalty halves
/// every `half_life_us`. Crossing `suppress_threshold` suppresses the
/// session's route until decay brings the penalty under `reuse_threshold`.
struct Damping {
  bool enabled{false};
  double flap_penalty{1000.0};
  double suppress_threshold{2000.0};
  double reuse_threshold{750.0};
  std::uint64_t half_life_us{15'000'000};

  bool operator==(const Damping&) const = default;
};

/// Damping's field list (core/fields.hpp).
template <core::RecordOf<Damping> Self, typename F>
void for_each_field(Self& d, F&& f) {
  f("enabled", d.enabled);
  f("flap_penalty", d.flap_penalty);
  f("suppress_threshold", d.suppress_threshold);
  f("reuse_threshold", d.reuse_threshold);
  f("half_life_us", d.half_life_us);
}

struct Config {
  Timers timers{};
  Damping damping{};

  /// Oscillation guard: a run that processes more than this many events is
  /// flagged `oscillating` and terminated cleanly instead of spinning
  /// (MRAI-race configurations can otherwise flap forever). 0 picks an
  /// automatic budget of 4096 + 2048 * node-count, far above any converging
  /// run's volume.
  std::uint64_t max_events{0};

  /// How long a client keeps hitting a blackholed prefix before DNS-level
  /// failover rescues it. Each blackhole interval is charged
  /// min(interval, dns_failover_us); a node still dark when the plane
  /// quiesces is charged the full failover window.
  std::uint64_t dns_failover_us{30'000'000};

  bool operator==(const Config&) const = default;
};

/// Config's field list (core/fields.hpp).
template <core::RecordOf<Config> Self, typename F>
void for_each_field(Self& c, F&& f) {
  f("timers", c.timers);
  f("damping", c.damping);
  f("max_events", c.max_events);
  f("dns_failover_us", c.dns_failover_us);
}

/// Stable hash over every field of the lists, folded into checkpoint
/// fingerprints so a resume under a different convergence config is refused.
std::uint64_t fingerprint(const Config& c) noexcept;

}  // namespace ranycast::converge
