// Per-chaos-step traffic accounting and its JSON serialization.
#pragma once

#include <string>

#include "ranycast/io/json.hpp"
#include "ranycast/traffic/solver.hpp"

namespace ranycast::traffic {

/// Traffic state across one chaos step: the post-fault solve plus the
/// before/after deltas that make overload-driven failure legible — how hot
/// the surviving sites ran before the fault, how many the fault tipped over,
/// and how far the resulting shed cascade travelled.
struct StepTraffic {
  std::size_t index{0};
  std::string event;

  TrafficSolve solve;  ///< post-fault serving state

  double before_max_utilization{0.0};
  double before_mean_utilization{0.0};
  /// Sites under the admission threshold before the fault and over it after
  /// — the "failover landed on an already-hot site" signal.
  std::size_t tipped_sites{0};
  /// (tipped_sites > 0) + the post-fault solve's shed-wave cascade depth:
  /// 0 means the fault was absorbed, 1 means it tipped sites but the damage
  /// stopped there, >1 means the overload propagated.
  std::size_t cascade_depth{0};

  /// RTT percentiles over routed probes with the per-site M/M/1 queueing
  /// delay added — the latency a client actually experiences under load
  /// (steady after_p50_ms/after_p90_ms measure propagation alone).
  double inflated_p50_ms{0.0};
  double inflated_p90_ms{0.0};

  bool operator==(const StepTraffic&) const = default;
};

/// StepTraffic's field list (core/fields.hpp): its checkpoint record, with
/// the solve written inline, and its JSON object. The traffic_step journal
/// line is a hand-picked subset: its cascade_depth is this record's, not
/// the solve's.
template <core::RecordOf<StepTraffic> Self, typename F>
void for_each_field(Self& t, F&& f) {
  f("index", t.index);
  f("event", t.event);
  f("solve", t.solve);
  f("before_max_utilization", t.before_max_utilization);
  f("before_mean_utilization", t.before_mean_utilization);
  f("tipped_sites", t.tipped_sites);
  f("cascade_depth", t.cascade_depth);
  f("inflated_p50_ms", t.inflated_p50_ms);
  f("inflated_p90_ms", t.inflated_p90_ms);
}

/// The record's JSON object, each site's with its position as "site".
io::Json step_to_json(const StepTraffic& s);

}  // namespace ranycast::traffic
