// JSON bindings and validation for the traffic block of scenario/experiment
// configs — the same Expected-based, file:offset:field error surface the
// LabConfig loader has.
//
// The schema is TrafficConfig's field list (traffic/model.hpp), read by
// io::from_json and written by io::to_json; every member is optional:
//   "traffic": {
//     "flows_per_probe_per_s": 2.0,
//     "window_s": 1.0,
//     "demand_scale": 1.0,
//     "default_site_capacity_mbps": 600.0,
//     "site_capacity_mbps": [800, 600, ...],        // by site id
//     "policy": "spill" | "shed",
//     "admission_threshold": 0.95,
//     "max_rho": 0.99,
//     "max_shed_waves": 8,
//     "seed": 8059164,
//     "flow_sizes": {"bytes": [...], "prob": [...]}  // empirical CDF knots,
//   }                                                // both or neither
#pragma once

#include <string>
#include <string_view>

#include "ranycast/core/expected.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/io/json.hpp"
#include "ranycast/traffic/model.hpp"

namespace ranycast::traffic {

/// Bind (io::from_json) and validate a parsed "traffic" JSON object. `file`
/// labels errors; `base` is the block's dotted prefix (e.g. "traffic.").
core::Expected<TrafficConfig, io::ConfigError> config_from_json(const io::Json& json,
                                                                std::string_view file = {},
                                                                const std::string& base = "traffic.");

/// Range-check a TrafficConfig: capacities > 0, rates finite and
/// non-negative, window positive, thresholds in (0, 1], CDF strictly
/// monotone and normalized. Returns the first violation with `field` naming
/// the offending key (validated on every load; callable directly for
/// programmatically-built configs).
std::optional<io::ConfigError> validate(const TrafficConfig& cfg, std::string_view file = {},
                                        const std::string& base = "traffic.");

}  // namespace ranycast::traffic
