// JSON bindings for the laboratory configuration: load experiment setups
// from files (tools/ranycast-experiment, tools/ranycast-chaos) and persist
// the configuration actually used next to results for reproducibility.
//
// The loading surface is exception-free: every failure is reported as a
// core::Expected error carrying the file, the byte offset (for syntax
// errors) and the offending field (for validation errors), so CLIs print an
// actionable message and exit nonzero instead of aborting.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "ranycast/core/expected.hpp"
#include "ranycast/io/json.hpp"
#include "ranycast/lab/lab.hpp"

namespace ranycast::io {

// The LabConfig schema is its field lists (lab/lab.hpp), read by
// io::from_json and written by io::to_json. Every member is optional;
// unknown keys are ignored, so configs stay forward-compatible:
//   {
//     "seed": 2023,
//     "observability": null,  // true/false forces obs on or off
//     "world":   {"seed", "stub_count", "tier1_count", "tier1_city_coverage",
//                 "international_transits", "ixp_count", ...},
//     "census":  {"total_probes", "stable_prob", "resolver_local_prob", ...},
//     "latency": {"ms_per_km", "per_hop_ms", "jitter_max_ms", "access_base_ms"},
//     "geo_dbs": [{"name", "wrong_country_prob", "intl_home_bias_prob",
//                  "wrong_city_prob", "seed"}, ...]   // up to 3 entries
//   }

/// Stable 64-bit fingerprint of a configuration: its field lists walked by
/// core::fingerprint_fields, except observability (a reporting switch). The
/// binding guard checkpoints use to refuse resuming one experiment's
/// progress into another.
std::uint64_t config_fingerprint(const lab::LabConfig& config);

/// Range-check a LabConfig (probabilities in [0,1], positive counts,
/// non-negative latencies, non-negative geo-DB error rates). Returns the
/// first violation, with `field` naming the offending key.
std::optional<ConfigError> validate_lab_config(const lab::LabConfig& config,
                                               std::string_view file = {});

/// Read a file into a string.
core::Expected<std::string, ConfigError> read_file(const std::string& path);

/// Read + parse a JSON document; syntax errors carry the byte offset.
core::Expected<Json, ConfigError> load_json(const std::string& path);

/// Read + parse + bind (io::from_json) + validate a laboratory configuration.
core::Expected<lab::LabConfig, ConfigError> load_config(const std::string& path);

}  // namespace ranycast::io
