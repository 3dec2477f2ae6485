#include "ranycast/traffic/config.hpp"

#include <cmath>

namespace ranycast::traffic {

using io::field_error;

namespace {

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

std::optional<io::ConfigError> validate(const TrafficConfig& cfg, std::string_view file,
                                        const std::string& base) {
  if (!finite_nonneg(cfg.flows_per_probe_per_s)) {
    return field_error(file, base + "flows_per_probe_per_s",
                       "arrival rate must be finite and non-negative");
  }
  if (!std::isfinite(cfg.window_s) || cfg.window_s <= 0.0) {
    return field_error(file, base + "window_s", "window must be positive and finite");
  }
  if (!finite_nonneg(cfg.demand_scale)) {
    return field_error(file, base + "demand_scale", "must be finite and non-negative");
  }
  if (!std::isfinite(cfg.default_site_capacity_mbps) || cfg.default_site_capacity_mbps <= 0.0) {
    return field_error(file, base + "default_site_capacity_mbps",
                       "capacity must be positive (got " +
                           std::to_string(cfg.default_site_capacity_mbps) + ")");
  }
  for (std::size_t i = 0; i < cfg.site_capacity_mbps.size(); ++i) {
    const double v = cfg.site_capacity_mbps[i];
    if (!std::isfinite(v) || v <= 0.0) {
      return field_error(file, base + "site_capacity_mbps[" + std::to_string(i) + "]",
                         "capacity must be positive (got " + std::to_string(v) + ")");
    }
  }
  if (!std::isfinite(cfg.admission_threshold) || cfg.admission_threshold <= 0.0 ||
      cfg.admission_threshold > 1.0) {
    return field_error(file, base + "admission_threshold", "must be in (0, 1]");
  }
  if (!std::isfinite(cfg.max_rho) || cfg.max_rho <= 0.0 || cfg.max_rho >= 1.0) {
    return field_error(file, base + "max_rho", "must be in (0, 1)");
  }
  if (cfg.max_shed_waves == 0) {
    return field_error(file, base + "max_shed_waves", "must be at least 1");
  }
  const FlowSizeCdf& cdf = cfg.flow_sizes;
  if (cdf.bytes.size() != cdf.prob.size()) {
    return field_error(file, base + "flow_sizes",
                       "bytes and prob must have the same length");
  }
  if (cdf.bytes.empty()) {
    return field_error(file, base + "flow_sizes.bytes", "CDF needs at least one knot");
  }
  for (std::size_t i = 0; i < cdf.bytes.size(); ++i) {
    const std::string at = "[" + std::to_string(i) + "]";
    if (!std::isfinite(cdf.bytes[i]) || cdf.bytes[i] <= 0.0) {
      return field_error(file, base + "flow_sizes.bytes" + at, "must be positive and finite");
    }
    if (!std::isfinite(cdf.prob[i]) || cdf.prob[i] <= 0.0 || cdf.prob[i] > 1.0) {
      return field_error(file, base + "flow_sizes.prob" + at, "must be in (0, 1]");
    }
    if (i > 0 && cdf.bytes[i] <= cdf.bytes[i - 1]) {
      return field_error(file, base + "flow_sizes.bytes" + at,
                         "CDF knots must be strictly increasing");
    }
    if (i > 0 && cdf.prob[i] <= cdf.prob[i - 1]) {
      return field_error(file, base + "flow_sizes.prob" + at,
                         "CDF must be strictly monotone");
    }
  }
  if (cdf.prob.back() != 1.0) {
    return field_error(file, base + "flow_sizes.prob",
                       "CDF must be normalized (last prob must be exactly 1)");
  }
  return std::nullopt;
}

core::Expected<TrafficConfig, io::ConfigError> config_from_json(const io::Json& json,
                                                                std::string_view file,
                                                                const std::string& base) {
  TrafficConfig cfg;
  // Half a CDF has no default: a flow_sizes object must give both arrays.
  if (const io::Json* sizes = json.find("flow_sizes"); sizes != nullptr && sizes->is_object()) {
    std::optional<io::ConfigError> missing;
    for_each_field(cfg.flow_sizes, [&](std::string_view name, const auto&) {
      const io::Json* knots = sizes->find(name);
      if (!missing && (knots == nullptr || knots->is_null())) {
        missing = field_error(file, base + "flow_sizes." + std::string(name),
                              "required array member is missing");
      }
    });
    if (missing) return core::unexpected(std::move(*missing));
  }
  if (auto err = io::from_json(json, cfg, file, base)) return core::unexpected(std::move(*err));
  if (auto err = validate(cfg, file, base)) return core::unexpected(std::move(*err));
  return cfg;
}

}  // namespace ranycast::traffic
