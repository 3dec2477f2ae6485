#include "ranycast/traffic/config.hpp"

#include <cmath>

namespace ranycast::traffic {

namespace {

io::ConfigError field_error(std::string_view file, std::string field, std::string message) {
  io::ConfigError err;
  err.file = std::string(file);
  err.field = std::move(field);
  err.message = std::move(message);
  return err;
}

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
  if (!json.is_object()) {
    return core::unexpected(field_error(file, base + "*", "traffic block must be a JSON object"));
  }
  TrafficConfig cfg;
  cfg.flows_per_probe_per_s = json.number_or("flows_per_probe_per_s", cfg.flows_per_probe_per_s);
  cfg.window_s = json.number_or("window_s", cfg.window_s);
  cfg.demand_scale = json.number_or("demand_scale", cfg.demand_scale);
  cfg.default_site_capacity_mbps =
      json.number_or("default_site_capacity_mbps", cfg.default_site_capacity_mbps);
  if (const io::Json* caps = json.find("site_capacity_mbps")) {
    if (!caps->is_array()) {
      return core::unexpected(
          field_error(file, base + "site_capacity_mbps", "must be an array of numbers"));
    }
    for (std::size_t i = 0; i < caps->as_array().size(); ++i) {
      const io::Json& v = caps->as_array()[i];
      if (!v.is_number()) {
        return core::unexpected(field_error(
            file, base + "site_capacity_mbps[" + std::to_string(i) + "]", "must be a number"));
      }
      cfg.site_capacity_mbps.push_back(v.as_number());
    }
  }
  const std::string policy = json.string_or("policy", std::string(to_string(cfg.policy)));
  if (policy == "spill") {
    cfg.policy = OverloadPolicy::Spill;
  } else if (policy == "shed") {
    cfg.policy = OverloadPolicy::Shed;
  } else {
    return core::unexpected(
        field_error(file, base + "policy", "unknown policy '" + policy + "' (spill|shed)"));
  }
  cfg.admission_threshold = json.number_or("admission_threshold", cfg.admission_threshold);
  cfg.max_rho = json.number_or("max_rho", cfg.max_rho);
  cfg.max_shed_waves = static_cast<std::size_t>(
      json.int_or("max_shed_waves", static_cast<std::int64_t>(cfg.max_shed_waves)));
  cfg.seed =
      static_cast<std::uint64_t>(json.int_or("seed", static_cast<std::int64_t>(cfg.seed)));
  if (const io::Json* sizes = json.find("flow_sizes")) {
    if (!sizes->is_object()) {
      return core::unexpected(
          field_error(file, base + "flow_sizes", "must be an object with bytes/prob arrays"));
    }
    const auto read_knots = [&](std::string_view key, std::vector<double>& out)
        -> std::optional<io::ConfigError> {
      const io::Json* arr = sizes->find(key);
      if (arr == nullptr || !arr->is_array()) {
        return field_error(file, base + "flow_sizes." + std::string(key),
                           "required array member is missing");
      }
      out.clear();
      for (std::size_t i = 0; i < arr->as_array().size(); ++i) {
        const io::Json& v = arr->as_array()[i];
        if (!v.is_number()) {
          return field_error(
              file, base + "flow_sizes." + std::string(key) + "[" + std::to_string(i) + "]",
              "must be a number");
        }
        out.push_back(v.as_number());
      }
      return std::nullopt;
    };
    if (auto err = read_knots("bytes", cfg.flow_sizes.bytes)) {
      return core::unexpected(std::move(*err));
    }
    if (auto err = read_knots("prob", cfg.flow_sizes.prob)) {
      return core::unexpected(std::move(*err));
    }
  }
  if (auto err = validate(cfg, file, base)) return core::unexpected(std::move(*err));
  return cfg;
}

io::Json config_to_json(const TrafficConfig& cfg) {
  io::JsonArray caps;
  caps.reserve(cfg.site_capacity_mbps.size());
  for (double v : cfg.site_capacity_mbps) caps.emplace_back(v);
  io::JsonArray bytes, prob;
  for (double v : cfg.flow_sizes.bytes) bytes.emplace_back(v);
  for (double v : cfg.flow_sizes.prob) prob.emplace_back(v);
  return io::Json(io::JsonObject{
      {"flows_per_probe_per_s", io::Json(cfg.flows_per_probe_per_s)},
      {"window_s", io::Json(cfg.window_s)},
      {"demand_scale", io::Json(cfg.demand_scale)},
      {"default_site_capacity_mbps", io::Json(cfg.default_site_capacity_mbps)},
      {"site_capacity_mbps", io::Json(std::move(caps))},
      {"policy", io::Json(std::string(to_string(cfg.policy)))},
      {"admission_threshold", io::Json(cfg.admission_threshold)},
      {"max_rho", io::Json(cfg.max_rho)},
      {"max_shed_waves", io::Json(static_cast<std::int64_t>(cfg.max_shed_waves))},
      {"seed", io::Json(static_cast<std::int64_t>(cfg.seed))},
      {"flow_sizes", io::Json(io::JsonObject{{"bytes", io::Json(std::move(bytes))},
                                             {"prob", io::Json(std::move(prob))}})},
  });
}

}  // namespace ranycast::traffic
