#include "ranycast/io/config.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "ranycast/core/fields.hpp"

namespace ranycast::io {

std::uint64_t config_fingerprint(const lab::LabConfig& config) {
  // Toggling --obs must not invalidate a checkpoint.
  lab::LabConfig identity = config;
  identity.observability.reset();
  return core::fingerprint_fields(0x4C414243u /* "LABC" */, identity);
}

namespace {

/// One range rule: [lo, hi] bounds (NaN bound = unbounded on that side).
std::optional<ConfigError> check(std::string_view file, std::string_view field, double v,
                                 double lo, double hi, std::string_view what) {
  if (!(std::isnan(lo) || v >= lo) || !(std::isnan(hi) || v <= hi) || std::isnan(v)) {
    ConfigError err;
    err.file = std::string(file);
    err.field = std::string(field);
    err.message = std::string(what) + " (got " + std::to_string(v) + ")";
    return err;
  }
  return std::nullopt;
}

constexpr double kNoBound = std::numeric_limits<double>::quiet_NaN();

}  // namespace

std::optional<ConfigError> validate_lab_config(const lab::LabConfig& config,
                                               std::string_view file) {
  const auto& w = config.world;
  const auto& c = config.census;
  const auto& l = config.latency;
  struct Rule {
    std::string_view field;
    double value;
    double lo, hi;
    std::string_view what;
  };
  const Rule rules[] = {
      {"world.tier1_count", static_cast<double>(w.tier1_count), 1, kNoBound,
       "must be at least 1 (the tier-1 clique cannot be empty)"},
      {"world.tier1_city_coverage", w.tier1_city_coverage, 0, 1, "must be a probability in [0,1]"},
      {"world.international_transits", static_cast<double>(w.international_transits), 0,
       kNoBound, "must be non-negative"},
      {"world.max_national_transits_per_country",
       static_cast<double>(w.max_national_transits_per_country), 0, kNoBound,
       "must be non-negative"},
      {"world.stub_count", static_cast<double>(w.stub_count), 1, kNoBound,
       "must be positive (probes need stub networks to live in)"},
      {"world.stub_second_provider_prob", w.stub_second_provider_prob, 0, 1,
       "must be a probability in [0,1]"},
      {"world.stub_foreign_registration_prob", w.stub_foreign_registration_prob, 0, 1,
       "must be a probability in [0,1]"},
      {"world.stub_ixp_join_prob", w.stub_ixp_join_prob, 0, 1, "must be a probability in [0,1]"},
      {"world.ixp_count", static_cast<double>(w.ixp_count), 0, kNoBound, "must be non-negative"},
      {"world.ixp_mesh_prob", w.ixp_mesh_prob, 0, 1, "must be a probability in [0,1]"},
      {"world.ixp_bilateral_prob", w.ixp_bilateral_prob, 0, 1, "must be a probability in [0,1]"},
      {"world.intl_transit_customer_prob", w.intl_transit_customer_prob, 0, 1,
       "must be a probability in [0,1]"},
      {"census.total_probes", static_cast<double>(c.total_probes), 1, kNoBound,
       "must be positive (a census of zero probes measures nothing)"},
      {"census.stable_prob", c.stable_prob, 0, 1, "must be a probability in [0,1]"},
      {"census.reliable_geocode_prob", c.reliable_geocode_prob, 0, 1,
       "must be a probability in [0,1]"},
      {"census.resolver_local_prob", c.resolver_local_prob, 0, 1,
       "must be a probability in [0,1]"},
      {"census.resolver_public_ecs_prob", c.resolver_public_ecs_prob, 0, 1,
       "must be a probability in [0,1]"},
      {"census.access_extra_mean_ms", c.access_extra_mean_ms, 0, kNoBound,
       "must be non-negative"},
      {"census.access_extra_cap_ms", c.access_extra_cap_ms, 0, kNoBound, "must be non-negative"},
      {"latency.ms_per_km", l.ms_per_km, 0, kNoBound, "must be non-negative"},
      {"latency.per_hop_ms", l.per_hop_ms, 0, kNoBound, "must be non-negative"},
      {"latency.jitter_max_ms", l.jitter_max_ms, 0, kNoBound, "must be non-negative"},
      {"latency.access_base_ms", l.access_base_ms, 0, kNoBound, "must be non-negative"},
  };
  for (const Rule& r : rules) {
    if (auto err = check(file, r.field, r.value, r.lo, r.hi, r.what)) return err;
  }
  if (config.census.resolver_local_prob + config.census.resolver_public_ecs_prob > 1.0) {
    ConfigError err;
    err.file = std::string(file);
    err.field = "census.resolver_local_prob";
    err.message = "resolver_local_prob + resolver_public_ecs_prob must not exceed 1";
    return err;
  }
  for (std::size_t i = 0; i < config.geo_dbs.size(); ++i) {
    const auto& db = config.geo_dbs[i];
    const std::string base = "geo_dbs[" + std::to_string(i) + "].";
    const Rule db_rules[] = {
        {"wrong_country_prob", db.wrong_country_prob, 0, 1,
         "geo-DB error rates must be probabilities in [0,1]"},
        {"intl_home_bias_prob", db.intl_home_bias_prob, 0, 1,
         "geo-DB error rates must be probabilities in [0,1]"},
        {"wrong_city_prob", db.wrong_city_prob, 0, 1,
         "geo-DB error rates must be probabilities in [0,1]"},
    };
    for (const Rule& r : db_rules) {
      if (auto err = check(file, base + std::string(r.field), r.value, r.lo, r.hi, r.what)) {
        return err;
      }
    }
  }
  return std::nullopt;
}

core::Expected<std::string, ConfigError> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return core::unexpected(ConfigError{path, 0, "", "cannot open file"});
  }
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad()) {
    return core::unexpected(ConfigError{path, 0, "", "read error"});
  }
  return out.str();
}

core::Expected<Json, ConfigError> load_json(const std::string& path) {
  auto text = read_file(path);
  if (!text) return core::unexpected(std::move(text).error());
  auto parsed = parse_json(*text);
  if (const auto* err = std::get_if<JsonParseError>(&parsed)) {
    return core::unexpected(ConfigError{path, err->position, "", err->message});
  }
  return std::get<Json>(std::move(parsed));
}

core::Expected<lab::LabConfig, ConfigError> load_config(const std::string& path) {
  auto json = load_json(path);
  if (!json) return core::unexpected(std::move(json).error());
  lab::LabConfig config;
  if (auto err = from_json(*json, config, path)) return core::unexpected(std::move(*err));
  if (auto err = validate_lab_config(config, path)) {
    return core::unexpected(std::move(*err));
  }
  return config;
}

}  // namespace ranycast::io
