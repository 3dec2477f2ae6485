#include "ranycast/chaos/scenario.hpp"

#include <cmath>

#include "ranycast/converge/report.hpp"
#include "ranycast/traffic/config.hpp"

namespace ranycast::chaos {

namespace {

io::ConfigError field_error(std::string_view file, std::string field, std::string message) {
  io::ConfigError err;
  err.file = std::string(file);
  err.field = std::move(field);
  err.message = std::move(message);
  return err;
}

/// Scenario "type" strings. Flap types expand into a down+up event pair so
/// the engine still emits one report per step.
struct KindSpec {
  std::string_view type;
  FaultKind kind;
  bool flap{false};
};

constexpr KindSpec kKinds[] = {
    {"site_withdraw", FaultKind::SiteWithdraw},
    {"site_restore", FaultKind::SiteRestore},
    {"site_link_down", FaultKind::SiteLinkDown},
    {"site_link_up", FaultKind::SiteLinkUp},
    {"site_link_flap", FaultKind::SiteLinkDown, true},
    {"link_down", FaultKind::LinkDown},
    {"link_up", FaultKind::LinkUp},
    {"link_flap", FaultKind::LinkDown, true},
    {"route_server_down", FaultKind::RouteServerDown},
    {"route_server_up", FaultKind::RouteServerUp},
    {"region_withdraw", FaultKind::RegionWithdraw},
    {"region_restore", FaultKind::RegionRestore},
    {"geodb_stale", FaultKind::GeoDbStale},
    {"geodb_outage", FaultKind::GeoDbOutage},
    {"geodb_restore", FaultKind::GeoDbRestore},
    {"measurement_degrade", FaultKind::MeasurementDegrade},
    {"measurement_restore", FaultKind::MeasurementRestore},
    {"traffic_surge", FaultKind::TrafficSurge},
    {"traffic_restore", FaultKind::TrafficRestore},
};

/// The matching *Up kind for a flap's second half.
FaultKind flap_partner(FaultKind down) {
  return down == FaultKind::SiteLinkDown ? FaultKind::SiteLinkUp : FaultKind::LinkUp;
}

/// Read a required non-negative integer member.
core::Expected<std::int64_t, io::ConfigError> required_int(const io::Json& obj,
                                                           std::string_view file,
                                                           const std::string& base,
                                                           std::string_view key) {
  const io::Json* member = obj.find(key);
  if (member == nullptr || !member->is_number()) {
    return core::unexpected(
        field_error(file, base + std::string(key), "required integer member is missing"));
  }
  const double v = member->as_number();
  if (v < 0 || v != static_cast<double>(static_cast<std::int64_t>(v))) {
    return core::unexpected(
        field_error(file, base + std::string(key), "must be a non-negative integer"));
  }
  return static_cast<std::int64_t>(v);
}

core::Expected<FaultEvent, io::ConfigError> event_from_json(const io::Json& obj,
                                                            std::string_view file,
                                                            const std::string& base) {
  if (!obj.is_object()) {
    return core::unexpected(field_error(file, base + "*", "event must be a JSON object"));
  }
  const std::string type = obj.string_or("type", "");
  if (type.empty()) {
    return core::unexpected(field_error(file, base + "type", "required member is missing"));
  }
  const KindSpec* spec = nullptr;
  for (const KindSpec& k : kKinds) {
    if (k.type == type) spec = &k;
  }
  if (spec == nullptr) {
    return core::unexpected(
        field_error(file, base + "type", "unknown event type '" + type + "'"));
  }

  FaultEvent event;
  event.kind = spec->kind;
  event.label = obj.string_or("label", "");
  switch (spec->kind) {
    case FaultKind::SiteWithdraw:
    case FaultKind::SiteRestore: {
      auto site = required_int(obj, file, base, "site");
      if (!site) return core::unexpected(std::move(site).error());
      event.site = SiteId{static_cast<std::uint16_t>(*site)};
      break;
    }
    case FaultKind::SiteLinkDown:
    case FaultKind::SiteLinkUp: {
      auto site = required_int(obj, file, base, "site");
      if (!site) return core::unexpected(std::move(site).error());
      event.site = SiteId{static_cast<std::uint16_t>(*site)};
      event.attachment = static_cast<std::size_t>(obj.int_or("attachment", 0));
      break;
    }
    case FaultKind::LinkDown:
    case FaultKind::LinkUp: {
      auto a = required_int(obj, file, base, "a");
      if (!a) return core::unexpected(std::move(a).error());
      auto b = required_int(obj, file, base, "b");
      if (!b) return core::unexpected(std::move(b).error());
      event.a = Asn{static_cast<std::uint32_t>(*a)};
      event.b = Asn{static_cast<std::uint32_t>(*b)};
      break;
    }
    case FaultKind::RouteServerDown:
    case FaultKind::RouteServerUp: {
      auto ixp = required_int(obj, file, base, "ixp");
      if (!ixp) return core::unexpected(std::move(ixp).error());
      event.ixp = static_cast<std::size_t>(*ixp);
      break;
    }
    case FaultKind::RegionWithdraw:
    case FaultKind::RegionRestore: {
      auto region = required_int(obj, file, base, "region");
      if (!region) return core::unexpected(std::move(region).error());
      event.region = static_cast<std::size_t>(*region);
      break;
    }
    case FaultKind::GeoDbStale:
    case FaultKind::GeoDbOutage:
    case FaultKind::GeoDbRestore: {
      event.db = static_cast<std::size_t>(obj.int_or("db", 0));
      event.magnitude = obj.number_or("extra_wrong_country_prob", 0.0);
      if (event.db >= 3) {
        return core::unexpected(
            field_error(file, base + "db", "geolocation database index must be 0..2"));
      }
      if (event.magnitude < 0.0 || event.magnitude > 1.0) {
        return core::unexpected(field_error(file, base + "extra_wrong_country_prob",
                                            "must be a probability in [0,1]"));
      }
      break;
    }
    case FaultKind::MeasurementDegrade: {
      lab::MeasurementFaults f;
      f.ping_loss_prob = obj.number_or("ping_loss_prob", 0.0);
      f.dns_timeout_prob = obj.number_or("dns_timeout_prob", 0.0);
      f.max_retries = static_cast<int>(obj.int_or("max_retries", f.max_retries));
      f.backoff_base_ms = obj.number_or("backoff_base_ms", f.backoff_base_ms);
      f.seed = static_cast<std::uint64_t>(obj.int_or("seed", static_cast<std::int64_t>(f.seed)));
      if (f.ping_loss_prob < 0.0 || f.ping_loss_prob > 1.0) {
        return core::unexpected(
            field_error(file, base + "ping_loss_prob", "must be a probability in [0,1]"));
      }
      if (f.dns_timeout_prob < 0.0 || f.dns_timeout_prob > 1.0) {
        return core::unexpected(
            field_error(file, base + "dns_timeout_prob", "must be a probability in [0,1]"));
      }
      if (f.max_retries < 0) {
        return core::unexpected(
            field_error(file, base + "max_retries", "must be non-negative"));
      }
      if (f.backoff_base_ms < 0.0) {
        return core::unexpected(
            field_error(file, base + "backoff_base_ms", "must be non-negative"));
      }
      event.faults = f;
      break;
    }
    case FaultKind::MeasurementRestore:
      break;
    case FaultKind::TrafficSurge: {
      event.magnitude = obj.number_or("scale", 0.0);
      if (!(event.magnitude > 0.0) || !std::isfinite(event.magnitude)) {
        return core::unexpected(
            field_error(file, base + "scale", "surge scale must be positive and finite"));
      }
      break;
    }
    case FaultKind::TrafficRestore:
      break;
  }
  return event;
}

}  // namespace

core::Expected<FaultPlan, io::ConfigError> plan_from_json(const io::Json& json,
                                                          std::string_view file) {
  if (!json.is_object()) {
    return core::unexpected(field_error(file, "", "scenario must be a JSON object"));
  }
  FaultPlan plan;
  plan.name = json.string_or("name", "unnamed");
  const io::Json* events = json.find("events");
  if (events == nullptr || !events->is_array()) {
    return core::unexpected(field_error(file, "events", "required array member is missing"));
  }
  const auto& arr = events->as_array();
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const std::string base = "events[" + std::to_string(i) + "].";
    auto event = event_from_json(arr[i], file, base);
    if (!event) return core::unexpected(std::move(event).error());
    const std::string type = arr[i].string_or("type", "");
    const bool flap = type == "site_link_flap" || type == "link_flap";
    if (flap) {
      FaultEvent up = *event;
      up.kind = flap_partner(event->kind);
      if (event->label.empty()) {
        event->label = "flap: down";
        up.label = "flap: up";
      }
      plan.events.push_back(std::move(*event));
      plan.events.push_back(std::move(up));
    } else {
      plan.events.push_back(std::move(*event));
    }
  }
  if (plan.events.empty()) {
    return core::unexpected(field_error(file, "events", "plan has no events"));
  }
  return plan;
}

core::Expected<FaultPlan, io::ConfigError> load_plan(const std::string& path) {
  auto json = io::load_json(path);
  if (!json) return core::unexpected(std::move(json).error());
  return plan_from_json(*json, path);
}

io::Json report_to_json(const ChaosReport& report) {
  io::JsonArray steps;
  for (const StepReport& s : report.steps) {
    io::Json step = io::to_json(s);
    step.as_object().emplace("churn", s.churn());
    step.as_object().emplace("survival_rate", s.survival_rate());
    steps.push_back(std::move(step));
  }
  io::JsonObject out{
      {"plan", io::Json(report.plan)},
      {"deployment", io::Json(report.deployment)},
      {"seed", io::Json(static_cast<std::int64_t>(report.seed))},
      {"probes", io::Json(static_cast<std::int64_t>(report.probes))},
      {"planned_steps", io::Json(static_cast<std::int64_t>(report.planned_steps))},
      {"completed_steps", io::Json(static_cast<std::int64_t>(report.completed_steps))},
      {"truncated", io::Json(report.truncated)},
      {"steps", io::Json(std::move(steps))},
  };
  if (!report.transient.empty()) {
    io::JsonArray transient;
    transient.reserve(report.transient.size());
    for (const converge::StepTransient& t : report.transient) {
      transient.push_back(converge::transient_to_json(t));
    }
    out["transient"] = io::Json(std::move(transient));
  }
  if (!report.traffic.empty()) {
    io::JsonArray traffic;
    traffic.reserve(report.traffic.size());
    for (const traffic::StepTraffic& t : report.traffic) {
      traffic.push_back(traffic::step_to_json(t));
    }
    out["traffic"] = io::Json(std::move(traffic));
  }
  return io::Json(std::move(out));
}

core::Expected<std::optional<traffic::TrafficConfig>, io::ConfigError> traffic_from_scenario(
    const io::Json& json, std::string_view file) {
  if (!json.is_object()) {
    return core::unexpected(field_error(file, "", "scenario must be a JSON object"));
  }
  const io::Json* block = json.find("traffic");
  if (block == nullptr) return std::optional<traffic::TrafficConfig>{};
  auto cfg = traffic::config_from_json(*block, file, "traffic.");
  if (!cfg) return core::unexpected(std::move(cfg).error());
  return std::optional<traffic::TrafficConfig>{std::move(*cfg)};
}

}  // namespace ranycast::chaos
