#include "ranycast/chaos/scenario.hpp"

#include <cmath>

#include "ranycast/converge/report.hpp"
#include "ranycast/traffic/config.hpp"

namespace ranycast::chaos {

using io::field_error;

namespace {

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

/// Read integer member `key` into `out`, an integer or an id enum (SiteId,
/// Asn) by its underlying type, as io::from_json does: a fraction or a value
/// out of range is refused. An absent member keeps `out` unless required.
template <typename T>
std::optional<io::ConfigError> read_int(const io::Json& obj, std::string_view file,
                                        const std::string& base, std::string_view key, T& out,
                                        bool required = true) {
  const io::Json* member = obj.find(key);
  if (member == nullptr) {
    if (!required) return std::nullopt;
    return field_error(file, base + std::string(key), "required integer member is missing");
  }
  if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> raw{};
    auto err = io::from_json(*member, raw, file, base + std::string(key));
    if (!err) out = T{raw};
    return err;
  } else {
    return io::from_json(*member, out, file, base + std::string(key));
  }
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
  std::optional<io::ConfigError> err;
  switch (spec->kind) {
    case FaultKind::SiteWithdraw:
    case FaultKind::SiteRestore:
      err = read_int(obj, file, base, "site", event.site);
      break;
    case FaultKind::SiteLinkDown:
    case FaultKind::SiteLinkUp:
      err = read_int(obj, file, base, "site", event.site);
      if (!err) err = read_int(obj, file, base, "attachment", event.attachment, false);
      break;
    case FaultKind::LinkDown:
    case FaultKind::LinkUp:
      err = read_int(obj, file, base, "a", event.a);
      if (!err) err = read_int(obj, file, base, "b", event.b);
      break;
    case FaultKind::RouteServerDown:
    case FaultKind::RouteServerUp:
      err = read_int(obj, file, base, "ixp", event.ixp);
      break;
    case FaultKind::RegionWithdraw:
    case FaultKind::RegionRestore:
      err = read_int(obj, file, base, "region", event.region);
      break;
    case FaultKind::GeoDbStale:
    case FaultKind::GeoDbOutage:
    case FaultKind::GeoDbRestore: {
      if ((err = read_int(obj, file, base, "db", event.db, false))) break;
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
      const lab::MeasurementFaults& f = event.faults;
      if ((err = io::from_json(obj, event.faults, file, base))) break;
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
  if (err) return core::unexpected(std::move(*err));
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
