#include "ranycast/traffic/report.hpp"

namespace ranycast::traffic {

io::Json step_to_json(const StepTraffic& s) {
  io::Json out = io::to_json(s);
  io::JsonArray& sites = out.as_object().at("solve").as_object().at("sites").as_array();
  for (std::size_t i = 0; i < sites.size(); ++i) {
    sites[i].as_object().emplace("site", static_cast<std::int64_t>(i));
  }
  return out;
}

}  // namespace ranycast::traffic
