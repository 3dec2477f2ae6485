#include "ranycast/traffic/model.hpp"

#include <cmath>

namespace ranycast::traffic {

std::string_view to_string(OverloadPolicy p) noexcept {
  switch (p) {
    case OverloadPolicy::Spill: return "spill";
    case OverloadPolicy::Shed: return "shed";
  }
  return "unknown";
}

double FlowSizeCdf::sample(double u) const noexcept {
  if (bytes.empty()) return 0.0;
  if (u <= prob.front()) return bytes.front();
  for (std::size_t i = 1; i < prob.size(); ++i) {
    if (u <= prob[i]) {
      const double span = prob[i] - prob[i - 1];
      const double t = span > 0.0 ? (u - prob[i - 1]) / span : 1.0;
      return bytes[i - 1] + t * (bytes[i] - bytes[i - 1]);
    }
  }
  return bytes.back();
}

double FlowSizeCdf::mean_bytes() const noexcept {
  if (bytes.empty()) return 0.0;
  // First segment is a point mass at bytes.front() of weight prob.front();
  // each further segment is uniform over [bytes[i-1], bytes[i]].
  double mean = prob.front() * bytes.front();
  for (std::size_t i = 1; i < prob.size(); ++i) {
    mean += (prob[i] - prob[i - 1]) * 0.5 * (bytes[i - 1] + bytes[i]);
  }
  return mean;
}

FlowSizeCdf FlowSizeCdf::anycast_cdn() {
  // Mice carry the flow count, a thin elephant tail carries most bytes:
  // ~70% of flows stay under 10 KB while the top 3% reach the megabytes that
  // dominate volume ("A First Look at Anycast CDN Traffic" demand shape).
  FlowSizeCdf cdf;
  cdf.bytes = {500.0, 2'000.0, 10'000.0, 50'000.0, 200'000.0, 1'000'000.0, 10'000'000.0};
  cdf.prob = {0.20, 0.45, 0.70, 0.85, 0.94, 0.97, 1.0};
  return cdf;
}

std::uint64_t fingerprint(const TrafficConfig& c) noexcept {
  return core::fingerprint_fields(0x54524146u /* "TRAF" */, c);
}

}  // namespace ranycast::traffic
