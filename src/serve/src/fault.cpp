#include "ranycast/serve/fault.hpp"

#include <algorithm>

#include "ranycast/core/crc32.hpp"
#include "ranycast/core/rng.hpp"

namespace ranycast::serve {

namespace {

bool covers(const ServeFaultEvent& e, std::uint64_t t_ns) noexcept {
  return t_ns >= e.at_ns && t_ns - e.at_ns < e.duration_ns;
}

}  // namespace

std::string_view to_string(ServeFaultKind kind) noexcept {
  switch (kind) {
    case ServeFaultKind::BuildFail: return "build_fail";
    case ServeFaultKind::BuildStall: return "build_stall";
    case ServeFaultKind::SlowQuery: return "slow_query";
    case ServeFaultKind::ClockSkew: return "clock_skew";
  }
  return "unknown";
}

std::string describe(const ServeFaultEvent& e) {
  std::string out(to_string(e.kind));
  out += "@" + std::to_string(e.at_ns);
  if (e.kind == ServeFaultKind::ClockSkew) {
    out += " skew=" + std::to_string(e.skew_ns) + "ns";
  } else {
    out += " for " + std::to_string(e.duration_ns) + "ns";
    if (e.extra_ns != 0) out += " extra=" + std::to_string(e.extra_ns) + "ns";
  }
  return out;
}

bool FaultPlan::build_fails(std::uint64_t t_ns) const noexcept {
  for (const ServeFaultEvent& e : events) {
    if (e.kind == ServeFaultKind::BuildFail && covers(e, t_ns)) return true;
  }
  return false;
}

std::uint64_t FaultPlan::stall_extra_ns(std::uint64_t t_ns) const noexcept {
  std::uint64_t extra = 0;
  for (const ServeFaultEvent& e : events) {
    if (e.kind == ServeFaultKind::BuildStall && covers(e, t_ns)) extra += e.extra_ns;
  }
  return extra;
}

std::uint64_t FaultPlan::query_extra_ns(std::uint64_t t_ns) const noexcept {
  std::uint64_t extra = 0;
  for (const ServeFaultEvent& e : events) {
    if (e.kind == ServeFaultKind::SlowQuery && covers(e, t_ns)) extra += e.extra_ns;
  }
  return extra;
}

std::int64_t FaultPlan::skew_ns(std::uint64_t t_ns) const noexcept {
  std::int64_t skew = 0;
  for (const ServeFaultEvent& e : events) {
    if (e.kind == ServeFaultKind::ClockSkew && e.at_ns <= t_ns) skew += e.skew_ns;
  }
  return skew;
}

std::uint64_t FaultPlan::staleness_now_ns(std::uint64_t t_ns) const noexcept {
  const std::int64_t skew = skew_ns(t_ns);
  if (skew >= 0) return t_ns + static_cast<std::uint64_t>(skew);
  const auto back = static_cast<std::uint64_t>(-skew);
  return t_ns > back ? t_ns - back : 0;
}

std::uint64_t FaultPlan::fingerprint() const noexcept {
  std::uint64_t h = hash_combine(seed, events.size());
  for (const ServeFaultEvent& e : events) {
    const std::string d = describe(e);
    h = hash_combine(h, core::crc32(d.data(), d.size()));
  }
  return h;
}

FaultPlan FaultPlan::storm(std::uint64_t seed, std::uint64_t horizon_ns,
                           double intensity) {
  FaultPlan plan;
  plan.seed = seed;
  const double density = std::clamp(intensity, 0.0, 1.0);
  if (horizon_ns == 0 || density <= 0.0) return plan;
  Rng rng(hash_combine(seed, 0x53455256u));  // "SERV"
  const std::uint64_t slots = 8 + static_cast<std::uint64_t>(24.0 * density);
  const std::uint64_t slot_ns = std::max<std::uint64_t>(horizon_ns / slots, 1);
  for (std::uint64_t s = 0; s < slots; ++s) {
    if (!rng.chance(density)) continue;
    ServeFaultEvent e;
    e.kind = static_cast<ServeFaultKind>(rng.below(4));
    e.at_ns = s * slot_ns + rng.below(slot_ns / 4 + 1);
    switch (e.kind) {
      case ServeFaultKind::BuildFail:
        e.duration_ns = slot_ns / 2 + rng.below(slot_ns / 2 + 1);
        break;
      case ServeFaultKind::BuildStall:
        e.duration_ns = slot_ns / 2 + rng.below(slot_ns / 2 + 1);
        e.extra_ns = slot_ns / 4 + rng.below(slot_ns / 2 + 1);
        break;
      case ServeFaultKind::SlowQuery:
        e.duration_ns = slot_ns / 2 + rng.below(slot_ns / 2 + 1);
        e.extra_ns = 200'000 + rng.below(2'000'000);
        break;
      case ServeFaultKind::ClockSkew:
        e.skew_ns = static_cast<std::int64_t>(rng.below(slot_ns)) -
                    static_cast<std::int64_t>(slot_ns / 2);
        break;
    }
    plan.events.push_back(e);
  }
  return plan;
}

}  // namespace ranycast::serve
