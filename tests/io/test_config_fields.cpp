// The config records' field lists against the adapters that walk them:
// every listed field moves the fingerprint and survives a JSON round trip,
// the default JSON is the text the hand-written writers produced, the walk
// reproduces the hand-written fingerprints it replaced, and the reader
// refuses a bad member by its dotted path.
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ranycast/converge/config.hpp"
#include "ranycast/core/fields.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/io/json.hpp"
#include "ranycast/serve/admission.hpp"
#include "ranycast/serve/ladder.hpp"
#include "ranycast/traffic/config.hpp"

namespace ranycast {
namespace {

/// Calls visit(path, leaf) for every leaf of `v`: each member that is not a
/// nested record or an array of records.
template <typename T, typename Visit>
void for_each_leaf(T& v, const std::string& path, Visit& visit) {
  if constexpr (core::Record<T>) {
    for_each_field(v, [&](std::string_view name, auto& m) {
      for_each_leaf(m, path + "." + std::string(name), visit);
    });
  } else if constexpr (core::RecordArray<T>) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      for_each_leaf(v[i], path + "[" + std::to_string(i) + "]", visit);
    }
  } else {
    visit(path, v);
  }
}

/// Change `v` to another value that JSON carries exactly.
template <typename T>
void perturb(T& v) {
  if constexpr (std::same_as<T, bool>) {
    v = !v;
  } else if constexpr (std::integral<T>) {
    v = static_cast<T>(v + 1);
  } else if constexpr (std::same_as<T, double>) {
    v = v * 2.0 + 0.25;
  } else if constexpr (std::same_as<T, std::string>) {
    v += "x";
  } else if constexpr (std::same_as<T, std::optional<bool>>) {
    v = !v.value_or(false);
  } else if constexpr (std::same_as<T, std::vector<double>>) {
    if (v.empty()) {
      v.push_back(1.5);
    } else {
      v.back() += 0.5;  // the count stays: only the element hash can move
    }
  } else {
    static_assert(core::NamedEnum<T>);
    for (const T e : enum_values(v)) {
      if (e != v) {
        v = e;
        break;
      }
    }
  }
}

/// One copy of `base` per leaf of its list, with that leaf perturbed.
template <core::Record R>
std::vector<std::pair<std::string, R>> perturbations(const R& base) {
  std::size_t leaves = 0;
  R scratch = base;
  auto count = [&leaves](const std::string&, auto&) { ++leaves; };
  for_each_leaf(scratch, "", count);
  std::vector<std::pair<std::string, R>> out;
  for (std::size_t k = 0; k < leaves; ++k) {
    R changed = base;
    std::string path;
    std::size_t i = 0;
    auto change_kth = [&](const std::string& at, auto& leaf) {
      if (i++ != k) return;
      perturb(leaf);
      path = at;
    };
    for_each_leaf(changed, "", change_kth);
    out.emplace_back(std::move(path), std::move(changed));
  }
  return out;
}

template <core::Record R>
void expect_every_field_counts() {
  const R base{};
  const std::uint64_t fp = core::fingerprint_fields(0, base);
  const auto cases = perturbations(base);
  ASSERT_GE(cases.size(), 4u);
  for (const auto& [path, changed] : cases) {
    SCOPED_TRACE(path);
    EXPECT_FALSE(changed == base);
    EXPECT_NE(core::fingerprint_fields(0, changed), fp);
    R back{};
    const auto err = io::from_json(io::to_json(changed), back, "mem");
    ASSERT_FALSE(err.has_value()) << err->to_string();
    EXPECT_TRUE(back == changed);
  }
}

TEST(ConfigFields, EveryListedFieldMovesTheFingerprintAndRoundTrips) {
  expect_every_field_counts<lab::LabConfig>();
  expect_every_field_counts<lab::MeasurementFaults>();
  expect_every_field_counts<traffic::TrafficConfig>();
  expect_every_field_counts<converge::Config>();
  expect_every_field_counts<serve::LadderConfig>();
  expect_every_field_counts<serve::AdmissionConfig>();
}

TEST(ConfigFields, LabFingerprintCoversEveryFieldButObservability) {
  const lab::LabConfig base;
  const std::uint64_t fp = io::config_fingerprint(base);
  for (const auto& [path, changed] : perturbations(base)) {
    SCOPED_TRACE(path);
    if (path == ".observability") {
      EXPECT_EQ(io::config_fingerprint(changed), fp);
    } else {
      EXPECT_NE(io::config_fingerprint(changed), fp);
    }
  }
}

// Recorded with the hand-written lab_config_to_json this list replaced.
TEST(ConfigFields, LabConfigDefaultJson) {
  EXPECT_EQ(
      io::to_json(lab::LabConfig{}).dump(),
      R"({"census":{"access_extra_cap_ms":10,"access_extra_mean_ms":1.5,)"
      R"("reliable_geocode_prob":0.94999999999999996,"resolver_local_prob":0.69999999999999996,)"
      R"("resolver_public_ecs_prob":0.20000000000000001,"seed":684453,)"
      R"("stable_prob":0.93000000000000005,"total_probes":11000},)"
      R"("geo_dbs":[{"intl_home_bias_prob":0.80000000000000004,"name":"maxmind-like","seed":101,)"
      R"("wrong_city_prob":0.20000000000000001,"wrong_country_prob":0.012},)"
      R"({"intl_home_bias_prob":0.75,"name":"ipinfo-like","seed":202,"wrong_city_prob":0.25,)"
      R"("wrong_country_prob":0.021999999999999999},{"intl_home_bias_prob":0.84999999999999998,)"
      R"("name":"edgescape-like","seed":303,"wrong_city_prob":0.22,)"
      R"("wrong_country_prob":0.017000000000000001}],)"
      R"("latency":{"access_base_ms":0.40000000000000002,"jitter_max_ms":1.5,"ms_per_km":0.01,)"
      R"("per_hop_ms":0.14999999999999999},"observability":null,"seed":2023,)"
      R"("world":{"international_transits":44,"intl_transit_customer_prob":0.40000000000000002,)"
      R"("ixp_bilateral_prob":0.45000000000000001,"ixp_count":18,)"
      R"("ixp_mesh_prob":0.65000000000000002,"max_national_transits_per_country":3,"seed":42,)"
      R"("stub_count":2600,"stub_foreign_registration_prob":0.025000000000000001,)"
      R"("stub_ixp_join_prob":0.059999999999999998,)"
      R"("stub_second_provider_prob":0.34999999999999998,)"
      R"("tier1_city_coverage":0.40000000000000002,"tier1_count":24}})");
}

// Recorded with the hand-written traffic::config_to_json this list replaced.
TEST(ConfigFields, TrafficConfigDefaultJson) {
  EXPECT_EQ(
      io::to_json(traffic::TrafficConfig{}).dump(),
      R"({"admission_threshold":0.94999999999999996,"default_site_capacity_mbps":600,)"
      R"("demand_scale":1,"flow_sizes":{"bytes":[500,2000,10000,50000,200000,1000000,10000000],)"
      R"("prob":[0.20000000000000001,0.45000000000000001,0.69999999999999996,0.84999999999999998,)"
      R"(0.93999999999999995,0.96999999999999997,1]},"flows_per_probe_per_s":2,)"
      R"("max_rho":0.98999999999999999,"max_shed_waves":8,"policy":"spill","seed":8060700,)"
      R"("site_capacity_mbps":[],"window_s":1})");
}

/// converge::fingerprint as it was written out by hand.
std::uint64_t converge_by_hand(const converge::Config& c) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::uint64_t h = hash_combine(0x434f4e56u, c.timers.proc_delay_us);
  h = hash_combine(h, c.timers.proc_jitter_us);
  h = hash_combine(h, c.timers.link_base_delay_us);
  h = hash_combine(h, bits(c.timers.link_us_per_km));
  h = hash_combine(h, c.timers.mrai_us);
  h = hash_combine(h, static_cast<std::uint64_t>(c.timers.mrai_jitter));
  h = hash_combine(h, static_cast<std::uint64_t>(c.damping.enabled));
  h = hash_combine(h, bits(c.damping.flap_penalty));
  h = hash_combine(h, bits(c.damping.suppress_threshold));
  h = hash_combine(h, bits(c.damping.reuse_threshold));
  h = hash_combine(h, c.damping.half_life_us);
  h = hash_combine(h, c.max_events);
  return hash_combine(h, c.dns_failover_us);
}

/// The serve config lines of Server::fingerprint as they were written out
/// by hand.
std::uint64_t serve_by_hand(std::uint64_t h, const serve::LadderConfig& l,
                            const serve::AdmissionConfig& a) {
  h = hash_combine(h, l.fresh_max_age_ns);
  h = hash_combine(h, l.stale_max_age_ns);
  h = hash_combine(h, l.reject_after_age_ns);
  h = hash_combine(h, l.freeze_after_failures);
  h = hash_combine(h, std::bit_cast<std::uint64_t>(a.rate_qps));
  h = hash_combine(h, a.burst);
  h = hash_combine(h, a.max_queue_depth);
  return hash_combine(h, a.service_time_ns);
}

TEST(ConfigFields, WalkReproducesTheHandWrittenFingerprints) {
  EXPECT_EQ(converge::fingerprint(converge::Config{}), 16260029938604172469ull);
  for (const auto& [path, changed] : perturbations(converge::Config{})) {
    SCOPED_TRACE(path);
    EXPECT_EQ(converge::fingerprint(changed), converge_by_hand(changed));
  }
  const serve::LadderConfig ladder;
  for (const auto& [path, admission] : perturbations(serve::AdmissionConfig{})) {
    SCOPED_TRACE(path);
    const std::uint64_t walked =
        core::fingerprint_fields(core::fingerprint_fields(7, ladder), admission);
    EXPECT_EQ(walked, serve_by_hand(7, ladder, admission));
  }
  for (const auto& [path, changed] : perturbations(ladder)) {
    SCOPED_TRACE(path);
    const serve::AdmissionConfig admission;
    const std::uint64_t walked =
        core::fingerprint_fields(core::fingerprint_fields(7, changed), admission);
    EXPECT_EQ(walked, serve_by_hand(7, changed, admission));
  }
}

struct BadMember {
  const char* doc;
  const char* field;  ///< the path the error must name
};

TEST(StrictReader, LabConfigNamesTheOffendingField) {
  const BadMember cases[] = {
      {R"({"world": {"tier1_count": "5"}})", "world.tier1_count"},
      {R"({"world": {"stub_count": 4294967896}})", "world.stub_count"},
      {R"({"census": {"total_probes": 1200.9}})", "census.total_probes"},
      {R"({"census": {"seed": -1}})", "census.seed"},
      {R"({"seed": 1e30})", "seed"},
      {R"({"world": [1, 2]})", "world"},
      {R"({"geo_dbs": [{}, {"seed": 2.5}]})", "geo_dbs[1].seed"},
      {R"({"geo_dbs": [{"name": 7}]})", "geo_dbs[0].name"},
      {R"({"geo_dbs": {"name": "x"}})", "geo_dbs"},
      {R"({"observability": "yes"})", "observability"},
  };
  for (const BadMember& c : cases) {
    SCOPED_TRACE(c.doc);
    lab::LabConfig config;
    const auto err = io::from_json(io::parse_json_or_throw(c.doc), config, "lab.json");
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->field, c.field);
    EXPECT_EQ(err->file, "lab.json");
  }
}

TEST(StrictReader, NullAbsentAndExtraMembersKeepTheDefaults) {
  lab::LabConfig config;
  const auto err = io::from_json(
      io::parse_json_or_throw(R"({"observability": null, "world": {"stub_count": null},
          "geo_dbs": [null, {}, {}, {"name": "a fourth entry is ignored"}],
          "future_knob": [1]})"),
      config);
  ASSERT_FALSE(err.has_value()) << err->to_string();
  EXPECT_TRUE(config == lab::LabConfig{});
}

TEST(StrictReader, IntegersAreCheckedAgainstTheirType) {
  EXPECT_EQ(io::checked_integer<std::uint16_t>(65535.0), 65535);
  EXPECT_FALSE(io::checked_integer<std::uint16_t>(65536.0));
  EXPECT_FALSE(io::checked_integer<std::uint16_t>(-1.0));
  EXPECT_EQ(io::checked_integer<int>(-2147483648.0), -2147483647 - 1);
  EXPECT_FALSE(io::checked_integer<int>(2147483648.0));
  EXPECT_FALSE(io::checked_integer<std::int64_t>(9223372036854775808.0));
  EXPECT_FALSE(io::checked_integer<std::uint64_t>(18446744073709551616.0));
  EXPECT_FALSE(io::checked_integer<std::uint64_t>(1e30));
  EXPECT_FALSE(io::checked_integer<std::uint64_t>(2.5));
  EXPECT_FALSE(io::checked_integer<std::uint64_t>(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(io::checked_integer<std::uint64_t>(std::numeric_limits<double>::quiet_NaN()));
  // int_or truncates, and falls back outside int64 instead of casting.
  const io::Json doc = io::parse_json_or_throw(R"({"a": 2.9, "b": 1e30, "c": -1e300})");
  EXPECT_EQ(doc.int_or("a", 7), 2);
  EXPECT_EQ(doc.int_or("b", 7), 7);
  EXPECT_EQ(doc.int_or("c", 7), 7);
}

TEST(StrictReader, TrafficBlockNamesTheOffendingField) {
  const BadMember cases[] = {
      {R"({"window_s": "1"})", "traffic.window_s"},
      {R"({"max_shed_waves": 2.5})", "traffic.max_shed_waves"},
      {R"({"seed": -1})", "traffic.seed"},
      {R"({"policy": 1})", "traffic.policy"},
      {R"({"site_capacity_mbps": [100, "x"]})", "traffic.site_capacity_mbps[1]"},
      {R"({"flow_sizes": {"bytes": [1000], "prob": "1"}})", "traffic.flow_sizes.prob"},
      {R"({"flow_sizes": {"bytes": [1000]}})", "traffic.flow_sizes.prob"},
  };
  for (const BadMember& c : cases) {
    SCOPED_TRACE(c.doc);
    const auto cfg = traffic::config_from_json(io::parse_json_or_throw(c.doc), "plan.json");
    ASSERT_FALSE(cfg.has_value());
    EXPECT_EQ(cfg.error().field, c.field);
  }
}

}  // namespace
}  // namespace ranycast
