// Expected-based traffic config binding: a malformed block comes back as an
// io::ConfigError naming the file and the offending field, never a throw or
// a silently-defaulted knob.
#include "ranycast/traffic/config.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "ranycast/io/json.hpp"

namespace ranycast::traffic {
namespace {

io::Json parse(const std::string& text) { return io::parse_json_or_throw(text); }

TEST(TrafficConfigJson, DefaultsRoundTrip) {
  const TrafficConfig cfg;
  const auto back = config_from_json(io::to_json(cfg), "mem");
  ASSERT_TRUE(back.has_value()) << back.error().to_string();
  EXPECT_EQ(back->flows_per_probe_per_s, cfg.flows_per_probe_per_s);
  EXPECT_EQ(back->default_site_capacity_mbps, cfg.default_site_capacity_mbps);
  EXPECT_EQ(back->policy, cfg.policy);
  EXPECT_EQ(back->seed, cfg.seed);
  EXPECT_EQ(back->flow_sizes.bytes, cfg.flow_sizes.bytes);
  EXPECT_EQ(fingerprint(*back), fingerprint(cfg));
}

TEST(TrafficConfigJson, ParsesEveryKnob) {
  const auto cfg = config_from_json(parse(R"({
    "flows_per_probe_per_s": 3.5,
    "window_s": 2.0,
    "demand_scale": 1.5,
    "default_site_capacity_mbps": 450.0,
    "site_capacity_mbps": [100.0, 200.0],
    "policy": "shed",
    "admission_threshold": 0.9,
    "max_rho": 0.98,
    "max_shed_waves": 4,
    "seed": 77,
    "flow_sizes": {"bytes": [1000.0, 5000.0], "prob": [0.5, 1.0]}
  })"),
                                    "overload.json");
  ASSERT_TRUE(cfg.has_value()) << cfg.error().to_string();
  EXPECT_EQ(cfg->policy, OverloadPolicy::Shed);
  EXPECT_EQ(cfg->site_capacity_mbps.size(), 2u);
  EXPECT_EQ(cfg->max_shed_waves, 4u);
  EXPECT_EQ(cfg->seed, 77u);
  EXPECT_EQ(cfg->flow_sizes.bytes.size(), 2u);
}

TEST(TrafficConfigJson, UnknownPolicyNamesTheField) {
  const auto cfg =
      config_from_json(parse(R"({"policy": "teleport"})"), "overload.json");
  ASSERT_FALSE(cfg.has_value());
  EXPECT_EQ(cfg.error().file, "overload.json");
  EXPECT_EQ(cfg.error().field, "traffic.policy");
  EXPECT_NE(cfg.error().message.find("teleport"), std::string::npos);
}

TEST(TrafficConfigJson, NonPositiveCapacityNamesTheIndex) {
  const auto cfg = config_from_json(
      parse(R"({"site_capacity_mbps": [100.0, -5.0]})"), "overload.json");
  ASSERT_FALSE(cfg.has_value());
  EXPECT_EQ(cfg.error().field, "traffic.site_capacity_mbps[1]");
}

TEST(TrafficConfigJson, InfiniteRateIsRejected) {
  TrafficConfig cfg;
  cfg.flows_per_probe_per_s = std::numeric_limits<double>::infinity();
  const auto err = validate(cfg, "overload.json");
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "traffic.flows_per_probe_per_s");
}

TEST(TrafficConfigJson, NonMonotoneCdfIsRejected) {
  const auto cfg = config_from_json(
      parse(R"({"flow_sizes": {"bytes": [5000.0, 1000.0], "prob": [0.5, 1.0]}})"),
      "overload.json");
  ASSERT_FALSE(cfg.has_value());
  EXPECT_EQ(cfg.error().field, "traffic.flow_sizes.bytes[1]");
  EXPECT_NE(cfg.error().message.find("increasing"), std::string::npos);
}

TEST(TrafficConfigJson, UnnormalizedCdfIsRejected) {
  const auto cfg = config_from_json(
      parse(R"({"flow_sizes": {"bytes": [1000.0, 5000.0], "prob": [0.5, 0.9]}})"),
      "overload.json");
  ASSERT_FALSE(cfg.has_value());
  EXPECT_EQ(cfg.error().field, "traffic.flow_sizes.prob");
}

TEST(TrafficConfigJson, MismatchedCdfKnotsAreRejected) {
  const auto cfg = config_from_json(
      parse(R"({"flow_sizes": {"bytes": [1000.0], "prob": [0.5, 1.0]}})"),
      "overload.json");
  ASSERT_FALSE(cfg.has_value());
  EXPECT_EQ(cfg.error().field, "traffic.flow_sizes");
}

TEST(TrafficConfigJson, ThresholdOutsideUnitIntervalIsRejected) {
  const auto cfg =
      config_from_json(parse(R"({"admission_threshold": 1.5})"), "overload.json");
  ASSERT_FALSE(cfg.has_value());
  EXPECT_EQ(cfg.error().field, "traffic.admission_threshold");
}

TEST(TrafficConfigJson, NonObjectBlockIsRejected) {
  const auto cfg = config_from_json(parse("[1, 2]"), "overload.json");
  ASSERT_FALSE(cfg.has_value());
  EXPECT_EQ(cfg.error().file, "overload.json");
}

TEST(TrafficFingerprint, SensitiveToEveryPolicyKnob) {
  const TrafficConfig base;
  const auto fp = fingerprint(base);

  TrafficConfig c = base;
  c.policy = OverloadPolicy::Shed;
  EXPECT_NE(fingerprint(c), fp);

  c = base;
  c.default_site_capacity_mbps += 1.0;
  EXPECT_NE(fingerprint(c), fp);

  c = base;
  c.seed ^= 1;
  EXPECT_NE(fingerprint(c), fp);

  c = base;
  c.site_capacity_mbps = {500.0};
  EXPECT_NE(fingerprint(c), fp);

  c = base;
  c.flow_sizes.bytes.back() *= 2.0;
  EXPECT_NE(fingerprint(c), fp);
}

}  // namespace
}  // namespace ranycast::traffic
