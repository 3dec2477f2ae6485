#include "ranycast/io/config.hpp"

#include <gtest/gtest.h>

namespace ranycast::io {
namespace {

/// A LabConfig read from `json` by io::from_json, which must accept it.
lab::LabConfig read_lab_config(const Json& json) {
  lab::LabConfig config;
  const auto err = from_json(json, config);
  EXPECT_FALSE(err.has_value()) << err->to_string();
  return config;
}

TEST(Config, EmptyObjectYieldsDefaults) {
  const auto config = read_lab_config(parse_json_or_throw("{}"));
  const lab::LabConfig defaults;
  EXPECT_EQ(config.seed, defaults.seed);
  EXPECT_EQ(config.world.stub_count, defaults.world.stub_count);
  EXPECT_EQ(config.census.total_probes, defaults.census.total_probes);
  EXPECT_DOUBLE_EQ(config.latency.per_hop_ms, defaults.latency.per_hop_ms);
}

TEST(Config, OverridesApply) {
  const auto config = read_lab_config(parse_json_or_throw(R"({
    "seed": 99,
    "world": {"stub_count": 123, "tier1_count": 5, "tier1_city_coverage": 0.2},
    "census": {"total_probes": 777, "resolver_local_prob": 0.5},
    "latency": {"per_hop_ms": 0.9},
    "geo_dbs": [{"name": "custom", "wrong_country_prob": 0.25}]
  })"));
  EXPECT_EQ(config.seed, 99u);
  EXPECT_EQ(config.world.stub_count, 123);
  EXPECT_EQ(config.world.tier1_count, 5);
  EXPECT_DOUBLE_EQ(config.world.tier1_city_coverage, 0.2);
  EXPECT_EQ(config.census.total_probes, 777);
  EXPECT_DOUBLE_EQ(config.census.resolver_local_prob, 0.5);
  EXPECT_DOUBLE_EQ(config.latency.per_hop_ms, 0.9);
  EXPECT_EQ(config.geo_dbs[0].name, "custom");
  EXPECT_DOUBLE_EQ(config.geo_dbs[0].wrong_country_prob, 0.25);
  // The other databases keep their defaults.
  const lab::LabConfig defaults;
  EXPECT_EQ(config.geo_dbs[1].name, defaults.geo_dbs[1].name);
}

TEST(Config, UnknownKeysIgnored) {
  const auto config = read_lab_config(
      parse_json_or_throw(R"({"future_knob": 1, "world": {"also_future": 2}})"));
  const lab::LabConfig defaults;
  EXPECT_EQ(config.world.stub_count, defaults.world.stub_count);
}

TEST(Config, RoundTripsThroughJson) {
  lab::LabConfig original;
  original.seed = 4711;
  original.world.stub_count = 999;
  original.world.tier1_count = 17;
  original.census.total_probes = 4242;
  original.latency.jitter_max_ms = 3.25;
  original.geo_dbs[2].wrong_country_prob = 0.123;

  const auto json = to_json(original);
  const auto restored = read_lab_config(json);
  EXPECT_EQ(restored.seed, original.seed);
  EXPECT_EQ(restored.world.stub_count, original.world.stub_count);
  EXPECT_EQ(restored.world.tier1_count, original.world.tier1_count);
  EXPECT_EQ(restored.census.total_probes, original.census.total_probes);
  EXPECT_DOUBLE_EQ(restored.latency.jitter_max_ms, original.latency.jitter_max_ms);
  EXPECT_DOUBLE_EQ(restored.geo_dbs[2].wrong_country_prob,
                   original.geo_dbs[2].wrong_country_prob);
}

TEST(Config, ObservabilityTriStateRoundTrips) {
  // Absent / null -> nullopt (defer to the RANYCAST_OBS environment switch).
  EXPECT_FALSE(read_lab_config(parse_json_or_throw("{}")).observability.has_value());
  EXPECT_FALSE(read_lab_config(parse_json_or_throw(R"({"observability": null})"))
                   .observability.has_value());
  const auto forced_on =
      read_lab_config(parse_json_or_throw(R"({"observability": true})"));
  ASSERT_TRUE(forced_on.observability.has_value());
  EXPECT_TRUE(*forced_on.observability);
  const auto forced_off =
      read_lab_config(parse_json_or_throw(R"({"observability": false})"));
  ASSERT_TRUE(forced_off.observability.has_value());
  EXPECT_FALSE(*forced_off.observability);

  lab::LabConfig original;
  original.observability = false;
  const auto restored = read_lab_config(to_json(original));
  ASSERT_TRUE(restored.observability.has_value());
  EXPECT_FALSE(*restored.observability);
}

TEST(Config, SerializedFormParsesAsJson) {
  const auto json = to_json(lab::LabConfig{});
  const auto reparsed = parse_json_or_throw(json.dump(2));
  EXPECT_TRUE(reparsed.is_object());
  EXPECT_NE(reparsed.find("world"), nullptr);
  EXPECT_NE(reparsed.find("geo_dbs"), nullptr);
}

TEST(Config, ReadFileReportsMissingFileAsError) {
  const auto result = read_file("/nonexistent/path/config.json");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().file, "/nonexistent/path/config.json");
  EXPECT_NE(result.error().message.find("cannot open"), std::string::npos);
  EXPECT_NE(result.error().to_string().find("/nonexistent/path/config.json"),
            std::string::npos);
}

TEST(Config, LoadConfigReportsMissingFileAsError) {
  const auto result = load_config("/nonexistent/path/config.json");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().file, "/nonexistent/path/config.json");
}

TEST(Config, ValidationRejectsZeroProbes) {
  lab::LabConfig config;
  config.census.total_probes = 0;
  const auto err = validate_lab_config(config, "lab.json");
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "census.total_probes");
  EXPECT_EQ(err->file, "lab.json");
  EXPECT_NE(err->to_string().find("census.total_probes"), std::string::npos);
}

TEST(Config, ValidationRejectsNegativeGeoDbErrorRate) {
  lab::LabConfig config;
  config.geo_dbs[1].wrong_country_prob = -0.25;
  const auto err = validate_lab_config(config);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "geo_dbs[1].wrong_country_prob");
  EXPECT_NE(err->message.find("[0,1]"), std::string::npos);
}

TEST(Config, ValidationRejectsProbabilityAboveOne) {
  lab::LabConfig config;
  config.world.stub_ixp_join_prob = 1.5;
  const auto err = validate_lab_config(config);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "world.stub_ixp_join_prob");
}

TEST(Config, ValidationAcceptsDefaults) {
  EXPECT_FALSE(validate_lab_config(lab::LabConfig{}).has_value());
}

TEST(Config, ConfiguredLabIsUsable) {
  const auto config = read_lab_config(parse_json_or_throw(
      R"({"world": {"stub_count": 200}, "census": {"total_probes": 300}})"));
  auto laboratory = lab::Lab::create(config);
  EXPECT_GT(laboratory.census().probes().size(), 100u);
  EXPECT_LE(laboratory.census().probes().size(), 300u);
}

}  // namespace
}  // namespace ranycast::io
