// The measurement hot paths — the chaos engine's passes, traffic shed
// alternates and cross-region checks, and the serving plane's snapshot
// builds — read catchments and RTTs from the solver's compact rows and never
// materialize a bgp::Route. bgp.routes_materialized counts materializations,
// so it must stay 0 on those paths and move on traceroute, which needs hops.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/converge/plane.hpp"
#include "ranycast/obs/report.hpp"
#include "ranycast/serve/snapshot.hpp"

namespace ranycast::chaos {
namespace {

lab::LabConfig tiny_config() {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  config.seed = 2023;
  return config;
}

/// Telemetry on and zeroed for one test; restored afterwards.
class CompactMeasure : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
    obs::reset_all();
  }
  void TearDown() override {
    obs::reset_all();
    obs::set_enabled(was_enabled_);
  }

  static std::uint64_t materialized() {
    return obs::MetricsRegistry::global().counter("bgp.routes_materialized").value();
  }

 private:
  bool was_enabled_{false};
};

TEST_F(CompactMeasure, ChaosRunWithShedTrafficAndTransientMaterializesNoRoute) {
  // chaos_cascade withdraws a whole region (the reduce's cross-region
  // fallback runs) and degrades the measurement plane.
  auto plan = load_plan(std::string(RANYCAST_CONFIGS_DIR) + "/chaos_cascade.json");
  ASSERT_TRUE(plan.has_value()) << plan.error().to_string();
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  traffic::TrafficConfig traffic;
  traffic.default_site_capacity_mbps = 450.0;
  traffic.policy = traffic::OverloadPolicy::Shed;
  Engine engine(laboratory, handle);
  engine.enable_traffic(traffic);
  engine.enable_transient(converge::Config{});
  const auto report = engine.run(*plan);
  ASSERT_TRUE(report.has_value()) << report.error();
  ASSERT_FALSE(report->traffic.empty());
  EXPECT_GT(obs::MetricsRegistry::global().counter("lab.ping.calls").value(), 0u);
  EXPECT_EQ(materialized(), 0u);
}

TEST_F(CompactMeasure, ServeSnapshotBuildMaterializesNoRoute) {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  const serve::WorldSnapshot snap = serve::build_snapshot(laboratory, handle, 1, 0);
  ASSERT_EQ(snap.entries.size(), laboratory.census().retained().size());
  EXPECT_EQ(materialized(), 0u);
}

TEST_F(CompactMeasure, TracerouteMaterializesItsRoute) {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  const atlas::Probe& probe = *laboratory.census().retained().front();
  const auto answer = laboratory.dns_lookup(probe, handle, dns::QueryMode::Ldns);
  ASSERT_TRUE(laboratory.ping(probe, answer.address).has_value());
  EXPECT_EQ(materialized(), 0u);
  ASSERT_TRUE(laboratory.traceroute(probe, answer.address).has_value());
  EXPECT_GT(materialized(), 0u);
}

}  // namespace
}  // namespace ranycast::chaos
