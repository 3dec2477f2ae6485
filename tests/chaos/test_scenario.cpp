#include "ranycast/chaos/scenario.hpp"

#include <gtest/gtest.h>

namespace ranycast::chaos {
namespace {

core::Expected<FaultPlan, io::ConfigError> parse(std::string_view text) {
  return plan_from_json(io::parse_json_or_throw(text), "test.json");
}

TEST(Scenario, ParsesEveryEventKind) {
  const auto plan = parse(R"({
    "name": "all-kinds",
    "events": [
      {"type": "site_withdraw", "site": 3, "label": "drain"},
      {"type": "site_restore", "site": 3},
      {"type": "site_link_down", "site": 1, "attachment": 2},
      {"type": "site_link_up", "site": 1, "attachment": 2},
      {"type": "link_down", "a": 12, "b": 40},
      {"type": "link_up", "a": 12, "b": 40},
      {"type": "route_server_down", "ixp": 0},
      {"type": "route_server_up", "ixp": 0},
      {"type": "region_withdraw", "region": 1},
      {"type": "region_restore", "region": 1},
      {"type": "geodb_stale", "db": 1, "extra_wrong_country_prob": 0.4},
      {"type": "geodb_outage", "db": 1},
      {"type": "geodb_restore", "db": 1},
      {"type": "measurement_degrade", "ping_loss_prob": 0.2, "dns_timeout_prob": 0.1,
       "max_retries": 3, "backoff_base_ms": 25, "seed": 7},
      {"type": "measurement_restore"}
    ]
  })");
  ASSERT_TRUE(plan.has_value()) << plan.error().to_string();
  EXPECT_EQ(plan->name, "all-kinds");
  ASSERT_EQ(plan->events.size(), 15u);
  EXPECT_EQ(plan->events[0].kind, FaultKind::SiteWithdraw);
  EXPECT_EQ(plan->events[0].site, SiteId{3});
  EXPECT_EQ(plan->events[0].label, "drain");
  EXPECT_EQ(plan->events[2].attachment, 2u);
  EXPECT_EQ(plan->events[4].a, make_asn(12));
  EXPECT_EQ(plan->events[4].b, make_asn(40));
  EXPECT_EQ(plan->events[10].kind, FaultKind::GeoDbStale);
  EXPECT_EQ(plan->events[10].db, 1u);
  EXPECT_DOUBLE_EQ(plan->events[10].magnitude, 0.4);
  const auto& faults = plan->events[13].faults;
  EXPECT_DOUBLE_EQ(faults.ping_loss_prob, 0.2);
  EXPECT_DOUBLE_EQ(faults.dns_timeout_prob, 0.1);
  EXPECT_EQ(faults.max_retries, 3);
  EXPECT_DOUBLE_EQ(faults.backoff_base_ms, 25.0);
  EXPECT_EQ(faults.seed, 7u);
}

TEST(Scenario, FlapExpandsIntoDownUpPair) {
  const auto plan = parse(R"({
    "name": "flappy",
    "events": [
      {"type": "site_link_flap", "site": 2, "attachment": 1},
      {"type": "link_flap", "a": 5, "b": 6}
    ]
  })");
  ASSERT_TRUE(plan.has_value()) << plan.error().to_string();
  ASSERT_EQ(plan->events.size(), 4u);
  EXPECT_EQ(plan->events[0].kind, FaultKind::SiteLinkDown);
  EXPECT_EQ(plan->events[1].kind, FaultKind::SiteLinkUp);
  EXPECT_EQ(plan->events[0].site, plan->events[1].site);
  EXPECT_EQ(plan->events[0].attachment, plan->events[1].attachment);
  EXPECT_EQ(plan->events[0].label, "flap: down");
  EXPECT_EQ(plan->events[1].label, "flap: up");
  EXPECT_EQ(plan->events[2].kind, FaultKind::LinkDown);
  EXPECT_EQ(plan->events[3].kind, FaultKind::LinkUp);
}

TEST(Scenario, RejectsUnknownTypeNamingTheField) {
  const auto plan = parse(R"({"events": [{"type": "site_withdraw", "site": 0},
                                         {"type": "meteor_strike"}]})");
  ASSERT_FALSE(plan.has_value());
  EXPECT_EQ(plan.error().field, "events[1].type");
  EXPECT_NE(plan.error().message.find("meteor_strike"), std::string::npos);
  EXPECT_EQ(plan.error().file, "test.json");
}

TEST(Scenario, RejectsMissingRequiredMember) {
  const auto plan = parse(R"({"events": [{"type": "site_withdraw"}]})");
  ASSERT_FALSE(plan.has_value());
  EXPECT_EQ(plan.error().field, "events[0].site");
}

TEST(Scenario, RejectsOutOfRangeProbability) {
  const auto plan =
      parse(R"({"events": [{"type": "geodb_stale", "db": 0, "extra_wrong_country_prob": 1.5}]})");
  ASSERT_FALSE(plan.has_value());
  EXPECT_EQ(plan.error().field, "events[0].extra_wrong_country_prob");

  const auto plan2 =
      parse(R"({"events": [{"type": "measurement_degrade", "ping_loss_prob": -0.1}]})");
  ASSERT_FALSE(plan2.has_value());
  EXPECT_EQ(plan2.error().field, "events[0].ping_loss_prob");
}

TEST(Scenario, RejectsIntegersOutsideTheMemberType) {
  // Each used to narrow silently: a site of 65536 withdrew site 0.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"type": "site_withdraw", "site": 65536})", "events[0].site"},
      {R"({"type": "site_restore", "site": -1})", "events[0].site"},
      {R"({"type": "link_down", "a": 4294967297, "b": 2})", "events[0].a"},
      {R"({"type": "link_up", "a": 1, "b": 1e30})", "events[0].b"},
      {R"({"type": "region_withdraw", "region": 1e30})", "events[0].region"},
      {R"({"type": "route_server_down", "ixp": 2.5})", "events[0].ixp"},
      {R"({"type": "site_link_down", "site": 1, "attachment": 2.5})", "events[0].attachment"},
      {R"({"type": "geodb_outage", "db": -1e300})", "events[0].db"},
      {R"({"type": "measurement_degrade", "max_retries": 2147483648})",
       "events[0].max_retries"},
      {R"({"type": "measurement_degrade", "ping_loss_prob": "0.2"})",
       "events[0].ping_loss_prob"},
  };
  for (const auto& [event, field] : cases) {
    SCOPED_TRACE(event);
    const auto plan = plan_from_json(
        io::parse_json_or_throw(std::string(R"({"events": [)") + event + "]}"), "s.json");
    ASSERT_FALSE(plan.has_value());
    EXPECT_EQ(plan.error().field, field);
  }
}

TEST(Scenario, RejectsEmptyOrMissingEvents) {
  EXPECT_FALSE(parse(R"({"name": "empty", "events": []})").has_value());
  EXPECT_FALSE(parse(R"({"name": "none"})").has_value());
  EXPECT_FALSE(parse(R"([1, 2, 3])").has_value());
}

TEST(Scenario, LoadPlanReportsSyntaxErrorWithOffset) {
  // Unreadable path first.
  const auto missing = load_plan("/nonexistent/scenario.json");
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().file, "/nonexistent/scenario.json");
}

TEST(Scenario, ReportSerializesEveryStepField) {
  ChaosReport report;
  report.plan = "p";
  report.deployment = "d";
  report.seed = 9;
  report.probes = 100;
  StepReport step;
  step.index = 0;
  step.event = "site_withdraw site=0";
  step.probes = 100;
  step.routes_before = 90;
  step.routes_after = 88;
  step.moved = 5;
  step.lost = 2;
  step.affected_probes = 7;
  step.still_served = 7;
  step.cross_region = 2;
  report.steps.push_back(step);

  const auto json = report_to_json(report);
  const std::string text = json.dump();
  EXPECT_NE(text.find("\"plan\":\"p\""), std::string::npos);
  EXPECT_NE(text.find("\"cross_region\":2"), std::string::npos);
  EXPECT_NE(text.find("\"survival_rate\":1"), std::string::npos);
  // Round-trips through the parser.
  const auto reparsed = io::parse_json_or_throw(text);
  ASSERT_TRUE(reparsed.find("steps")->is_array());
  EXPECT_EQ(reparsed.find("steps")->as_array().size(), 1u);
}

}  // namespace
}  // namespace ranycast::chaos
