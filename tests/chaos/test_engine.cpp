#include "ranycast/chaos/engine.hpp"

#include <gtest/gtest.h>

#include <map>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/scenario.hpp"

namespace ranycast::chaos {
namespace {

lab::LabConfig small_config() {
  lab::LabConfig config;
  config.world.stub_count = 500;
  config.census.total_probes = 1500;
  return config;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : lab_(lab::Lab::create(small_config())),
        im6_(&lab_.add_deployment(cdn::catalog::imperva6())) {}

  /// The site serving the most probes (so withdrawals have subjects).
  SiteId busiest_site() {
    std::map<std::uint16_t, int> counts;
    for (const atlas::Probe* p : lab_.census().retained()) {
      const auto answer = lab_.dns_lookup(*p, *im6_, dns::QueryMode::Ldns);
      const bgp::Route* r = im6_->route_for(p->asn, answer.region);
      if (r != nullptr) counts[value(r->origin_site)]++;
    }
    std::uint16_t best = 0;
    int best_count = -1;
    for (const auto& [site, count] : counts) {
      if (count > best_count) {
        best_count = count;
        best = site;
      }
    }
    return SiteId{best};
  }

  /// Serialized catchment of every retained probe (site or '-').
  std::string catchment_fingerprint() {
    std::string out;
    for (const atlas::Probe* p : lab_.census().retained()) {
      const auto answer = lab_.dns_lookup(*p, *im6_, dns::QueryMode::Ldns);
      const bgp::Route* r = im6_->route_for(p->asn, answer.region);
      out += r == nullptr ? std::string("-") : std::to_string(value(r->origin_site));
      out += ',';
    }
    return out;
  }

  lab::Lab lab_;
  const lab::DeploymentHandle* im6_;
};

TEST_F(EngineTest, MultiEventPlanRunsEndToEnd) {
  const SiteId victim = busiest_site();
  FaultPlan plan;
  plan.name = "multi";
  FaultEvent withdraw;
  withdraw.kind = FaultKind::SiteWithdraw;
  withdraw.site = victim;
  FaultEvent rs_down;
  rs_down.kind = FaultKind::RouteServerDown;
  rs_down.ixp = 0;
  FaultEvent rs_up;
  rs_up.kind = FaultKind::RouteServerUp;
  rs_up.ixp = 0;
  FaultEvent restore;
  restore.kind = FaultKind::SiteRestore;
  restore.site = victim;
  plan.events = {withdraw, rs_down, rs_up, restore};

  Engine engine(lab_, *im6_);
  const auto report = engine.run(plan);
  ASSERT_TRUE(report.has_value()) << report.error();
  ASSERT_EQ(report->steps.size(), 4u);
  EXPECT_EQ(report->probes, lab_.census().retained().size());

  const StepReport& w = report->steps[0];
  EXPECT_GT(w.affected_probes, 0u);
  EXPECT_EQ(w.still_served, w.affected_probes);  // §4.5: anycast reconverges
  EXPECT_GT(w.moved + w.lost, 0u);

  // The restore step moves the withdrawn site's catchment back.
  const StepReport& r = report->steps[3];
  EXPECT_EQ(r.routes_after, report->steps[0].routes_before);
}

TEST_F(EngineTest, WithdrawRestoreRoundTripsTheCatchment) {
  const std::string baseline = catchment_fingerprint();
  const SiteId victim = busiest_site();
  FaultPlan plan;
  FaultEvent withdraw;
  withdraw.kind = FaultKind::SiteWithdraw;
  withdraw.site = victim;
  FaultEvent restore;
  restore.kind = FaultKind::SiteRestore;
  restore.site = victim;
  plan.events = {withdraw, restore};

  Engine engine(lab_, *im6_);
  ASSERT_TRUE(engine.run(plan).has_value());
  // Same per-region tie-break salts on re-solve: the restored deployment's
  // catchment is bit-for-bit the original.
  EXPECT_EQ(catchment_fingerprint(), baseline);
}

TEST_F(EngineTest, MeasurementDegradationLosesPingsButNotRoutes) {
  FaultPlan plan;
  FaultEvent degrade;
  degrade.kind = FaultKind::MeasurementDegrade;
  degrade.faults.ping_loss_prob = 0.6;
  degrade.faults.dns_timeout_prob = 0.4;
  degrade.faults.max_retries = 1;
  plan.events = {degrade};

  Engine engine(lab_, *im6_);
  const auto report = engine.run(plan);
  ASSERT_TRUE(report.has_value()) << report.error();
  const StepReport& s = report->steps[0];
  // The probe plane degrades; the routing system is untouched.
  EXPECT_GT(s.lost_pings, 0u);
  EXPECT_GT(s.degraded_dns_answers, 0u);
  EXPECT_EQ(s.routes_before, s.routes_after + s.lost - s.gained);
  EXPECT_GT(s.routes_after, 0u);

  // Degraded measurements are still deterministic.
  const atlas::Probe* p = lab_.census().retained()[0];
  const auto answer = lab_.dns_lookup(*p, *im6_, dns::QueryMode::Ldns);
  const auto first = lab_.ping(*p, answer.address);
  const auto second = lab_.ping(*p, answer.address);
  EXPECT_EQ(first.has_value(), second.has_value());
  if (first && second) {
    EXPECT_DOUBLE_EQ(first->ms, second->ms);
  }
}

TEST_F(EngineTest, GeoDbOutageRedirectsToFallbackRegion) {
  FaultPlan plan;
  FaultEvent outage;
  outage.kind = FaultKind::GeoDbOutage;
  outage.db = 0;  // the CDN mapping database
  plan.events = {outage};

  Engine engine(lab_, *im6_);
  const auto report = engine.run(plan);
  ASSERT_TRUE(report.has_value()) << report.error();
  const StepReport& s = report->steps[0];
  // Every client whose lookup now fails is mapped to the fallback region;
  // most catchments move, but everyone keeps being served.
  EXPECT_GT(s.affected_probes, 0u);
  EXPECT_EQ(s.still_served, s.affected_probes);
}

TEST_F(EngineTest, RejectsUnappliableEvents) {
  Engine engine(lab_, *im6_);

  FaultPlan bad_site;
  FaultEvent e1;
  e1.kind = FaultKind::SiteWithdraw;
  e1.site = SiteId{9999};
  bad_site.events = {e1};
  const auto r1 = engine.run(bad_site);
  ASSERT_FALSE(r1.has_value());
  EXPECT_NE(r1.error().find("unknown site"), std::string::npos);

  FaultPlan unmatched_restore;
  FaultEvent e2;
  e2.kind = FaultKind::SiteRestore;
  e2.site = SiteId{0};
  unmatched_restore.events = {e2};
  const auto r2 = engine.run(unmatched_restore);
  ASSERT_FALSE(r2.has_value());
  EXPECT_NE(r2.error().find("was not withdrawn"), std::string::npos);

  FaultPlan bad_ixp;
  FaultEvent e3;
  e3.kind = FaultKind::RouteServerDown;
  e3.ixp = 100000;
  bad_ixp.events = {e3};
  const auto r3 = engine.run(bad_ixp);
  ASSERT_FALSE(r3.has_value());
  EXPECT_NE(r3.error().find("unknown IXP"), std::string::npos);

  FaultPlan bad_link;
  FaultEvent e4;
  e4.kind = FaultKind::LinkDown;
  e4.a = make_asn(1);
  e4.b = make_asn(999999);
  bad_link.events = {e4};
  const auto r4 = engine.run(bad_link);
  ASSERT_FALSE(r4.has_value());
  EXPECT_NE(r4.error().find("no adjacency"), std::string::npos);
}

TEST_F(EngineTest, DoubleWithdrawIsAnError) {
  const SiteId victim{0};
  FaultPlan plan;
  FaultEvent withdraw;
  withdraw.kind = FaultKind::SiteWithdraw;
  withdraw.site = victim;
  plan.events = {withdraw, withdraw};
  Engine engine(lab_, *im6_);
  const auto report = engine.run(plan);
  ASSERT_FALSE(report.has_value());
  EXPECT_NE(report.error().find("already withdrawn"), std::string::npos);
}

TEST_F(EngineTest, RunsLeaveTheCensusAddressTruthStanding) {
  // DNS maps from the truth each probe resolved at census. That is sound
  // only while no fault touches an AS's home, registration or international
  // flag, and nothing registers an address in probe-host space.
  for (const char* name : {"chaos_smoke.json", "chaos_cascade.json"}) {
    auto plan = load_plan(std::string(RANYCAST_CONFIGS_DIR) + "/" + name);
    ASSERT_TRUE(plan.has_value()) << plan.error().to_string();
    Engine engine(lab_, *im6_);
    const auto report = engine.run(*plan);
    ASSERT_TRUE(report.has_value()) << name << ": " << report.error();
  }
  const topo::World born = topo::generate_world(small_config().world);
  const topo::Graph& graph = lab_.world().graph;
  ASSERT_EQ(graph.nodes().size(), born.graph.nodes().size());
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    const topo::AsNode& now = graph.nodes()[i];
    const topo::AsNode& then = born.graph.nodes()[i];
    ASSERT_EQ(now.home_city, then.home_city) << i;
    ASSERT_EQ(now.registered_city, then.registered_city) << i;
    ASSERT_EQ(now.international, then.international) << i;
  }
  for (const atlas::Probe& p : lab_.census().probes()) {
    for (const dns::QueryMode mode : {dns::QueryMode::Ldns, dns::QueryMode::Adns}) {
      ASSERT_EQ(*lab_.census().dns_truth(p, mode),
                dns::address_truth(graph, lab_.registry(),
                                   dns::effective_address(p.query_context(), mode)))
          << "probe " << value(p.id);
    }
  }
}

}  // namespace
}  // namespace ranycast::chaos
