// fail_site derives its deployment through Lab::add_deployment_derived,
// which splices the failed site's withdrawal into a copy of the base
// deployment's selection planes. The derived handle must equal a
// from-scratch add_deployment of the same withdrawn deployment and keep no
// solver, also when earlier chaos events left the base only partly primed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "../bgp/outcome_equality.hpp"
#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/resilience/failover.hpp"

namespace ranycast::resilience {
namespace {

lab::LabConfig lab_config() {
  lab::LabConfig config;
  config.world.stub_count = 600;
  config.census.total_probes = 1800;
  config.seed = 2023;
  return config;
}

TEST(FailoverDelta, DerivedHandleMatchesFreshDeployment) {
  auto laboratory = lab::Lab::create(lab_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  const topo::Graph& graph = laboratory.world().graph;
  for (const std::uint16_t site : {std::uint16_t{0}, std::uint16_t{3}}) {
    SCOPED_TRACE("site " + std::to_string(site));
    cdn::Deployment withdrawn = withdraw_site(im6.deployment, SiteId{site}, laboratory.registry());
    bgp::SolveDelta delta;
    delta.origins.resize(withdrawn.regions().size());
    for (std::size_t r = 0; r < withdrawn.regions().size(); ++r) {
      delta.origins[r] = bgp::diff_origin_changes(im6.deployment.origins_for_region(r),
                                                  withdrawn.origins_for_region(r));
    }
    const auto& fresh = laboratory.add_deployment(
        withdraw_site(im6.deployment, SiteId{site}, laboratory.registry()));
    const auto& derived = laboratory.add_deployment_derived(im6, std::move(withdrawn), delta);
    EXPECT_EQ(derived.delta, nullptr);
    ASSERT_EQ(derived.outcomes.size(), fresh.outcomes.size());
    for (std::size_t r = 0; r < derived.outcomes.size(); ++r) {
      bgp::expect_outcomes_equal(graph, derived.outcomes[r], fresh.outcomes[r],
                                 "region " + std::to_string(r));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FailoverDelta, PartlyPrimedBaseMatchesFreshLab) {
  // Withdrawing and restoring site A through the chaos engine leaves the
  // world as it was, but primes only A's region of the base's solver. A
  // site failure elsewhere must still report what it reports on a fresh lab.
  auto churned_lab = lab::Lab::create(lab_config());
  const auto& churned = churned_lab.add_deployment(cdn::catalog::imperva6());
  auto fresh_lab = lab::Lab::create(lab_config());
  const auto& fresh = fresh_lab.add_deployment(cdn::catalog::imperva6());

  const auto sites = churned.deployment.sites();
  const auto a = std::find_if(sites.begin(), sites.end(),
                              [](const cdn::Site& s) { return s.regions.size() == 1; });
  ASSERT_NE(a, sites.end());
  chaos::Engine engine(churned_lab, churned);
  chaos::FaultEvent churn;
  churn.kind = chaos::FaultKind::SiteWithdraw;
  churn.site = a->id;
  ASSERT_EQ(engine.apply_event(churn), "");
  churn.kind = chaos::FaultKind::SiteRestore;
  ASSERT_EQ(engine.apply_event(churn), "");

  std::size_t compared = 0;
  for (const cdn::Site& b : sites) {
    if (b.regions.empty() || b.announces(a->regions.front())) continue;
    SCOPED_TRACE("site " + std::to_string(value(b.id)));
    const FailoverReport got = fail_site(churned_lab, churned, b.id);
    const FailoverReport want = fail_site(fresh_lab, fresh, b.id);
    EXPECT_EQ(got.affected_probes, want.affected_probes);
    EXPECT_EQ(got.still_served, want.still_served);
    EXPECT_EQ(got.failover_in_region, want.failover_in_region);
    EXPECT_EQ(got.cross_region, want.cross_region);
    EXPECT_EQ(got.before_p50_ms, want.before_p50_ms);
    EXPECT_EQ(got.after_p50_ms, want.after_p50_ms);
    EXPECT_EQ(got.before_p90_ms, want.before_p90_ms);
    EXPECT_EQ(got.after_p90_ms, want.after_p90_ms);
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

}  // namespace
}  // namespace ranycast::resilience
