// The capacity/overload solve on hand-built flow sets and assignments:
// queueing-delay shape, spill-vs-shed accounting, cascade depth, and the
// degenerate inputs (unrouted probes, zero-capacity sites) that must never
// produce NaN.
#include "ranycast/traffic/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace ranycast::traffic {
namespace {

// One uniform knot keeps flow-size math exact in the assertions below.
FlowSizeCdf point_mass(double bytes) {
  FlowSizeCdf cdf;
  cdf.bytes = {bytes};
  cdf.prob = {1.0};
  return cdf;
}

FlowSet flows_of(std::vector<Flow> flows) {
  FlowSet set;
  for (const Flow& f : flows) set.total_bytes += f.bytes;
  set.flows = std::move(flows);
  set.groups = 1;
  return set;
}

// Capacity in Mbps whose one-second window holds exactly `bytes` bytes.
double cap_for_bytes(double bytes) { return bytes * 8.0 / 1e6; }

TEST(QueueingDelay, MonotoneInUtilizationAndAlwaysFinite) {
  const double service = 0.5;
  double prev = -1.0;
  for (double rho : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0, 1.5, 10.0}) {
    const double w = queueing_delay_ms(rho, service, 0.99);
    ASSERT_TRUE(std::isfinite(w)) << "rho=" << rho;
    EXPECT_GE(w, prev) << "rho=" << rho;
    prev = w;
  }
  // Past the clamp the delay plateaus instead of diverging.
  EXPECT_DOUBLE_EQ(queueing_delay_ms(1.5, service, 0.99),
                   queueing_delay_ms(10.0, service, 0.99));
}

TEST(QueueingDelay, ZeroAtZeroLoadOrZeroService) {
  EXPECT_DOUBLE_EQ(queueing_delay_ms(0.0, 0.5, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(queueing_delay_ms(0.8, 0.0, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(service_time_ms(10000.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(service_time_ms(0.0, 100.0), 0.0);
}

TEST(Solver, SpillDropsNewestArrivalsPastRawCapacity) {
  TrafficConfig cfg;
  cfg.policy = OverloadPolicy::Spill;
  cfg.flow_sizes = point_mass(40'000.0);
  cfg.default_site_capacity_mbps = cap_for_bytes(100'000.0);

  const FlowSet set =
      flows_of({{0, 40'000.0}, {0, 40'000.0}, {0, 40'000.0}});
  const std::vector<ProbeAssign> assign{{SiteId{0}, {}}};
  const TrafficSolve out = solve(set, assign, 1, cfg);

  EXPECT_EQ(out.flows_offered, 3u);
  EXPECT_EQ(out.flows_served, 2u);
  EXPECT_EQ(out.flows_dropped, 1u);
  EXPECT_EQ(out.flows_shed, 0u);
  EXPECT_DOUBLE_EQ(out.sites[0].served_mbps, cap_for_bytes(80'000.0));
  EXPECT_NEAR(out.sites[0].utilization, 0.8, 1e-12);
  EXPECT_FALSE(out.sites[0].overloaded);
  EXPECT_GT(out.sites[0].queue_delay_ms, 0.0);
}

TEST(Solver, ShedSteersToAlternateWhereSpillDrops) {
  TrafficConfig cfg;
  cfg.flow_sizes = point_mass(40'000.0);
  cfg.site_capacity_mbps = {cap_for_bytes(100'000.0), cap_for_bytes(1'000'000.0)};
  cfg.default_site_capacity_mbps = cfg.site_capacity_mbps[0];

  const FlowSet set =
      flows_of({{0, 40'000.0}, {0, 40'000.0}, {0, 40'000.0}});
  const std::vector<ProbeAssign> assign{{SiteId{0}, {SiteId{1}}}};

  cfg.policy = OverloadPolicy::Spill;
  const TrafficSolve spill = solve(set, assign, 2, cfg);
  cfg.policy = OverloadPolicy::Shed;
  const TrafficSolve shed = solve(set, assign, 2, cfg);

  // Spill loses a flow; shed serves all three by steering to the alternate.
  EXPECT_EQ(spill.flows_dropped, 1u);
  EXPECT_EQ(spill.flows_shed, 0u);
  EXPECT_EQ(shed.flows_dropped, 0u);
  EXPECT_GE(shed.flows_shed, 1u);
  EXPECT_EQ(shed.flows_served, 3u);
  EXPECT_GT(shed.sites[1].flows_shed_in, 0u);
  // The policies leave measurably different per-site utilization behind:
  // the steered-to site carries load under shed that spill simply lost.
  EXPECT_GT(shed.sites[1].utilization, spill.sites[1].utilization);
  EXPECT_GT(shed.served_mbps, spill.served_mbps);
}

TEST(Solver, ShedTieGoesToTheFirstListedAlternateNotTheLowestId) {
  // Two idle alternates of equal capacity have equal headroom; the probe
  // lists them in descending id (the engine lists them in region order).
  TrafficConfig cfg;
  cfg.policy = OverloadPolicy::Shed;
  cfg.flow_sizes = point_mass(40'000.0);
  cfg.site_capacity_mbps = {cap_for_bytes(100'000.0), cap_for_bytes(1'000'000.0),
                            cap_for_bytes(1'000'000.0)};

  const FlowSet set =
      flows_of({{0, 40'000.0}, {0, 40'000.0}, {0, 40'000.0}});
  const std::vector<ProbeAssign> assign{{SiteId{0}, {SiteId{2}, SiteId{1}}}};
  const TrafficSolve out = solve(set, assign, 3, cfg);

  EXPECT_EQ(out.flows_shed, 1u);
  EXPECT_EQ(out.sites[2].flows_shed_in, 1u);
  EXPECT_EQ(out.sites[1].flows_shed_in, 0u);
  EXPECT_EQ(out.sites[1].served_mbps, 0.0);
}

TEST(Solver, ShedWithoutReachableAlternateDegeneratesToSpill) {
  TrafficConfig cfg;
  cfg.policy = OverloadPolicy::Shed;
  cfg.flow_sizes = point_mass(40'000.0);
  cfg.default_site_capacity_mbps = cap_for_bytes(100'000.0);

  const FlowSet set =
      flows_of({{0, 40'000.0}, {0, 40'000.0}, {0, 40'000.0}});
  const std::vector<ProbeAssign> assign{{SiteId{0}, {}}};  // one-site region
  const TrafficSolve out = solve(set, assign, 1, cfg);

  EXPECT_EQ(out.flows_shed, 0u);
  EXPECT_EQ(out.flows_dropped, 1u);
  EXPECT_EQ(out.cascade_depth, 0u);
}

TEST(Solver, CascadeDepthCountsWavesThatTipHealthySites) {
  // site 0 overloads and sheds onto site 1 (tipping it); site 1's own
  // clients then shed onto site 2, tipping it in turn: two waves, depth 2.
  TrafficConfig cfg;
  cfg.policy = OverloadPolicy::Shed;
  cfg.flow_sizes = point_mass(10'000.0);
  cfg.default_site_capacity_mbps = cap_for_bytes(125'000.0);
  cfg.admission_threshold = 0.95;  // over when load > 118750 bytes

  std::vector<Flow> flows;
  for (int i = 0; i < 12; ++i) flows.push_back({0, 10'000.0});  // site 0: 120000
  for (int i = 0; i < 11; ++i) flows.push_back({1, 10'000.0});  // site 1: 110000
  for (int i = 0; i < 11; ++i) flows.push_back({2, 10'000.0});  // site 2: 110000
  const std::vector<ProbeAssign> assign{
      {SiteId{0}, {SiteId{1}}},
      {SiteId{1}, {SiteId{2}}},
      {SiteId{2}, {}},
  };
  const TrafficSolve out = solve(flows_of(std::move(flows)), assign, 3, cfg);

  EXPECT_EQ(out.cascade_depth, 2u);
  EXPECT_EQ(out.flows_shed, 2u);
  EXPECT_EQ(out.flows_dropped, 0u);
  EXPECT_EQ(out.sites[1].flows_shed_in, 1u);
  EXPECT_EQ(out.sites[2].flows_shed_in, 1u);
  EXPECT_TRUE(out.sites[2].overloaded);
}

TEST(Solver, UnroutedProbesAreAccountedNotServed) {
  TrafficConfig cfg;
  cfg.flow_sizes = point_mass(10'000.0);
  const FlowSet set = flows_of({{0, 10'000.0}, {1, 10'000.0}, {7, 10'000.0}});
  // Probe 0 routed; probe 1 lost its catchment; probe 7 beyond the
  // assignment table entirely.
  const std::vector<ProbeAssign> assign{{SiteId{0}, {}}, {kInvalidSite, {}}};
  const TrafficSolve out = solve(set, assign, 1, cfg);

  EXPECT_EQ(out.flows_unrouted, 2u);
  EXPECT_EQ(out.flows_offered, 1u);
  EXPECT_EQ(out.flows_served, 1u);
  EXPECT_DOUBLE_EQ(out.unrouted_mbps, cap_for_bytes(20'000.0));
}

TEST(Solver, ZeroCapacitySiteStaysNaNFree) {
  TrafficConfig cfg;
  cfg.flow_sizes = point_mass(10'000.0);
  cfg.default_site_capacity_mbps = 0.0;  // bypasses validate() on purpose
  const FlowSet set = flows_of({{0, 10'000.0}});
  const std::vector<ProbeAssign> assign{{SiteId{0}, {}}};
  const TrafficSolve out = solve(set, assign, 1, cfg);

  EXPECT_TRUE(std::isfinite(out.sites[0].utilization));
  EXPECT_DOUBLE_EQ(out.sites[0].utilization, 0.0);
  EXPECT_DOUBLE_EQ(out.sites[0].queue_delay_ms, 0.0);
  EXPECT_TRUE(out.sites[0].overloaded);
  EXPECT_EQ(out.flows_dropped, 1u);
  EXPECT_EQ(out.flows_served, 0u);
  EXPECT_TRUE(std::isfinite(out.mean_utilization));
}

TEST(Solver, EmptyFlowSetProducesZeroedFiniteReport) {
  const TrafficConfig cfg;
  const TrafficSolve out = solve(FlowSet{}, {}, 4, cfg);
  EXPECT_EQ(out.flows_offered, 0u);
  EXPECT_DOUBLE_EQ(out.max_utilization, 0.0);
  EXPECT_TRUE(std::isfinite(out.mean_utilization));
  EXPECT_TRUE(std::isfinite(out.queue_delay_p50_ms));
  EXPECT_TRUE(std::isfinite(out.queue_delay_p90_ms));
}

TEST(Solver, DeterministicAcrossRepeatedSolves) {
  TrafficConfig cfg;
  cfg.policy = OverloadPolicy::Shed;
  cfg.flow_sizes = point_mass(10'000.0);
  cfg.default_site_capacity_mbps = cap_for_bytes(50'000.0);
  std::vector<Flow> flows;
  for (std::uint32_t p = 0; p < 3; ++p) {
    for (int i = 0; i < 8; ++i) flows.push_back({p, 10'000.0});
  }
  const FlowSet set = flows_of(std::move(flows));
  const std::vector<ProbeAssign> assign{
      {SiteId{0}, {SiteId{1}, SiteId{2}}},
      {SiteId{1}, {SiteId{0}, SiteId{2}}},
      {SiteId{2}, {SiteId{0}, SiteId{1}}},
  };
  const TrafficSolve a = solve(set, assign, 3, cfg);
  const TrafficSolve b = solve(set, assign, 3, cfg);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(a.sites[s].served_mbps, b.sites[s].served_mbps);
    EXPECT_EQ(a.sites[s].flows_shed_out, b.sites[s].flows_shed_out);
    EXPECT_EQ(a.sites[s].flows_dropped, b.sites[s].flows_dropped);
  }
  EXPECT_EQ(a.cascade_depth, b.cascade_depth);
}

}  // namespace
}  // namespace ranycast::traffic
