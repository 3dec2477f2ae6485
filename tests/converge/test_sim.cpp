// PrefixSim unit tests on hand-built topologies: equivalence with the
// steady-state solver, withdrawal transients, damping, the forwarding-loop
// walker and the oscillation detector.
#include "ranycast/converge/sim.hpp"

#include <gtest/gtest.h>

#include "ranycast/bgp/solver.hpp"
#include "ranycast/geo/gazetteer.hpp"

namespace ranycast::converge {
namespace {

using topo::AsKind;
using topo::Graph;
using topo::Rel;

CityId city(const char* iata) { return *geo::Gazetteer::world().find_by_iata(iata); }

constexpr Asn kCdn = make_asn(65000);

bgp::OriginAttachment attach(SiteId site, CityId c, Asn neighbor,
                             Rel rel = Rel::Customer) {
  return bgp::OriginAttachment{site, c, neighbor, rel, true};
}

/// Fast timers for unit fixtures: no MRAI stagger noise, quick quiescence.
Config test_config() {
  Config cfg;
  cfg.timers.mrai_us = 100'000;
  cfg.timers.proc_jitter_us = 5'000;
  return cfg;
}

/// The quiesced sim must agree with the solver attribute-for-attribute —
/// same catchment, class, path length and tie-break hash — for every AS.
void expect_matches_solver(const Graph& g, const PrefixSim& sim,
                           std::span<const bgp::OriginAttachment> origins,
                           std::uint64_t seed) {
  const auto outcome = bgp::solve_anycast(g, kCdn, origins, seed);
  const auto nodes = g.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const bgp::Route* steady = outcome.route_for(nodes[i].asn);
    const std::optional<bgp::rules::Attrs> view = sim.route_view(i);
    ASSERT_EQ(view.has_value(), steady != nullptr) << "AS index " << i;
    if (steady == nullptr) continue;
    EXPECT_EQ(view->site, steady->origin_site) << "AS index " << i;
    EXPECT_EQ(view->cls, steady->cls) << "AS index " << i;
    EXPECT_EQ(view->len, steady->path_length()) << "AS index " << i;
    EXPECT_EQ(view->ingress_km, steady->ingress_km) << "AS index " << i;
    EXPECT_EQ(view->tiebreak, steady->tiebreak) << "AS index " << i;
  }
}

/// Multi-class fixture: a customer chain, a peering and a provider descent,
/// so all three Gao-Rexford stages are exercised.
struct MultiClassFixture {
  Graph g;
  Asn a, b, p1, p2, x, stub;
  std::vector<bgp::OriginAttachment> origins;

  MultiClassFixture() {
    const CityId ams = city("AMS");
    const CityId fra = city("FRA");
    a = g.add_as(AsKind::Transit, ams, {ams, fra});
    b = g.add_as(AsKind::Transit, fra, {ams, fra});
    p1 = g.add_as(AsKind::Tier1, ams, {ams, fra});
    p2 = g.add_as(AsKind::Tier1, fra, {ams, fra});
    x = g.add_as(AsKind::Transit, fra, {fra});
    stub = g.add_as(AsKind::Stub, ams, {ams});
    g.add_transit(a, p1, {ams});   // a's provider p1
    g.add_transit(b, p2, {fra});   // b's provider p2
    g.add_peering(p1, p2, false, {ams, fra});
    g.add_transit(x, p2, {fra});
    g.add_transit(stub, p1, {ams});
    origins = {attach(SiteId{0}, ams, a), attach(SiteId{1}, fra, b)};
  }
};

TEST(ConvergeSim, ColdStartMatchesSolver) {
  MultiClassFixture f;
  PrefixSim sim(f.g, kCdn, 7, test_config());
  const RegionTransient t = sim.cold_start(f.origins);
  EXPECT_FALSE(t.oscillating);
  EXPECT_GT(t.events, 0u);
  expect_matches_solver(f.g, sim, f.origins, 7);
}

TEST(ConvergeSim, WithdrawalConvergesOntoResolvedState) {
  MultiClassFixture f;
  PrefixSim sim(f.g, kCdn, 7, test_config());
  sim.cold_start(f.origins);

  const bgp::OriginChange withdraw{false, f.origins[0]};
  const RegionTransient t = sim.run_step({&withdraw, 1});
  EXPECT_FALSE(t.oscillating);
  EXPECT_GT(t.nodes_changed, 0u);
  EXPECT_GT(t.withdrawals_sent + t.updates_sent, 0u);
  EXPECT_GT(t.converged_us, 0u);

  const std::vector<bgp::OriginAttachment> remaining{f.origins[1]};
  expect_matches_solver(f.g, sim, remaining, 7);

  // Everyone ends on site 1; the ASes that served site 0 flipped.
  for (std::size_t i = 0; i < sim.node_count(); ++i) {
    EXPECT_EQ(sim.catchment(i), std::optional<SiteId>(SiteId{1})) << i;
  }
}

TEST(ConvergeSim, SoleOriginWithdrawalBlackholesEveryClient) {
  Graph g;
  const CityId ams = city("AMS");
  const Asn a = g.add_as(AsKind::Transit, ams, {ams});
  const Asn p = g.add_as(AsKind::Tier1, ams, {ams});
  const Asn stub = g.add_as(AsKind::Stub, ams, {ams});
  g.add_transit(a, p, {ams});
  g.add_transit(stub, p, {ams});
  const bgp::OriginAttachment o = attach(SiteId{0}, ams, a);

  Config cfg = test_config();
  cfg.dns_failover_us = 30'000'000;
  PrefixSim sim(g, kCdn, 3, cfg);
  sim.cold_start({&o, 1});
  ASSERT_TRUE(sim.has_route(*g.index_of(stub)));

  const bgp::OriginChange withdraw{false, o};
  const RegionTransient t = sim.run_step({&withdraw, 1});
  EXPECT_FALSE(t.oscillating);
  // No other origin exists: every previously routed AS goes dark and stays
  // dark, so each is charged the full DNS failover window.
  EXPECT_EQ(t.nodes_dark_at_end, 3u);
  EXPECT_EQ(t.nodes_blackholed, 3u);
  EXPECT_EQ(t.max_blackhole_us, cfg.dns_failover_us);
  for (const NodeTimeline& tl : sim.timelines()) {
    EXPECT_TRUE(tl.routed_initially);
    EXPECT_FALSE(tl.routed_finally);
    EXPECT_TRUE(tl.dark_at_end);
    EXPECT_EQ(tl.blackhole_us, cfg.dns_failover_us);
  }
}

TEST(ConvergeSim, AnnouncementRestoresService) {
  MultiClassFixture f;
  PrefixSim sim(f.g, kCdn, 7, test_config());
  const std::vector<bgp::OriginAttachment> only_b{f.origins[1]};
  sim.cold_start(only_b);

  const bgp::OriginChange announce{true, f.origins[0]};
  const RegionTransient t = sim.run_step({&announce, 1});
  EXPECT_FALSE(t.oscillating);
  expect_matches_solver(f.g, sim, f.origins, 7);
}

TEST(ConvergeSim, LinkFailureDiscoveredFromGraphState) {
  MultiClassFixture f;
  PrefixSim sim(f.g, kCdn, 7, test_config());
  sim.cold_start(f.origins);

  // The engine flips graph state; the sim has to notice on its own.
  Graph& g = f.g;
  ASSERT_TRUE(g.set_link_state(f.a, f.p1, false));
  const RegionTransient down = sim.run_step({});
  EXPECT_FALSE(down.oscillating);
  EXPECT_GT(down.nodes_changed, 0u);
  expect_matches_solver(g, sim, f.origins, 7);

  ASSERT_TRUE(g.set_link_state(f.a, f.p1, true));
  const RegionTransient up = sim.run_step({});
  EXPECT_FALSE(up.oscillating);
  expect_matches_solver(g, sim, f.origins, 7);
}

TEST(ConvergeSim, QuiescentStepIsSilent) {
  MultiClassFixture f;
  PrefixSim sim(f.g, kCdn, 7, test_config());
  sim.cold_start(f.origins);
  // Nothing changed: no update should flow and nothing should flip.
  const RegionTransient t = sim.run_step({});
  EXPECT_EQ(t.updates_sent, 0u);
  EXPECT_EQ(t.withdrawals_sent, 0u);
  EXPECT_EQ(t.nodes_changed, 0u);
  EXPECT_EQ(t.rib_changes, 0u);
}

TEST(ConvergeSim, RepeatedStepsStayByteStable) {
  // Withdraw/restore cycles must reproduce the same transients every cycle:
  // the epoch reset has to clear all control state and the arena compaction
  // must not perturb route attributes.
  MultiClassFixture f;
  PrefixSim sim(f.g, kCdn, 7, test_config());
  sim.cold_start(f.origins);

  const bgp::OriginChange withdraw{false, f.origins[0]};
  const bgp::OriginChange announce{true, f.origins[0]};
  const RegionTransient w1 = sim.run_step({&withdraw, 1});
  const RegionTransient a1 = sim.run_step({&announce, 1});
  for (int cycle = 0; cycle < 3; ++cycle) {
    const RegionTransient w = sim.run_step({&withdraw, 1});
    const RegionTransient a = sim.run_step({&announce, 1});
    EXPECT_EQ(w.events, w1.events) << cycle;
    EXPECT_EQ(w.rib_changes, w1.rib_changes) << cycle;
    EXPECT_EQ(w.converged_us, w1.converged_us) << cycle;
    EXPECT_EQ(w.max_blackhole_us, w1.max_blackhole_us) << cycle;
    EXPECT_EQ(a.events, a1.events) << cycle;
    EXPECT_EQ(a.rib_changes, a1.rib_changes) << cycle;
    EXPECT_EQ(a.converged_us, a1.converged_us) << cycle;
  }
  expect_matches_solver(f.g, sim, f.origins, 7);
}

TEST(ConvergeSim, DampingSuppressesFlappingSessionThenRecovers) {
  // Route changes ride into `stub`'s session from p1 every time the remote
  // a--p1 link flaps; the penalty accumulates on that stable session until
  // it suppresses, and the reuse timer must bring the route back once the
  // flapping ends.
  Graph g;
  const CityId ams = city("AMS");
  const CityId fra = city("FRA");
  const Asn a = g.add_as(AsKind::Transit, ams, {ams});
  const Asn b = g.add_as(AsKind::Transit, fra, {ams, fra});
  const Asn p1 = g.add_as(AsKind::Tier1, ams, {ams, fra});
  const Asn p2 = g.add_as(AsKind::Tier1, fra, {ams, fra});
  const Asn stub = g.add_as(AsKind::Stub, ams, {ams, fra});
  g.add_transit(a, p1, {ams});  // short path: a -> p1
  g.add_transit(a, b, {ams});   // long path: a -> b -> p2
  g.add_transit(b, p2, {fra});
  g.add_transit(stub, p1, {ams});
  g.add_transit(stub, p2, {fra});
  const bgp::OriginAttachment o = attach(SiteId{0}, ams, a);

  Config cfg = test_config();
  cfg.damping.enabled = true;
  cfg.damping.flap_penalty = 1000.0;
  cfg.damping.suppress_threshold = 1500.0;
  cfg.damping.reuse_threshold = 750.0;
  cfg.damping.half_life_us = 2'000'000;
  PrefixSim sim(g, kCdn, 11, cfg);
  sim.cold_start({&o, 1});

  const TimedLinkFlip flaps[] = {
      {1'000'000, a, p1, false},
      {2'000'000, a, p1, true},
      {3'000'000, a, p1, false},
      {4'000'000, a, p1, true},
  };
  const RegionTransient t = sim.run_step({}, flaps);
  EXPECT_FALSE(t.oscillating);
  EXPECT_GT(t.suppressed, 0u);
  // After the reuse timer fires the quiesced state is damping-free and must
  // equal the solver's.
  expect_matches_solver(g, sim, {&o, 1}, 11);
}

TEST(ConvergeSim, OscillationDetectorFlagsMraiRace) {
  MultiClassFixture f;
  Config cfg = test_config();
  // Budget sized so the cold start fits comfortably but a 500-flip storm
  // (500 LinkFlip events alone, before any BGP traffic) cannot.
  cfg.max_events = 300;
  PrefixSim sim(f.g, kCdn, 7, cfg);
  const RegionTransient cold = sim.cold_start(f.origins);
  ASSERT_FALSE(cold.oscillating);
  ASSERT_LT(cold.events, cfg.max_events);

  std::vector<TimedLinkFlip> storm;
  for (int i = 0; i < 500; ++i) {
    storm.push_back(TimedLinkFlip{static_cast<std::uint64_t>(1000 * (i + 1)), f.a, f.p1,
                                  i % 2 == 1});
  }
  const RegionTransient t = sim.run_step({}, storm);
  EXPECT_TRUE(t.oscillating);
  EXPECT_EQ(t.events, cfg.max_events + 1);  // stopped right past the budget

  // The detector terminates the run cleanly: the next (calm) step repairs
  // the overlay from graph state and reconverges onto the solver's answer.
  const RegionTransient calm = sim.run_step({});
  EXPECT_FALSE(calm.oscillating);
  expect_matches_solver(f.g, sim, f.origins, 7);
}

TEST(ConvergeSim, FiniteFlapScheduleQuiescesUnderDefaultBudget) {
  MultiClassFixture f;
  PrefixSim sim(f.g, kCdn, 7, test_config());
  sim.cold_start(f.origins);
  const TimedLinkFlip flaps[] = {
      {500'000, f.a, f.p1, false},
      {1'500'000, f.a, f.p1, true},
      {2'500'000, f.a, f.p1, false},
      {3'500'000, f.a, f.p1, true},
  };
  const RegionTransient t = sim.run_step({}, flaps);
  EXPECT_FALSE(t.oscillating);
  expect_matches_solver(f.g, sim, f.origins, 7);
}

TEST(ForwardingCycle, TerminatingWalkReturnsEmpty) {
  // 0 -> 1 -> 2 -> origin(-2); 3 has no route (-1).
  const std::int32_t nh[] = {1, 2, -2, -1};
  EXPECT_TRUE(detail::forwarding_cycle(nh, 0).empty());
  EXPECT_TRUE(detail::forwarding_cycle(nh, 2).empty());
  EXPECT_TRUE(detail::forwarding_cycle(nh, 3).empty());
}

TEST(ForwardingCycle, ReturnsCycleMembersOnly) {
  // 4 -> 0 -> 1 -> 2 -> 0 : cycle is {0, 1, 2}, entered via tail node 4.
  const std::int32_t nh[] = {1, 2, 0, -1, 0};
  const auto from_tail = detail::forwarding_cycle(nh, 4);
  EXPECT_EQ(from_tail, (std::vector<std::uint32_t>{0, 1, 2}));
  const auto from_member = detail::forwarding_cycle(nh, 1);
  EXPECT_EQ(from_member, (std::vector<std::uint32_t>{1, 2, 0}));
}

TEST(ForwardingCycle, SelfLoop) {
  const std::int32_t nh[] = {0};
  EXPECT_EQ(detail::forwarding_cycle(nh, 0), (std::vector<std::uint32_t>{0}));
}

}  // namespace
}  // namespace ranycast::converge
