// O(touched) convergence steps: a sim handed the toggled adjacencies must
// step exactly like one that compares every adjacency with the graph, the
// per-run reset must leave no mark of an earlier run behind, and the plane's
// work counters must show what a step reset and synced.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/converge/plane.hpp"
#include "ranycast/converge/sim.hpp"
#include "ranycast/geo/gazetteer.hpp"
#include "ranycast/obs/metrics.hpp"

namespace ranycast::converge {
namespace {

using topo::AsKind;
using topo::Graph;
using topo::Rel;

constexpr Asn kCdn = make_asn(65000);

CityId city(const char* iata) { return *geo::Gazetteer::world().find_by_iata(iata); }

lab::LabConfig tiny_config() {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  config.seed = 2023;
  return config;
}

Config fast_config() {
  Config cfg;
  cfg.timers.mrai_us = 500'000;
  return cfg;
}

/// Checks that read a run's result against its definition over every node,
/// not against the touched list the sim keeps.
void expect_whole_world_view(const PrefixSim& sim, const RegionTransient& rt,
                             const std::vector<bool>& routed_before) {
  RegionTransient sums;
  const auto timelines = sim.timelines();
  for (std::size_t i = 0; i < timelines.size(); ++i) {
    const NodeTimeline& t = timelines[i];
    EXPECT_EQ(t.routed_initially, routed_before[i]) << "node " << i;
    EXPECT_EQ(t.routed_finally, sim.has_route(i)) << "node " << i;
    EXPECT_FALSE(t.dark) << "node " << i;
    if (rt.transient_loops == 0) {
      EXPECT_FALSE(t.looped) << "node " << i;
    }
    if (t.changed) {
      ++sums.nodes_changed;
      sums.converged_us = std::max(sums.converged_us, t.last_change_us);
    }
    sums.rib_changes += t.rib_changes;
    sums.site_flips += t.site_flips;
    if (t.blackhole_us > 0) ++sums.nodes_blackholed;
    if (t.dark_at_end) ++sums.nodes_dark_at_end;
    sums.max_blackhole_us = std::max(sums.max_blackhole_us, t.blackhole_us);
  }
  EXPECT_EQ(rt.nodes_changed, sums.nodes_changed);
  EXPECT_EQ(rt.converged_us, sums.converged_us);
  EXPECT_EQ(rt.rib_changes, sums.rib_changes);
  EXPECT_EQ(rt.site_flips, sums.site_flips);
  EXPECT_EQ(rt.nodes_blackholed, sums.nodes_blackholed);
  EXPECT_EQ(rt.nodes_dark_at_end, sums.nodes_dark_at_end);
  EXPECT_EQ(rt.max_blackhole_us, sums.max_blackhole_us);
}

/// Two sims of one prefix on one graph: `listed` is told the toggled
/// adjacencies, `full` compares every adjacency with the graph.
class Twin {
 public:
  Twin(const Graph& g, std::span<const bgp::OriginAttachment> origins, std::uint64_t seed,
       const Config& cfg)
      : listed_(g, kCdn, seed, cfg), full_(g, kCdn, seed, cfg) {
    listed_.cold_start(origins);
    full_.cold_start(origins);
  }

  /// One step on both; returns the listed sim's transient.
  RegionTransient step(std::span<const bgp::LinkDelta> toggled,
                       std::span<const TimedLinkFlip> schedule = {},
                       std::span<const bgp::OriginChange> origins = {}) {
    std::vector<bool> routed_before(listed_.node_count());
    for (std::size_t i = 0; i < routed_before.size(); ++i) {
      routed_before[i] = listed_.has_route(i);
    }
    const RegionTransient a = listed_.run_step(origins, schedule, toggled);
    const RegionTransient b = full_.run_step(origins, schedule);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(std::ranges::equal(listed_.timelines(), full_.timelines()));
    for (std::size_t i = 0; i < listed_.node_count(); ++i) {
      EXPECT_EQ(listed_.route_view(i), full_.route_view(i)) << "node " << i;
    }
    expect_whole_world_view(listed_, a, routed_before);
    return a;
  }

 private:
  PrefixSim listed_;
  PrefixSim full_;
};

/// Up to `count` transit adjacencies that carry a selected route of
/// `region`: each is an AS and the neighbour it learned its route from, so
/// taking one down moves at least that AS. In dense index order, each once.
std::vector<std::pair<Asn, Asn>> used_transit_links(const lab::Lab& laboratory,
                                                    const lab::DeploymentHandle& handle,
                                                    std::size_t region, std::size_t count) {
  std::vector<std::pair<Asn, Asn>> out;
  for (const topo::AsNode& node : laboratory.world().graph.nodes()) {
    const bgp::Route* route = handle.outcomes[region].route_for(node.asn);
    if (route == nullptr || route->path_length() < 2) continue;
    const Asn upstream = route->as_path.back();
    for (const topo::Edge& e : node.edges) {
      if (e.neighbor != upstream) continue;
      if (e.rel == Rel::Provider || e.rel == Rel::Customer) out.emplace_back(node.asn, upstream);
      break;
    }
    if (out.size() == count) break;
  }
  return out;
}

/// A world from the tiny lab preset, copied so a test may toggle its links,
/// and the origins and tie-break seed of imperva6's region 1 (most of its
/// sites attach to transit ASes with providers of their own).
struct TinyWorld {
  lab::Lab laboratory = lab::Lab::create(tiny_config());
  const lab::DeploymentHandle& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Graph g = laboratory.world().graph;
  std::vector<bgp::OriginAttachment> origins = im6.deployment.origins_for_region(1);
  std::uint64_t seed = laboratory.tiebreak_seed(1);

  std::vector<std::pair<Asn, Asn>> transit_links(std::size_t count) const {
    return used_transit_links(laboratory, im6, 1, count);
  }

  /// An IXP whose route server carries a selected route of region 1, so
  /// its outage moves that AS; ixps().size() when there is none.
  std::size_t route_server_ixp() const {
    const auto carries = [&](std::size_t x) {
      for (const auto& [a, b] : g.route_server_peerings(x)) {
        for (const Asn holder : {a, b}) {
          const bgp::Route* route = im6.outcomes[1].route_for(holder);
          if (route != nullptr && route->path_length() >= 2 &&
              route->as_path.back() == (holder == a ? b : a)) {
            return true;
          }
        }
      }
      return false;
    };
    for (std::size_t x = 0; x < g.ixps().size(); ++x) {
      if (carries(x)) return x;
    }
    return g.ixps().size();
  }
};

std::vector<bgp::LinkDelta> toggle(Graph& g, Asn a, Asn b, bool up) {
  EXPECT_TRUE(g.set_link_state(a, b, up));
  return {bgp::LinkDelta{a, b, up}};
}

TEST(ConvergeTwin, TransitFlapsAndRouteServerOutage) {
  TinyWorld w;
  const auto links = w.transit_links(3);
  ASSERT_EQ(links.size(), 3u);
  const std::size_t ixp = w.route_server_ixp();
  ASSERT_LT(ixp, w.g.ixps().size());
  Twin twin(w.g, w.origins, w.seed, fast_config());

  twin.step({});  // quiet after the cold start
  bool moved = false;
  for (const auto& [a, b] : links) {
    moved = twin.step(toggle(w.g, a, b, false)).nodes_changed > 0 || moved;
    twin.step(toggle(w.g, a, b, true));
  }
  EXPECT_TRUE(moved) << "no transit flap changed a route; the fixture tests nothing";

  std::vector<bgp::LinkDelta> peerings;
  for (const auto& [a, b] : w.g.route_server_peerings(ixp)) {
    peerings.push_back(bgp::LinkDelta{a, b, false});
  }
  ASSERT_GT(w.g.set_route_server_state(ixp, false), 0u);
  EXPECT_GT(twin.step(peerings).nodes_changed, 0u);
  twin.step({});
  for (bgp::LinkDelta& l : peerings) l.up = true;
  w.g.set_route_server_state(ixp, true);
  twin.step(peerings);

  // Two links toggled at once, listed in descending order: the sync must
  // still act in ascending (node, edge) order.
  std::vector<bgp::LinkDelta> both = toggle(w.g, links[2].first, links[2].second, false);
  const auto second = toggle(w.g, links[0].first, links[0].second, false);
  both.insert(both.end(), second.begin(), second.end());
  twin.step(both);
  for (bgp::LinkDelta& l : both) {
    l.up = true;
    w.g.set_link_state(l.a, l.b, true);
  }
  twin.step(both);
}

TEST(ConvergeTwin, DampedFlapsAndOriginChanges) {
  TinyWorld w;
  const auto links = w.transit_links(2);
  ASSERT_EQ(links.size(), 2u);
  Config cfg = fast_config();
  cfg.timers.mrai_us = 100'000;
  cfg.damping.enabled = true;
  cfg.damping.suppress_threshold = 1500.0;
  cfg.damping.half_life_us = 2'000'000;
  Twin twin(w.g, w.origins, w.seed, cfg);

  const auto [a, b] = links[0];
  const TimedLinkFlip flaps[] = {
      {1'000'000, a, b, false},
      {2'000'000, a, b, true},
      {3'000'000, a, b, false},
      {4'000'000, a, b, true},
  };
  EXPECT_GT(twin.step({}, flaps).suppressed, 0u);
  twin.step(toggle(w.g, links[1].first, links[1].second, false));
  const bgp::OriginChange withdraw{false, w.origins[0]};
  twin.step({}, {}, {&withdraw, 1});
  twin.step(toggle(w.g, links[1].first, links[1].second, true));
  const bgp::OriginChange announce{true, w.origins[0]};
  twin.step({}, {}, {&announce, 1});
}

TEST(ConvergeTwin, ScheduleFlippedAdjacencyIsResyncedOnACalmStep) {
  TinyWorld w;
  const auto links = w.transit_links(1);
  ASSERT_EQ(links.size(), 1u);
  Twin twin(w.g, w.origins, w.seed, fast_config());
  const auto [a, b] = links[0];
  // The storm leaves the session down while the graph says up: only the
  // calm step after it can bring the overlay back.
  std::vector<TimedLinkFlip> storm;
  for (int i = 0; i < 41; ++i) {
    storm.push_back(TimedLinkFlip{static_cast<std::uint64_t>(200'000 * (i + 1)), a, b,
                                  i % 2 == 1});
  }
  twin.step({}, storm);
  EXPECT_GT(twin.step({}).nodes_changed, 0u);
  twin.step({});
}

TEST(ConvergeTwin, OscillationRebuildThenCalmListedStep) {
  // Small hand-built world with a budget the storm exhausts: the next step
  // re-floods every node, and the one after must again reset and sync only
  // what that rebuild touched.
  Graph g;
  const CityId ams = city("AMS");
  const CityId fra = city("FRA");
  const Asn a = g.add_as(AsKind::Transit, ams, {ams, fra});
  const Asn b = g.add_as(AsKind::Transit, fra, {ams, fra});
  const Asn p1 = g.add_as(AsKind::Tier1, ams, {ams, fra});
  const Asn p2 = g.add_as(AsKind::Tier1, fra, {ams, fra});
  const Asn stub = g.add_as(AsKind::Stub, ams, {ams});
  g.add_transit(a, p1, {ams});
  g.add_transit(b, p2, {fra});
  g.add_peering(p1, p2, false, {ams, fra});
  g.add_transit(stub, p1, {ams});
  const std::vector<bgp::OriginAttachment> origins{
      bgp::OriginAttachment{SiteId{0}, ams, a, Rel::Customer, true},
      bgp::OriginAttachment{SiteId{1}, fra, b, Rel::Customer, true}};
  Config cfg = fast_config();
  cfg.timers.mrai_us = 100'000;
  cfg.max_events = 300;
  Twin twin(g, origins, 7, cfg);

  std::vector<TimedLinkFlip> storm;
  for (int i = 0; i < 500; ++i) {
    storm.push_back(TimedLinkFlip{static_cast<std::uint64_t>(1000 * (i + 1)), a, p1,
                                  i % 2 == 1});
  }
  EXPECT_TRUE(twin.step({}, storm).oscillating);
  EXPECT_FALSE(twin.step({}).oscillating);
  twin.step(toggle(g, stub, p1, false));
  twin.step({});
  twin.step(toggle(g, stub, p1, true));
}

TEST(ConvergeSim, LoopMarksAreClearedOnTheNextStep) {
  // O originates and is a customer of X and of Y; X and Y peer. X (same
  // city as O) hears O's withdrawal first and falls back on Y's peer route;
  // Y hears it before X's withdrawal of the route it exported to Y, takes
  // that stale route, and X and Y forward to each other until it arrives.
  Graph g;
  const CityId ams = city("AMS");
  const CityId fra = city("FRA");
  const Asn o = g.add_as(AsKind::Transit, ams, {ams});
  const Asn x = g.add_as(AsKind::Transit, ams, {ams, fra});
  const Asn y = g.add_as(AsKind::Transit, fra, {ams, fra});
  g.add_transit(o, x, {ams});
  g.add_transit(o, y, {ams});
  g.add_peering(x, y, false, {ams, fra});
  const bgp::OriginAttachment origin{SiteId{0}, ams, o, Rel::Customer, true};
  Config cfg = fast_config();
  cfg.timers.proc_jitter_us = 0;
  PrefixSim sim(g, kCdn, 5, cfg);
  sim.cold_start({&origin, 1});

  const bgp::OriginChange withdraw{false, origin};
  const RegionTransient lost = sim.run_step({&withdraw, 1});
  EXPECT_GE(lost.transient_loops, 1u);
  EXPECT_TRUE(sim.timelines()[*g.index_of(x)].looped);
  EXPECT_TRUE(sim.timelines()[*g.index_of(y)].looped);

  const RegionTransient calm = sim.run_step({});
  EXPECT_EQ(calm.transient_loops, 0u);
  for (const NodeTimeline& t : sim.timelines()) {
    EXPECT_FALSE(t.looped);
    EXPECT_EQ(t, NodeTimeline{});  // unrouted before and after, nothing happened
  }
}

TEST(ConvergeSim, LoopMarkOfAnUnchangedMemberIsClearedAfterACut) {
  // R is W's customer and Y's provider, W and Y peer; O (R's customer) and
  // O2 (Y's customer) originate. Both withdraw: Y hears first and takes W's
  // peer route, R hears next and takes Y's stale route, so R -> Y -> W -> R
  // loops while W's own route (via R) has not changed. A budget that stops
  // the run right there leaves W marked but otherwise untouched; the step
  // after must still clear the mark.
  Graph g;
  const CityId ams = city("AMS");
  const CityId fra = city("FRA");
  const Asn o = g.add_as(AsKind::Transit, fra, {fra});
  const Asn r = g.add_as(AsKind::Transit, ams, {ams, fra});
  const Asn w = g.add_as(AsKind::Transit, ams, {ams});
  const Asn y = g.add_as(AsKind::Transit, ams, {ams});
  const Asn o2 = g.add_as(AsKind::Transit, ams, {ams});
  const Asn p1 = g.add_as(AsKind::Stub, ams, {ams});
  const Asn p2 = g.add_as(AsKind::Stub, ams, {ams});
  g.add_transit(o, r, {fra});
  g.add_transit(r, w, {ams});
  g.add_transit(y, r, {ams});
  g.add_peering(w, y, false, {ams});
  g.add_transit(o2, y, {ams});
  g.add_peering(p1, p2, false, {ams});  // routeless: its flips only add events
  const std::vector<bgp::OriginAttachment> origins{
      bgp::OriginAttachment{SiteId{0}, fra, o, Rel::Customer, true},
      bgp::OriginAttachment{SiteId{1}, ams, o2, Rel::Customer, true}};
  const std::vector<bgp::OriginChange> withdraw{{false, origins[0]}, {false, origins[1]}};
  // Early events that let the cut fall after the cold start's volume.
  std::vector<TimedLinkFlip> padding;
  for (int i = 0; i < 100; ++i) {
    padding.push_back(TimedLinkFlip{static_cast<std::uint64_t>(i + 1), p1, p2, i % 2 == 1});
  }

  const std::size_t wi = *g.index_of(w);
  for (std::uint64_t budget = 1; budget < 1000; ++budget) {
    Config cfg = fast_config();
    cfg.timers.proc_jitter_us = 0;
    cfg.max_events = budget;
    PrefixSim sim(g, kCdn, 5, cfg);
    if (sim.cold_start(origins).oscillating) continue;
    const RegionTransient cut = sim.run_step(withdraw, padding);
    if (!cut.oscillating || cut.transient_loops == 0) continue;
    ASSERT_TRUE(sim.timelines()[wi].looped);
    ASSERT_FALSE(sim.timelines()[wi].changed);
    const RegionTransient next = sim.run_step({});
    EXPECT_EQ(next.transient_loops, 0u);
    for (const NodeTimeline& t : sim.timelines()) EXPECT_FALSE(t.looped);
    return;
  }
  FAIL() << "no budget stopped the run right after the loop formed";
}

TEST(ConvergeEngine, EventAppliedBetweenRunsIsNotMissed) {
  // The engine hands its plane the adjacencies of each measured step only;
  // a link taken down by apply_event between two runs must still reach the
  // sims before the next run's first step is compared with the solver.
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  const auto [a, b] = used_transit_links(laboratory, im6, 1, 1).at(0);
  chaos::Engine engine(laboratory, im6);
  engine.enable_transient(fast_config());
  chaos::FaultPlan withdraw;
  withdraw.events.resize(1);
  withdraw.events[0].kind = chaos::FaultKind::SiteWithdraw;
  withdraw.events[0].site = SiteId{0};
  chaos::FaultPlan restore = withdraw;
  restore.events[0].kind = chaos::FaultKind::SiteRestore;

  ASSERT_TRUE(engine.run(withdraw).has_value());
  chaos::FaultEvent down;
  down.kind = chaos::FaultKind::LinkDown;
  down.a = a;
  down.b = b;
  ASSERT_EQ(engine.apply_event(down), "");
  const auto report = engine.run(restore);
  ASSERT_TRUE(report.has_value()) << report.error();
  ASSERT_EQ(report->transient.size(), 1u);
  EXPECT_TRUE(report->transient[0].matches_steady);
}

/// The plane's work counters, read around each step.
struct WorkCounters {
  obs::Counter& reset = obs::MetricsRegistry::global().counter("converge.nodes_reset");
  obs::Counter& synced = obs::MetricsRegistry::global().counter("converge.edges_synced");
  obs::Counter& compacted =
      obs::MetricsRegistry::global().counter("converge.arena_compactions");
  std::uint64_t reset_at = 0;
  std::uint64_t synced_at = 0;

  /// (nodes reset, adjacencies synced) since the previous call.
  std::pair<std::uint64_t, std::uint64_t> delta() {
    const std::pair<std::uint64_t, std::uint64_t> d{reset.value() - reset_at,
                                                    synced.value() - synced_at};
    reset_at = reset.value();
    synced_at = synced.value();
    return d;
  }
};

class ConvergeWork : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
    obs::MetricsRegistry::global().reset();
  }
  void TearDown() override {
    obs::MetricsRegistry::global().reset();
    obs::set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_{false};
};

TEST_F(ConvergeWork, StepsResetAndSyncWhatTheyTouched) {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  lab::DeploymentHandle& handle = *laboratory.handle_mut(im6);
  Plane plane(laboratory, handle, fast_config());
  plane.rebuild();
  const std::size_t regions = plane.region_count();
  const std::size_t n = laboratory.world().graph.nodes().size();
  WorkCounters work;
  const std::vector<bgp::LinkDelta> none;

  // The step after a cold start resets every node once.
  EXPECT_TRUE(plane.step(0, "quiet", {}, {}, none).matches_steady);
  EXPECT_EQ(work.delta(), std::make_pair(std::uint64_t{regions * n}, std::uint64_t{0}));
  // A quiet step after a quiet step resets and syncs nothing.
  EXPECT_TRUE(plane.step(1, "quiet", {}, {}, none).matches_steady);
  EXPECT_EQ(work.delta(), std::make_pair(std::uint64_t{0}, std::uint64_t{0}));

  // A transit link_down syncs its 2 directed adjacencies in every region.
  const auto [a, b] = used_transit_links(laboratory, handle, 1, 1).at(0);
  bgp::SolveDelta delta;
  delta.links = toggle(laboratory.graph_mut(), a, b, false);
  laboratory.resolve_delta(handle, delta);
  const StepTransient down = plane.step(2, "link_down", {}, {}, delta.links);
  EXPECT_TRUE(down.matches_steady);
  const auto [reset, synced] = work.delta();
  EXPECT_EQ(synced, 2 * regions);
  EXPECT_LT(reset, regions * n);

  // Without a list the plane compares every directed adjacency.
  std::size_t adjacencies = 0;
  for (const topo::AsNode& node : laboratory.world().graph.nodes()) {
    adjacencies += node.edges.size();
  }
  EXPECT_TRUE(plane.step(3, "quiet", {}, {}).matches_steady);
  EXPECT_EQ(work.delta().second, regions * adjacencies);
  EXPECT_EQ(work.compacted.value(), 0u);
}

TEST_F(ConvergeWork, CompactionKeepsRepeatedCyclesByteStable) {
  // Region withdraw/restore cycles until the arena has outgrown its bound
  // twice: every cycle must repeat the first one exactly.
  TinyWorld w;
  PrefixSim sim(w.g, kCdn, w.seed, fast_config());
  sim.cold_start(w.origins);
  WorkCounters work;
  std::vector<bgp::OriginChange> withdraw, announce;
  for (const bgp::OriginAttachment& o : w.origins) {
    withdraw.push_back(bgp::OriginChange{false, o});
    announce.push_back(bgp::OriginChange{true, o});
  }
  const RegionTransient w1 = sim.run_step(withdraw);
  const std::vector<NodeTimeline> w1_timelines(sim.timelines().begin(), sim.timelines().end());
  const RegionTransient a1 = sim.run_step(announce);
  const std::vector<NodeTimeline> a1_timelines(sim.timelines().begin(), sim.timelines().end());
  int cycles = 0;
  for (; cycles < 100 && work.compacted.value() < 2; ++cycles) {
    EXPECT_EQ(sim.run_step(withdraw), w1) << cycles;
    EXPECT_TRUE(std::ranges::equal(sim.timelines(), w1_timelines)) << cycles;
    EXPECT_EQ(sim.run_step(announce), a1) << cycles;
    EXPECT_TRUE(std::ranges::equal(sim.timelines(), a1_timelines)) << cycles;
  }
  EXPECT_GE(work.compacted.value(), 2u) << "after " << cycles << " cycles";
}

}  // namespace
}  // namespace ranycast::converge
