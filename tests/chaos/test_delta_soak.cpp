// The one re-solve path (Lab::resolve_delta) held against independent
// references: after every step of every chaos scenario in configs/, each
// region's outcome equals a from-scratch solve_anycast of the mutated
// world; the transient plane's separate route arithmetic
// (converge::PrefixSim) quiesces onto it; the in-engine sampled verifier
// finds nothing; reports do not depend on the worker count; and a step
// re-solves exactly the regions it touched.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "../bgp/outcome_equality.hpp"
#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/converge/config.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/io/json.hpp"

namespace ranycast::chaos {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> scenario_paths() {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(RANYCAST_CONFIGS_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("chaos_", 0) == 0 && entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

lab::LabConfig tiny_config() {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  config.seed = 2023;
  return config;
}

/// The event kinds that change announcement or adjacency state.
bool reroutes(FaultKind k) {
  switch (k) {
    case FaultKind::SiteWithdraw:
    case FaultKind::SiteRestore:
    case FaultKind::SiteLinkDown:
    case FaultKind::SiteLinkUp:
    case FaultKind::LinkDown:
    case FaultKind::LinkUp:
    case FaultKind::RouteServerDown:
    case FaultKind::RouteServerUp:
    case FaultKind::RegionWithdraw:
    case FaultKind::RegionRestore:
      return true;
    default:
      return false;
  }
}

/// Every region's outcome, route by route, against a scratch solve of the
/// lab's current world with the salt add_deployment solves region r with.
void expect_matches_scratch(const lab::Lab& laboratory, const lab::DeploymentHandle& handle,
                            const std::string& what) {
  const topo::Graph& graph = laboratory.world().graph;
  const cdn::Deployment& dep = handle.deployment;
  for (std::size_t r = 0; r < handle.outcomes.size(); ++r) {
    const auto scratch = bgp::solve_anycast(graph, dep.asn(), dep.origins_for_region(r),
                                            hash_combine(laboratory.config().seed, r));
    bgp::expect_outcomes_equal(graph, handle.outcomes[r], scratch,
                               what + ", region " + std::to_string(r));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Run one scenario and return the serialized report.
std::string report_json(const FaultPlan& plan) {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  auto outcome = engine.run(plan);
  EXPECT_TRUE(outcome.has_value()) << outcome.error();
  if (!outcome) return {};
  return report_to_json(*outcome).dump(2);
}

TEST(DeltaSoak, EveryScenarioMatchesScratchSolveEveryStep) {
  const auto paths = scenario_paths();
  ASSERT_FALSE(paths.empty()) << "no chaos_*.json under " << RANYCAST_CONFIGS_DIR;

  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    auto plan = load_plan(path);
    ASSERT_TRUE(plan.has_value()) << plan.error().to_string();
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    Engine engine(laboratory, im6);
    for (std::size_t i = 0; i < plan->events.size(); ++i) {
      const FaultEvent& event = plan->events[i];
      ASSERT_EQ(engine.apply_event(event), "");
      expect_matches_scratch(laboratory, im6,
                             "step " + std::to_string(i) + " (" + describe(event) + ")");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DeltaSoak, ByteIdenticalAcrossWorkerCounts) {
  const auto paths = scenario_paths();
  ASSERT_FALSE(paths.empty());

  auto& pool = exec::ThreadPool::global();
  const unsigned original = pool.worker_count();
  std::vector<unsigned> sweep{2};
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  if (hardware != 2 && hardware != 1) sweep.push_back(hardware);

  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    auto plan = load_plan(path);
    ASSERT_TRUE(plan.has_value()) << plan.error().to_string();

    pool.resize(1);
    const std::string expected = report_json(*plan);
    ASSERT_FALSE(expected.empty());
    for (const unsigned workers : sweep) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      pool.resize(workers);
      EXPECT_EQ(report_json(*plan), expected);
    }
  }
  pool.resize(original);
}

TEST(DeltaSoak, ByteIdenticalWithTransientPlane) {
  // The transient plane replays each step through converge::PrefixSim, a
  // separate implementation of the route rules, and checks that every
  // region quiesces onto the re-solved outcome. Recording it must not move
  // a byte of the steady-state steps.
  for (const std::string& path : scenario_paths()) {
    SCOPED_TRACE(path);
    auto plan = load_plan(path);
    ASSERT_TRUE(plan.has_value()) << plan.error().to_string();

    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    Engine engine(laboratory, im6);
    converge::Config cfg;
    cfg.timers.mrai_us = 500'000;
    engine.enable_transient(cfg);
    auto outcome = engine.run(*plan);
    ASSERT_TRUE(outcome.has_value()) << outcome.error();
    ASSERT_EQ(outcome->transient.size(), outcome->steps.size());
    for (const converge::StepTransient& t : outcome->transient) {
      EXPECT_TRUE(t.matches_steady) << "step " << t.index << " (" << t.event << ")";
    }

    const auto steps_of = [](const io::Json& report) { return report.find("steps")->dump(2); };
    const auto steady = io::parse_json_or_throw(report_json(*plan));
    EXPECT_EQ(steps_of(report_to_json(*outcome)), steps_of(steady));
  }
}

TEST(DeltaSoak, InEngineVerifierFindsNoMismatches) {
  // verify_every = 1: every re-solve of a primed region is also solved from
  // scratch and compared in-engine.
  for (const char* name : {"chaos_cascade.json", "chaos_overload.json"}) {
    SCOPED_TRACE(name);
    auto plan = load_plan(std::string(RANYCAST_CONFIGS_DIR) + "/" + name);
    ASSERT_TRUE(plan.has_value()) << plan.error().to_string();

    auto laboratory = lab::Lab::create(tiny_config());
    laboratory.set_delta_config(bgp::DeltaConfig{.verify_every = 1});
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    Engine engine(laboratory, im6);
    bgp::DeltaStats total;
    for (const FaultEvent& event : plan->events) {
      ASSERT_EQ(engine.apply_event(event), "");
      if (engine.last_step_delta()) total.merge(*engine.last_step_delta());
    }
    EXPECT_GT(total.verified, 0u);
    EXPECT_EQ(total.mismatches, 0u);
  }
}

TEST(DeltaSoak, StepReportsCarryDeltaAccounting) {
  // Every routing step is described to the solver and accounted; no other
  // step is.
  for (const std::string& path : scenario_paths()) {
    SCOPED_TRACE(path);
    auto plan = load_plan(path);
    ASSERT_TRUE(plan.has_value()) << plan.error().to_string();

    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    Engine engine(laboratory, im6);
    for (const FaultEvent& event : plan->events) {
      SCOPED_TRACE(describe(event));
      ASSERT_EQ(engine.apply_event(event), "");
      const auto& stats = engine.last_step_delta();
      ASSERT_EQ(stats.has_value(), reroutes(event.kind));
      if (!stats) continue;
      EXPECT_LE(stats->regions, im6.outcomes.size());
      EXPECT_EQ(stats->regions, stats->delta_regions + stats->full_regions);
      EXPECT_EQ(stats->mismatches, 0u);
    }
  }
}

TEST(DeltaSoak, StepReSolvesExactlyTheRegionsItTouched) {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  const cdn::Deployment& dep = im6.deployment;
  const topo::Graph& graph = laboratory.world().graph;
  Engine engine(laboratory, im6);

  // A site announcing one region: withdrawing it changes only that prefix.
  const auto sites = dep.sites();
  const auto single = std::find_if(sites.begin(), sites.end(),
                                   [](const cdn::Site& s) { return s.regions.size() == 1; });
  ASSERT_NE(single, sites.end());
  const std::size_t touched = single->regions.front();

  const std::size_t regions = im6.outcomes.size();
  std::vector<std::vector<const bgp::Route*>> routes(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    for (const topo::AsNode& node : graph.nodes()) routes[r].push_back(im6.route_for(node.asn, r));
  }

  FaultEvent withdraw;
  withdraw.kind = FaultKind::SiteWithdraw;
  withdraw.site = single->id;
  ASSERT_EQ(engine.apply_event(withdraw), "");
  ASSERT_TRUE(engine.last_step_delta().has_value());
  EXPECT_EQ(engine.last_step_delta()->regions, 1u);
  for (std::size_t r = 0; r < regions; ++r) {
    if (r == touched) continue;
    SCOPED_TRACE("untouched region " + std::to_string(r));
    // Same outcome object: every route pointer handed out before survives.
    for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
      ASSERT_EQ(im6.route_for(graph.nodes()[i].asn, r), routes[r][i]);
    }
  }
  expect_matches_scratch(laboratory, im6, "after the withdrawal");
  if (HasFatalFailure()) return;

  // An adjacency event crosses every prefix: every region re-solves.
  const auto origins = dep.origins_for_region(0);
  ASSERT_FALSE(origins.empty());
  const bgp::OriginAttachment& origin = origins.front();
  const topo::AsNode* holder = graph.find(origin.neighbor);
  ASSERT_NE(holder, nullptr);
  ASSERT_FALSE(holder->edges.empty());
  FaultEvent down;
  down.kind = FaultKind::LinkDown;
  down.a = origin.neighbor;
  down.b = holder->edges.front().neighbor;
  ASSERT_EQ(engine.apply_event(down), "");
  ASSERT_TRUE(engine.last_step_delta().has_value());
  EXPECT_EQ(engine.last_step_delta()->regions, regions);
  expect_matches_scratch(laboratory, im6, "after the link down");
}

}  // namespace
}  // namespace ranycast::chaos
