// The chaos engine measures each lab state once: step i's after-pass and
// post-fault traffic solve are step i+1's before-pass and before-traffic,
// routing events keep every probe's DNS answer and redo route and ping only
// for the probes whose AS row the re-solve changed, the traffic assignment
// is redone only where a row changed, and demand events copy the pass. This
// file checks that against a deliberately naive reference that re-measures
// everything twice per step, serially, from public calls only
// (Lab::dns_lookup, DeploymentHandle::route_for, Lab::ping, traffic::solve)
// — on every shipped chaos scenario, on a plan that puts every fault kind
// back to back, on seeded transit link flaps, and at worker counts {1, 2,
// hardware}. Link flaps that change an RTT without moving a site are
// followed by that site's withdrawal, so a stale RTT would surface in the
// affected set's percentiles. A guarded run killed and resumed at steps
// {1, n/2, n-1} with traffic and transient recording on must match an
// uninterrupted run byte for byte. Traffic undo frames (a step that exactly
// reverses the top frame takes its solve and percentiles) are checked on
// crafted frames, on nested, crossed and repeated withdraw/restore and
// flap plans, and across a flow change, which must clear them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ranycast/analysis/stats.hpp"
#include "ranycast/atlas/grouping.hpp"
#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/converge/plane.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/geo/gazetteer.hpp"
#include "ranycast/obs/report.hpp"
#include "ranycast/traffic/flows.hpp"
#include "ranycast/traffic/solver.hpp"

namespace ranycast::chaos {
namespace {

namespace fs = std::filesystem;

lab::LabConfig tiny_config() {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  config.seed = 2023;
  return config;
}

/// Small capacities and the Shed policy, so surges and withdrawals tip
/// sites and the shed alternates (read from live routes) matter.
traffic::TrafficConfig tight_traffic() {
  traffic::TrafficConfig cfg;
  cfg.default_site_capacity_mbps = 450.0;
  cfg.policy = traffic::OverloadPolicy::Shed;
  return cfg;
}

/// What a run records besides the steady step reports.
struct Recording {
  std::optional<traffic::TrafficConfig> traffic;
  bool transient{false};
};

Recording everything_on() { return Recording{tight_traffic(), true}; }

// ------------------------------------------------------------ the reference

/// What one probe saw in one measurement pass.
struct View {
  const atlas::Probe* probe{nullptr};
  lab::Lab::DnsAnswer answer{};
  bool routed{false};
  SiteId site{kInvalidSite};
  std::optional<Rtt> rtt;
};

/// A full measurement pass, one probe after another.
std::vector<View> measure(const lab::Lab& laboratory, const lab::DeploymentHandle& handle) {
  std::vector<View> out;
  for (const atlas::Probe* p : laboratory.census().retained()) {
    View v;
    v.probe = p;
    v.answer = laboratory.dns_lookup(*p, handle, dns::QueryMode::Ldns);
    if (const bgp::Route* route = handle.route_for(p->asn, v.answer.region)) {
      v.routed = true;
      v.site = route->origin_site;
      v.rtt = laboratory.ping(*p, v.answer.address);
    }
    out.push_back(v);
  }
  return out;
}

/// The traffic assignment of one pass: each routed probe's catchment site
/// plus, under Shed, the other regions' catchment sites in region order.
std::vector<traffic::ProbeAssign> assignments(const lab::DeploymentHandle& handle,
                                              const std::vector<View>& views,
                                              const traffic::TrafficConfig& cfg) {
  const std::size_t regions = handle.deployment.regions().size();
  std::vector<traffic::ProbeAssign> assign(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    const View& v = views[i];
    if (!v.routed) continue;
    assign[i].site = v.site;
    if (cfg.policy != traffic::OverloadPolicy::Shed) continue;
    for (std::size_t r = 0; r < regions; ++r) {
      if (r == v.answer.region) continue;
      const bgp::Route* route = handle.route_for(v.probe->asn, r);
      if (route == nullptr || route->origin_site == v.site) continue;
      std::vector<SiteId>& alt = assign[i].alternates;
      if (std::find(alt.begin(), alt.end(), route->origin_site) == alt.end()) {
        alt.push_back(route->origin_site);
      }
    }
  }
  return assign;
}

/// The load model against one pass.
traffic::TrafficSolve solve_load(const lab::DeploymentHandle& handle,
                                 const std::vector<View>& views, const traffic::FlowSet& flows,
                                 const traffic::TrafficConfig& cfg) {
  return traffic::solve(flows, assignments(handle, views, cfg),
                        handle.deployment.sites().size(), cfg);
}

/// The step report from two full passes (taken after the fault is applied,
/// so the cross-region fallbacks read post-fault routes).
StepReport reduce(const lab::Lab& laboratory, const lab::DeploymentHandle& handle,
                  const FaultEvent& event, std::size_t index, const std::vector<View>& before,
                  const std::vector<View>& after) {
  const auto& gaz = geo::Gazetteer::world();
  const cdn::Deployment& dep = handle.deployment;
  StepReport s;
  s.index = index;
  s.event = describe(event);
  s.probes = before.size();
  std::vector<double> before_ms, after_ms;
  for (std::size_t p = 0; p < before.size(); ++p) {
    const View& b = before[p];
    const View& a = after[p];
    s.routes_before += b.routed ? 1 : 0;
    s.routes_after += a.routed ? 1 : 0;
    s.degraded_dns_answers += a.answer.degraded ? 1 : 0;
    s.lost_pings += a.routed && !a.rtt ? 1 : 0;
    const bool moved = b.routed && a.routed && b.site != a.site;
    const bool lost = b.routed && !a.routed;
    s.moved += moved ? 1 : 0;
    s.lost += lost ? 1 : 0;
    s.gained += !b.routed && a.routed ? 1 : 0;

    bool affected = moved || lost;
    if (event.kind == FaultKind::SiteWithdraw) affected = b.routed && b.site == event.site;
    if (event.kind == FaultKind::RegionWithdraw) {
      affected = b.routed && b.answer.region == event.region;
    }
    if (!affected) continue;
    ++s.affected_probes;
    if (b.rtt) before_ms.push_back(b.rtt->ms);
    if (!a.routed) {
      std::optional<Rtt> best;
      for (std::size_t r = 0; r < dep.regions().size(); ++r) {
        if (r == a.answer.region || handle.route_for(b.probe->asn, r) == nullptr) continue;
        const auto rtt = laboratory.ping(*b.probe, dep.regions()[r].service_ip);
        if (rtt && (!best || *rtt < *best)) best = rtt;
      }
      if (!best) continue;
      ++s.still_served;
      ++s.cross_region;
      after_ms.push_back(best->ms);
      continue;
    }
    ++s.still_served;
    if (a.rtt) after_ms.push_back(a.rtt->ms);
    const cdn::Site& landed = dep.site(a.site);
    if (landed.announces(a.answer.region) && b.site != kInvalidSite &&
        gaz.area_of_city(landed.city) == gaz.area_of_city(dep.site(b.site).city)) {
      ++s.failover_in_region;
    }
  }
  s.before_p50_ms = analysis::percentile(before_ms, 50);
  s.before_p90_ms = analysis::percentile(before_ms, 90);
  s.after_p50_ms = analysis::percentile(after_ms, 50);
  s.after_p90_ms = analysis::percentile(after_ms, 90);
  return s;
}

traffic::StepTraffic step_traffic(const FaultEvent& event, std::size_t index,
                                  const traffic::TrafficSolve& before_solve,
                                  traffic::TrafficSolve after_solve,
                                  const std::vector<View>& after,
                                  const traffic::TrafficConfig& cfg) {
  traffic::StepTraffic t;
  t.index = index;
  t.event = describe(event);
  t.solve = std::move(after_solve);
  t.before_max_utilization = before_solve.max_utilization;
  t.before_mean_utilization = before_solve.mean_utilization;
  const std::size_t sites = std::min(before_solve.sites.size(), t.solve.sites.size());
  for (std::size_t k = 0; k < sites; ++k) {
    const double was = before_solve.sites[k].utilization;
    const traffic::SiteLoad& now = t.solve.sites[k];
    if (now.capacity_mbps > 0.0 && was <= cfg.admission_threshold &&
        now.utilization > cfg.admission_threshold) {
      ++t.tipped_sites;
    }
  }
  t.cascade_depth = (t.tipped_sites > 0 ? 1 : 0) + t.solve.cascade_depth;
  std::vector<double> inflated;
  for (const View& a : after) {
    if (!a.routed || !a.rtt) continue;
    const std::size_t k = value(a.site);
    inflated.push_back(a.rtt->ms +
                       (k < t.solve.sites.size() ? t.solve.sites[k].queue_delay_ms : 0.0));
  }
  t.inflated_p50_ms = analysis::percentile(inflated, 50);
  t.inflated_p90_ms = analysis::percentile(inflated, 90);
  return t;
}

/// The whole run on a fresh lab: two full passes and two traffic solves per
/// step, mutations through Engine::apply_event only.
std::string reference_json(const FaultPlan& plan, const Recording& rec) {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine mutator(laboratory, handle);
  const auto retained = laboratory.census().retained();
  const auto groups = atlas::group_probes(retained);
  std::unique_ptr<converge::Plane> plane;
  double surge = 1.0;

  ChaosReport report;
  report.plan = plan.name;
  report.deployment = handle.deployment.name();
  report.seed = laboratory.config().seed;
  report.probes = retained.size();
  report.planned_steps = plan.events.size();
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& event = plan.events[i];
    std::vector<std::vector<bgp::OriginAttachment>> origins_before;
    if (rec.transient) {
      if (plane == nullptr) {
        plane = std::make_unique<converge::Plane>(laboratory, handle, converge::Config{});
        plane->rebuild();
      }
      origins_before = converge::origins_by_region(handle.deployment);
    }
    const std::vector<View> before = measure(laboratory, handle);
    std::optional<traffic::TrafficSolve> before_solve;
    if (rec.traffic) {
      before_solve = solve_load(handle, before,
                                traffic::generate_flows(groups, retained, *rec.traffic, surge),
                                *rec.traffic);
    }
    const std::string err = mutator.apply_event(event);
    EXPECT_EQ(err, "") << "step " << i;
    if (!err.empty()) return {};
    if (event.kind == FaultKind::TrafficSurge) surge = event.magnitude;
    if (event.kind == FaultKind::TrafficRestore) surge = 1.0;
    const std::vector<View> after = measure(laboratory, handle);
    report.steps.push_back(reduce(laboratory, handle, event, i, before, after));

    if (rec.transient) {
      const auto deltas =
          converge::diff_origins(origins_before, converge::origins_by_region(handle.deployment));
      std::vector<converge::ProbeRef> refs;
      for (const View& b : before) {
        refs.push_back(converge::ProbeRef{b.probe->asn, b.answer.region});
      }
      report.transient.push_back(plane->step(i, describe(event), deltas, refs));
    }
    if (rec.traffic) {
      const auto flows = traffic::generate_flows(groups, retained, *rec.traffic, surge);
      report.traffic.push_back(step_traffic(event, i, *before_solve,
                                            solve_load(handle, after, flows, *rec.traffic),
                                            after, *rec.traffic));
    }
    report.completed_steps = i + 1;
  }
  return report_to_json(report).dump(2);
}

// ------------------------------------------------------------ the engine

void enable(Engine& engine, const Recording& rec) {
  if (rec.traffic) engine.enable_traffic(*rec.traffic);
  if (rec.transient) engine.enable_transient(converge::Config{});
}

std::string engine_json(const FaultPlan& plan, const Recording& rec) {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, handle);
  enable(engine, rec);
  auto report = engine.run(plan);
  EXPECT_TRUE(report.has_value()) << report.error();
  return report ? report_to_json(*report).dump(2) : std::string();
}

/// The engine's report at worker counts {1, 2, hardware} must equal the
/// reference's.
void expect_reference_at_every_worker_count(const FaultPlan& plan, const Recording& rec) {
  const std::string expected = reference_json(plan, rec);
  ASSERT_FALSE(expected.empty());
  auto& pool = exec::ThreadPool::global();
  const unsigned original = pool.worker_count();
  std::vector<unsigned> sweep{1, 2};
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  if (hardware > 2) sweep.push_back(hardware);
  for (const unsigned workers : sweep) {
    pool.resize(workers);
    EXPECT_EQ(engine_json(plan, rec), expected) << workers << " workers";
  }
  pool.resize(original);
}

/// chaos.traffic.solves_restored over one engine run of `plan` with
/// everything on (obs on, so the carried percentiles' steps also record
/// their queue-delay samples).
std::uint64_t restored_solves(const FaultPlan& plan) {
  obs::set_enabled(true);
  obs::reset_all();
  EXPECT_FALSE(engine_json(plan, everything_on()).empty());
  const std::uint64_t restored =
      obs::MetricsRegistry::global().counter("chaos.traffic.solves_restored").value();
  obs::reset_all();
  obs::set_enabled(false);
  return restored;
}

/// Whether two passes differ in any probe's row: DNS answer, route, site or
/// RTT bits.
bool views_differ(const std::vector<View>& a, const std::vector<View>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const View& x = a[i];
    const View& y = b[i];
    const auto rtt_bits = [](const View& v) {
      return v.rtt ? std::optional(std::bit_cast<std::uint64_t>(v.rtt->ms)) : std::nullopt;
    };
    if (x.answer.address != y.answer.address || x.answer.region != y.answer.region ||
        x.answer.degraded != y.answer.degraded || x.routed != y.routed || x.site != y.site ||
        rtt_bits(x) != rtt_bits(y)) {
      return true;
    }
  }
  return false;
}

/// Per step of `plan` on a fresh lab, from public calls: whether the step
/// changed any probe's row or its Shed traffic assignment.
std::vector<bool> steps_that_move(const FaultPlan& plan) {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine mutator(laboratory, handle);
  const traffic::TrafficConfig cfg = tight_traffic();
  std::vector<View> views = measure(laboratory, handle);
  std::vector<traffic::ProbeAssign> assign = assignments(handle, views, cfg);
  std::vector<bool> out;
  for (const FaultEvent& e : plan.events) {
    EXPECT_EQ(mutator.apply_event(e), "");
    std::vector<View> next = measure(laboratory, handle);
    std::vector<traffic::ProbeAssign> next_assign = assignments(handle, next, cfg);
    out.push_back(views_differ(views, next) || next_assign != assign);
    views = std::move(next);
    assign = std::move(next_assign);
  }
  return out;
}

/// Every FaultKind, ordered so that each class of event (routing, geo-DB,
/// measurement, demand) directly follows the others: routing steps under a
/// surge, under a stale or dark mapping DB and under measurement faults,
/// and demand steps back to back.
FaultPlan every_kind_plan() {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  // One transit adjacency of the deployment: the first site attachment
  // neighbour that has a provider, and that provider.
  Asn neighbour = kInvalidAsn;
  Asn provider = kInvalidAsn;
  for (const cdn::Site& s : handle.deployment.sites()) {
    for (const cdn::Attachment& att : s.attachments) {
      for (const topo::Edge& edge : laboratory.world().graph.find(att.neighbor)->edges) {
        if (provider == kInvalidAsn && edge.rel == topo::Rel::Provider) {
          neighbour = att.neighbor;
          provider = edge.neighbor;
        }
      }
    }
  }
  EXPECT_NE(provider, kInvalidAsn);

  FaultPlan plan;
  plan.name = "every-kind";
  const auto add = [&](FaultKind kind, const auto& fill) {
    FaultEvent e;
    e.kind = kind;
    fill(e);
    plan.events.push_back(e);
  };
  const auto none = [](FaultEvent&) {};
  const auto site16 = [](FaultEvent& e) { e.site = SiteId{16}; };
  const auto attachment = [](FaultEvent& e) {
    e.site = SiteId{1};
    e.attachment = 0;
  };
  const auto link = [&](FaultEvent& e) {
    e.a = neighbour;
    e.b = provider;
  };
  const auto mapping_db = [](FaultEvent& e) { e.db = 0; };
  const auto region1 = [](FaultEvent& e) { e.region = 1; };

  add(FaultKind::TrafficSurge, [](FaultEvent& e) { e.magnitude = 1.5; });
  add(FaultKind::SiteWithdraw, site16);
  add(FaultKind::GeoDbStale, [](FaultEvent& e) {
    e.db = 0;
    e.magnitude = 0.3;
  });
  add(FaultKind::SiteLinkDown, attachment);
  add(FaultKind::MeasurementDegrade, [](FaultEvent& e) {
    e.faults.ping_loss_prob = 0.2;
    e.faults.dns_timeout_prob = 0.1;
  });
  add(FaultKind::LinkDown, link);
  add(FaultKind::TrafficRestore, none);
  add(FaultKind::RouteServerDown, none);
  add(FaultKind::GeoDbOutage, mapping_db);
  add(FaultKind::RegionWithdraw, region1);
  add(FaultKind::RegionRestore, region1);
  add(FaultKind::GeoDbRestore, mapping_db);
  add(FaultKind::RouteServerUp, none);
  add(FaultKind::LinkUp, link);
  add(FaultKind::MeasurementRestore, none);
  add(FaultKind::SiteLinkUp, attachment);
  add(FaultKind::SiteRestore, site16);
  add(FaultKind::TrafficSurge, [](FaultEvent& e) { e.magnitude = 2.0; });
  add(FaultKind::TrafficRestore, none);
  return plan;
}

TEST(IncrementalMeasure, EveryKindPlanCoversEveryFaultKind) {
  std::vector<bool> seen(static_cast<std::size_t>(FaultKind::TrafficRestore) + 1, false);
  for (const FaultEvent& e : every_kind_plan().events) {
    seen[static_cast<std::size_t>(e.kind)] = true;
  }
  for (std::size_t k = 0; k < seen.size(); ++k) {
    EXPECT_TRUE(seen[k]) << to_string(static_cast<FaultKind>(k));
  }
}

TEST(IncrementalMeasure, EveryScenarioMatchesTwoPassReference) {
  std::size_t scenarios = 0;
  for (const auto& entry : fs::directory_iterator(RANYCAST_CONFIGS_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("chaos_", 0) != 0 || entry.path().extension() != ".json") continue;
    SCOPED_TRACE(name);
    ++scenarios;
    const std::string path = entry.path().string();
    auto plan = load_plan(path);
    ASSERT_TRUE(plan.has_value()) << plan.error().to_string();
    auto json = io::load_json(path);
    ASSERT_TRUE(json.has_value()) << json.error().to_string();
    auto declared = traffic_from_scenario(*json, path);
    ASSERT_TRUE(declared.has_value()) << declared.error().to_string();
    // The scenario's own traffic block where it has one, else a tight one.
    const Recording rec{declared->value_or(tight_traffic()), true};
    const std::string expected = reference_json(*plan, rec);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(engine_json(*plan, rec), expected);
  }
  EXPECT_GE(scenarios, 3u) << "chaos_*.json under " << RANYCAST_CONFIGS_DIR;
}

TEST(IncrementalMeasure, EveryKindPlanMatchesReferenceAtEveryWorkerCount) {
  const FaultPlan plan = every_kind_plan();
  // Steady-only as well: no traffic solve to carry, no convergence plane.
  EXPECT_EQ(engine_json(plan, Recording{}), reference_json(plan, Recording{}));
  expect_reference_at_every_worker_count(plan, everything_on());
}

FaultEvent link_event(FaultKind kind, const std::pair<Asn, Asn>& link) {
  FaultEvent e;
  e.kind = kind;
  e.a = link.first;
  e.b = link.second;
  return e;
}

/// What losing one transit adjacency (customer, provider) of the tiny lab
/// changes for the retained probes.
struct LinkEffect {
  std::pair<Asn, Asn> link;
  /// Some probe's catchment moved in some region, not necessarily the one
  /// DNS answers it with (the shed alternates read every region).
  bool moves{false};
  /// The site of a probe whose RTT changed while it kept its site, else
  /// kInvalidSite.
  SiteId stale_site{kInvalidSite};
};

/// Every transit adjacency of the tiny lab in node order, each taken down
/// and brought back up on a lab of its own, measured from public calls in
/// between.
std::vector<LinkEffect> link_effects() {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine mutator(laboratory, handle);
  const std::size_t regions = handle.deployment.regions().size();
  const auto catchments = [&] {
    std::vector<std::optional<SiteId>> out;
    for (const atlas::Probe* p : laboratory.census().retained()) {
      for (std::size_t r = 0; r < regions; ++r) out.push_back(handle.catchment(p->asn, r));
    }
    return out;
  };
  const std::vector<View> base = measure(laboratory, handle);
  const auto base_catchments = catchments();
  std::vector<std::pair<Asn, Asn>> links;
  for (const topo::AsNode& node : laboratory.world().graph.nodes()) {
    for (const topo::Edge& e : node.edges) {
      if (e.rel == topo::Rel::Provider) links.emplace_back(node.asn, e.neighbor);
    }
  }
  std::vector<LinkEffect> out;
  for (const auto& link : links) {
    EXPECT_EQ(mutator.apply_event(link_event(FaultKind::LinkDown, link)), "");
    LinkEffect effect{link, catchments() != base_catchments, kInvalidSite};
    const std::vector<View> after = measure(laboratory, handle);
    for (std::size_t p = 0; p < base.size() && effect.stale_site == kInvalidSite; ++p) {
      const View& b = base[p];
      const View& a = after[p];
      if (b.routed && a.routed && b.site == a.site && b.rtt && a.rtt && b.rtt->ms != a.rtt->ms) {
        effect.stale_site = b.site;
      }
    }
    out.push_back(effect);
    EXPECT_EQ(mutator.apply_event(link_event(FaultKind::LinkUp, link)), "");
  }
  return out;
}

const std::vector<LinkEffect>& tiny_link_effects() {
  static const std::vector<LinkEffect> effects = link_effects();
  return effects;
}

/// Seeded flaps of transit adjacencies whose loss moves some catchment,
/// two at a time and overlapping: down a, down b, up a, up b.
FaultPlan linkflap_plan(std::uint64_t seed) {
  std::vector<std::pair<Asn, Asn>> links;
  for (const LinkEffect& e : tiny_link_effects()) {
    if (e.moves) links.push_back(e.link);
  }
  EXPECT_GE(links.size(), 8u);
  Rng rng(seed);
  for (std::size_t k = 0; k + 1 < links.size(); ++k) {
    std::swap(links[k], links[k + rng.below(links.size() - k)]);
  }
  FaultPlan plan;
  plan.name = "linkflap";
  for (std::size_t k = 0; k + 1 < std::min<std::size_t>(links.size(), 8); k += 2) {
    plan.events.push_back(link_event(FaultKind::LinkDown, links[k]));
    plan.events.push_back(link_event(FaultKind::LinkDown, links[k + 1]));
    plan.events.push_back(link_event(FaultKind::LinkUp, links[k]));
    plan.events.push_back(link_event(FaultKind::LinkUp, links[k + 1]));
  }
  return plan;
}

TEST(IncrementalMeasure, LinkFlapPlanMatchesReferenceAtEveryWorkerCount) {
  for (const std::uint64_t seed : {std::uint64_t{5}, std::uint64_t{2023}}) {
    SCOPED_TRACE(seed);
    const FaultPlan plan = linkflap_plan(seed);
    ASSERT_EQ(plan.events.size(), 16u);
    expect_reference_at_every_worker_count(plan, everything_on());

    // The same flaps nested (down a, down b, up b, up a): each up-step
    // exactly reverses the top undo frame, so every up-step whose down-step
    // moved a row or an assignment takes that frame's solve instead of
    // solving again — and only those.
    FaultPlan nested = plan;
    for (std::size_t k = 0; k + 3 < nested.events.size(); k += 4) {
      std::swap(nested.events[k + 2], nested.events[k + 3]);
    }
    expect_reference_at_every_worker_count(nested, everything_on());
    const std::vector<bool> moves = steps_that_move(nested);
    std::uint64_t undone = 0;
    for (std::size_t k = 0; k + 3 < moves.size(); k += 4) undone += moves[k] + moves[k + 1];
    EXPECT_GT(undone, 0u);
    EXPECT_EQ(restored_solves(nested), undone);
  }
}

TEST(IncrementalMeasure, RttChangeWithoutSiteMoveReachesTheNextStep) {
  // Links whose loss changes some probe's RTT without moving it off its
  // site. Withdrawing that site right after the link goes down makes its
  // catchment the affected set, so the link-down step's after-pass RTTs
  // become the withdrawal step's before_p50_ms/before_p90_ms: a probe that
  // kept its site but was not re-pinged would carry a stale RTT into them.
  // The second plan primes every region with an unrelated flap first, so
  // the link-down step is an incremental re-solve rather than a prime.
  const auto& effects = tiny_link_effects();
  std::size_t cases = 0;
  for (const LinkEffect& e : effects) {
    if (e.stale_site == kInvalidSite || cases == 3) continue;
    ++cases;
    SCOPED_TRACE("AS" + std::to_string(value(e.link.first)) + "-AS" +
                 std::to_string(value(e.link.second)) + ", site " +
                 std::to_string(value(e.stale_site)));
    FaultEvent withdraw;
    withdraw.kind = FaultKind::SiteWithdraw;
    withdraw.site = e.stale_site;
    FaultPlan cold;
    cold.name = "stale-rtt";
    cold.events = {link_event(FaultKind::LinkDown, e.link), withdraw};
    const auto& other = effects.front().link != e.link ? effects.front() : effects.back();
    FaultPlan warm = cold;
    warm.events.insert(warm.events.begin(), {link_event(FaultKind::LinkDown, other.link),
                                             link_event(FaultKind::LinkUp, other.link)});
    for (const FaultPlan* plan : {&cold, &warm}) {
      for (const Recording& rec : {Recording{}, everything_on()}) {
        const std::string expected = reference_json(*plan, rec);
        ASSERT_FALSE(expected.empty());
        EXPECT_EQ(engine_json(*plan, rec), expected) << plan->events.size() << " steps";
      }
    }

    // The same link-down as the first touch of every region, row by row: a
    // prime lists the rows whose route content changed, so the probe whose
    // path moved while its site stayed is pinged again, and a pass moved
    // across the event by the after-pass rule equals a fresh pass. A list
    // of the rows whose site changed would leave its old RTT standing.
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
    std::vector<lab::Measurement> pass;
    laboratory.measure(handle, pass);
    const std::vector<lab::Measurement> base = pass;
    Engine mutator(laboratory, handle);
    ASSERT_EQ(mutator.apply_event(link_event(FaultKind::LinkDown, e.link), &pass), "");
    std::vector<lab::Measurement> fresh;
    laboratory.measure(handle, fresh);
    ASSERT_EQ(pass.size(), fresh.size());
    std::size_t stale_rows = 0;
    std::size_t kept_site_new_rtt = 0;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      stale_rows += pass[i] == fresh[i] ? 0 : 1;
      const bool kept_site = base[i].routed && fresh[i].routed && base[i].site == fresh[i].site;
      kept_site_new_rtt += kept_site && base[i].rtt_ms != fresh[i].rtt_ms ? 1 : 0;
    }
    EXPECT_EQ(stale_rows, 0u);
    EXPECT_GT(kept_site_new_rtt, 0u);
  }
  EXPECT_EQ(cases, 3u);
}

// ------------------------------------------------------------ undo frames

TEST(UndoFrame, ReversesOnlyTheSameSlotsBackToTheirSavedValues) {
  const traffic::ProbeAssign a0{SiteId{1}, {SiteId{2}}};
  const traffic::ProbeAssign a1{SiteId{3}, {SiteId{2}}};
  const traffic::ProbeAssign b0{SiteId{4}, {}};
  const traffic::ProbeAssign b1{SiteId{4}, {SiteId{5}}};
  const traffic::ProbeAssign b2{SiteId{4}, {SiteId{6}}};
  lab::Measurement r0;
  r0.routed = true;
  r0.site = 1;
  r0.rtt_ms = 12.5;
  lab::Measurement r1 = r0;
  r1.site = 3;
  r1.rtt_ms = 30.0;

  // A step changed assignment slots 2 and 5 and row 3; the frame saved
  // their values before it. The step that undoes it changed the same slots
  // (from the values the frame's step left) back to the saved ones.
  const StepUndo frame{{{2, a0}, {5, b0}}, {{3, r0}}};
  const StepUndo back{{{2, a1}, {5, b1}}, {{3, r1}}};
  std::vector<traffic::ProbeAssign> assign(8);
  assign[2] = a0;
  assign[5] = b0;
  std::vector<lab::Measurement> rows(8);
  rows[3] = r0;
  EXPECT_TRUE(reverses(frame, back, assign, rows));

  // The same slots, but one holds another value now.
  std::vector<traffic::ProbeAssign> other_assign = assign;
  other_assign[5] = b2;
  EXPECT_FALSE(reverses(frame, back, other_assign, rows));
  std::vector<lab::Measurement> other_rows = rows;
  other_rows[3].rtt_ms = 12.75;
  EXPECT_FALSE(reverses(frame, back, assign, other_rows));
  other_rows[3] = r0;
  other_rows[3].ping_lost = true;
  EXPECT_FALSE(reverses(frame, back, assign, other_rows));

  // An RTT equal only as a number: +0 saved, -0 now.
  lab::Measurement zero = r0;
  zero.rtt_ms = 0.0;
  other_rows[3] = zero;
  other_rows[3].rtt_ms = -0.0;
  EXPECT_FALSE(reverses(StepUndo{{}, {{3, zero}}}, StepUndo{{}, {{3, r1}}}, assign, other_rows));
  other_rows[3].rtt_ms = 0.0;
  EXPECT_TRUE(reverses(StepUndo{{}, {{3, zero}}}, StepUndo{{}, {{3, r1}}}, assign, other_rows));

  // Other slots: fewer, more, shifted, or no rows; or nothing at all.
  EXPECT_FALSE(reverses(frame, StepUndo{{{2, a1}}, {{3, r1}}}, assign, rows));
  EXPECT_FALSE(reverses(frame, StepUndo{{{2, a1}, {5, b1}, {6, b1}}, {{3, r1}}}, assign, rows));
  other_assign = assign;
  other_assign[6] = b0;
  EXPECT_FALSE(reverses(frame, StepUndo{{{2, a1}, {6, b1}}, {{3, r1}}}, other_assign, rows));
  EXPECT_FALSE(reverses(frame, StepUndo{{{2, a1}, {5, b1}}, {}}, assign, rows));
  EXPECT_FALSE(reverses(frame, StepUndo{}, assign, rows));
  // A frame of rows only undoes like any other.
  EXPECT_TRUE(reverses(StepUndo{{}, {{3, r0}}}, StepUndo{{}, {{3, r1}}}, assign, rows));
}

FaultEvent site_event(FaultKind kind, std::uint16_t site) {
  FaultEvent e;
  e.kind = kind;
  e.site = SiteId{site};
  return e;
}

TEST(UndoFrame, FlowChangeBetweenWithdrawAndRestoreSolvesAgain) {
  // The restore puts every row and assignment back, but under the surge's
  // flows: the withdrawal's frame holds a solve over the old ones.
  FaultEvent surge;
  surge.kind = FaultKind::TrafficSurge;
  surge.magnitude = 1.5;
  FaultPlan plan;
  plan.name = "withdraw-surge-restore";
  plan.events = {site_event(FaultKind::SiteWithdraw, 16), surge,
                 site_event(FaultKind::SiteRestore, 16)};
  expect_reference_at_every_worker_count(plan, everything_on());
  EXPECT_EQ(restored_solves(plan), 0u);
}

TEST(UndoFrame, RestoresOutOfOrderMatchReference) {
  // Site 16 and the site that serves the most probes of the tiny lab.
  // Neither restore finds its withdrawal's frame on top, so both solve.
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  std::vector<std::size_t> served(handle.deployment.sites().size(), 0);
  for (const View& v : measure(laboratory, handle)) {
    if (v.routed && v.site != SiteId{16}) ++served[value(v.site)];
  }
  const auto busiest = static_cast<std::uint16_t>(
      std::max_element(served.begin(), served.end()) - served.begin());
  FaultPlan plan;
  plan.name = "crossed-restores";
  plan.events = {site_event(FaultKind::SiteWithdraw, 16),
                 site_event(FaultKind::SiteWithdraw, busiest),
                 site_event(FaultKind::SiteRestore, 16),
                 site_event(FaultKind::SiteRestore, busiest)};
  const std::vector<bool> moves = steps_that_move(plan);
  EXPECT_TRUE(moves[0] && moves[1]);
  expect_reference_at_every_worker_count(plan, everything_on());
  EXPECT_EQ(restored_solves(plan), 0u);
}

TEST(UndoFrame, GeoDbPairInsideAWithdrawPairRestoresBoth) {
  FaultEvent stale;
  stale.kind = FaultKind::GeoDbStale;
  stale.db = 0;
  stale.magnitude = 0.3;
  FaultEvent fixed;
  fixed.kind = FaultKind::GeoDbRestore;
  fixed.db = 0;
  FaultPlan plan;
  plan.name = "nested-geodb";
  plan.events = {site_event(FaultKind::SiteWithdraw, 16), stale, fixed,
                 site_event(FaultKind::SiteRestore, 16)};
  const std::vector<bool> moves = steps_that_move(plan);
  EXPECT_TRUE(moves[0] && moves[1]);
  expect_reference_at_every_worker_count(plan, everything_on());
  EXPECT_EQ(restored_solves(plan), 2u);
}

TEST(UndoFrame, SameLinkFlappedTwiceRestoresEachUp) {
  const auto& effects = tiny_link_effects();
  const auto moving = std::find_if(effects.begin(), effects.end(),
                                   [](const LinkEffect& e) { return e.moves; });
  ASSERT_NE(moving, effects.end());
  FaultPlan plan;
  plan.name = "double-flap";
  for (int k = 0; k < 2; ++k) {
    plan.events.push_back(link_event(FaultKind::LinkDown, moving->link));
    plan.events.push_back(link_event(FaultKind::LinkUp, moving->link));
  }
  expect_reference_at_every_worker_count(plan, everything_on());
  EXPECT_EQ(restored_solves(plan), 2u);
}

std::string checkpoint_path(const std::string& tag) {
  const auto dir = fs::temp_directory_path() / "ranycast_incremental_measure";
  fs::create_directories(dir);
  return (dir / (tag + ".ck")).string();
}

/// Remove the whole checkpoint lineage (manifest and generation files).
void remove_chain_files(const std::string& ck) {
  const fs::path manifest(ck);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(manifest.parent_path(), ec)) {
    if (entry.path().filename().string().rfind(manifest.filename().string(), 0) == 0) {
      fs::remove(entry.path());
    }
  }
}

/// run_guarded stopped after `kill_at` steps, then resumed on a fresh lab.
std::string kill_and_resume_json(const FaultPlan& plan, std::size_t kill_at) {
  const std::string ck = checkpoint_path("kill_" + std::to_string(kill_at));
  remove_chain_files(ck);
  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
    Engine engine(laboratory, handle);
    enable(engine, everything_on());
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == kill_at) supervisor.cancel();
    };
    auto first = engine.run_guarded(plan, supervisor, policy);
    EXPECT_TRUE(first.has_value()) << first.error();
    if (!first) return {};
    EXPECT_EQ(first->report.steps.size(), kill_at);
  }
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, handle);
  enable(engine, everything_on());
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto second = engine.run_guarded(plan, supervisor, policy);
  EXPECT_TRUE(second.has_value()) << second.error();
  if (!second) return {};
  EXPECT_TRUE(second->sweep.resumed);
  EXPECT_EQ(second->sweep.resumed_from, kill_at);
  remove_chain_files(ck);
  return report_to_json(second->report).dump(2);
}

TEST(IncrementalMeasure, KilledAndResumedGuardedRunIsByteIdentical) {
  const FaultPlan plan = every_kind_plan();
  const std::string expected = engine_json(plan, everything_on());
  ASSERT_FALSE(expected.empty());
  const std::size_t n = plan.events.size();
  for (const std::size_t kill_at : {std::size_t{1}, n / 2, n - 1}) {
    EXPECT_EQ(kill_and_resume_json(plan, kill_at), expected) << "killed after step " << kill_at;
  }
}

TEST(IncrementalMeasure, RoutingOnlyPlanMeasuresEachLabStateOnce) {
  auto plan = load_plan(std::string(RANYCAST_CONFIGS_DIR) + "/chaos_smoke.json");
  ASSERT_TRUE(plan.has_value()) << plan.error().to_string();
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  const std::uint64_t probes = laboratory.census().retained().size();
  const std::uint64_t steps = plan->events.size();

  obs::set_enabled(true);
  obs::reset_all();
  Engine engine(laboratory, handle);
  ASSERT_TRUE(engine.run(*plan).has_value());
  auto& reg = obs::MetricsRegistry::global();
  // One full pass for the first lab state, then one DNS-reusing pass per
  // routing step.
  EXPECT_EQ(reg.counter("chaos.measure.passes").value(), steps + 1);
  EXPECT_EQ(reg.counter("chaos.measure.dns_reused").value(), steps * probes);
  EXPECT_EQ(reg.counter("lab.dns_lookup.calls").value(), probes);
  obs::reset_all();
  obs::set_enabled(false);
}

}  // namespace
}  // namespace ranycast::chaos
