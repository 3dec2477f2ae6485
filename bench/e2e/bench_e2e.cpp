// bench_e2e — the repository's end-to-end benchmark program.
//
//   bench_e2e --workload NAME --root DIR [--seed N] [--warmup S] [--seconds S]
//             [--threads N] [--preset paper|tiny] [--iterations N]
//             [--trace-out FILE]
//
// Runs one workload (paper_pass, chaos_cascade, chaos_linkflap,
// serve_refresh; see README.md for what each is and why) in this process:
// at least one discarded warm-up iteration and --warmup seconds of them,
// then --seconds of measured iterations. Every iteration's output digest
// must equal the first one's. With --trace-out the measured window is split
// in half: untraced, then traced with spans around every call into a layer
// (the chaos workloads then run a step replica built from public calls,
// checked against Engine::run), and the spans are written as Chrome
// traceEvents. The single line on stdout is one JSON object; run.py turns
// it into the benchmark's report and checks the digest against golden.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
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
#include "ranycast/converge/report.hpp"
#include "ranycast/core/crc32.hpp"
#include "ranycast/core/flags.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/io/json.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/obs/flight.hpp"
#include "ranycast/serve/server.hpp"
#include "ranycast/traffic/flows.hpp"
#include "ranycast/traffic/report.hpp"
#include "ranycast/traffic/solver.hpp"

#include "tracer.hpp"

using namespace ranycast;
using e2e::now_ns;
using e2e::Tracer;
using Scope = e2e::Tracer::Scope;

namespace {

constexpr double kNsPerS = 1e9;

struct Options {
  std::string workload;
  std::string root;  ///< repository root; configs/ is read from there
  std::uint64_t seed{2023};
  double warmup_s{3.0};
  double seconds{20.0};
  unsigned threads{4};
  bool tiny{false};
  std::int64_t iterations{0};  ///< > 0: exactly this many measured iterations per phase
  std::string trace_out;       ///< non-empty: traced run
  bool traced() const { return !trace_out.empty(); }
};

// ---------------------------------------------------------------- statistics

/// Linear interpolation between the closest ranks of a sorted sample.
template <typename T>
double sorted_quantile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double a = static_cast<double>(sorted[lo]);
  return a + (static_cast<double>(sorted[hi]) - a) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return sorted_quantile(v, 0.5);
}

/// One reported number. Timings carry their sample count and the highest
/// percentile that still has at least ten samples beyond it.
struct Metric {
  std::string unit;
  double value{0.0};
  std::size_t n{0};
  std::string tail;  ///< "p90", "p99", "p99.9" or "" when n < 20
  double tail_value{0.0};
};

using Metrics = std::map<std::string, Metric>;

template <typename T>
Metric timing(std::vector<T> samples, const char* unit, double scale, double center_q = 0.5) {
  std::sort(samples.begin(), samples.end());
  Metric m;
  m.unit = unit;
  m.n = samples.size();
  m.value = sorted_quantile(samples, center_q) * scale;
  for (const auto& [label, q] : {std::pair<const char*, double>{"p99.9", 0.999},
                                 {"p99", 0.99},
                                 {"p90", 0.9}}) {
    if (static_cast<double>(samples.size()) * (1.0 - q) >= 10.0) {
      m.tail = label;
      m.tail_value = sorted_quantile(samples, q) * scale;
      break;
    }
  }
  return m;
}

Metric scalar(double v, const char* unit, std::size_t n = 1) {
  Metric m;
  m.unit = unit;
  m.value = v;
  m.n = n;
  return m;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double peak_rss_mb() { return static_cast<double>(obs::rss_high_water_kb()) / 1024.0; }

// ---------------------------------------------------------------- digests

/// CRC-32 over the raw bytes of every value fed to it (doubles as their
/// IEEE-754 bits), so a digest pins outputs exactly.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    state_ = core::crc32_update(state_, &v, sizeof v);
  }
  std::uint32_t value() const { return core::crc32_final(state_); }

 private:
  std::uint32_t state_{core::crc32_init()};
};

std::string hex(std::uint64_t v, int width) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%0*llx", width, static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------- set-up

/// Lab is neither copyable nor movable; this box lets a fresh one live on
/// the heap for exactly one iteration.
struct LabBox {
  explicit LabBox(const lab::LabConfig& cfg) : lab(lab::Lab::create(cfg)) {}
  lab::Lab lab;
};

struct Setup {
  std::unique_ptr<LabBox> box;
  std::vector<const lab::DeploymentHandle*> handles;
  double seconds{0.0};  ///< Lab::create plus every add_deployment
  lab::Lab& lab() { return box->lab; }
};

lab::LabConfig lab_config(const Options& o, bool observability) {
  lab::LabConfig cfg;
  if (o.tiny) {
    cfg.world.stub_count = 400;
    cfg.census.total_probes = 1500;
  }
  cfg.seed = o.seed;
  // Forced either way, so RANYCAST_OBS in the environment cannot change a
  // workload's definition.
  cfg.observability = observability;
  return cfg;
}

/// The timed set-up of one iteration. The previous iteration's lab must be
/// destroyed by the caller before this runs (teardown is not set-up).
Setup set_up(const lab::LabConfig& cfg, const std::vector<cdn::DeploymentSpec>& specs,
             Tracer* tracer) {
  Setup s;
  const std::uint64_t t0 = now_ns();
  {
    Scope span(tracer, "lab.create");
    s.box = std::make_unique<LabBox>(cfg);
  }
  for (const cdn::DeploymentSpec& spec : specs) {
    Scope span(tracer, "lab.add_deployment");
    s.handles.push_back(&s.box->lab.add_deployment(spec));
  }
  s.seconds = static_cast<double>(now_ns() - t0) / kNsPerS;
  return s;
}

// ---------------------------------------------------------------- measurement

/// Work and outcome counts of one iteration, summed over its passes.
struct Counts {
  std::uint64_t passes{0};
  std::uint64_t lookups{0};
  std::uint64_t degraded{0};
  std::uint64_t route_fors{0};
  std::uint64_t pings{0};
  std::uint64_t routed_pings{0};  ///< pings whose probe had a route
  std::uint64_t lost{0};          ///< of those, pings that gave up
  std::uint64_t applies{0};
  std::uint64_t views_compared{0};
  std::uint64_t views_changed{0};

  void add(const Counts& c) {
    passes += c.passes;
    lookups += c.lookups;
    degraded += c.degraded;
    route_fors += c.route_fors;
    pings += c.pings;
    routed_pings += c.routed_pings;
    lost += c.lost;
    applies += c.applies;
    views_compared += c.views_compared;
    views_changed += c.views_changed;
  }
};

/// What one probe saw in a measurement pass (the chaos engine's view).
struct View {
  lab::Lab::DnsAnswer answer{};
  bool routed{false};
  SiteId site{kInvalidSite};
  std::optional<Rtt> rtt{};

  bool same_as(const View& o) const {
    return answer.region == o.answer.region && answer.address == o.answer.address &&
           answer.degraded == o.answer.degraded && routed == o.routed && site == o.site &&
           rtt == o.rtt;
  }
};

/// One measurement pass through the public batch calls: DNS for every
/// probe, the selected route's origin site, then one ping_all per answered
/// address for the probes that hold a route. Slot i equals what the chaos
/// engine's fused per-probe loop computes for probe i.
void measure(const lab::Lab& laboratory, const lab::DeploymentHandle& handle,
             std::span<const atlas::Probe* const> probes, std::vector<View>& out,
             Tracer* tracer, Counts& counts) {
  Scope pass(tracer, "measure");
  out.assign(probes.size(), View{});
  std::vector<lab::Lab::DnsAnswer> answers;
  {
    Scope span(tracer, "dns.lookup");
    answers = laboratory.dns_lookup_all(probes, handle, dns::QueryMode::Ldns);
  }
  {
    Scope span(tracer, "bgp.route_for");
    for (std::size_t i = 0; i < probes.size(); ++i) {
      out[i].answer = answers[i];
      if (const bgp::Route* route = handle.route_for(probes[i]->asn, answers[i].region)) {
        out[i].routed = true;
        out[i].site = route->origin_site;
      }
    }
  }
  {
    Scope span(tracer, "lab.ping");
    std::vector<std::pair<Ipv4Addr, std::vector<std::size_t>>> by_address;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (!out[i].routed) continue;
      auto it = std::find_if(by_address.begin(), by_address.end(),
                             [&](const auto& g) { return g.first == out[i].answer.address; });
      if (it == by_address.end()) {
        by_address.push_back({out[i].answer.address, {}});
        it = std::prev(by_address.end());
      }
      it->second.push_back(i);
    }
    std::vector<const atlas::Probe*> batch;
    for (const auto& [address, slots] : by_address) {
      batch.clear();
      for (std::size_t i : slots) batch.push_back(probes[i]);
      const auto rtts = laboratory.ping_all(batch, address);
      for (std::size_t k = 0; k < slots.size(); ++k) out[slots[k]].rtt = rtts[k];
    }
  }
  counts.passes += 1;
  counts.lookups += probes.size();
  counts.route_fors += probes.size();
  for (const View& v : out) {
    counts.degraded += v.answer.degraded ? 1 : 0;
    if (!v.routed) continue;
    counts.pings += 1;
    counts.routed_pings += 1;
    counts.lost += v.rtt ? 0 : 1;
  }
}

void count_changes(const std::vector<View>& before, const std::vector<View>& after,
                   Counts& counts) {
  counts.views_compared += before.size();
  for (std::size_t i = 0; i < before.size(); ++i) {
    counts.views_changed += before[i].same_as(after[i]) ? 0 : 1;
  }
}

/// One measured iteration (set-up excluded).
struct IterOut {
  double run_s{0.0};  ///< wall time of the library work, digesting excluded
  std::uint64_t digest{0};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  Counts counts;
  std::vector<std::string> errors;
};

// ---------------------------------------------------------------- paper_pass

/// The reproduction pass: for each deployment and resolver mode, serial
/// scalar DNS lookups, catchment routes and pings (to the answer and to
/// every region's service address, the Table 2 / Fig. 4 loops), reduced to
/// per-area <city, AS> group medians; then one traceroute pass on the
/// deployment `traced_handle`.
IterOut paper_pass(lab::Lab& laboratory, const std::vector<const lab::DeploymentHandle*>& handles,
                   const lab::DeploymentHandle* traced_handle, Tracer* tracer) {
  IterOut out;
  const auto retained = laboratory.census().retained();
  const std::size_t n = retained.size();
  const atlas::Probe* base = laboratory.census().probes().data();
  std::vector<std::uint32_t> slot(laboratory.census().probes().size(), 0);
  for (std::size_t i = 0; i < n; ++i) slot[retained[i] - base] = static_cast<std::uint32_t>(i);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  std::vector<lab::Lab::DnsAnswer> answers(n);
  std::vector<SiteId> sites(n);
  std::vector<double> rtt(n), best(n);
  std::vector<Ipv4Addr> trace_targets;
  std::vector<atlas::ProbeGroup> groups;
  std::vector<double> medians;
  Digest digest;

  const std::uint64_t t0 = now_ns();
  {
    Scope span(tracer, "atlas.reduce");
    groups = atlas::group_probes(retained);
  }
  for (const lab::DeploymentHandle* handle : handles) {
    const auto regions = handle->deployment.regions();
    for (const dns::QueryMode mode : {dns::QueryMode::Ldns, dns::QueryMode::Adns}) {
      {
        Scope span(tracer, "dns.lookup");
        for (std::size_t i = 0; i < n; ++i) {
          answers[i] = laboratory.dns_lookup(*retained[i], *handle, mode);
        }
      }
      {
        Scope span(tracer, "bgp.route_for");
        for (std::size_t i = 0; i < n; ++i) {
          const bgp::Route* route = handle->route_for(retained[i]->asn, answers[i].region);
          sites[i] = route != nullptr ? route->origin_site : kInvalidSite;
        }
      }
      {
        Scope span(tracer, "lab.ping");
        for (std::size_t i = 0; i < n; ++i) {
          const auto answered = laboratory.ping(*retained[i], answers[i].address);
          rtt[i] = answered ? answered->ms : nan;
          double lowest = rtt[i];
          for (const cdn::Region& region : regions) {
            const auto r = laboratory.ping(*retained[i], region.service_ip);
            if (r && !(r->ms >= lowest)) lowest = r->ms;
          }
          best[i] = lowest;
        }
      }
      {
        Scope span(tracer, "atlas.reduce");
        medians.clear();
        for (const atlas::ProbeGroup& group : groups) {
          const auto latency = atlas::group_median(group, [&](const atlas::Probe* p) {
            const double v = rtt[slot[p - base]];
            return std::isnan(v) ? std::nullopt : std::optional<double>(v);
          });
          const auto excess = atlas::group_median(group, [&](const atlas::Probe* p) {
            const std::size_t i = slot[p - base];
            return std::isnan(rtt[i]) ? std::nullopt : std::optional<double>(rtt[i] - best[i]);
          });
          medians.push_back(static_cast<double>(group.area));
          medians.push_back(latency.value_or(nan));
          medians.push_back(excess.value_or(nan));
        }
      }
      if (handle == traced_handle && mode == dns::QueryMode::Ldns) {
        trace_targets.resize(n);
        for (std::size_t i = 0; i < n; ++i) trace_targets[i] = answers[i].address;
      }
      // Digesting is the benchmark's own work: kept out of the timed total.
      const std::uint64_t d0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        digest.add(static_cast<std::uint64_t>(answers[i].region));
        digest.add(answers[i].address.bits());
        digest.add(answers[i].degraded);
        digest.add(value(sites[i]));
        digest.add(rtt[i]);
        digest.add(best[i]);
        out.counts.degraded += answers[i].degraded ? 1 : 0;
        if (sites[i] != kInvalidSite) {
          out.counts.routed_pings += 1;
          out.counts.lost += std::isnan(rtt[i]) ? 1 : 0;
        }
      }
      for (const double m : medians) digest.add(m);
      out.run_s -= static_cast<double>(now_ns() - d0) / kNsPerS;
      out.counts.passes += 1;
      out.counts.lookups += n;
      out.counts.route_fors += n;
      out.counts.pings += n * (1 + regions.size());
    }
  }
  std::vector<std::optional<bgp::TracerouteResult>> traces(n);
  {
    Scope span(tracer, "lab.traceroute");
    for (std::size_t i = 0; i < n; ++i) {
      traces[i] = laboratory.traceroute(*retained[i], trace_targets[i]);
    }
  }
  out.run_s += static_cast<double>(now_ns() - t0) / kNsPerS;
  for (const auto& t : traces) {
    digest.add(t ? static_cast<std::int64_t>(t->hops.size()) : std::int64_t{-1});
    digest.add(t ? t->rtt.ms : nan);
    digest.add(t && t->phop_valid);
  }
  out.digest = digest.value();
  out.attempted = out.counts.passes + 1;  // measurement passes plus the traceroute pass
  return out;
}

// ---------------------------------------------------------------- chaos

/// What a chaos workload turns on besides the steady measurement passes.
struct ChaosSetup {
  chaos::FaultPlan plan;
  bool transient{false};
  std::optional<traffic::TrafficConfig> traffic;
};

/// The link-flap plan: 12 seeded transit adjacencies (attachment neighbour
/// to one of its providers) of the deployment's sites, each taken down and
/// brought straight back up.
chaos::FaultPlan linkflap_plan(const lab::Lab& laboratory, const lab::DeploymentHandle& handle,
                               std::uint64_t seed) {
  const topo::Graph& graph = laboratory.world().graph;
  std::vector<std::pair<Asn, Asn>> links;
  for (const cdn::Site& site : handle.deployment.sites()) {
    for (const cdn::Attachment& att : site.attachments) {
      const topo::AsNode* node = graph.find(att.neighbor);
      if (node == nullptr) continue;
      for (const topo::Edge& edge : node->edges) {
        if (edge.rel == topo::Rel::Provider) links.emplace_back(att.neighbor, edge.neighbor);
      }
    }
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  Rng rng(hash_combine(seed, 0xF1A9));
  const std::size_t picks = std::min<std::size_t>(12, links.size());
  chaos::FaultPlan plan;
  plan.name = "linkflap";
  for (std::size_t k = 0; k < picks; ++k) {
    std::swap(links[k], links[k + rng.below(links.size() - k)]);
    for (const chaos::FaultKind kind : {chaos::FaultKind::LinkDown, chaos::FaultKind::LinkUp}) {
      chaos::FaultEvent e;
      e.kind = kind;
      e.a = links[k].first;
      e.b = links[k].second;
      e.label = "flap " + std::to_string(k);
      plan.events.push_back(e);
    }
  }
  return plan;
}

IterOut chaos_run(Setup& s, const ChaosSetup& cs, std::optional<chaos::ChaosReport>* keep) {
  IterOut out;
  chaos::Engine engine(s.lab(), *s.handles[0]);
  if (cs.transient) engine.enable_transient(converge::Config{});
  if (cs.traffic) engine.enable_traffic(*cs.traffic);
  const std::uint64_t t0 = now_ns();
  auto report = engine.run(cs.plan);
  out.run_s = static_cast<double>(now_ns() - t0) / kNsPerS;
  out.attempted = cs.plan.events.size();
  if (!report) {
    out.failed = 1;
    out.errors.push_back(report.error());
    return out;
  }
  const std::string json = chaos::report_to_json(*report).dump();
  out.digest = core::crc32(json.data(), json.size());
  if (keep != nullptr) *keep = std::move(*report);
  return out;
}

/// The chaos engine's per-probe traffic assignment, rebuilt from public
/// calls: the view's catchment site plus, under Shed, the other regions'
/// catchment sites in region order.
traffic::TrafficSolve solve_traffic(const lab::DeploymentHandle& handle,
                                    std::span<const atlas::Probe* const> probes,
                                    const std::vector<View>& views, const traffic::FlowSet& flows,
                                    const traffic::TrafficConfig& cfg, Tracer* tracer) {
  Scope span(tracer, "traffic.solve");
  const std::size_t regions = handle.deployment.regions().size();
  const bool shed = cfg.policy == traffic::OverloadPolicy::Shed;
  std::vector<traffic::ProbeAssign> assign(views.size());
  exec::ThreadPool::global().parallel_for(views.size(), [&](std::size_t i) {
    const View& v = views[i];
    if (!v.routed) return;
    traffic::ProbeAssign pa;
    pa.site = v.site;
    for (std::size_t r2 = 0; shed && r2 < regions; ++r2) {
      if (r2 == v.answer.region) continue;
      const bgp::Route* route = handle.route_for(probes[i]->asn, r2);
      if (route == nullptr || route->origin_site == v.site) continue;
      if (std::find(pa.alternates.begin(), pa.alternates.end(), route->origin_site) ==
          pa.alternates.end()) {
        pa.alternates.push_back(route->origin_site);
      }
    }
    assign[i] = std::move(pa);
  });
  return traffic::solve(flows, assign, handle.deployment.sites().size(), cfg);
}

/// The step fields replica parity compares against Engine::run.
struct StepFields {
  std::size_t routes_before{0}, routes_after{0}, moved{0}, lost{0}, gained{0};
  std::size_t degraded{0}, lost_pings{0};

  bool matches(const chaos::StepReport& r) const {
    return routes_before == r.routes_before && routes_after == r.routes_after &&
           moved == r.moved && lost == r.lost && gained == r.gained &&
           degraded == r.degraded_dns_answers && lost_pings == r.lost_pings;
  }
};

/// Engine::run rebuilt step by step from public calls, with a span around
/// each: measurement pass, traffic solve before the fault, apply_event,
/// second measurement pass, Plane::step, traffic solve after the fault.
/// Every step is checked against `reference` (Engine::run on a fresh
/// same-seed lab); differences land in out.errors.
IterOut chaos_replica(Setup& s, const ChaosSetup& cs, const chaos::ChaosReport& reference,
                      Tracer* tracer) {
  IterOut out;
  lab::Lab& laboratory = s.lab();
  const lab::DeploymentHandle& handle = *s.handles[0];
  const auto retained = laboratory.census().retained();
  chaos::Engine engine(laboratory, handle);  // used for apply_event only
  std::unique_ptr<converge::Plane> plane;
  std::vector<atlas::ProbeGroup> groups;
  std::optional<std::pair<double, traffic::FlowSet>> flows;
  double surge = 1.0;
  std::vector<View> before, after;
  std::vector<StepFields> fields;
  std::vector<converge::StepTransient> transients;
  std::vector<traffic::StepTraffic> traffics;

  const auto current_flows = [&]() -> const traffic::FlowSet& {
    if (!flows || flows->first != surge) {
      Scope span(tracer, "traffic.flows");
      if (groups.empty()) groups = atlas::group_probes(retained);
      flows.emplace(surge, traffic::generate_flows(groups, retained, *cs.traffic, surge));
    }
    return flows->second;
  };
  const auto fail = [&](std::size_t i, const std::string& what) {
    out.errors.push_back("replica step " + std::to_string(i) + ": " + what);
  };

  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < cs.plan.events.size(); ++i) {
    const chaos::FaultEvent& event = cs.plan.events[i];
    Scope step(tracer, "chaos.step");
    std::vector<std::vector<bgp::OriginAttachment>> origins_before;
    if (cs.transient) {
      if (plane == nullptr) {
        Scope span(tracer, "converge.rebuild");
        plane = std::make_unique<converge::Plane>(laboratory, handle, converge::Config{});
        plane->rebuild();
      }
      origins_before = converge::origins_by_region(handle.deployment);
    }
    measure(laboratory, handle, retained, before, tracer, out.counts);
    traffic::TrafficSolve before_solve;
    if (cs.traffic) {
      before_solve = solve_traffic(handle, retained, before, current_flows(), *cs.traffic, tracer);
    }
    {
      Scope span(tracer, "chaos.apply");
      const std::string err = engine.apply_event(event);
      out.counts.applies += 1;
      if (!err.empty()) {
        out.failed += 1;
        fail(i, err);
        break;
      }
    }
    if (event.kind == chaos::FaultKind::TrafficSurge) surge = event.magnitude;
    if (event.kind == chaos::FaultKind::TrafficRestore) surge = 1.0;
    measure(laboratory, handle, retained, after, tracer, out.counts);
    count_changes(before, after, out.counts);

    StepFields f;
    for (std::size_t p = 0; p < before.size(); ++p) {
      const View& b = before[p];
      const View& a = after[p];
      f.routes_before += b.routed ? 1 : 0;
      f.routes_after += a.routed ? 1 : 0;
      f.degraded += a.answer.degraded ? 1 : 0;
      f.lost_pings += a.routed && !a.rtt ? 1 : 0;
      f.moved += b.routed && a.routed && b.site != a.site ? 1 : 0;
      f.lost += b.routed && !a.routed ? 1 : 0;
      f.gained += !b.routed && a.routed ? 1 : 0;
    }
    fields.push_back(f);

    if (cs.transient) {
      const auto deltas = converge::diff_origins(origins_before,
                                                 converge::origins_by_region(handle.deployment));
      std::vector<converge::ProbeRef> refs;
      refs.reserve(before.size());
      for (std::size_t p = 0; p < before.size(); ++p) {
        refs.push_back(converge::ProbeRef{retained[p]->asn, before[p].answer.region});
      }
      Scope span(tracer, "converge.step");
      transients.push_back(plane->step(i, chaos::describe(event), deltas, refs));
    }

    if (cs.traffic) {
      traffic::StepTraffic t;
      t.index = i;
      t.event = chaos::describe(event);
      t.solve = solve_traffic(handle, retained, after, current_flows(), *cs.traffic, tracer);
      t.before_max_utilization = before_solve.max_utilization;
      t.before_mean_utilization = before_solve.mean_utilization;
      const double threshold = cs.traffic->admission_threshold;
      const std::size_t site_count = std::min(before_solve.sites.size(), t.solve.sites.size());
      for (std::size_t k = 0; k < site_count; ++k) {
        const traffic::SiteLoad& b = before_solve.sites[k];
        const traffic::SiteLoad& a = t.solve.sites[k];
        if (a.capacity_mbps > 0.0 && b.utilization <= threshold && a.utilization > threshold) {
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
      traffics.push_back(std::move(t));
    }
  }
  out.run_s = static_cast<double>(now_ns() - t0) / kNsPerS;
  out.attempted = cs.plan.events.size();

  // Parity, outside the timed region.
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i >= reference.steps.size() || !fields[i].matches(reference.steps[i])) {
      fail(i, "step report differs from Engine::run");
    }
    if (cs.transient && (i >= reference.transient.size() ||
                         converge::transient_to_json(transients[i]).dump() !=
                             converge::transient_to_json(reference.transient[i]).dump())) {
      fail(i, "transient differs from Engine::run");
    }
    if (cs.traffic && (i >= reference.traffic.size() ||
                       traffic::step_to_json(traffics[i]).dump() !=
                           traffic::step_to_json(reference.traffic[i]).dump())) {
      fail(i, "traffic differs from Engine::run");
    }
  }
  if (fields.size() != reference.steps.size()) fail(fields.size(), "step count differs");
  out.digest = out.errors.empty() ? 0 : 1;
  return out;
}

// ---------------------------------------------------------------- results

/// Everything one workload run reports.
struct Run {
  std::vector<std::string> errors;
  std::optional<std::uint64_t> digest;
  int digest_width{8};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  io::JsonObject breakdown;  ///< failure causes, by kind
  Metrics metrics;

  void error(std::string what) {
    // One line per distinct problem: a mismatch repeated every iteration
    // would otherwise flood the report.
    if (std::find(errors.begin(), errors.end(), what) == errors.end()) {
      errors.push_back(std::move(what));
    }
  }
};

/// Samples of one phase (untraced or traced), one entry per iteration.
struct Phase {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<Counts> counts;
  std::vector<std::map<std::string, Tracer::Totals>> spans;
};

/// The per-layer metrics of a traced phase, each a median over iterations
/// (counts per iteration; fractions over the whole phase). Layer times are
/// self times: a span's duration minus its direct children's.
void layer_metrics(const Phase& traced, Metrics& m) {
  const auto per_iteration = [&](auto&& f) {
    std::vector<double> v;
    for (std::size_t i = 0; i < traced.spans.size(); ++i) v.push_back(f(i));
    return median(v);
  };
  const auto span = [&](std::size_t i, const char* name) {
    const auto it = traced.spans[i].find(name);
    return it == traced.spans[i].end() ? Tracer::Totals{} : it->second;
  };
  const auto exercised = [&](const char* name) {
    for (std::size_t i = 0; i < traced.spans.size(); ++i) {
      if (span(i, name).count > 0) return true;
    }
    return false;
  };
  const std::size_t n = traced.spans.size();

  m["lab.create_ms"] = scalar(per_iteration([&](std::size_t i) {
    const auto t = span(i, "lab.create");
    return t.count == 0 ? 0.0 : static_cast<double>(t.total_ns) / static_cast<double>(t.count) * 1e-6;
  }), "ms", n);
  m["lab.add_deployment_ms"] = scalar(per_iteration([&](std::size_t i) {
    const auto t = span(i, "lab.add_deployment");
    return t.count == 0 ? 0.0 : static_cast<double>(t.total_ns) / static_cast<double>(t.count) * 1e-6;
  }), "ms", n);

  // Layers whose calls every workload makes: self time per iteration and
  // per item handled.
  const std::pair<const char*, std::uint64_t Counts::*> per_item[] = {
      {"dns.lookup", &Counts::lookups},
      {"bgp.route_for", &Counts::route_fors},
      {"lab.ping", &Counts::pings},
  };
  for (const auto& [name, items] : per_item) {
    m[std::string(name) + "_ms"] = scalar(per_iteration([&](std::size_t i) {
      return static_cast<double>(span(i, name).self_ns) * 1e-6;
    }), "ms", n);
    m[std::string(name) + "_ns_per_probe"] = scalar(per_iteration([&](std::size_t i) {
      return ratio(span(i, name).self_ns, traced.counts[i].*items);
    }), "ns", n);
  }

  // Layers only some workloads exercise: self time where they run, and
  // everywhere their share of the iteration's wall time (0 where absent).
  const std::pair<const char*, const char*> specific[] = {
      {"lab.traceroute", "lab.traceroute"}, {"atlas.reduce", "atlas.reduce"},
      {"chaos.apply", "chaos.apply"},       {"chaos.step", "chaos.step_self"},
      {"converge.rebuild", "converge.rebuild"}, {"converge.step", "converge.step"},
      {"traffic.flows", "traffic.flows"},   {"traffic.solve", "traffic.solve"},
      {"measure", "measure.self"},
  };
  for (const auto& [name, metric] : specific) {
    m[std::string(metric) + "_share"] = scalar(per_iteration([&](std::size_t i) {
      return static_cast<double>(span(i, name).self_ns) * 1e-9 / traced.run_s[i];
    }), "fraction", n);
    if (!exercised(name)) continue;
    m[std::string(metric) + "_ms"] = scalar(per_iteration([&](std::size_t i) {
      return static_cast<double>(span(i, name).self_ns) * 1e-6;
    }), "ms", n);
  }

  Counts sum;
  for (const Counts& c : traced.counts) sum.add(c);
  const Counts& first = traced.counts.front();
  m["dns.lookups"] = scalar(static_cast<double>(first.lookups), "count");
  m["lab.pings"] = scalar(static_cast<double>(first.pings), "count");
  m["measure.passes"] = scalar(static_cast<double>(first.passes), "count");
  m["chaos.apply_calls"] = scalar(static_cast<double>(first.applies), "count");
  m["dns.degraded_frac"] = scalar(ratio(sum.degraded, sum.lookups), "fraction", n);
  m["lab.ping_lost_frac"] = scalar(ratio(sum.lost, sum.routed_pings), "fraction", n);
  m["measure.changed_frac"] = scalar(ratio(sum.views_changed, sum.views_compared), "fraction", n);
}

// ---------------------------------------------------------------- batch runner

using IterFn = std::function<IterOut(Setup&, Tracer*)>;

/// A workload whose iteration is a fresh lab (timed set-up) plus a run.
struct BatchWorkload {
  std::vector<cdn::DeploymentSpec> specs;
  bool observability{false};
  IterFn run;     ///< the measured iteration
  IterFn traced;  ///< its span-instrumented form
  /// Whether the traced form reproduces run's digest (paper_pass does; the
  /// chaos replica is checked step by step instead).
  bool traced_digest{true};
};

Run run_batch(const Options& o, const BatchWorkload& wl, Tracer& tracer) {
  Run r;
  const lab::LabConfig cfg = lab_config(o, wl.observability);
  const auto iterate = [&](const IterFn& fn, bool traced, double seconds, std::int64_t count,
                           Phase* phase) {
    const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * kNsPerS);
    for (std::int64_t k = 0; count > 0 ? k < count : (k == 0 || now_ns() < deadline); ++k) {
      Tracer* tr = traced ? &tracer : nullptr;
      const std::size_t from = tracer.size();
      Setup s = set_up(cfg, wl.specs, tr);
      IterOut it = fn(s, tr);
      r.attempted += it.attempted;
      r.failed += it.failed;
      for (std::string& e : it.errors) r.error(std::move(e));
      if (!traced || wl.traced_digest) {
        if (!r.digest) r.digest = it.digest;
        if (it.digest != *r.digest) r.error("iteration digest differs from the first iteration's");
      }
      if (phase == nullptr) continue;
      phase->setup_s.push_back(s.seconds);
      phase->run_s.push_back(it.run_s);
      phase->counts.push_back(it.counts);
      if (traced) phase->spans.push_back(tracer.totals(from, tracer.size()));
    }
  };

  Phase untraced, traced;
  iterate(wl.run, false, o.warmup_s, 0, nullptr);
  iterate(wl.run, false, o.traced() ? o.seconds / 2 : o.seconds, o.iterations, &untraced);
  r.metrics["setup_s"] = timing(untraced.setup_s, "s", 1.0);
  r.metrics["run_s"] = timing(untraced.run_s, "s", 1.0);
  if (o.traced()) {
    tracer.set_enabled(true);
    iterate(wl.traced, true, o.seconds / 2, o.iterations, &traced);
    tracer.set_enabled(false);
    layer_metrics(traced, r.metrics);
    r.metrics["trace.overhead_frac"] = scalar(
        median(traced.run_s) / median(untraced.run_s) - 1.0, "fraction", traced.run_s.size());
    std::uint64_t step_self = 0, step_total = 0;
    for (const auto& spans : traced.spans) {
      if (const auto it = spans.find("chaos.step"); it != spans.end()) {
        step_self += it->second.self_ns;
        step_total += it->second.total_ns;
      }
    }
    if (ratio(step_self, step_total) > 0.10) {
      r.error("chaos.step self time exceeds 10% of step wall time");
    }
  }
  return r;
}

// ---------------------------------------------------------------- serve_refresh

constexpr std::uint64_t kQueryIntervalNs = 20'000;  ///< 50k queries/s per generator
constexpr int kGenerators = 2;
// A caller that loses the race for the server lock after a rebuild carries
// an arrival time older than queries admitted before it, so the virtual
// queue model charges it the whole rebuild. At a 2 ms budget that sheds one
// query per rebuild; the workload must not fail, so no deadline binds.
constexpr std::uint64_t kBudgetUs = 1'000'000;
constexpr std::uint64_t kBlockedCallNs = 100'000;

/// One open-loop query generator's tallies (measured window only).
struct GenOut {
  std::vector<std::uint32_t> latency_ns;  ///< from due time to return
  std::vector<std::uint32_t> call_ns;     ///< every 8th call's own duration
  std::uint64_t attempted{0};
  std::uint64_t late{0};     ///< sent more than one interval after due
  std::uint64_t blocked{0};  ///< calls longer than kBlockedCallNs
  std::uint64_t status[5]{};
  std::uint64_t checked{0};
  std::uint64_t mismatched{0};
};

/// The snapshot a fresh lab measures after `events` world events, rebuilt
/// from public calls (apply_event + one measurement pass per refresh).
std::uint64_t serve_replica(const lab::LabConfig& cfg, const chaos::FaultPlan& world,
                            Tracer& tracer, Phase& phase) {
  const std::size_t from = tracer.size();
  Setup s = set_up(cfg, {cdn::catalog::imperva6()}, &tracer);
  const auto retained = s.lab().census().retained();
  chaos::Engine engine(s.lab(), *s.handles[0]);
  Counts counts;
  std::vector<View> previous, views;
  const std::uint64_t t0 = now_ns();
  for (std::size_t k = 0; k <= world.events.size(); ++k) {
    if (k > 0) {
      Scope span(&tracer, "chaos.apply");
      if (!engine.apply_event(world.events[k - 1]).empty()) return 0;
      counts.applies += 1;
    }
    measure(s.lab(), *s.handles[0], retained, views, &tracer, counts);
    if (k > 0) count_changes(previous, views, counts);
    previous.swap(views);
  }
  phase.run_s.push_back(static_cast<double>(now_ns() - t0) / kNsPerS);
  phase.setup_s.push_back(s.seconds);
  phase.counts.push_back(counts);
  phase.spans.push_back(tracer.totals(from, tracer.size()));
  serve::WorldSnapshot snap;
  for (const View& v : previous) {
    serve::MapEntry e;
    e.address = v.answer.address.bits();
    e.region = static_cast<std::uint16_t>(v.answer.region);
    e.degraded = v.answer.degraded;
    e.site = value(v.site);
    e.routed = v.routed;
    e.rtt_ms = v.routed && v.rtt ? v.rtt->ms : 0.0;
    snap.entries.push_back(e);
  }
  return serve::snapshot_fingerprint(snap);
}

Run run_serve(const Options& o, const chaos::FaultPlan& world, Tracer& tracer) {
  Run r;
  r.digest_width = 16;
  const lab::LabConfig cfg = lab_config(o, false);
  const std::vector<cdn::DeploymentSpec> specs{cdn::catalog::imperva6()};
  Setup s = set_up(cfg, specs, nullptr);

  serve::ServeConfig sc;
  sc.world_plan = world;
  sc.refresh_interval_ns = 50'000'000;
  sc.build_time_ns = 1;
  sc.ladder.fresh_max_age_ns = std::uint64_t{1} << 60;  // far beyond any run
  sc.ladder.stale_max_age_ns = std::uint64_t{1} << 61;
  sc.ladder.reject_after_age_ns = std::uint64_t{1} << 62;
  sc.admission.rate_qps = 1e9;  // admission never sheds at the offered rate
  sc.admission.burst = 1u << 20;
  sc.admission.max_queue_depth = 1u << 20;
  sc.admission.service_time_ns = 100;
  sc.seed = o.seed;
  serve::Server server(s.lab(), *s.handles[0], sc);
  // The first refresh starts at virtual time 0 and publishes once its build
  // time has passed; until then every query would be rejected.
  for (const std::uint64_t at : {std::uint64_t{0}, sc.build_time_ns}) {
    if (auto ticked = server.tick(at); !ticked) {
      r.error("first refresh failed: " + ticked.error());
      return r;
    }
  }
  const std::uint64_t clients = s.lab().census().retained().size();

  // Virtual serving time is wall time since t0. The measured window starts
  // after the warm-up; a traced run traces its second half.
  const std::uint64_t t0 = now_ns();
  const std::uint64_t warm_end = t0 + static_cast<std::uint64_t>(o.warmup_s * kNsPerS);
  const std::uint64_t end = warm_end + static_cast<std::uint64_t>(o.seconds * kNsPerS);
  const std::uint64_t split =
      o.traced() ? warm_end + static_cast<std::uint64_t>(o.seconds / 2 * kNsPerS) : end;
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> ticks, traced_ticks;  // durations of ticks that built
  std::string refresher_error;
  tracer.set_enabled(o.traced());

  std::thread refresher([&] {
    std::uint64_t builds_seen = 1;  // the synchronous first refresh
    auto next = std::chrono::steady_clock::now();
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t start = now_ns();
      const auto ticked = server.tick(start - t0);
      const std::uint64_t dur = now_ns() - start;
      if (!ticked) {
        refresher_error = ticked.error();
        stop = true;
        break;
      }
      const serve::ServeStats st = server.stats();
      if (const std::uint64_t builds = st.epochs_published + st.builds_failed;
          builds != builds_seen) {
        builds_seen = builds;
        if (start >= split) {
          tracer.add("serve.tick_build", start, dur);
          traced_ticks.push_back(dur);
        } else if (start >= warm_end) {
          ticks.push_back(dur);
        }
      }
      next += std::chrono::milliseconds(1);
      std::this_thread::sleep_until(next);
    }
  });

  std::vector<GenOut> gens(kGenerators);
  const auto generate = [&](int g) {
    GenOut& out = gens[static_cast<std::size_t>(g)];
    const auto expected = static_cast<std::size_t>(o.seconds * 1e9 / kQueryIntervalNs) + 1024;
    out.latency_ns.reserve(expected);
    out.call_ns.reserve(expected / 8 + 1);
    Rng rng(hash_combine(o.seed, 0x5E7E0 + static_cast<std::uint64_t>(g)));
    std::uint64_t due = t0 + static_cast<std::uint64_t>(g) * kQueryIntervalNs / kGenerators;
    for (std::uint64_t k = 0; due < end && !stop.load(std::memory_order_relaxed);
         ++k, due += kQueryIntervalNs) {
      std::uint64_t sent = now_ns();
      while (sent < due) sent = now_ns();
      const std::uint64_t client = rng.below(clients);
      const serve::QueryResult res = server.query(client, sent - t0, kBudgetUs);
      const std::uint64_t done = now_ns();
      if (k % 64 == 0 && res.status == serve::QueryStatus::Served) {
        // The answer must be the pinned epoch's entry for this client.
        if (const auto pin = server.pin(); pin != nullptr && pin->epoch == res.epoch) {
          out.checked += 1;
          const bool same = res.fingerprint == pin->fingerprint &&
                            res.entry == pin->entries[client % pin->entries.size()];
          out.mismatched += same ? 0 : 1;
        }
      }
      if (due < warm_end) continue;
      out.attempted += 1;
      out.status[static_cast<int>(res.status)] += 1;
      out.latency_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(done - due, std::numeric_limits<std::uint32_t>::max())));
      if (k % 8 == 0) out.call_ns.push_back(static_cast<std::uint32_t>(done - sent));
      out.late += sent - due > kQueryIntervalNs ? 1 : 0;
      out.blocked += done - sent > kBlockedCallNs ? 1 : 0;
    }
  };
  std::vector<std::thread> generators;
  for (int g = 0; g < kGenerators; ++g) generators.emplace_back(generate, g);
  for (std::thread& t : generators) t.join();
  stop = true;
  refresher.join();
  tracer.set_enabled(false);

  if (!refresher_error.empty()) r.error("refresh failed: " + refresher_error);
  GenOut all;
  for (GenOut& g : gens) {
    all.latency_ns.insert(all.latency_ns.end(), g.latency_ns.begin(), g.latency_ns.end());
    all.call_ns.insert(all.call_ns.end(), g.call_ns.begin(), g.call_ns.end());
    all.attempted += g.attempted;
    all.late += g.late;
    all.blocked += g.blocked;
    all.checked += g.checked;
    all.mismatched += g.mismatched;
    for (int k = 0; k < 5; ++k) all.status[k] += g.status[k];
  }
  if (all.mismatched > 0) r.error("served answers differ from the pinned epoch");
  r.attempted = all.attempted;
  r.failed = all.attempted - all.status[static_cast<int>(serve::QueryStatus::Served)];
  for (int k = 1; k < 5; ++k) {
    r.breakdown[std::string(serve::to_string(static_cast<serve::QueryStatus>(k)))] =
        io::Json(static_cast<double>(all.status[k]));
  }

  const auto final_snapshot = server.pin();
  if (server.stats().world_events_applied != world.events.size()) {
    r.error("refresher did not apply every world event");
  }
  r.digest = final_snapshot->fingerprint;

  // A serve run has one lab, so set-up is timed apart from it, once the
  // process is warm: at least five fresh labs and 1 s of them.
  std::vector<double> setups;
  Setup fresh;
  const std::uint64_t setup_end = now_ns() + static_cast<std::uint64_t>(kNsPerS);
  while (setups.size() < 5 || now_ns() < setup_end) {
    fresh = Setup{};  // tear the previous lab down outside the timed set-up
    fresh = set_up(cfg, specs, nullptr);
    setups.push_back(fresh.seconds);
  }
  r.metrics["setup_s"] = timing(setups, "s", 1.0);
  // run_s is the refresh in seconds, so every workload reports it.
  r.metrics["run_s"] = timing(ticks, "s", 1e-9);
  r.metrics["refresh_ms_p50"] = timing(ticks, "ms", 1e-6);
  r.metrics["query_us_p99"] = timing(all.latency_ns, "us", 1e-3, 0.99);
  r.metrics["serve.query_call_us_p50"] = timing(all.call_ns, "us", 1e-3);
  r.metrics["serve.query_blocked_frac"] = scalar(ratio(all.blocked, all.attempted), "fraction");
  r.metrics["serve.gen_late_frac"] = scalar(ratio(all.late, all.attempted), "fraction");

  // The final epoch must be what a fresh lab measures after every world
  // event: build_snapshot untraced, the public-call replica when traced.
  if (!o.traced()) {
    chaos::Engine engine(fresh.lab(), *fresh.handles[0]);
    for (const chaos::FaultEvent& e : world.events) {
      if (!engine.apply_event(e).empty()) r.error("fresh lab rejected a world event");
    }
    const auto snap = serve::build_snapshot(fresh.lab(), *fresh.handles[0], 0, 0);
    if (snap.fingerprint != final_snapshot->fingerprint) {
      r.error("final epoch differs from a fresh lab's snapshot");
    }
    return r;
  }
  Phase traced;
  tracer.set_enabled(true);
  for (std::int64_t k = 0; k < std::max<std::int64_t>(o.iterations, 3); ++k) {
    if (serve_replica(cfg, world, tracer, traced) != final_snapshot->fingerprint) {
      r.error("final epoch differs from the replica's snapshot");
    }
  }
  tracer.set_enabled(false);
  layer_metrics(traced, r.metrics);
  r.metrics["serve.tick_build_ms"] = timing(traced_ticks, "ms", 1e-6);
  r.metrics["trace.overhead_frac"] =
      scalar(r.metrics["serve.tick_build_ms"].value / (r.metrics["run_s"].value * 1e3) - 1.0,
             "fraction", traced_ticks.size());
  return r;
}

// ---------------------------------------------------------------- output

io::Json to_json(const Options& o, const Run& r) {
  io::JsonObject metrics;
  for (const auto& [name, m] : r.metrics) {
    io::JsonObject j{{"value", io::Json(m.value)},
                     {"unit", io::Json(m.unit)},
                     {"n", io::Json(static_cast<double>(m.n))}};
    if (!m.tail.empty()) {
      j["tail"] = io::Json(m.tail);
      j["tail_value"] = io::Json(m.tail_value);
    }
    metrics[name] = io::Json(std::move(j));
  }
  io::JsonArray errors;
  for (const std::string& e : r.errors) errors.emplace_back(e);
  return io::Json(io::JsonObject{
      {"workload", io::Json(o.workload)},
      {"seed", io::Json(std::to_string(o.seed))},
      {"preset", io::Json(o.tiny ? "tiny" : "paper")},
      {"threads", io::Json(static_cast<double>(o.threads))},
      {"traced", io::Json(o.traced())},
      {"errors", io::Json(std::move(errors))},
      {"digest", r.digest ? io::Json(hex(*r.digest, r.digest_width)) : io::Json()},
      {"attempted", io::Json(static_cast<double>(r.attempted))},
      {"failed", io::Json(static_cast<double>(r.failed))},
      {"breakdown", io::Json(r.breakdown)},
      {"metrics", io::Json(std::move(metrics))},
  });
}

}  // namespace

int main(int argc, char** argv) {
  const flags::Parser args(argc, argv);
  for (const auto& bad : args.unknown({"workload", "root", "seed", "warmup", "seconds",
                                       "threads", "preset", "iterations", "trace-out"})) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.c_str());
    return 2;
  }
  Options o;
  o.workload = args.get_or("workload", std::string());
  o.root = args.get_or("root", std::string("."));
  o.seed = static_cast<std::uint64_t>(args.get_or("seed", std::int64_t{2023}));
  o.warmup_s = args.get_or("warmup", 3.0);
  o.seconds = args.get_or("seconds", 20.0);
  o.threads = static_cast<unsigned>(args.get_or("threads", std::int64_t{4}));
  o.tiny = args.get_or("preset", std::string("paper")) == "tiny";
  o.iterations = args.get_or("iterations", std::int64_t{0});
  o.trace_out = args.get_or("trace-out", std::string());

  const auto load = [&](const char* file) {
    auto plan = chaos::load_plan(o.root + "/configs/" + file);
    if (!plan) throw std::runtime_error(plan.error().to_string());
    return std::move(*plan);
  };

  exec::ThreadPool::global().resize(o.threads);
  Tracer tracer;
  Run r;
  try {
    if (o.workload == "paper_pass") {
      BatchWorkload wl;
      wl.specs = {cdn::catalog::edgio3(), cdn::catalog::edgio4(), cdn::catalog::imperva6(),
                  cdn::catalog::imperva_ns()};
      wl.run = [](Setup& s, Tracer* t) { return paper_pass(s.lab(), s.handles, s.handles[2], t); };
      wl.traced = wl.run;
      r = run_batch(o, wl, tracer);
    } else if (o.workload == "chaos_cascade" || o.workload == "chaos_linkflap") {
      const bool linkflap = o.workload == "chaos_linkflap";
      ChaosSetup base;
      if (linkflap) {
        const std::string path = o.root + "/configs/chaos_overload.json";
        auto json = io::load_json(path);
        if (!json) throw std::runtime_error(json.error().to_string());
        auto cfg = chaos::traffic_from_scenario(*json, path);
        if (!cfg || !cfg->has_value()) throw std::runtime_error(path + ": no traffic block");
        base.traffic = std::move(**cfg);
        base.traffic->policy = traffic::OverloadPolicy::Shed;
        base.transient = true;
      } else {
        base.plan = load("chaos_cascade.json");
      }
      const auto prepared = [&](Setup& s) {
        ChaosSetup cs = base;
        if (linkflap) cs.plan = linkflap_plan(s.lab(), *s.handles[0], o.seed);
        return cs;
      };
      std::optional<chaos::ChaosReport> reference;
      BatchWorkload wl;
      wl.specs = {cdn::catalog::imperva6()};
      wl.observability = linkflap;
      wl.traced_digest = false;
      wl.run = [&](Setup& s, Tracer*) {
        return chaos_run(s, prepared(s), reference ? nullptr : &reference);
      };
      wl.traced = [&](Setup& s, Tracer* t) {
        return chaos_replica(s, prepared(s), *reference, t);
      };
      r = run_batch(o, wl, tracer);
    } else if (o.workload == "serve_refresh") {
      r = run_serve(o, load("chaos_cascade.json"), tracer);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    r.error(std::string("exception: ") + e.what());
  }
  if (o.traced()) {
    // Query-side fractions exist only where queries run; 0 elsewhere.
    r.metrics.try_emplace("serve.query_blocked_frac", scalar(0.0, "fraction"));
    r.metrics.try_emplace("serve.gen_late_frac", scalar(0.0, "fraction"));
  }
  r.metrics["peak_rss_mb"] = scalar(peak_rss_mb(), "MB");
  r.metrics["fail_frac"] = scalar(ratio(r.failed, r.attempted), "fraction", r.attempted);
  if (o.traced() && !tracer.write_chrome(o.trace_out)) r.error("cannot write " + o.trace_out);
  std::printf("%s\n", to_json(o, r).dump().c_str());
  return 0;
}
