// Serving-plane performance benchmarks (google-benchmark): full snapshot
// builds, patched refreshes (an idle one and one that applies a
// catchment-moving link flap), the steady-state query path, and the query
// path under 2x overload with the admission shedder on vs off. The overload
// benchmarks export the virtual-latency quantiles and shed share as
// counters: with shedding the served p99 stays inside the deadline budget
// while the unshedded queue model blows straight through it. The JSON
// baseline lives in bench/BENCH_perf_serve.json and CI gates on these via
// tools/check_bench_regression.py --require, and on a full build costing at
// least 10x an idle refresh via --assert-ratio.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/serve/server.hpp"

using namespace ranycast;

namespace {

lab::LabConfig bench_config() {
  lab::LabConfig config;
  config.world.stub_count = 1200;
  config.census.total_probes = 5000;
  return config;
}

constexpr std::uint64_t kServiceNs = 500'000;  // 500us modeled service time
constexpr std::uint64_t kBudgetUs = 2'000;     // per-query deadline budget

/// A server with one published epoch and a refresher parked far in the
/// future, so the loop measures the query path alone.
serve::ServeConfig query_bench_config(bool shedding) {
  serve::ServeConfig cfg;
  cfg.refresh_interval_ns = 1'000'000'000'000;  // no rebuilds mid-benchmark
  cfg.build_time_ns = 1;
  cfg.ladder.fresh_max_age_ns = 4'000'000'000'000;
  cfg.ladder.stale_max_age_ns = 8'000'000'000'000;
  cfg.ladder.reject_after_age_ns = 16'000'000'000'000;
  cfg.admission.service_time_ns = kServiceNs;
  if (shedding) {
    cfg.admission.rate_qps = 1e9;  // shed on queue depth + deadline, not rate
    cfg.admission.burst = 1 << 20;
    cfg.admission.max_queue_depth = 4;
  } else {
    cfg.admission.rate_qps = 1e9;
    cfg.admission.burst = 1 << 20;
    cfg.admission.max_queue_depth = 1 << 30;  // nothing is ever turned away
  }
  return cfg;
}

void BM_ServeSnapshotBuild(benchmark::State& state) {
  auto laboratory = lab::Lab::create(bench_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  for (auto _ : state) {
    const auto snap = serve::build_snapshot(laboratory, im6, 1, 0);
    benchmark::DoNotOptimize(snap.fingerprint);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(laboratory.census().retained().size()));
}
BENCHMARK(BM_ServeSnapshotBuild)->Unit(benchmark::kMillisecond);

/// A refresher that starts and publishes a build on every tick: builds
/// start each nanosecond and take none.
serve::ServeConfig refresh_bench_config(chaos::FaultPlan world) {
  serve::ServeConfig cfg = query_bench_config(/*shedding=*/true);
  cfg.refresh_interval_ns = 1;
  cfg.build_time_ns = 0;
  cfg.world_plan = std::move(world);
  return cfg;
}

void BM_ServeRefreshIdle(benchmark::State& state) {
  auto laboratory = lab::Lab::create(bench_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  serve::Server server(laboratory, im6, refresh_bench_config({}));
  std::uint64_t now = 0;
  if (!server.tick(now)) {  // the first epoch: a full build
    state.SkipWithError("first epoch failed to publish");
    return;
  }
  for (auto _ : state) {
    const auto ticked = server.tick(++now);  // a patch that applies no event
    benchmark::DoNotOptimize(ticked);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(server.stats().epochs_published) - 1);
}
BENCHMARK(BM_ServeRefreshIdle)->Unit(benchmark::kMillisecond);

chaos::FaultEvent link_event(chaos::FaultKind kind, const std::pair<Asn, Asn>& link) {
  chaos::FaultEvent e;
  e.kind = kind;
  e.a = link.first;
  e.b = link.second;
  return e;
}

/// Flaps of seeded transit adjacencies (a site attachment's neighbour to
/// one of its providers) whose loss changes the measurement pass, each
/// taken down and brought straight back up: every event moves a catchment
/// or an RTT, and the plan leaves the lab as it found it.
chaos::FaultPlan moving_flaps(lab::Lab& laboratory, const lab::DeploymentHandle& handle,
                              std::size_t links_wanted) {
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
  Rng rng(2023);
  chaos::Engine mutator(laboratory, handle);
  const std::uint64_t base = serve::build_snapshot(laboratory, handle, 1, 0).fingerprint;
  chaos::FaultPlan plan;
  plan.name = "linkflap";
  for (std::size_t k = 0; k < links.size() && plan.events.size() < 2 * links_wanted; ++k) {
    std::swap(links[k], links[k + rng.below(links.size() - k)]);
    const chaos::FaultEvent down = link_event(chaos::FaultKind::LinkDown, links[k]);
    const chaos::FaultEvent up = link_event(chaos::FaultKind::LinkUp, links[k]);
    (void)mutator.apply_event(down);
    const bool moves = serve::build_snapshot(laboratory, handle, 1, 0).fingerprint != base;
    (void)mutator.apply_event(up);
    if (moves) plan.events.insert(plan.events.end(), {down, up});
  }
  return plan;
}

void BM_ServeRefreshLinkFlap(benchmark::State& state) {
  auto laboratory = lab::Lab::create(bench_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  const serve::ServeConfig cfg = refresh_bench_config(moving_flaps(laboratory, im6, 8));
  if (cfg.world_plan.events.empty()) {
    state.SkipWithError("no transit link moves a catchment");
    return;
  }
  std::unique_ptr<serve::Server> server;
  std::uint64_t now = 0;
  for (auto _ : state) {
    if (server == nullptr || server->stats().world_events_applied == cfg.world_plan.events.size()) {
      // The plan ran out and left the lab as it found it: a new server
      // replays it from a full first build, off the clock.
      state.PauseTiming();
      server = std::make_unique<serve::Server>(laboratory, im6, cfg);
      now = 0;
      const bool first = server->tick(now).has_value();
      state.ResumeTiming();
      if (!first) {
        state.SkipWithError("first epoch failed to publish");
        return;
      }
    }
    const auto ticked = server->tick(++now);  // a patch across one link event
    benchmark::DoNotOptimize(ticked);
  }
  state.counters["plan_events"] = static_cast<double>(cfg.world_plan.events.size());
}
BENCHMARK(BM_ServeRefreshLinkFlap)->Unit(benchmark::kMillisecond);

/// Drive the query path with virtual arrivals every `arrival_ns`. 2x
/// overload = arrivals twice as dense as the modeled service rate.
void query_bench(benchmark::State& state, bool shedding, std::uint64_t arrival_ns,
                 std::uint64_t budget_us = kBudgetUs) {
  auto laboratory = lab::Lab::create(bench_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  serve::Server server(laboratory, im6, query_bench_config(shedding));
  if (!server.tick(1'000)) {
    state.SkipWithError("first epoch failed to publish");
    return;
  }

  std::uint64_t now = 1'000'000;
  std::uint64_t client = 0;
  for (auto _ : state) {
    const auto r = server.query(client, now, budget_us);
    benchmark::DoNotOptimize(r.status);
    now += arrival_ns;
    ++client;
  }

  const serve::ServeStats stats = server.stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(stats.queries));
  state.counters["served_p50_us"] =
      static_cast<double>(server.latency().quantile_us(0.50));
  state.counters["served_p99_us"] =
      static_cast<double>(server.latency().quantile_us(0.99));
  state.counters["shed_share"] =
      stats.queries == 0
          ? 0.0
          : static_cast<double>(stats.shed_queue + stats.shed_deadline +
                                stats.shed_rate) /
                static_cast<double>(stats.queries);
}

void BM_ServeQuery(benchmark::State& state) {
  // Arrivals exactly at the service rate: the queue stays empty.
  query_bench(state, /*shedding=*/true, kServiceNs);
}
BENCHMARK(BM_ServeQuery)->Unit(benchmark::kMicrosecond);

void BM_ServeQueryOverloaded2x(benchmark::State& state) {
  // 2x overload, shedder on: the backlog is capped, served p99 holds the
  // deadline budget, the excess shows up in shed_share (~1/2).
  query_bench(state, /*shedding=*/true, kServiceNs / 2);
}
BENCHMARK(BM_ServeQueryOverloaded2x)->Unit(benchmark::kMicrosecond);

void BM_ServeQueryOverloaded2xNoShed(benchmark::State& state) {
  // The control: same 2x overload with shedding effectively off (unbounded
  // queue, unbounded budget). Every arrival is admitted, the modeled
  // backlog grows without bound, and the exported served p99 blows through
  // the 2ms budget — which is why admission control earns its keep.
  query_bench(state, /*shedding=*/false, kServiceNs / 2,
              /*budget_us=*/1'000'000'000);
}
BENCHMARK(BM_ServeQueryOverloaded2xNoShed)->Unit(benchmark::kMicrosecond);

}  // namespace
