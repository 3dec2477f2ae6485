// Convergence-plane performance benchmarks (google-benchmark): cold-starting
// one regional prefix's event-driven simulator, a withdraw/restore transient
// pair from the quiesced state, and a full deployment-wide plane step. The
// JSON baseline lives in bench/BENCH_perf_convergence.json and CI gates on
// these counters via tools/check_bench_regression.py --require.
#include <benchmark/benchmark.h>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/converge/plane.hpp"
#include "ranycast/converge/sim.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/lab/lab.hpp"

using namespace ranycast;

namespace {

lab::LabConfig bench_config() {
  lab::LabConfig config;
  config.world.stub_count = 1200;
  config.census.total_probes = 5000;
  return config;
}

void BM_ConvergeColdStart(benchmark::State& state) {
  auto laboratory = lab::Lab::create(bench_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  const auto origins = im6.deployment.origins_for_region(0);
  converge::PrefixSim sim(laboratory.world().graph, im6.deployment.asn(),
                          hash_combine(laboratory.config().seed, 0), converge::Config{});
  for (auto _ : state) {
    const auto t = sim.cold_start(origins);
    benchmark::DoNotOptimize(t.events);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sim.node_count()));
}
BENCHMARK(BM_ConvergeColdStart)->Unit(benchmark::kMillisecond);

void BM_ConvergeWithdrawRestore(benchmark::State& state) {
  auto laboratory = lab::Lab::create(bench_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  const auto origins = im6.deployment.origins_for_region(0);
  converge::PrefixSim sim(laboratory.world().graph, im6.deployment.asn(),
                          hash_combine(laboratory.config().seed, 0), converge::Config{});
  sim.cold_start(origins);
  const bgp::OriginChange withdraw{false, origins[0]};
  const bgp::OriginChange restore{true, origins[0]};
  for (auto _ : state) {
    // The pair returns the sim to its initial quiesced state, so every
    // iteration runs the identical two transients.
    const auto w = sim.run_step({&withdraw, 1});
    const auto r = sim.run_step({&restore, 1});
    benchmark::DoNotOptimize(w.events + r.events);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sim.node_count()));
}
BENCHMARK(BM_ConvergeWithdrawRestore)->Unit(benchmark::kMillisecond);

void BM_ConvergePlaneStep(benchmark::State& state) {
  // Deployment-wide: every regional prefix steps concurrently, plus the
  // differential check against the steady solver and the probe rollup.
  auto laboratory = lab::Lab::create(bench_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  converge::Plane plane(laboratory, im6, converge::Config{});
  plane.rebuild();

  std::vector<converge::ProbeRef> probes;
  for (const atlas::Probe* p : laboratory.census().retained()) {
    const auto answer = laboratory.dns_lookup(*p, im6, dns::QueryMode::Ldns);
    probes.push_back({p->asn, answer.region});
  }
  const auto origins = im6.deployment.origins_for_region(0);
  std::vector<std::vector<bgp::OriginChange>> withdraw(plane.region_count());
  std::vector<std::vector<bgp::OriginChange>> restore(plane.region_count());
  withdraw[0].push_back({false, origins[0]});
  restore[0].push_back({true, origins[0]});
  for (auto _ : state) {
    const auto w = plane.step(0, "withdraw", withdraw, probes);
    const auto r = plane.step(1, "restore", restore, probes);
    benchmark::DoNotOptimize(w.probes + r.probes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(probes.size()));
}
BENCHMARK(BM_ConvergePlaneStep)->Unit(benchmark::kMillisecond);

}  // namespace
