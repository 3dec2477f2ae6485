// Engine micro/macro benchmarks (google-benchmark): world generation, BGP
// anycast solving, end-to-end measurement throughput (DNS lookups, pings,
// traceroutes), K-Means, and the geolocation pipeline's building blocks.
#include <benchmark/benchmark.h>

#include "ranycast/atlas/grouping.hpp"
#include "ranycast/cdn/catalog.hpp"
#include "ranycast/bgpdata/rib_snapshot.hpp"
#include "ranycast/geoloc/igreedy.hpp"
#include "ranycast/geoloc/rdns.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/partition/kmeans.hpp"

using namespace ranycast;

namespace {

void BM_WorldGeneration(benchmark::State& state) {
  topo::GeneratorParams params;
  params.stub_count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto world = topo::generate_world(params);
    benchmark::DoNotOptimize(world.graph.edge_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WorldGeneration)->Arg(500)->Arg(2600)->Unit(benchmark::kMillisecond);

void BM_AnycastSolve(benchmark::State& state) {
  auto laboratory = lab::Lab::create({});
  const auto spec = cdn::catalog::imperva6();
  const auto dep = cdn::build_deployment(spec, laboratory.world(), laboratory.registry());
  const auto origins = dep.origins_for_region(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto outcome = laboratory.solve_origins(dep.asn(), origins);
    benchmark::DoNotOptimize(outcome.reachable_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(laboratory.world().graph.nodes().size()));
}
BENCHMARK(BM_AnycastSolve)->Arg(1)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_PingAllProbes(benchmark::State& state) {
  auto laboratory = lab::Lab::create({});
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  const auto retained = laboratory.census().retained();
  const Ipv4Addr ip = handle.deployment.regions()[0].service_ip;
  for (auto _ : state) {
    double total = 0.0;
    const auto rtts = laboratory.ping_all(retained, ip);
    for (const auto& rtt : rtts) {
      if (rtt) total += rtt->ms;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(retained.size()));
}
BENCHMARK(BM_PingAllProbes)->Unit(benchmark::kMillisecond);

void BM_DnsLookupAllProbes(benchmark::State& state) {
  auto laboratory = lab::Lab::create({});
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  const auto retained = laboratory.census().retained();
  const auto mode = state.range(0) == 0 ? dns::QueryMode::Ldns : dns::QueryMode::Adns;
  for (auto _ : state) {
    std::size_t regions = 0;
    for (const auto& answer : laboratory.dns_lookup_all(retained, handle, mode)) {
      regions += answer.region;
    }
    benchmark::DoNotOptimize(regions);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(retained.size()));
}
// Argument 0: LDNS mode; 1: ADNS mode.
BENCHMARK(BM_DnsLookupAllProbes)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TracerouteAllProbes(benchmark::State& state) {
  auto laboratory = lab::Lab::create({});
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  const auto retained = laboratory.census().retained();
  const Ipv4Addr ip = handle.deployment.regions()[0].service_ip;
  for (auto _ : state) {
    std::size_t hops = 0;
    const auto traces = laboratory.traceroute_all(retained, ip);
    for (const auto& t : traces) {
      if (t) hops += t->hops.size();
    }
    benchmark::DoNotOptimize(hops);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(retained.size()));
}
BENCHMARK(BM_TracerouteAllProbes)->Unit(benchmark::kMillisecond);

void BM_ProbeGrouping(benchmark::State& state) {
  auto laboratory = lab::Lab::create({});
  const auto retained = laboratory.census().retained();
  for (auto _ : state) {
    auto groups = atlas::group_probes(retained);
    benchmark::DoNotOptimize(groups.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(retained.size()));
}
BENCHMARK(BM_ProbeGrouping)->Unit(benchmark::kMillisecond);

void BM_KMeans(benchmark::State& state) {
  const auto& gaz = geo::Gazetteer::world();
  std::vector<geo::GeoPoint> points;
  for (const auto& city : gaz.cities()) points.push_back(city.location);
  for (auto _ : state) {
    auto result = partition::kmeans(points, static_cast<int>(state.range(0)), {});
    benchmark::DoNotOptimize(result.inertia_km2);
  }
}
BENCHMARK(BM_KMeans)->Arg(3)->Arg(6)->Unit(benchmark::kMicrosecond);

void BM_PrefixTrieLookup(benchmark::State& state) {
  // pyasn-style LPM over a full-world RIB.
  auto laboratory = lab::Lab::create({});
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  const cdn::Deployment* deps[] = {&handle.deployment};
  const auto snapshot =
      bgpdata::RibSnapshot::build(laboratory.world(), laboratory.registry(), deps);
  std::vector<Ipv4Addr> queries;
  for (const atlas::Probe& p : laboratory.census().probes()) queries.push_back(p.ip);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot.ip_to_asn(queries[i++ % queries.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefixTrieLookup);

void BM_JsonRoundTrip(benchmark::State& state) {
  const auto doc = io::to_json(lab::LabConfig{}).dump(2);
  for (auto _ : state) {
    auto parsed = io::parse_json_or_throw(doc);
    benchmark::DoNotOptimize(parsed.dump().size());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(doc.size()));
}
BENCHMARK(BM_JsonRoundTrip);

void BM_Igreedy(benchmark::State& state) {
  auto laboratory = lab::Lab::create({});
  const auto& ns = laboratory.add_deployment(cdn::catalog::imperva_ns());
  std::vector<geoloc::IgreedyMeasurement> measurements;
  for (const atlas::Probe* p : laboratory.census().retained()) {
    const auto rtt = laboratory.ping(*p, ns.deployment.regions()[0].service_ip);
    if (rtt) measurements.push_back({p->reported_city, rtt->ms});
  }
  for (auto _ : state) {
    auto result = geoloc::igreedy(measurements);
    benchmark::DoNotOptimize(result.instance_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(measurements.size()));
}
BENCHMARK(BM_Igreedy)->Unit(benchmark::kMillisecond);

void BM_RdnsParse(benchmark::State& state) {
  const std::string name = "ae-65.core1.ams.as3356.example.net";
  for (auto _ : state) {
    auto hint = geoloc::parse_geo_hint(name);
    benchmark::DoNotOptimize(hint.kind);
  }
}
BENCHMARK(BM_RdnsParse);

}  // namespace
