// The measurement plane reads a probe's RTT straight from a routing
// outcome's compact entry and path arena (RoutingOutcome::path_rtt) and its
// catching site from catchment(), never from a materialized Route. Every
// report and golden digest rests on the compact reads agreeing with the
// Route form bit for bit, so this file compares them for every AS × region
// of imperva6 and edgio3, at two seeds, several client cities and access
// extras: after a full solve, after a chain of delta splices (whose shared
// arenas carry garbage nodes), for paths longer than the stack hop buffer,
// and with pool workers mixing both reads on one outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/geo/gazetteer.hpp"
#include "ranycast/lab/lab.hpp"

namespace ranycast::bgp {
namespace {

std::uint64_t bits(Rtt r) { return std::bit_cast<std::uint64_t>(r.ms); }

CityId city(const char* iata) { return *geo::Gazetteer::world().find_by_iata(iata); }

constexpr double kAccessExtras[] = {0.0, 0.35, 7.5};

/// Clients on four continents, plus (per AS) the AS's own home city.
std::vector<CityId> fixed_cities() {
  return {city("AMS"), city("IAD"), city("SIN"), city("GRU")};
}

/// Both reads of every AS of one outcome must agree: catchment() with
/// route_for()'s origin site (nullopt exactly when route_for is null), and
/// path_rtt() with LatencyModel::path_rtt over the materialized Route, in
/// the IEEE bits. The compact reads run first, on a cold Route cache.
void expect_compact_reads_match(const topo::Graph& graph, const RoutingOutcome& outcome,
                                const LatencyModel& latency, const std::string& what) {
  std::size_t reachable = 0;
  for (const topo::AsNode& node : graph.nodes()) {
    std::vector<CityId> cities = fixed_cities();
    cities.push_back(node.home_city);
    std::vector<std::optional<Rtt>> compact;
    for (CityId c : cities) {
      for (double extra : kAccessExtras) {
        compact.push_back(outcome.path_rtt(node.asn, c, latency, extra));
      }
    }
    const auto site = outcome.catchment(node.asn);
    const Route* route = outcome.route_for(node.asn);
    ASSERT_EQ(site.has_value(), route != nullptr) << what << ": AS" << value(node.asn);
    if (route == nullptr) {
      for (const auto& rtt : compact) EXPECT_FALSE(rtt.has_value()) << what;
      continue;
    }
    ++reachable;
    EXPECT_EQ(*site, route->origin_site) << what << ": AS" << value(node.asn);
    std::size_t k = 0;
    for (CityId c : cities) {
      for (double extra : kAccessExtras) {
        const std::optional<Rtt>& got = compact[k++];
        ASSERT_TRUE(got.has_value()) << what << ": AS" << value(node.asn);
        EXPECT_EQ(bits(*got), bits(latency.path_rtt(*route, c, node.asn, extra)))
            << what << ": AS" << value(node.asn) << " client city " << value(c) << " extra "
            << extra;
      }
    }
  }
  EXPECT_GT(reachable, graph.nodes().size() / 2) << what;
}

lab::LabConfig tiny_config(std::uint64_t seed) {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 800;
  config.seed = seed;
  return config;
}

cdn::DeploymentSpec spec_named(const std::string& name) {
  return name == "imperva6" ? cdn::catalog::imperva6() : cdn::catalog::edgio3();
}

class CompactRtt : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string>> {};

TEST_P(CompactRtt, MatchesMaterializedAfterFullSolve) {
  const auto [seed, name] = GetParam();
  auto laboratory = lab::Lab::create(tiny_config(seed));
  const auto& handle = laboratory.add_deployment(spec_named(name));
  ASSERT_GE(handle.outcomes.size(), 3u);
  for (std::size_t r = 0; r < handle.outcomes.size(); ++r) {
    expect_compact_reads_match(laboratory.world().graph, handle.outcomes[r],
                               laboratory.latency(),
                               name + " region " + std::to_string(r));
    if (HasFatalFailure()) return;
  }
}

TEST_P(CompactRtt, MatchesMaterializedAfterDeltaSpliceChain) {
  const auto [seed, name] = GetParam();
  auto laboratory = lab::Lab::create(tiny_config(seed));
  lab::DeploymentHandle& handle =
      *laboratory.handle_mut(laboratory.add_deployment(spec_named(name)));
  topo::Graph& graph = laboratory.graph_mut();

  // Flap the provider links of the site attachment neighbors, as a link
  // flap storm would: each toggle splices only the affected entries into
  // the shared arena and leaves the replaced paths behind as garbage.
  std::vector<std::pair<Asn, Asn>> links;
  for (std::size_t r = 0; r < handle.deployment.regions().size(); ++r) {
    for (const OriginAttachment& o : handle.deployment.origins_for_region(r)) {
      for (const topo::Edge& e : graph.find(o.neighbor)->edges) {
        const std::pair<Asn, Asn> link{o.neighbor, e.neighbor};
        if (e.rel == topo::Rel::Provider &&
            std::find(links.begin(), links.end(), link) == links.end()) {
          links.push_back(link);
        }
      }
    }
  }
  ASSERT_GE(links.size(), 4u);

  std::size_t spliced = 0;
  constexpr int kSteps = 24;
  for (int step = 0; step < kSteps; ++step) {
    // Down, then back up two steps later, so links overlap in the down state.
    const bool up = step % 4 >= 2;
    const auto& [a, b] = links[(step / 4 * 2 + step % 2) % links.size()];
    ASSERT_TRUE(graph.set_link_state(a, b, up));
    SolveDelta delta;
    delta.links.push_back(LinkDelta{a, b, up});
    const DeltaStats stats = laboratory.resolve_delta(handle, delta);
    spliced += stats.delta_regions;
    if (step % 3 != 2) continue;
    for (std::size_t r = 0; r < handle.outcomes.size(); ++r) {
      expect_compact_reads_match(graph, handle.outcomes[r], laboratory.latency(),
                                 name + " step " + std::to_string(step) + " region " +
                                     std::to_string(r));
      if (HasFatalFailure()) return;
    }
  }
  // Splices, not fallbacks: after the priming step, every region's arena
  // went through at least 20 incremental resolves.
  EXPECT_GE(spliced, 20 * handle.outcomes.size());
}

INSTANTIATE_TEST_SUITE_P(
    DeploymentsAndSeeds, CompactRtt,
    ::testing::Combine(::testing::Values(std::uint64_t{2023}, std::uint64_t{7}),
                       ::testing::Values(std::string("imperva6"), std::string("edgio3"))),
    [](const auto& info) {
      return std::get<1>(info.param) + "_seed" + std::to_string(std::get<0>(info.param));
    });

TEST(CompactRttLongPath, FallbackBeyondHopBufferIsBitExact) {
  // One chain of hops, far longer than any real AS path: every node along
  // it ends a path, so the lengths cross the stack buffer's boundary.
  const CityId hop_cities[] = {city("FRA"), city("LHR"), city("JFK"), city("NRT"), city("SYD")};
  PathArena arena;
  std::uint32_t node = PathArena::kNone;
  std::vector<std::uint32_t> ends;
  for (std::uint32_t i = 0; i < 3 * LatencyModel::kHopBuffer; ++i) {
    node = arena.append(node, make_asn(100 + i), hop_cities[(i * 3) % std::size(hop_cities)]);
    ends.push_back(node);
  }
  const LatencyModel latency;
  const SiteId site{2};
  for (std::uint32_t end : ends) {
    Route route;
    route.origin_site = site;
    arena.materialize(end, route.as_path, route.geo_path);
    for (double extra : kAccessExtras) {
      EXPECT_EQ(bits(latency.path_rtt(arena, end, site, city("AMS"), make_asn(7), extra)),
                bits(latency.path_rtt(route, city("AMS"), make_asn(7), extra)))
          << "path length " << route.path_length();
    }
  }
}

TEST(CompactRttConcurrent, PoolWorkersMixRouteForAndCompactReads) {
  auto laboratory = lab::Lab::create(tiny_config(2023));
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  const topo::Graph& graph = laboratory.world().graph;
  const auto nodes = graph.nodes();
  const LatencyModel& latency = laboratory.latency();
  const CityId client = city("AMS");
  const std::size_t region = 0;
  const auto origins = handle.deployment.origins_for_region(region);

  // A fresh outcome (cold Route cache) shared by every worker, and the
  // serial answers from an independent solve of the same prefix.
  const RoutingOutcome shared =
      laboratory.solve_origins(handle.deployment.asn(), origins, region);
  const RoutingOutcome reference =
      laboratory.solve_origins(handle.deployment.asn(), origins, region);
  std::vector<std::optional<Rtt>> want(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (const Route* r = reference.route_for(nodes[i].asn)) {
      want[i] = latency.path_rtt(*r, client, nodes[i].asn);
    }
  }

  // Four rounds over every AS, so each AS is read by several workers; the
  // order of the two reads alternates per item and per round, so
  // materialization races compact reads of the same entry.
  constexpr std::size_t kRounds = 4;
  std::vector<std::optional<Rtt>> compact(kRounds * nodes.size());
  std::vector<std::optional<Rtt>> materialized(kRounds * nodes.size());
  std::vector<std::optional<SiteId>> sites(kRounds * nodes.size());
  exec::ThreadPool pool(4);
  pool.parallel_for(compact.size(), [&](std::size_t k) {
    const topo::AsNode& node = nodes[k % nodes.size()];
    auto read_route = [&] {
      if (const Route* r = shared.route_for(node.asn)) {
        materialized[k] = latency.path_rtt(*r, client, node.asn);
      }
    };
    const bool route_first = (k + k / nodes.size()) % 2 == 0;
    if (route_first) read_route();
    compact[k] = shared.path_rtt(node.asn, client, latency);
    sites[k] = shared.catchment(node.asn);
    if (!route_first) read_route();
  });

  for (std::size_t k = 0; k < compact.size(); ++k) {
    const std::size_t i = k % nodes.size();
    ASSERT_EQ(compact[k].has_value(), want[i].has_value()) << "AS" << value(nodes[i].asn);
    ASSERT_EQ(materialized[k].has_value(), want[i].has_value()) << "AS" << value(nodes[i].asn);
    ASSERT_EQ(sites[k], reference.catchment(nodes[i].asn)) << "AS" << value(nodes[i].asn);
    if (!want[i]) continue;
    EXPECT_EQ(bits(*compact[k]), bits(*want[i])) << "AS" << value(nodes[i].asn);
    EXPECT_EQ(bits(*materialized[k]), bits(*want[i])) << "AS" << value(nodes[i].asn);
  }
}

}  // namespace
}  // namespace ranycast::bgp
