// Cross-module invariants checked over several generated worlds — the
// properties every experiment silently relies on.
#include <gtest/gtest.h>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/geo/earth.hpp"
#include "ranycast/lab/lab.hpp"

namespace ranycast {
namespace {

struct WorldCase {
  std::uint64_t seed;
  int stubs;
  int probes;
};

class WorldInvariants : public ::testing::TestWithParam<WorldCase> {
 protected:
  static lab::Lab make_lab(const WorldCase& c) {
    lab::LabConfig config;
    config.seed = c.seed;
    config.world.seed = c.seed;
    config.world.stub_count = c.stubs;
    config.census.total_probes = c.probes;
    return lab::Lab::create(config);
  }
};

TEST_P(WorldInvariants, AsnsNumberTheNodesInOrder) {
  // Graph::index_of is `value(asn) - 1`: it rests on this.
  const auto laboratory = make_lab(GetParam());
  const topo::Graph& graph = laboratory.world().graph;
  ASSERT_FALSE(graph.nodes().empty());
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    ASSERT_EQ(graph.nodes()[i].asn, make_asn(static_cast<std::uint32_t>(i + 1))) << i;
    ASSERT_EQ(graph.index_of(graph.nodes()[i].asn), i);
  }
}

TEST_P(WorldInvariants, CatchmentSitesAnnounceTheTracedPrefix) {
  auto laboratory = make_lab(GetParam());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  for (std::size_t r = 0; r < im6.deployment.regions().size(); ++r) {
    const Ipv4Addr ip = im6.deployment.regions()[r].service_ip;
    for (const atlas::Probe* p : laboratory.census().retained()) {
      const auto site = laboratory.catchment_of(*p, ip);
      if (!site) continue;
      ASSERT_TRUE(im6.deployment.site(*site).announces(r));
    }
  }
}

TEST_P(WorldInvariants, RouteVectorsStayParallel) {
  auto laboratory = make_lab(GetParam());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  for (const atlas::Probe* p : laboratory.census().retained()) {
    for (std::size_t r = 0; r < im6.deployment.regions().size(); ++r) {
      const bgp::Route* route = im6.route_for(p->asn, r);
      if (route == nullptr) continue;
      ASSERT_EQ(route->as_path.size(), route->geo_path.size());
      ASSERT_FALSE(route->as_path.empty());
      EXPECT_EQ(route->as_path.front(), im6.deployment.asn());
    }
  }
}

TEST_P(WorldInvariants, PingRespectsSpeedOfLightToCatchment) {
  auto laboratory = make_lab(GetParam());
  const auto& gaz = geo::Gazetteer::world();
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  for (const atlas::Probe* p : laboratory.census().retained()) {
    const auto answer = laboratory.dns_lookup(*p, im6, dns::QueryMode::Ldns);
    const auto rtt = laboratory.ping(*p, answer.address);
    const auto site = laboratory.catchment_of(*p, answer.address);
    if (!rtt || !site) continue;
    const Km direct = gaz.distance(p->city, im6.deployment.site(*site).city);
    ASSERT_GE(rtt->ms + 1e-9, geo::rtt_lower_bound(direct).ms)
        << "RTT below the speed-of-light bound";
  }
}

TEST_P(WorldInvariants, TracerouteHopOwnersFollowAsPath) {
  auto laboratory = make_lab(GetParam());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  std::size_t checked = 0;
  for (const atlas::Probe* p : laboratory.census().retained()) {
    const auto answer = laboratory.dns_lookup(*p, im6, dns::QueryMode::Ldns);
    const auto trace = laboratory.traceroute(*p, answer.address);
    const bgp::Route* route = im6.route_for(p->asn, answer.region);
    if (!trace || route == nullptr) continue;
    // First hop belongs to the probe's AS; the intermediate hops follow the
    // reversed AS path.
    ASSERT_GE(trace->hops.size(), 2u);
    EXPECT_EQ(trace->hops[0].owner, p->asn);
    for (std::size_t h = 1; h + 1 < trace->hops.size(); ++h) {
      EXPECT_EQ(trace->hops[h].owner, route->as_path[route->as_path.size() - h]);
    }
    if (++checked == 200) break;  // bounded per world
  }
  EXPECT_GT(checked, 50u);
}

TEST_P(WorldInvariants, DnsAnswersAreAlwaysValidRegions) {
  auto laboratory = make_lab(GetParam());
  const auto& eg4 = laboratory.add_deployment(cdn::catalog::edgio4());
  for (const atlas::Probe* p : laboratory.census().retained()) {
    for (const auto mode : {dns::QueryMode::Ldns, dns::QueryMode::Adns}) {
      const auto answer = laboratory.dns_lookup(*p, eg4, mode);
      ASSERT_LT(answer.region, eg4.deployment.regions().size());
      ASSERT_TRUE(eg4.deployment.regions()[answer.region].prefix.contains(answer.address));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, WorldInvariants,
                         ::testing::Values(WorldCase{1, 500, 1200}, WorldCase{7, 800, 2000},
                                           WorldCase{123, 600, 1500}));

}  // namespace
}  // namespace ranycast
