#include "ranycast/bgp/path_metrics.hpp"

#include <gtest/gtest.h>

#include "ranycast/geo/gazetteer.hpp"

namespace ranycast::bgp {
namespace {

CityId city(const char* iata) { return *geo::Gazetteer::world().find_by_iata(iata); }

Route make_route(std::vector<Asn> path, std::vector<CityId> geo) {
  Route r;
  r.origin_site = SiteId{0};
  r.origin_asn = make_asn(65000);
  r.cls = RouteClass::Customer;
  r.as_path = std::move(path);
  r.geo_path = std::move(geo);
  return r;
}

TEST(LatencyModel, PathDistanceSumsSegments) {
  const LatencyModel m;
  // Client in AMS, route geo path: site LHR, interconnect FRA.
  // Data path: AMS -> FRA -> LHR.
  const Route r = make_route({make_asn(65000), make_asn(1)}, {city("LHR"), city("FRA")});
  const auto& gaz = geo::Gazetteer::world();
  const double expected =
      gaz.distance(city("AMS"), city("FRA")).km + gaz.distance(city("FRA"), city("LHR")).km;
  EXPECT_NEAR(m.path_distance(r, city("AMS")).km, expected, 1e-6);
}

TEST(LatencyModel, RttScalesWithDistance) {
  const LatencyModel m;
  const Route near = make_route({make_asn(65000)}, {city("AMS")});
  const Route far = make_route({make_asn(65000)}, {city("SYD")});
  const Rtt near_rtt = m.path_rtt(near, city("LHR"), make_asn(100));
  const Rtt far_rtt = m.path_rtt(far, city("LHR"), make_asn(100));
  EXPECT_LT(near_rtt.ms, 15.0);
  EXPECT_GT(far_rtt.ms, 150.0);
}

TEST(LatencyModel, RttIncludesAccessExtra) {
  const LatencyModel m;
  const Route r = make_route({make_asn(65000)}, {city("AMS")});
  const Rtt base = m.path_rtt(r, city("AMS"), make_asn(100), 0.0);
  const Rtt extra = m.path_rtt(r, city("AMS"), make_asn(100), 7.5);
  EXPECT_NEAR(extra.ms - base.ms, 7.5, 1e-9);
}

TEST(LatencyModel, RttDeterministicPerClientAndPath) {
  const LatencyModel m;
  const Route r = make_route({make_asn(65000), make_asn(1)}, {city("LHR"), city("FRA")});
  EXPECT_EQ(m.path_rtt(r, city("AMS"), make_asn(100)).ms,
            m.path_rtt(r, city("AMS"), make_asn(100)).ms);
  // Different clients see different jitter.
  EXPECT_NE(m.path_rtt(r, city("AMS"), make_asn(100)).ms,
            m.path_rtt(r, city("AMS"), make_asn(101)).ms);
}

TEST(LatencyModel, RttLowerBoundedBySpeedOfLight) {
  const LatencyModel m;
  const Route r = make_route({make_asn(65000)}, {city("SYD")});
  const double geo_ms = geo::rtt_lower_bound(m.path_distance(r, city("LHR"))).ms;
  EXPECT_GE(m.path_rtt(r, city("LHR"), make_asn(1)).ms, geo_ms);
}

class TracerouteTest : public ::testing::Test {
 protected:
  topo::IpRegistry registry_;
  LatencyModel latency_;
  const Ipv4Addr dest_{Ipv4Addr(198, 18, 0, 1)};
};

TEST_F(TracerouteTest, HopStructureOnsiteRouter) {
  // Route: client AS 50 in AMS; path [cdn, A1=10, A2=20]; geo [LHR, FRA, BRU].
  const Route r = make_route({make_asn(65000), make_asn(10), make_asn(20)},
                             {city("LHR"), city("FRA"), city("BRU")});
  const auto t = synth_traceroute(r, city("AMS"), make_asn(50), 0.0, true, dest_, latency_,
                                  registry_);
  // hops: client router, A2@BRU, A1@FRA, p-hop (CDN @ LHR).
  ASSERT_EQ(t.hops.size(), 4u);
  EXPECT_EQ(t.hops[0].owner, make_asn(50));
  EXPECT_EQ(t.hops[1].owner, make_asn(20));
  EXPECT_EQ(t.hops[1].city, city("BRU"));
  EXPECT_EQ(t.hops[2].owner, make_asn(10));
  EXPECT_EQ(t.hops[2].city, city("FRA"));
  EXPECT_EQ(t.phop().owner, make_asn(65000));  // CDN's on-site router
  EXPECT_EQ(t.phop().city, city("LHR"));
  EXPECT_TRUE(t.phop_valid);
}

TEST_F(TracerouteTest, HopStructureOffsiteRouter) {
  const Route r = make_route({make_asn(65000), make_asn(10)}, {city("LHR"), city("FRA")});
  const auto t = synth_traceroute(r, city("AMS"), make_asn(50), 0.0, false, dest_, latency_,
                                  registry_);
  // p-hop belongs to the first-hop neighbor (AS 10) at the site city.
  EXPECT_EQ(t.phop().owner, make_asn(10));
  EXPECT_EQ(t.phop().city, city("LHR"));
}

TEST_F(TracerouteTest, HopRttsAreMonotonicallyNondecreasingInDistance) {
  const Route r = make_route({make_asn(65000), make_asn(10), make_asn(20)},
                             {city("SIN"), city("DXB"), city("FRA")});
  const auto t = synth_traceroute(r, city("AMS"), make_asn(50), 0.0, true, dest_, latency_,
                                  registry_);
  for (std::size_t i = 1; i < t.hops.size(); ++i) {
    EXPECT_GE(t.hops[i].rtt.ms, t.hops[i - 1].rtt.ms);
  }
  EXPECT_GT(t.rtt.ms, 0.0);
}

TEST_F(TracerouteTest, PhopLossIsDeterministic) {
  const Route r = make_route({make_asn(65000), make_asn(10)}, {city("LHR"), city("FRA")});
  const auto t1 = synth_traceroute(r, city("AMS"), make_asn(50), 0.0, true, dest_, latency_,
                                   registry_);
  const auto t2 = synth_traceroute(r, city("AMS"), make_asn(50), 0.0, true, dest_, latency_,
                                   registry_);
  EXPECT_EQ(t1.phop_valid, t2.phop_valid);
}

TEST_F(TracerouteTest, PhopLossRateApproximatesConfig) {
  // The p-hop of 5% of (client, route) pairs does not respond.
  const Route base = make_route({make_asn(65000), make_asn(10)}, {city("LHR"), city("FRA")});
  int lost = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto t = synth_traceroute(base, city("AMS"), make_asn(static_cast<std::uint32_t>(i + 1)),
                                    0.0, true, dest_, latency_, registry_);
    if (!t.phop_valid) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.05, 0.02);
}

TEST_F(TracerouteTest, DirectNeighborClientHasMinimalPath) {
  // Client AS is the attachment neighbor itself: as_path == [cdn].
  const Route r = make_route({make_asn(65000)}, {city("LHR")});
  const auto t = synth_traceroute(r, city("LHR"), make_asn(50), 0.0, true, dest_, latency_,
                                  registry_);
  ASSERT_EQ(t.hops.size(), 2u);  // client router + p-hop
  EXPECT_EQ(t.phop().owner, make_asn(65000));
}

}  // namespace
}  // namespace ranycast::bgp
