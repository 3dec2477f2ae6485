#include "ranycast/cdn/deployment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ranycast::cdn {
namespace {

CityId city(const char* iata) { return *geo::Gazetteer::world().find_by_iata(iata); }

Deployment make_two_region() {
  Deployment d{"test", make_asn(65000)};
  d.add_region(Region{"west", Prefix{Ipv4Addr(198, 18, 0, 0), 24}, Ipv4Addr(198, 18, 0, 1)});
  d.add_region(Region{"east", Prefix{Ipv4Addr(198, 18, 1, 0), 24}, Ipv4Addr(198, 18, 1, 1)});
  Site s1;
  s1.city = city("IAD");
  s1.regions = {0};
  s1.attachments = {{make_asn(10), topo::Rel::Customer}};
  d.add_site(std::move(s1));
  Site s2;
  s2.city = city("FRA");
  s2.regions = {0, 1};  // mixed
  s2.attachments = {{make_asn(20), topo::Rel::Customer},
                    {make_asn(21), topo::Rel::PeerRouteServer}};
  d.add_site(std::move(s2));
  d.set_area_region(geo::Area::NA, 0);
  d.set_area_region(geo::Area::EMEA, 1);
  d.set_area_region(geo::Area::LatAm, 0);
  d.set_area_region(geo::Area::APAC, 1);
  d.set_country_region("RU", 0);
  return d;
}

TEST(Deployment, SiteIdsAreSequential) {
  const Deployment d = make_two_region();
  ASSERT_EQ(d.sites().size(), 2u);
  EXPECT_EQ(d.sites()[0].id, SiteId{0});
  EXPECT_EQ(d.sites()[1].id, SiteId{1});
}

TEST(Deployment, MixedSiteDetection) {
  const Deployment d = make_two_region();
  EXPECT_FALSE(d.sites()[0].mixed());
  EXPECT_TRUE(d.sites()[1].mixed());
  EXPECT_TRUE(d.sites()[1].announces(0));
  EXPECT_TRUE(d.sites()[1].announces(1));
  EXPECT_FALSE(d.sites()[0].announces(1));
}

TEST(Deployment, RegionOfIp) {
  const Deployment d = make_two_region();
  EXPECT_EQ(d.region_of_ip(Ipv4Addr(198, 18, 0, 1)), 0u);
  EXPECT_EQ(d.region_of_ip(Ipv4Addr(198, 18, 1, 200)), 1u);
  EXPECT_FALSE(d.region_of_ip(Ipv4Addr(10, 0, 0, 1)).has_value());
}

TEST(Deployment, OriginsForRegionExpandAttachments) {
  const Deployment d = make_two_region();
  const auto origins0 = d.origins_for_region(0);
  // Site 0 (1 attachment) + site 1 (2 attachments).
  ASSERT_EQ(origins0.size(), 3u);
  const auto origins1 = d.origins_for_region(1);
  ASSERT_EQ(origins1.size(), 2u);  // only the mixed FRA site
  EXPECT_EQ(origins1[0].site, SiteId{1});
  EXPECT_EQ(origins1[0].site_city, city("FRA"));
  EXPECT_EQ(origins1[1].neighbor_rel, topo::Rel::PeerRouteServer);
}

TEST(Deployment, IntendedRegionFollowsPolicy) {
  const Deployment d = make_two_region();
  EXPECT_EQ(d.intended_region(city("JFK")), 0u);   // NA default
  EXPECT_EQ(d.intended_region(city("CDG")), 1u);   // EMEA default
  EXPECT_EQ(d.intended_region(city("SVO")), 0u);   // RU override
  EXPECT_EQ(d.intended_region(city("GRU")), 0u);   // LatAm default
  EXPECT_EQ(d.intended_region(city("SYD")), 1u);   // APAC default
}

TEST(Deployment, GlobalDeploymentAlwaysRegionZero) {
  Deployment d{"global", make_asn(65000)};
  d.add_region(Region{"global", Prefix{Ipv4Addr(198, 19, 0, 0), 24}, Ipv4Addr(198, 19, 0, 1)});
  EXPECT_TRUE(d.is_global());
  EXPECT_EQ(d.intended_region(city("SYD")), 0u);
}

TEST(Deployment, SiteCountByArea) {
  const Deployment d = make_two_region();
  const auto counts = d.site_count_by_area();
  EXPECT_EQ(counts[static_cast<int>(geo::Area::NA)], 1u);
  EXPECT_EQ(counts[static_cast<int>(geo::Area::EMEA)], 1u);
  EXPECT_EQ(counts[static_cast<int>(geo::Area::LatAm)], 0u);
  EXPECT_EQ(counts[static_cast<int>(geo::Area::APAC)], 0u);
}

TEST(Deployment, RegionForCountryOverride) {
  const Deployment d = make_two_region();
  EXPECT_EQ(d.region_for_country("RU"), 0u);
  EXPECT_FALSE(d.region_for_country("DE").has_value());
}

TEST(Deployment, UnknownCountryCodeIsRefused) {
  // A code the gazetteer does not know can never match a geo-DB answer: an
  // override keyed on it would silently do nothing.
  Deployment d = make_two_region();
  for (const char* code : {"XX", "", "ru", "RUS"}) {
    EXPECT_THROW(d.set_country_region(code, 1), std::invalid_argument) << code;
    EXPECT_FALSE(d.region_for_country(code).has_value()) << code;
  }
  EXPECT_EQ(d.region_for_country("RU"), 0u);  // refused calls change nothing
}

TEST(Deployment, RegionForCountryIndexAppliesOverridesThenAreas) {
  const Deployment d = make_two_region();
  const auto& gaz = geo::Gazetteer::world();
  EXPECT_EQ(d.region_for(*gaz.find_country("RU")), 0u);  // override
  EXPECT_EQ(d.region_for(*gaz.find_country("DE")), 1u);  // EMEA default
  EXPECT_EQ(d.region_for(*gaz.find_country("US")), 0u);  // NA default
  // The deployment transforms take the whole policy.
  Deployment copy{"copy", make_asn(65001)};
  copy.copy_mapping_policy(d);
  for (std::size_t c = 0; c < gaz.countries().size(); ++c) {
    const auto idx = static_cast<geo::CountryIdx>(c);
    EXPECT_EQ(copy.region_for(idx), d.region_for(idx)) << gaz.countries()[c].iso2;
  }
}

}  // namespace
}  // namespace ranycast::cdn
