#include "ranycast/lab/lab.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/resilience/failover.hpp"

namespace ranycast::lab {
namespace {

class LabTest : public ::testing::Test {
 protected:
  static Lab make_lab() {
    LabConfig config;
    config.world.stub_count = 600;
    config.census.total_probes = 2000;
    return Lab::create(config);
  }

  LabTest() : lab_(make_lab()) {}

  Lab lab_;
};

TEST_F(LabTest, DeploymentSolvesEveryRegion) {
  const auto& handle = lab_.add_deployment(cdn::catalog::imperva6());
  EXPECT_EQ(handle.outcomes.size(), 6u);
  EXPECT_EQ(handle.deployment.sites().size(), 48u);
}

TEST_F(LabTest, RegionalPrefixesGloballyReachable) {
  // Paper §4.5: every probe can reach every regional IP, including those
  // DNS would never return to it.
  const auto& handle = lab_.add_deployment(cdn::catalog::imperva6());
  const auto retained = lab_.census().retained();
  for (std::size_t r = 0; r < handle.deployment.regions().size(); ++r) {
    std::size_t reachable = 0;
    for (const atlas::Probe* p : retained) {
      if (lab_.ping(*p, handle.deployment.regions()[r].service_ip)) ++reachable;
    }
    EXPECT_EQ(reachable, retained.size()) << "region " << r;
  }
}

TEST_F(LabTest, DnsLookupReturnsAddressInRegionPrefix) {
  const auto& handle = lab_.add_deployment(cdn::catalog::imperva6());
  for (const atlas::Probe* p : lab_.census().retained()) {
    const auto answer = lab_.dns_lookup(*p, handle, dns::QueryMode::Ldns);
    ASSERT_LT(answer.region, handle.deployment.regions().size());
    EXPECT_TRUE(handle.deployment.regions()[answer.region].prefix.contains(answer.address));
  }
}

TEST_F(LabTest, AdnsMappingMostlyMatchesIntendedRegion) {
  const auto& handle = lab_.add_deployment(cdn::catalog::imperva6());
  const auto retained = lab_.census().retained();
  std::size_t correct = 0;
  for (const atlas::Probe* p : retained) {
    const auto answer = lab_.dns_lookup(*p, handle, dns::QueryMode::Adns);
    if (answer.region == handle.deployment.intended_region(p->city)) ++correct;
  }
  // Only geolocation-database errors can break ADNS mapping.
  EXPECT_GT(static_cast<double>(correct) / retained.size(), 0.90);
}

TEST_F(LabTest, LdnsMappingIsNoBetterThanAdns) {
  const auto& handle = lab_.add_deployment(cdn::catalog::imperva6());
  const auto retained = lab_.census().retained();
  std::size_t ldns_correct = 0, adns_correct = 0;
  for (const atlas::Probe* p : retained) {
    const auto intended = handle.deployment.intended_region(p->city);
    if (lab_.dns_lookup(*p, handle, dns::QueryMode::Ldns).region == intended) ++ldns_correct;
    if (lab_.dns_lookup(*p, handle, dns::QueryMode::Adns).region == intended) ++adns_correct;
  }
  EXPECT_LE(ldns_correct, adns_correct);
}

TEST_F(LabTest, PingFailsForUnknownAddress) {
  const auto& handle = lab_.add_deployment(cdn::catalog::imperva6());
  (void)handle;
  const atlas::Probe* p = lab_.census().retained().front();
  EXPECT_FALSE(lab_.ping(*p, Ipv4Addr(1, 1, 1, 1)).has_value());
}

TEST_F(LabTest, PingIsDeterministic) {
  const auto& handle = lab_.add_deployment(cdn::catalog::imperva6());
  const atlas::Probe* p = lab_.census().retained().front();
  const Ipv4Addr ip = handle.deployment.regions()[0].service_ip;
  EXPECT_EQ(lab_.ping(*p, ip), lab_.ping(*p, ip));
}

TEST_F(LabTest, HostnameSaltPerturbsSubMillisecond) {
  const auto& handle = lab_.add_deployment(cdn::catalog::imperva6());
  const atlas::Probe* p = lab_.census().retained().front();
  const Ipv4Addr ip = handle.deployment.regions()[0].service_ip;
  const auto base = lab_.ping(*p, ip);
  const auto salted = lab_.ping(*p, ip, 1234);
  ASSERT_TRUE(base && salted);
  EXPECT_NE(base->ms, salted->ms);
  EXPECT_LT(std::abs(base->ms - salted->ms), 1.1);
}

TEST_F(LabTest, TracerouteEndsAtCatchmentSite) {
  const auto& handle = lab_.add_deployment(cdn::catalog::imperva6());
  for (const atlas::Probe* p : lab_.census().retained()) {
    const auto answer = lab_.dns_lookup(*p, handle, dns::QueryMode::Ldns);
    const auto trace = lab_.traceroute(*p, answer.address);
    ASSERT_TRUE(trace.has_value());
    const auto site = lab_.catchment_of(*p, answer.address);
    ASSERT_TRUE(site.has_value());
    EXPECT_EQ(trace->phop().city, handle.deployment.site(*site).city);
    break;  // structural check on one probe is enough here
  }
}

TEST_F(LabTest, TracerouteRttMatchesPing) {
  const auto& handle = lab_.add_deployment(cdn::catalog::imperva6());
  const atlas::Probe* p = lab_.census().retained().front();
  const Ipv4Addr ip = handle.deployment.regions()[0].service_ip;
  const auto ping = lab_.ping(*p, ip);
  const auto trace = lab_.traceroute(*p, ip);
  ASSERT_TRUE(ping && trace);
  EXPECT_DOUBLE_EQ(ping->ms, trace->rtt.ms);
}

TEST_F(LabTest, CatchmentRespectsRegionalAnnouncements) {
  const auto& handle = lab_.add_deployment(cdn::catalog::imperva6());
  const auto retained = lab_.census().retained();
  for (std::size_t r = 0; r < handle.deployment.regions().size(); ++r) {
    const Ipv4Addr ip = handle.deployment.regions()[r].service_ip;
    for (const atlas::Probe* p : retained) {
      const auto site = lab_.catchment_of(*p, ip);
      if (!site) continue;
      EXPECT_TRUE(handle.deployment.site(*site).announces(r))
          << "probe reached a site that does not announce region " << r;
    }
  }
}

TEST_F(LabTest, LocateAddressRoundTrips) {
  std::vector<const DeploymentHandle*> handles;
  for (const auto& spec : {cdn::catalog::edgio3(), cdn::catalog::edgio4(),
                           cdn::catalog::imperva6(), cdn::catalog::imperva_ns()}) {
    handles.push_back(&lab_.add_deployment(spec));
  }
  // fail_site registers a derived deployment (spliced from imperva6's
  // selection planes) on fresh prefixes of its own.
  resilience::fail_site(lab_, *handles[2], SiteId{0});
  for (const DeploymentHandle* handle : handles) {
    for (std::size_t r = 0; r < handle->deployment.regions().size(); ++r) {
      const cdn::Region& region = handle->deployment.regions()[r];
      for (const Ipv4Addr a : {region.service_ip, region.prefix.at(0), region.prefix.at(255)}) {
        const auto info = lab_.locate_address(a);
        ASSERT_TRUE(info.has_value());
        EXPECT_EQ(info->handle, handle);
        EXPECT_EQ(info->region, r);
      }
    }
  }
  // Walk every prefix the lab allocated, the derived deployment's included:
  // each resolves to the handle and region whose prefix it is.
  const Prefix next_free = lab_.registry().allocate_special(24);
  std::set<const DeploymentHandle*> seen;
  for (std::uint32_t bits = 0xC0000000u; bits < next_free.address().bits(); bits += 256) {
    const Prefix allocated{Ipv4Addr{bits}, 24};
    const auto info = lab_.locate_address(allocated.at(1));
    ASSERT_TRUE(info.has_value()) << allocated.to_string();
    EXPECT_EQ(info->handle->deployment.regions()[info->region].prefix, allocated);
    seen.insert(info->handle);
  }
  EXPECT_EQ(seen.size(), handles.size() + 1);
  EXPECT_FALSE(lab_.locate_address(Ipv4Addr(9, 9, 9, 9)).has_value());
  EXPECT_FALSE(lab_.locate_address(next_free.at(1)).has_value());
}

TEST_F(LabTest, MultipleDeploymentsCoexist) {
  const auto& a = lab_.add_deployment(cdn::catalog::imperva6());
  const auto& b = lab_.add_deployment(cdn::catalog::imperva_ns());
  EXPECT_NE(a.deployment.regions()[0].prefix, b.deployment.regions()[0].prefix);
  const atlas::Probe* p = lab_.census().retained().front();
  EXPECT_TRUE(lab_.ping(*p, a.deployment.regions()[0].service_ip).has_value());
  EXPECT_TRUE(lab_.ping(*p, b.deployment.regions()[0].service_ip).has_value());
}

}  // namespace
}  // namespace ranycast::lab
