// Batch measurement fan-out (dns_lookup_all / ping_all / traceroute_all)
// must answer exactly what the scalar primitives would: slot i equals the
// scalar call for probes[i], including registry-allocated traceroute hop
// addresses — the batch warm prepass must replicate the sequential
// first-touch order bit-for-bit.
#include <gtest/gtest.h>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/lab/lab.hpp"

namespace ranycast::lab {
namespace {

LabConfig tiny_config() {
  LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 800;
  config.seed = 77;
  return config;
}

TEST(BatchMeasurements, DnsAndPingMatchScalarCalls) {
  auto laboratory = Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  const auto retained = laboratory.census().retained();
  const Ipv4Addr ip = im6.deployment.regions()[0].service_ip;

  const auto answers = laboratory.dns_lookup_all(retained, im6, dns::QueryMode::Ldns);
  const auto rtts = laboratory.ping_all(retained, ip);
  ASSERT_EQ(answers.size(), retained.size());
  ASSERT_EQ(rtts.size(), retained.size());
  for (std::size_t i = 0; i < retained.size(); ++i) {
    const auto scalar_answer = laboratory.dns_lookup(*retained[i], im6, dns::QueryMode::Ldns);
    EXPECT_EQ(answers[i].region, scalar_answer.region);
    EXPECT_EQ(answers[i].address, scalar_answer.address);
    EXPECT_EQ(answers[i].degraded, scalar_answer.degraded);
    const auto scalar_rtt = laboratory.ping(*retained[i], ip);
    ASSERT_EQ(rtts[i].has_value(), scalar_rtt.has_value());
    if (rtts[i]) {
      EXPECT_EQ(rtts[i]->ms, scalar_rtt->ms);
    }
  }
}

TEST(BatchMeasurements, TracerouteMatchesSequentialLoopOnFreshLab) {
  // Two labs with the same config; one runs the scalar loop, the other the
  // batch API. Hop IPs depend on registry first-touch order, so equality
  // here proves the batch warm pass replicates the sequential order.
  auto lab_scalar = Lab::create(tiny_config());
  auto lab_batch = Lab::create(tiny_config());
  const auto& dep_s = lab_scalar.add_deployment(cdn::catalog::imperva6());
  const auto& dep_b = lab_batch.add_deployment(cdn::catalog::imperva6());
  const auto retained_s = lab_scalar.census().retained();
  const auto retained_b = lab_batch.census().retained();
  ASSERT_EQ(retained_s.size(), retained_b.size());
  const Ipv4Addr ip_s = dep_s.deployment.regions()[0].service_ip;
  const Ipv4Addr ip_b = dep_b.deployment.regions()[0].service_ip;
  ASSERT_EQ(ip_s, ip_b);

  const auto batch = lab_batch.traceroute_all(retained_b, ip_b);
  ASSERT_EQ(batch.size(), retained_b.size());
  for (std::size_t i = 0; i < retained_s.size(); ++i) {
    const auto scalar = lab_scalar.traceroute(*retained_s[i], ip_s);
    ASSERT_EQ(batch[i].has_value(), scalar.has_value()) << "probe " << i;
    if (!scalar) continue;
    ASSERT_EQ(batch[i]->hops.size(), scalar->hops.size());
    EXPECT_EQ(batch[i]->rtt.ms, scalar->rtt.ms);
    EXPECT_EQ(batch[i]->phop_valid, scalar->phop_valid);
    for (std::size_t h = 0; h < scalar->hops.size(); ++h) {
      EXPECT_EQ(batch[i]->hops[h].ip, scalar->hops[h].ip);
      EXPECT_EQ(batch[i]->hops[h].owner, scalar->hops[h].owner);
      EXPECT_EQ(batch[i]->hops[h].city, scalar->hops[h].city);
      EXPECT_EQ(batch[i]->hops[h].rtt.ms, scalar->hops[h].rtt.ms);
    }
  }
}

TEST(BatchMeasurements, TracerouteBatchUnderMeasurementFaults) {
  // Fault decisions are pure hashes of (seed, probe, target, attempt), so
  // the batch path must drop exactly the probes the scalar path drops.
  auto lab_scalar = Lab::create(tiny_config());
  auto lab_batch = Lab::create(tiny_config());
  MeasurementFaults faults;
  faults.ping_loss_prob = 0.35;
  faults.max_retries = 1;
  lab_scalar.set_measurement_faults(faults);
  lab_batch.set_measurement_faults(faults);
  const auto& dep_s = lab_scalar.add_deployment(cdn::catalog::imperva6());
  const auto& dep_b = lab_batch.add_deployment(cdn::catalog::imperva6());
  const auto retained_s = lab_scalar.census().retained();
  const auto retained_b = lab_batch.census().retained();
  const Ipv4Addr ip = dep_s.deployment.regions()[0].service_ip;
  ASSERT_EQ(ip, dep_b.deployment.regions()[0].service_ip);

  const auto batch = lab_batch.traceroute_all(retained_b, ip);
  std::size_t gave_up = 0;
  for (std::size_t i = 0; i < retained_s.size(); ++i) {
    const auto scalar = lab_scalar.traceroute(*retained_s[i], ip);
    ASSERT_EQ(batch[i].has_value(), scalar.has_value()) << "probe " << i;
    if (!batch[i]) ++gave_up;
    if (scalar) {
      EXPECT_EQ(batch[i]->hops.back().ip, scalar->hops.back().ip);
    }
  }
  EXPECT_GT(gave_up, 0u);  // the loss probability must actually bite
}

TEST(BatchMeasurements, UnknownAddressYieldsAllEmpty) {
  auto laboratory = Lab::create(tiny_config());
  laboratory.add_deployment(cdn::catalog::imperva6());
  const auto retained = laboratory.census().retained();
  const auto traces = laboratory.traceroute_all(retained, Ipv4Addr{0x7F000001});
  ASSERT_EQ(traces.size(), retained.size());
  for (const auto& t : traces) EXPECT_FALSE(t.has_value());
  const auto rtts = laboratory.ping_all(retained, Ipv4Addr{0x7F000001});
  for (const auto& r : rtts) EXPECT_FALSE(r.has_value());
}

}  // namespace
}  // namespace ranycast::lab
