// Batch measurement fan-out (dns_lookup_all / ping_all / traceroute_all)
// must answer exactly what the scalar primitives would: slot i equals the
// scalar call for probes[i], including registry-allocated traceroute hop
// addresses — the batch warm prepass must replicate the sequential
// first-touch order bit-for-bit. The measurement pass (Lab::measure) must
// equal the public dns_lookup → catchment → ping chain row for row, and
// Lab::remeasure must redo exactly the rows it is given.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <thread>
#include <utility>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/exec/pool.hpp"
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

/// The row the public scalar calls give for one probe.
Measurement scalar_row(const Lab& laboratory, const DeploymentHandle& handle,
                       const atlas::Probe& probe) {
  const auto answer = laboratory.dns_lookup(probe, handle, dns::QueryMode::Ldns);
  Measurement m;
  m.address = answer.address.bits();
  m.region = static_cast<std::uint16_t>(answer.region);
  m.degraded = answer.degraded;
  m.site = value(kInvalidSite);
  if (const auto site = handle.catchment(probe.asn, answer.region)) {
    m.routed = true;
    m.site = value(*site);
    const auto rtt = laboratory.ping(probe, answer.address);
    m.rtt_ms = rtt ? rtt->ms : 0.0;
    m.ping_lost = !rtt;
  }
  return m;
}

/// Equal fields and equal RTT bits.
bool same_bits(const Measurement& a, const Measurement& b) {
  return a == b && std::bit_cast<std::uint64_t>(a.rtt_ms) == std::bit_cast<std::uint64_t>(b.rtt_ms);
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

TEST(BatchMeasurements, MeasureMatchesScalarChain) {
  auto laboratory = Lab::create(tiny_config());
  MeasurementFaults faults;
  faults.ping_loss_prob = 0.35;
  faults.dns_timeout_prob = 0.3;
  faults.max_retries = 1;
  laboratory.set_measurement_faults(faults);
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  const auto retained = laboratory.census().retained();
  std::vector<Measurement> expected;
  for (const atlas::Probe* p : retained) expected.push_back(scalar_row(laboratory, im6, *p));

  auto& pool = exec::ThreadPool::global();
  const unsigned original = pool.worker_count();
  // Stale rows of another size: the pass must resize and rewrite them all.
  Measurement stale;
  stale.address = 1;
  stale.rtt_ms = 9.0;
  stale.routed = stale.degraded = stale.ping_lost = true;
  std::vector<Measurement> rows(retained.size() + 3, stale);
  for (const unsigned workers : {1u, 2u, std::max(1u, std::thread::hardware_concurrency())}) {
    pool.resize(workers);
    laboratory.measure(im6, rows);
    ASSERT_EQ(rows.size(), retained.size());
    std::size_t lost = 0, degraded = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(same_bits(rows[i], expected[i])) << workers << " workers, probe " << i;
      lost += rows[i].ping_lost ? 1 : 0;
      degraded += rows[i].degraded ? 1 : 0;
    }
    // Both fault gates must actually bite.
    EXPECT_GT(lost, 0u) << workers << " workers";
    EXPECT_GT(degraded, 0u) << workers << " workers";
  }
  pool.resize(original);
}

TEST(BatchMeasurements, RemeasureRedoesOnlyListedRows) {
  auto laboratory = Lab::create(tiny_config());
  DeploymentHandle& handle =
      *laboratory.handle_mut(laboratory.add_deployment(cdn::catalog::imperva6()));
  const auto retained = laboratory.census().retained();
  std::vector<Measurement> before;
  laboratory.measure(handle, before);

  // The transit link the most probes' routes cross past the CDN's neighbor.
  std::map<std::pair<Asn, Asn>, std::size_t> uses;
  for (std::size_t i = 0; i < retained.size(); ++i) {
    const bgp::Route* route = handle.route_for(retained[i]->asn, before[i].region);
    if (route == nullptr) continue;
    for (std::size_t h = 1; h + 1 < route->as_path.size(); ++h) {
      ++uses[{route->as_path[h], route->as_path[h + 1]}];
    }
  }
  ASSERT_FALSE(uses.empty());
  const auto [a, b] = std::max_element(uses.begin(), uses.end(), [](const auto& x, const auto& y) {
                        return x.second < y.second;
                      })->first;
  // Prime every region with a no-op delta, so the link_down below re-solves
  // incrementally and reports rows instead of `all`.
  bgp::SolveDelta prime;
  prime.links.push_back(bgp::LinkDelta{a, b, true});
  laboratory.resolve_delta(handle, prime);

  ASSERT_TRUE(laboratory.graph_mut().set_link_state(a, b, false));
  bgp::SolveDelta down;
  down.links.push_back(bgp::LinkDelta{a, b, false});
  std::vector<bgp::ChangedRows> changed;
  laboratory.resolve_delta(handle, down, &changed);

  // The rows whose AS row changed in the region DNS answered them with.
  const topo::Graph& graph = laboratory.world().graph;
  std::vector<std::uint32_t> which;
  for (std::size_t i = 0; i < retained.size(); ++i) {
    const bgp::ChangedRows& c = changed[before[i].region];
    const auto node = graph.index_of(retained[i]->asn);
    if (c.all || (node && std::binary_search(c.rows.begin(), c.rows.end(),
                                              static_cast<std::uint32_t>(*node)))) {
      which.push_back(static_cast<std::uint32_t>(i));
    }
  }
  ASSERT_FALSE(which.empty());
  ASSERT_LT(which.size(), retained.size());

  std::vector<Measurement> after = before;
  laboratory.remeasure(handle, after, which);
  std::vector<Measurement> fresh;
  laboratory.measure(handle, fresh);
  std::size_t rtt_moved = 0;
  for (std::size_t i = 0, k = 0; i < retained.size(); ++i) {
    if (k < which.size() && which[k] == i) {
      ++k;
      EXPECT_TRUE(same_bits(after[i], fresh[i])) << "listed probe " << i;
      rtt_moved += after[i].rtt_ms != before[i].rtt_ms ? 1 : 0;
    } else {
      EXPECT_TRUE(same_bits(after[i], before[i])) << "unlisted probe " << i;
      // The re-solve's rows cover every probe the link moved.
      EXPECT_TRUE(same_bits(after[i], fresh[i])) << "unlisted probe " << i;
    }
  }
  EXPECT_GT(rtt_moved, 0u);  // the link must move some listed probe's RTT
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
