// Flow-generation determinism: the demand a chaos step sees must be a pure
// function of (seed, probe grouping, surge scale) — independent of worker
// count, stable across repeated generation, and sensitive to the seed.
#include "ranycast/traffic/flows.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "ranycast/atlas/grouping.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/traffic/config.hpp"

namespace ranycast::traffic {
namespace {

class FlowGenTest : public ::testing::Test {
 protected:
  static lab::Lab make_lab() {
    lab::LabConfig config;
    config.world.stub_count = 400;
    config.census.total_probes = 1200;
    return lab::Lab::create(config);
  }

  FlowGenTest()
      : lab_(make_lab()),
        retained_(lab_.census().retained()),
        groups_(atlas::group_probes(retained_)) {}

  lab::Lab lab_;
  std::vector<const atlas::Probe*> retained_;
  std::vector<atlas::ProbeGroup> groups_;
};

bool identical(const FlowSet& a, const FlowSet& b) {
  if (a.flows.size() != b.flows.size()) return false;
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    if (a.flows[i].probe != b.flows[i].probe) return false;
    if (a.flows[i].bytes != b.flows[i].bytes) return false;
  }
  return a.total_bytes == b.total_bytes && a.groups == b.groups &&
         a.empty_groups == b.empty_groups;
}

TEST_F(FlowGenTest, RepeatedGenerationIsByteIdentical) {
  TrafficConfig cfg;
  const FlowSet a = generate_flows(groups_, retained_, cfg);
  const FlowSet b = generate_flows(groups_, retained_, cfg);
  ASSERT_GT(a.flows.size(), 100u);
  EXPECT_TRUE(identical(a, b));
}

TEST_F(FlowGenTest, IndependentOfWorkerCount) {
  TrafficConfig cfg;
  auto& pool = exec::ThreadPool::global();
  const unsigned original = pool.worker_count();

  pool.resize(1);
  const FlowSet expected = generate_flows(groups_, retained_, cfg);

  std::vector<unsigned> sweep{1, 2};
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  if (hardware != 1 && hardware != 2) sweep.push_back(hardware);
  for (const unsigned workers : sweep) {
    pool.resize(workers);
    EXPECT_TRUE(identical(generate_flows(groups_, retained_, cfg), expected))
        << workers << " workers";
  }
  pool.resize(original);
}

TEST_F(FlowGenTest, SeedChangesTheDraw) {
  TrafficConfig cfg;
  const FlowSet a = generate_flows(groups_, retained_, cfg);
  cfg.seed ^= 0x1;
  const FlowSet b = generate_flows(groups_, retained_, cfg);
  EXPECT_FALSE(identical(a, b));
}

TEST_F(FlowGenTest, SurgeScalesArrivals) {
  TrafficConfig cfg;
  const FlowSet base = generate_flows(groups_, retained_, cfg, 1.0);
  const FlowSet surged = generate_flows(groups_, retained_, cfg, 2.0);
  // Poisson means double; with >1000 probes the law of large numbers makes
  // this a safe margin, not a statistical coin flip.
  EXPECT_GT(surged.flows.size(), base.flows.size() * 3 / 2);
  EXPECT_GT(surged.total_bytes, base.total_bytes * 1.5);
}

TEST_F(FlowGenTest, ZeroRateGeneratesNothing) {
  TrafficConfig cfg;
  cfg.flows_per_probe_per_s = 0.0;
  const FlowSet set = generate_flows(groups_, retained_, cfg);
  EXPECT_TRUE(set.flows.empty());
  EXPECT_EQ(set.total_bytes, 0.0);
}

TEST_F(FlowGenTest, EveryFlowIndexesARetainedProbe) {
  TrafficConfig cfg;
  const FlowSet set = generate_flows(groups_, retained_, cfg);
  for (const Flow& f : set.flows) {
    ASSERT_LT(f.probe, retained_.size());
    EXPECT_GT(f.bytes, 0.0);
  }
}

TEST_F(FlowGenTest, OfferedMbpsMatchesTotalBytes) {
  TrafficConfig cfg;
  cfg.window_s = 2.0;
  const FlowSet set = generate_flows(groups_, retained_, cfg);
  EXPECT_DOUBLE_EQ(offered_mbps(set, cfg), set.total_bytes * 8.0 / 2.0 / 1e6);
}

TEST(FlowSizeCdf, DefaultIsValidAndMonotone) {
  const FlowSizeCdf cdf = FlowSizeCdf::anycast_cdn();
  TrafficConfig cfg;
  cfg.flow_sizes = cdf;
  ASSERT_FALSE(validate(cfg).has_value());
  double prev = 0.0;
  for (double u = 0.0; u < 1.0; u += 0.01) {
    const double s = cdf.sample(u);
    EXPECT_GE(s, prev);
    EXPECT_GE(s, cdf.bytes.front());
    EXPECT_LE(s, cdf.bytes.back());
    prev = s;
  }
  const double mean = cdf.mean_bytes();
  EXPECT_GT(mean, cdf.bytes.front());
  EXPECT_LT(mean, cdf.bytes.back());
}

TEST(FlowSizeCdf, HeavyTailShape) {
  // The default CDF is mice-dominated by count: the median flow is far
  // smaller than the mean (elephants carry the bytes).
  const FlowSizeCdf cdf = FlowSizeCdf::anycast_cdn();
  EXPECT_LT(cdf.sample(0.5), cdf.mean_bytes() / 4.0);
}

}  // namespace
}  // namespace ranycast::traffic
