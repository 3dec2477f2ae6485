#include "ranycast/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "ranycast/io/json.hpp"
#include "ranycast/obs/report.hpp"
#include "ranycast/obs/span.hpp"

namespace ranycast::obs {
namespace {

// Captured before any test (and before gtest) can call set_enabled: the
// library default must track the RANYCAST_OBS environment variable, which
// the test runner does not set.
const bool g_enabled_at_startup = enabled();

/// Every test runs with a clean slate and restores the switch afterwards.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    set_enabled(true);
    reset_all();
  }
  void TearDown() override {
    reset_all();
    set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_{false};
};

TEST(ObsEnv, DisabledByDefaultWithoutEnvVar) {
  if (std::getenv("RANYCAST_OBS") == nullptr) {
    EXPECT_FALSE(g_enabled_at_startup);
  }
}

TEST_F(ObsTest, CounterCountsAndResetsInPlace) {
  Counter& c = MetricsRegistry::global().counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  reset_all();
  // The same reference keeps working after a reset.
  EXPECT_EQ(c.value(), 0u);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
  EXPECT_EQ(MetricsRegistry::global().counters().at("test.counter"), 7u);
}

TEST_F(ObsTest, CounterIsExactUnderConcurrentIncrements) {
  Counter& c = MetricsRegistry::global().counter("test.concurrent");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(ObsTest, DisabledRecordingIsANoOp) {
  Counter& c = MetricsRegistry::global().counter("test.gated");
  Histogram& h = MetricsRegistry::global().histogram("test.gated_us");
  set_enabled(false);
  c.add(100);
  h.record(5.0);
  {
    Span span("test.gated_span");
    ScopedTimer timer(h);
  }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(trace_events().empty());
}

TEST_F(ObsTest, GaugeKeepsLastValue) {
  Gauge& g = MetricsRegistry::global().gauge("test.gauge");
  g.set(2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST_F(ObsTest, HistogramBucketBoundariesAreUpperInclusive) {
  const double bounds[] = {10.0, 20.0};
  Histogram h{bounds};
  h.record(10.0);  // lands in (−inf, 10]
  h.record(10.5);  // lands in (10, 20]
  h.record(25.0);  // overflow
  const auto s = h.snapshot();
  ASSERT_EQ(s.buckets.size(), 3u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 10.0);
  EXPECT_DOUBLE_EQ(s.max, 25.0);
  EXPECT_DOUBLE_EQ(s.sum, 45.5);
}

TEST_F(ObsTest, HistogramQuantilesMatchKnownUniformDistribution) {
  // 100 samples spread evenly over (0, 100), ten per decade bucket: the
  // interpolated quantiles land exactly on q * 100.
  const double bounds[] = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  Histogram h{bounds};
  for (int i = 0; i < 100; ++i) h.record(i + 0.5);
  EXPECT_NEAR(h.quantile(0.50), 50.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.90), 90.0, 1e-9);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1e-9);
  const auto s = h.snapshot();
  EXPECT_NEAR(s.p50, 50.0, 1e-9);
  EXPECT_NEAR(s.p90, 90.0, 1e-9);
  EXPECT_NEAR(s.p99, 99.0, 1e-9);
}

TEST_F(ObsTest, HistogramQuantileClampsToObservedRange) {
  const double bounds[] = {100.0};
  Histogram h{bounds};
  h.record(40.0);
  h.record(60.0);
  // Both samples share one bucket: interpolation cannot leave [min, max].
  EXPECT_GE(h.quantile(0.01), 40.0);
  EXPECT_LE(h.quantile(0.99), 60.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 60.0);
  Histogram empty{bounds};
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST_F(ObsTest, HistogramBatchEqualsPerSampleRecords) {
  // Values whose floating-point sum depends on the order of addition, both
  // signed zeros, a NaN, infinities and every bucket: a batch must leave
  // every field bit-equal to per-sample records into a twin histogram.
  const double bounds[] = {1.0, 10.0, 100.0};
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> first = {0.1, 1e16, -0.0, 3.0, 0.0, 1.0, -1e16, 0.7};
  const std::vector<double> second = {250.0, std::nan(""), 0.2, 10.0, inf, -inf, 1e-300};
  const auto expect_bit_equal = [](const Histogram& batched, const Histogram& single,
                                   const char* what) {
    const auto b = batched.snapshot();
    const auto s = single.snapshot();
    EXPECT_EQ(b.count, s.count) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.sum), std::bit_cast<std::uint64_t>(s.sum)) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.min), std::bit_cast<std::uint64_t>(s.min)) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.max), std::bit_cast<std::uint64_t>(s.max)) << what;
    EXPECT_EQ(b.buckets, s.buckets) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.p50), std::bit_cast<std::uint64_t>(s.p50)) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.p90), std::bit_cast<std::uint64_t>(s.p90)) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.p99), std::bit_cast<std::uint64_t>(s.p99)) << what;
  };
  Histogram batched{bounds};
  Histogram single{bounds};
  for (const auto* xs : {&first, &second}) {
    batched.record_batch(*xs);
    for (const double x : *xs) single.record(x);
    expect_bit_equal(batched, single, "mixed");
  }

  // A batch remembers each distinct value's bucket by its bits: runs of
  // repeats and interleaved repeats, values exactly on the bounds, both
  // zeros, and NaNs that differ only in payload or sign.
  const double nan_a = std::bit_cast<double>(std::uint64_t{0x7FF8000000000001});
  const double nan_b = std::bit_cast<double>(std::uint64_t{0x7FF8000000000002});
  const double nan_c = std::bit_cast<double>(std::uint64_t{0xFFF8000000000000});
  std::vector<double> repeated;
  for (int i = 0; i < 40; ++i) {
    repeated.insert(repeated.end(), {1.0, 0.0, 1.0, -0.0, 100.0, nan_a, 10.0, 0.5});
    if (i % 5 == 0) repeated.insert(repeated.end(), 7, 3.25);
    repeated.insert(repeated.end(), {nan_b, 1e300, -0.0, nan_c, 100.0, 1.0 + 1e-15});
  }
  // More distinct values than the memo takes, interleaved with repeats,
  // with a sum that depends on the order of addition.
  std::vector<double> distinct{1e16};
  for (int i = 0; i < 2000; ++i) {
    distinct.push_back(static_cast<double>(i) * 0.1);
    if (i % 3 == 0) distinct.push_back(10.0);
    if (i == 1000) distinct.push_back(-1e16);
  }
  for (const auto* xs : {&repeated, &distinct}) {
    Histogram batch_only{bounds};
    Histogram single_only{bounds};
    batch_only.record_batch(*xs);
    for (const double x : *xs) single_only.record(x);
    expect_bit_equal(batch_only, single_only, xs == &repeated ? "repeated" : "distinct");
  }
  batched.record_batch({});
  EXPECT_EQ(batched.count(), single.count());

  // Off: a batch records nothing.
  set_enabled(false);
  Histogram off{bounds};
  off.record_batch(first);
  set_enabled(true);
  const auto o = off.snapshot();
  EXPECT_EQ(o.count, 0u);
  EXPECT_EQ(o.sum, 0.0);
  EXPECT_EQ(o.buckets, std::vector<std::uint64_t>(4, 0));
  EXPECT_EQ(off.quantile(0.5), 0.0);
}

TEST_F(ObsTest, SpansNestAndCompleteInOrder) {
  {
    Span outer("test.outer");
    { Span inner("test.inner"); }
  }
  { Span after("test.after"); }
  const auto events = trace_events();
  ASSERT_EQ(events.size(), 3u);
  // Completion order: inner closes before outer.
  EXPECT_EQ(events[0].name, "test.inner");
  EXPECT_EQ(events[0].parent, "test.outer");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].name, "test.outer");
  EXPECT_EQ(events[1].parent, "");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(events[2].name, "test.after");
  EXPECT_EQ(events[2].depth, 0u);
  for (std::uint64_t i = 0; i < events.size(); ++i) EXPECT_EQ(events[i].seq, i);
  // The parent's interval covers the child's.
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].start_ns + events[1].dur_ns, events[0].start_ns + events[0].dur_ns);

  const auto aggregates = span_aggregates();
  EXPECT_EQ(aggregates.at("test.outer").count, 1u);
  EXPECT_GE(aggregates.at("test.outer").total_us, aggregates.at("test.inner").total_us);
}

TEST_F(ObsTest, ScopedTimerRecordsIntoHistogram) {
  Histogram& h = MetricsRegistry::global().histogram("test.timer_us");
  { ScopedTimer timer(h); }
  { ScopedTimer by_name("test.timer_us"); }
  EXPECT_EQ(h.count(), 2u);
}

TEST_F(ObsTest, JsonReportIsValidJsonWithAllSections) {
  MetricsRegistry::global().counter("test.report_counter").add(3);
  MetricsRegistry::global().gauge("test.report_gauge").set(1.5);
  MetricsRegistry::global().histogram("test.report_us").record(12.0);
  MetricsRegistry::global().set_label("test.label", "va\"lue\n");
  { Span span("test.report_span"); }

  const auto parsed = io::parse_json_or_throw(json_report());
  ASSERT_TRUE(parsed.is_object());
  EXPECT_DOUBLE_EQ(parsed.find("counters")->find("test.report_counter")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(parsed.find("gauges")->find("test.report_gauge")->as_number(), 1.5);
  const io::Json* hist = parsed.find("histograms")->find("test.report_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist->find("p50")->as_number(), 12.0);
  EXPECT_EQ(parsed.find("labels")->find("test.label")->as_string(), "va\"lue\n");
  EXPECT_NE(parsed.find("spans")->find("test.report_span"), nullptr);
}

TEST_F(ObsTest, TraceNdjsonParsesLineByLine) {
  {
    Span outer("test.nd_outer");
    Span inner("test.nd_inner");
  }
  const std::string ndjson = trace_ndjson();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < ndjson.size()) {
    const auto end = ndjson.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const auto line = io::parse_json_or_throw(ndjson.substr(start, end - start));
    EXPECT_TRUE(line.find("name")->is_string());
    EXPECT_TRUE(line.find("dur_ns")->is_number());
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 2u);
}

TEST_F(ObsTest, BenchReportWrittenOnlyWhenEnabled) {
  const char* path = "BENCH_obs_selftest.json";
  std::remove(path);

  set_enabled(false);
  EXPECT_FALSE(write_bench_report("obs_selftest", 1.0));
  EXPECT_FALSE(std::ifstream(path).good());  // RANYCAST_OBS=0: no output at all

  set_enabled(true);
  MetricsRegistry::global().counter("lab.ping.calls").add(5);
  EXPECT_TRUE(write_bench_report("obs_selftest", 12.5));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto parsed = io::parse_json_or_throw(text);
  EXPECT_EQ(parsed.find("bench")->as_string(), "obs_selftest");
  EXPECT_DOUBLE_EQ(parsed.find("wall_ms")->as_number(), 12.5);
  // Fixed schema: solver/lab/measurement sections exist even when the
  // subsystems never ran, with zeroed values.
  EXPECT_DOUBLE_EQ(parsed.find("solver")->find("calls")->as_number(), 0.0);
  EXPECT_NE(parsed.find("solver")->find("stage_customer_us"), nullptr);
  EXPECT_NE(parsed.find("lab")->find("topology_us"), nullptr);
  EXPECT_DOUBLE_EQ(parsed.find("measurement")->find("ping_calls")->as_number(), 5.0);
  std::remove(path);
}

TEST_F(ObsTest, RegistryAndHistogramSafeUnderConcurrentSolves) {
  // The parallel catchment engine has many workers registering and recording
  // the same metrics at once. Registration must converge on one instance and
  // every recorded sample must land.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      auto& registry = MetricsRegistry::global();
      auto& counter = registry.counter("test.concurrent.calls");
      auto& hist = registry.histogram("test.concurrent.us");
      for (int i = 0; i < kPerThread; ++i) {
        counter.add();
        hist.record(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  auto& registry = MetricsRegistry::global();
  EXPECT_EQ(registry.counter("test.concurrent.calls").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.histogram("test.concurrent.us").count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, SpansAreThreadLocalUnderConcurrency) {
  // Span stacks are thread-local: concurrent spans must neither corrupt each
  // other's nesting nor lose completions.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        Span outer("test.span.outer");
        Span inner("test.span.inner");
      }
    });
  }
  for (auto& t : threads) t.join();
  SUCCEED();  // no crash/corruption; completion counts are best-effort
}

}  // namespace
}  // namespace ranycast::obs
