// Crash-restart: save() mid-run, load() into a fresh server over a fresh
// lab, and the continued answer stream is byte-identical — including when
// the checkpoint lands during an in-flight (or failing) build. The resumed
// server's first build is full and later ones patch the previous epoch,
// while the uninterrupted server patches throughout; the worlds drift
// through site, geo-DB, measurement-fault and transit-link events.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/plan.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/serve/server.hpp"
#include "world_plans.hpp"

namespace ranycast::serve {
namespace {

lab::LabConfig small_config() {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  return config;
}

ServeConfig resume_config() {
  ServeConfig cfg;
  cfg.refresh_interval_ns = 1'000'000'000;
  cfg.build_time_ns = 500'000'000;  // long builds: checkpoints land mid-build
  cfg.ladder.fresh_max_age_ns = 2'000'000'000;
  cfg.ladder.stale_max_age_ns = 5'000'000'000;
  cfg.ladder.reject_after_age_ns = 20'000'000'000;
  cfg.admission.rate_qps = 50.0;  // low enough that the bucket state matters
  cfg.admission.burst = 8;
  cfg.admission.max_queue_depth = 16;
  cfg.admission.service_time_ns = 500'000;
  cfg.world_plan = chaos::single_site_withdrawal(SiteId{0});
  return cfg;
}

std::string render(const QueryResult& r) {
  char line[160];
  std::snprintf(line, sizeof line, "%s,%s,%llu,%016llx,%llu,%u,%u,%u,%.6f",
                std::string(to_string(r.status)).c_str(),
                std::string(to_string(r.rung)).c_str(),
                static_cast<unsigned long long>(r.epoch),
                static_cast<unsigned long long>(r.fingerprint),
                static_cast<unsigned long long>(r.latency_us), r.entry.address,
                r.entry.region, r.entry.site, r.entry.rtt_ms);
  return line;
}

constexpr std::uint64_t kTickNs = 100'000'000;
constexpr std::size_t kQueriesPerTick = 3;

/// Drive ticks [from, to) with the tool's arrival pattern, appending one
/// rendered line per query.
void drive(Server& server, std::size_t from, std::size_t to,
           std::vector<std::string>& out) {
  for (std::size_t i = from; i < to; ++i) {
    const std::uint64_t now = static_cast<std::uint64_t>(i) * kTickNs;
    ASSERT_TRUE(server.tick(now).has_value()) << "tick " << i;
    const std::uint64_t stride = kTickNs / kQueriesPerTick;
    for (std::size_t q = 0; q < kQueriesPerTick; ++q) {
      const std::uint64_t client = hash_combine(hash_combine(2023, i), q);
      out.push_back(render(server.query(client, now + q * stride, 2'000)));
    }
  }
}

class ServerResumeTest : public ::testing::Test {
 protected:
  static ServeConfig faulty_config(const chaos::FaultPlan& world) {
    ServeConfig cfg = resume_config();
    cfg.world_plan = world;
    cfg.faults.events.push_back(
        {ServeFaultKind::BuildFail, 1'500'000'000, 1'000'000'000, 0, 0});
    cfg.faults.events.push_back(
        {ServeFaultKind::SlowQuery, 2'500'000'000, 500'000'000, 5'000'000, 0});
    return cfg;
  }

  /// Uninterrupted baseline vs save-at-`cut`/load-into-fresh-world resume,
  /// the world drifting through `world`.
  void expect_resume_identical(const chaos::FaultPlan& world, std::size_t cut,
                               std::size_t total) {
    const ServeConfig cfg = faulty_config(world);

    lab::Lab baseline_lab = lab::Lab::create(small_config());
    Server baseline(baseline_lab,
                    baseline_lab.add_deployment(cdn::catalog::imperva6()), cfg);
    std::vector<std::string> expected;
    drive(baseline, 0, total, expected);

    lab::Lab first_lab = lab::Lab::create(small_config());
    Server first(first_lab, first_lab.add_deployment(cdn::catalog::imperva6()),
                 cfg);
    std::vector<std::string> answers;
    drive(first, 0, cut, answers);
    guard::ByteWriter w;
    first.save(w);

    // The "restarted process": fresh lab, fresh server, state from bytes.
    lab::Lab second_lab = lab::Lab::create(small_config());
    Server second(second_lab,
                  second_lab.add_deployment(cdn::catalog::imperva6()), cfg);
    guard::ByteReader r(w.data());
    ASSERT_TRUE(second.load(r)) << "cut " << cut;
    EXPECT_EQ(second.fingerprint(), first.fingerprint());
    drive(second, cut, total, answers);

    ASSERT_EQ(answers.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(answers[i], expected[i]) << "cut " << cut << " answer " << i;
    }
    EXPECT_EQ(second.transitions(), baseline.transitions()) << "cut " << cut;
    EXPECT_EQ(second.latency().quantile_us(0.99),
              baseline.latency().quantile_us(0.99));
  }
};

TEST_F(ServerResumeTest, ResumeAnywhereIsByteIdentical) {
  // Cuts chosen to land in every interesting refresher phase: idle, mid
  // successful build, mid failing build (the 1.5-2.5s BuildFail window),
  // and inside the slow-query window. Builds start each second and the one
  // at 2s fails, so the cuts fall before, during and after the builds that
  // apply each plan's first three events.
  const std::vector<chaos::FaultPlan> worlds = {
      chaos::single_site_withdrawal(SiteId{0}),
      test_plans::scenario("chaos_cascade.json"),
      test_plans::moving_link_flaps(small_config(), 2023, 2)};
  for (const chaos::FaultPlan& world : worlds) {
    SCOPED_TRACE(world.name);
    for (const std::size_t cut : {3u, 12u, 17u, 21u, 27u}) {
      expect_resume_identical(world, cut, 35);
    }
  }
}

TEST_F(ServerResumeTest, SaveLoadPreservesInFlightBuild) {
  const ServeConfig cfg = resume_config();
  lab::Lab lab_a = lab::Lab::create(small_config());
  Server a(lab_a, lab_a.add_deployment(cdn::catalog::imperva6()), cfg);
  // t=1.2s: the 1s build (500ms long) is in flight.
  ASSERT_TRUE(a.tick(600'000'000).has_value());
  ASSERT_TRUE(a.tick(1'200'000'000).has_value());
  ASSERT_EQ(a.current_epoch(), 1u);

  guard::ByteWriter w;
  a.save(w);
  lab::Lab lab_b = lab::Lab::create(small_config());
  Server b(lab_b, lab_b.add_deployment(cdn::catalog::imperva6()), cfg);
  guard::ByteReader r(w.data());
  ASSERT_TRUE(b.load(r));

  // The restored in-flight build publishes at its original done-time.
  ASSERT_TRUE(b.tick(1'600'000'000).has_value());
  EXPECT_EQ(b.current_epoch(), 2u);
  ASSERT_TRUE(a.tick(1'600'000'000).has_value());
  EXPECT_EQ(b.pin()->fingerprint, a.pin()->fingerprint);
  EXPECT_EQ(b.pin()->built_at_ns, a.pin()->built_at_ns);
}

TEST_F(ServerResumeTest, LoadRejectsTruncatedAndCorruptPayloads) {
  lab::Lab lab_a = lab::Lab::create(small_config());
  Server a(lab_a, lab_a.add_deployment(cdn::catalog::imperva6()), resume_config());
  ASSERT_TRUE(a.tick(200'000'000).has_value());
  guard::ByteWriter w;
  a.save(w);
  const std::vector<std::uint8_t> bytes(w.data().begin(), w.data().end());

  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{9}, bytes.size() / 2, bytes.size() - 1}) {
    lab::Lab lab_b = lab::Lab::create(small_config());
    Server b(lab_b, lab_b.add_deployment(cdn::catalog::imperva6()),
             resume_config());
    guard::ByteReader r(std::span<const std::uint8_t>(bytes.data(), keep));
    EXPECT_FALSE(b.load(r)) << "kept " << keep << " bytes";
  }

  // A corrupt snapshot body must be caught by the content fingerprint.
  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x04;
  lab::Lab lab_c = lab::Lab::create(small_config());
  Server c(lab_c, lab_c.add_deployment(cdn::catalog::imperva6()),
           resume_config());
  guard::ByteReader r(corrupt);
  EXPECT_FALSE(c.load(r));
}

TEST(ServerResume, LoadRejectsTrailingBytes) {
  // The server's state is the tail of a checkpoint payload, so load() must
  // consume it exactly: an over-long payload is another layout, not this one.
  lab::Lab lab_a = lab::Lab::create(small_config());
  Server a(lab_a, lab_a.add_deployment(cdn::catalog::imperva6()), resume_config());
  ASSERT_TRUE(a.tick(600'000'000).has_value());  // epoch 1 is published
  ASSERT_EQ(a.current_epoch(), 1u);
  guard::ByteWriter w;
  a.save(w);
  std::vector<std::uint8_t> bytes = w.take();

  lab::Lab lab_b = lab::Lab::create(small_config());
  Server b(lab_b, lab_b.add_deployment(cdn::catalog::imperva6()), resume_config());
  guard::ByteReader exact(bytes);
  ASSERT_TRUE(b.load(exact));

  bytes.push_back(0);
  lab::Lab lab_c = lab::Lab::create(small_config());
  Server c(lab_c, lab_c.add_deployment(cdn::catalog::imperva6()), resume_config());
  guard::ByteReader longer(bytes);
  EXPECT_FALSE(c.load(longer));
}

TEST(ServerResume, LoadRejectsCountersAtOddsWithTheSnapshot) {
  // A payload can pass every decode check and still contradict itself. An
  // epoch counter behind the published snapshot would make the next publish
  // step the epoch backwards.
  lab::Lab lab_a = lab::Lab::create(small_config());
  Server a(lab_a, lab_a.add_deployment(cdn::catalog::imperva6()), resume_config());
  ASSERT_TRUE(a.tick(1'600'000'000).has_value());  // epochs 1 and 2 are published
  ASSERT_EQ(a.current_epoch(), 2u);
  guard::ByteWriter w;
  a.save(w);
  const std::vector<std::uint8_t> bytes = w.take();

  // The epoch counter follows next_build_at (u64), the building and
  // will-fail flags (u8 each) and the build's start and done times (u64
  // each). The stats block ends the payload: epochs_published, builds_failed
  // and world_events_applied are its last three u64 fields.
  constexpr std::size_t kCounterAt = 8 + 1 + 1 + 8 + 8;
  const std::size_t published_at = bytes.size() - 24;
  const std::size_t events_at = bytes.size() - 8;
  const auto rewritten = [&](std::size_t at, std::uint64_t v) {
    std::vector<std::uint8_t> out = bytes;
    for (std::size_t k = 0; k < 8; ++k) out[at + k] = static_cast<std::uint8_t>(v >> (8 * k));
    return out;
  };
  const auto loads = [](const std::vector<std::uint8_t>& payload) {
    lab::Lab lab_b = lab::Lab::create(small_config());
    Server b(lab_b, lab_b.add_deployment(cdn::catalog::imperva6()), resume_config());
    guard::ByteReader r(payload);
    return b.load(r);
  };
  ASSERT_TRUE(loads(rewritten(kCounterAt, 2)));  // the payload as saved
  for (const std::uint64_t counter : {0u, 1u, 3u}) {
    EXPECT_FALSE(loads(rewritten(kCounterAt, counter))) << "epoch counter " << counter;
  }
  EXPECT_FALSE(loads(rewritten(published_at, 1))) << "epochs_published";
  EXPECT_FALSE(loads(rewritten(events_at, 0))) << "world_events_applied";
}

}  // namespace
}  // namespace ranycast::serve
