// Patched epochs: after its first build, a server builds each epoch by
// copying the previous one and letting the world event move its rows
// (chaos::Engine::apply_event with a pass). Every published epoch must
// equal two full builds, row for row in all seven lab::Measurement fields
// (ping_lost included) and in fingerprint:
//   - build_snapshot on the server's own lab, right after the publish;
//   - build_snapshot on a second lab of the same config that replayed the
//     consumed world events through apply_event without a pass.
// The worlds drift through the cascade scenario (geo-DB, measurement-fault
// and routing events), seeded transit link flaps that move catchments, and
// the overload scenario (demand events among routing ones), each with a
// BuildFail window and idle builds after the plan runs out, at worker
// counts {1, 2, hardware}.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "ranycast/exec/pool.hpp"
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

constexpr std::uint64_t kSecond = 1'000'000'000;
constexpr std::uint64_t kTickNs = 100'000'000;

/// Builds start every second and publish 200 ms later; the builds started
/// at 3 s and 4 s fail.
ServeConfig patch_config(const chaos::FaultPlan& world) {
  ServeConfig cfg;
  cfg.refresh_interval_ns = kSecond;
  cfg.build_time_ns = 200'000'000;
  cfg.ladder.fresh_max_age_ns = 10 * kSecond;
  cfg.ladder.stale_max_age_ns = 20 * kSecond;
  cfg.ladder.reject_after_age_ns = 60 * kSecond;
  cfg.world_plan = world;
  cfg.faults.events.push_back({ServeFaultKind::BuildFail, 2'500'000'000, 2 * kSecond, 0, 0});
  return cfg;
}

/// "" when `got` equals `want` in every row and in fingerprint, else where
/// they first differ.
std::string first_difference(const WorldSnapshot& got, const WorldSnapshot& want) {
  if (got.entries.size() != want.entries.size()) {
    return "row count " + std::to_string(got.entries.size()) + " vs " +
           std::to_string(want.entries.size());
  }
  for (std::size_t i = 0; i < got.entries.size(); ++i) {
    const lab::Measurement& g = got.entries[i];
    const lab::Measurement& w = want.entries[i];
    if (g == w) continue;
    return "row " + std::to_string(i) + ": address " + std::to_string(g.address) + "/" +
           std::to_string(w.address) + " region " + std::to_string(g.region) + "/" +
           std::to_string(w.region) + " site " + std::to_string(g.site) + "/" +
           std::to_string(w.site) + " rtt " + std::to_string(g.rtt_ms) + "/" +
           std::to_string(w.rtt_ms) + " routed " + std::to_string(g.routed) + "/" +
           std::to_string(w.routed) + " degraded " + std::to_string(g.degraded) + "/" +
           std::to_string(w.degraded) + " ping_lost " + std::to_string(g.ping_lost) + "/" +
           std::to_string(w.ping_lost);
  }
  if (got.fingerprint != want.fingerprint) return "fingerprint";
  return "";
}

/// Drives a server through `world` and a few idle builds past its last
/// event, checking every published epoch against both references.
void expect_patched_epochs_match(const chaos::FaultPlan& world) {
  const ServeConfig cfg = patch_config(world);
  lab::Lab served_lab = lab::Lab::create(small_config());
  const auto& served_handle = served_lab.add_deployment(cdn::catalog::imperva6());
  Server server(served_lab, served_handle, cfg);

  lab::Lab replay_lab = lab::Lab::create(small_config());
  const auto& replay_handle = replay_lab.add_deployment(cdn::catalog::imperva6());
  chaos::Engine replayer(replay_lab, replay_handle);
  std::uint64_t replayed = 0;

  std::uint64_t last_epoch = 0;
  std::size_t idle_epochs = 0;
  const std::uint64_t end = (world.events.size() + 5) * kSecond;
  for (std::uint64_t now = 0; now <= end; now += kTickNs) {
    ASSERT_TRUE(server.tick(now).has_value()) << "t " << now;
    const auto pinned = server.pin();
    if (pinned == nullptr || pinned->epoch == last_epoch) continue;
    ASSERT_EQ(pinned->epoch, last_epoch + 1);
    last_epoch = pinned->epoch;
    const std::uint64_t applied = server.stats().world_events_applied;
    if (applied == replayed) ++idle_epochs;  // a build that applied no event
    for (; replayed < applied; ++replayed) {
      ASSERT_EQ(replayer.apply_event(world.events[replayed]), "") << "event " << replayed;
    }
    const WorldSnapshot same_lab =
        build_snapshot(served_lab, served_handle, pinned->epoch, pinned->built_at_ns);
    const WorldSnapshot replay =
        build_snapshot(replay_lab, replay_handle, pinned->epoch, pinned->built_at_ns);
    EXPECT_EQ(first_difference(*pinned, same_lab), "")
        << "epoch " << pinned->epoch << " after " << applied << " events, same lab";
    EXPECT_EQ(first_difference(*pinned, replay), "")
        << "epoch " << pinned->epoch << " after " << applied << " events, replayed lab";
  }
  EXPECT_EQ(server.stats().world_events_applied, world.events.size());
  EXPECT_EQ(server.stats().builds_failed, 2u);
  EXPECT_GE(idle_epochs, 2u);
}

void at_every_worker_count(const chaos::FaultPlan& world) {
  ASSERT_FALSE(world.events.empty());
  auto& pool = exec::ThreadPool::global();
  const unsigned original = pool.worker_count();
  std::vector<unsigned> sweep{1, 2};
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  if (hardware > 2) sweep.push_back(hardware);
  for (const unsigned workers : sweep) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    pool.resize(workers);
    expect_patched_epochs_match(world);
  }
  pool.resize(original);
}

TEST(ServePatch, CascadeEpochsEqualFullBuilds) {
  at_every_worker_count(test_plans::scenario("chaos_cascade.json"));
}

TEST(ServePatch, LinkFlapEpochsEqualFullBuilds) {
  at_every_worker_count(test_plans::moving_link_flaps(small_config(), 2023, 3));
}

TEST(ServePatch, SurgeEpochsEqualFullBuilds) {
  at_every_worker_count(test_plans::scenario("chaos_overload.json"));
}

}  // namespace
}  // namespace ranycast::serve
