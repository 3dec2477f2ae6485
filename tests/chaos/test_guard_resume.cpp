// ISSUE acceptance gate: a chaos timeline killed at any step and resumed
// from its checkpoint must produce a final report byte-identical to an
// uninterrupted same-seed run — at worker counts {1, 2, hardware}. With the
// checkpoint lineage, single-point damage (a corrupt newest generation, a
// torn manifest) must self-heal transparently; only total damage or a
// foreign checkpoint is rejected, never silently replayed.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/guard/chain.hpp"
#include "ranycast/guard/checkpoint.hpp"

namespace ranycast::chaos {
namespace {

namespace fs = std::filesystem;

lab::LabConfig tiny_config(std::uint64_t seed = 2023) {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  config.seed = seed;
  return config;
}

/// A timeline exercising routing, geo-DB and measurement-plane faults, with
/// withdraw/restore pairs so fast-forward replay must track undo state too.
FaultPlan cascade_plan() {
  FaultPlan plan;
  plan.name = "resume-cascade";
  FaultEvent e;

  e.kind = FaultKind::SiteWithdraw;
  e.site = SiteId{0};
  plan.events.push_back(e);

  e = FaultEvent{};
  e.kind = FaultKind::GeoDbStale;
  e.db = 0;
  e.magnitude = 0.4;
  plan.events.push_back(e);

  e = FaultEvent{};
  e.kind = FaultKind::MeasurementDegrade;
  e.faults.ping_loss_prob = 0.2;
  e.faults.dns_timeout_prob = 0.1;
  plan.events.push_back(e);

  e = FaultEvent{};
  e.kind = FaultKind::SiteRestore;
  e.site = SiteId{0};
  plan.events.push_back(e);

  e = FaultEvent{};
  e.kind = FaultKind::RegionWithdraw;
  e.region = 0;
  plan.events.push_back(e);

  e = FaultEvent{};
  e.kind = FaultKind::RegionRestore;
  e.region = 0;
  plan.events.push_back(e);

  e = FaultEvent{};
  e.kind = FaultKind::MeasurementRestore;
  plan.events.push_back(e);

  return plan;
}

std::string checkpoint_path(const std::string& tag) {
  const auto dir = fs::temp_directory_path() / "ranycast_chaos_resume";
  fs::create_directories(dir);
  return (dir / (tag + ".ck")).string();
}

/// Remove the whole lineage — manifest, generation files, quarantined
/// casualties, stray tmp files — so a test never adopts a previous run's
/// generations via the directory scan.
void remove_chain_files(const std::string& ck) {
  const fs::path manifest(ck);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(manifest.parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(manifest.filename().string(), 0) == 0) fs::remove(entry.path());
  }
}

/// Newest on-disk generation file ("<ck>.g<N>" with the largest N).
std::string newest_generation(const std::string& ck) {
  std::string best;
  std::uint64_t best_gen = 0;
  const std::string prefix = fs::path(ck).filename().string() + ".g";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(fs::path(ck).parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string digits = name.substr(prefix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const auto gen = std::stoull(digits);
    if (gen >= best_gen) {
      best_gen = gen;
      best = entry.path().string();
    }
  }
  return best;
}

/// Flip one byte in place (read-modify-write, so the byte always changes).
void corrupt_byte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  char byte{};
  f.seekg(offset);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(offset);
  f.write(&byte, 1);
}

/// Uninterrupted baseline through the *guarded* path (no checkpoint file),
/// serialized to the exact bytes the CLI would emit.
std::string baseline_json(std::uint64_t seed = 2023) {
  auto laboratory = lab::Lab::create(tiny_config(seed));
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  auto outcome = engine.run_guarded(cascade_plan(), supervisor, policy);
  EXPECT_TRUE(outcome.has_value()) << outcome.error();
  return outcome ? report_to_json(outcome->report).dump(2) : std::string();
}

/// Run to `abort_at` completed steps with checkpointing, stop, then resume
/// in a fresh lab and return the final report bytes.
std::string abort_and_resume_json(std::size_t abort_at, const std::string& tag,
                                  std::uint64_t seed = 2023) {
  const std::string ck = checkpoint_path(tag);
  remove_chain_files(ck);
  {
    auto laboratory = lab::Lab::create(tiny_config(seed));
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    Engine engine(laboratory, im6);
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == abort_at) supervisor.cancel();
    };
    auto first = engine.run_guarded(cascade_plan(), supervisor, policy);
    EXPECT_TRUE(first.has_value()) << first.error();
    if (!first) return {};
    EXPECT_EQ(first->sweep.completed, abort_at);
    EXPECT_TRUE(first->report.truncated);
    EXPECT_EQ(first->report.completed_steps, abort_at);
    EXPECT_EQ(first->report.steps.size(), abort_at);
  }
  auto laboratory = lab::Lab::create(tiny_config(seed));
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto second = engine.run_guarded(cascade_plan(), supervisor, policy);
  EXPECT_TRUE(second.has_value()) << second.error();
  if (!second) return {};
  EXPECT_TRUE(second->sweep.resumed);
  EXPECT_EQ(second->sweep.resumed_from, abort_at);
  EXPECT_FALSE(second->report.truncated);
  remove_chain_files(ck);
  return report_to_json(second->report).dump(2);
}

/// Checkpointed run aborted after `abort_at` steps, leaving the chain on
/// disk for the caller to damage before resuming.
void run_and_abort(const std::string& ck, std::size_t abort_at,
                   std::uint64_t seed = 2023) {
  auto laboratory = lab::Lab::create(tiny_config(seed));
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.after_step = [&](std::size_t done, std::size_t) {
    if (done == abort_at) supervisor.cancel();
  };
  ASSERT_TRUE(engine.run_guarded(cascade_plan(), supervisor, policy).has_value());
}

TEST(GuardResume, ByteIdenticalAtEveryAbortPoint) {
  const std::string expected = baseline_json();
  ASSERT_FALSE(expected.empty());
  const std::size_t n = cascade_plan().events.size();
  // The ISSUE's abort matrix: first step, middle, last-but-one.
  for (const std::size_t abort_at : {std::size_t{1}, n / 2, n - 1}) {
    EXPECT_EQ(abort_and_resume_json(abort_at, "abort_" + std::to_string(abort_at)),
              expected)
        << "aborted after step " << abort_at;
  }
}

TEST(GuardResume, ByteIdenticalAcrossWorkerCounts) {
  auto& pool = exec::ThreadPool::global();
  const unsigned original = pool.worker_count();

  pool.resize(1);
  const std::string expected = baseline_json();
  const std::size_t n = cascade_plan().events.size();

  std::vector<unsigned> sweep{1, 2};
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  if (hardware != 2 && hardware != 1) sweep.push_back(hardware);
  for (const unsigned workers : sweep) {
    pool.resize(workers);
    EXPECT_EQ(baseline_json(), expected) << workers << " workers, uninterrupted";
    EXPECT_EQ(abort_and_resume_json(n / 2, "threads_" + std::to_string(workers)),
              expected)
        << workers << " workers, abort at " << n / 2;
  }
  pool.resize(original);
}

TEST(GuardResume, GuardedMatchesUnguardedRun) {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  auto plain = engine.run(cascade_plan());
  ASSERT_TRUE(plain.has_value()) << plain.error();
  EXPECT_EQ(plain->completed_steps, plain->planned_steps);
  EXPECT_FALSE(plain->truncated);
  EXPECT_EQ(report_to_json(*plain).dump(2), baseline_json());
}

TEST(GuardResume, CorruptNewestGenerationQuarantinesAndFallsBack) {
  const std::string ck = checkpoint_path("corrupt_gen");
  remove_chain_files(ck);
  run_and_abort(ck, 2);

  // Flip one payload byte in the NEWEST generation: resume must quarantine
  // it, fall back to the previous generation and still converge to the
  // uninterrupted baseline — transparently, not as an error.
  const std::string newest = newest_generation(ck);
  ASSERT_FALSE(newest.empty()) << "no generation files next to " << ck;
  corrupt_byte(newest, 40);

  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto outcome = engine.run_guarded(cascade_plan(), supervisor, policy);
  ASSERT_TRUE(outcome.has_value()) << outcome.error();
  EXPECT_TRUE(outcome->sweep.resumed);
  // Fallback resumes from the previous generation's cursor, one step back.
  EXPECT_EQ(outcome->sweep.resumed_from, 1u);
  EXPECT_EQ(report_to_json(outcome->report).dump(2), baseline_json());
  EXPECT_FALSE(fs::exists(newest));
  EXPECT_TRUE(fs::exists(newest + ".quarantined"));
  remove_chain_files(ck);
}

TEST(GuardResume, TornManifestHealsViaDirectoryScan) {
  const std::string ck = checkpoint_path("torn_manifest");
  remove_chain_files(ck);
  run_and_abort(ck, 2);

  // Tear the manifest in half (the classic no-dir-fsync rename loss). The
  // generations are intact, so resume must rebuild the chain from the
  // directory scan and proceed as if nothing happened.
  const auto full_size = fs::file_size(ck);
  fs::resize_file(ck, full_size / 2);

  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto outcome = engine.run_guarded(cascade_plan(), supervisor, policy);
  ASSERT_TRUE(outcome.has_value()) << outcome.error();
  EXPECT_TRUE(outcome->sweep.resumed);
  EXPECT_EQ(outcome->sweep.resumed_from, 2u);
  EXPECT_EQ(report_to_json(outcome->report).dump(2), baseline_json());
  remove_chain_files(ck);
}

TEST(GuardResume, EveryGenerationCorruptIsRejected) {
  const std::string ck = checkpoint_path("all_corrupt");
  remove_chain_files(ck);
  run_and_abort(ck, 2);

  // Damage every generation: self-healing has nothing left to fall back to,
  // so resume must surface a structured corruption error — never silently
  // restart from scratch.
  std::size_t generations = 0;
  for (std::string gen = newest_generation(ck); !gen.empty();
       gen = newest_generation(ck)) {
    corrupt_byte(gen, 40);
    fs::rename(gen, gen + ".damaged");  // park it so the scan loop advances
    ++generations;
  }
  ASSERT_GE(generations, 2u);
  for (const auto& entry : fs::directory_iterator(fs::path(ck).parent_path())) {
    const std::string name = entry.path().string();
    if (name.size() > 8 && name.rfind(ck + ".g", 0) == 0 &&
        name.compare(name.size() - 8, 8, ".damaged") == 0) {
      fs::rename(name, name.substr(0, name.size() - 8));
    }
  }

  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto outcome = engine.run_guarded(cascade_plan(), supervisor, policy);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_NE(outcome.error().find("damaged"), std::string::npos) << outcome.error();
  remove_chain_files(ck);
}

/// Turn the traffic or the transient plane on: its records join the
/// checkpoint payload as its last section.
void enable_plane(Engine& engine, bool traffic) {
  if (traffic) {
    engine.enable_traffic(traffic::TrafficConfig{});
  } else {
    engine.enable_transient(converge::Config{});
  }
}

/// A guarded run's newest generation, re-written as a new generation whose
/// plane record claims 2^62 sites (traffic) or regions (transient): the
/// resume must fail the decode instead of throwing out of the loader.
void expect_huge_record_count_rejected(const std::string& tag, bool traffic) {
  const std::string ck = checkpoint_path(tag);
  remove_chain_files(ck);
  {
    auto laboratory = lab::Lab::create(tiny_config());
    const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
    Engine engine(laboratory, im6);
    enable_plane(engine, traffic);
    guard::Supervisor supervisor;
    guard::CheckpointPolicy policy;
    policy.path = ck;
    policy.after_step = [&](std::size_t done, std::size_t) {
      if (done == 1) supervisor.cancel();
    };
    ASSERT_TRUE(engine.run_guarded(cascade_plan(), supervisor, policy).has_value());
  }
  auto inspected = guard::read_checkpoint_unchecked(newest_generation(ck));
  ASSERT_TRUE(inspected.has_value()) << inspected.error().to_string();
  std::vector<std::uint8_t> payload = inspected->payload;
  // The plane's record is the last one carrying the step's event string
  // (u32 length + bytes); its site or region count follows that string.
  guard::ByteWriter event;
  event.str(describe(cascade_plan().events[0]));
  const auto at =
      std::find_end(payload.begin(), payload.end(), event.data().begin(), event.data().end());
  ASSERT_NE(at, payload.end());
  const auto count_at = at + static_cast<std::ptrdiff_t>(event.data().size());
  ASSERT_GE(payload.end() - count_at, 8);
  guard::ByteWriter huge;
  huge.u64(std::uint64_t{1} << 62);
  std::copy(huge.data().begin(), huge.data().end(), count_at);
  guard::CheckpointChain chain(ck, guard::CheckpointPolicy{}.keep);
  ASSERT_TRUE(
      chain.write(inspected->info.kind, inspected->info.fingerprint, payload).has_value());

  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  enable_plane(engine, traffic);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto outcome = engine.run_guarded(cascade_plan(), supervisor, policy);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_NE(outcome.error().find("failed to decode"), std::string::npos) << outcome.error();
  remove_chain_files(ck);
}

TEST(GuardResume, HugeTrafficSiteCountFailsTheDecode) {
  expect_huge_record_count_rejected("huge_sites", /*traffic=*/true);
}

TEST(GuardResume, HugeTransientRegionCountFailsTheDecode) {
  expect_huge_record_count_rejected("huge_regions", /*traffic=*/false);
}

TEST(GuardResume, CheckpointFromOtherSeedIsRejected) {
  const std::string ck = checkpoint_path("other_seed");
  remove_chain_files(ck);
  run_and_abort(ck, 2, /*seed=*/2023);

  auto laboratory = lab::Lab::create(tiny_config(777));  // different experiment
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  guard::Supervisor supervisor;
  guard::CheckpointPolicy policy;
  policy.path = ck;
  policy.resume = true;
  auto outcome = engine.run_guarded(cascade_plan(), supervisor, policy);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_NE(outcome.error().find("fingerprint"), std::string::npos) << outcome.error();
  // Operator error, not bit rot: the foreign chain must survive untouched.
  EXPECT_TRUE(guard::chain_exists(ck));
  EXPECT_FALSE(fs::exists(newest_generation(ck) + ".quarantined"));
  remove_chain_files(ck);
}

TEST(GuardResume, DeadlineTruncationIsAccountedExplicitly) {
  auto laboratory = lab::Lab::create(tiny_config());
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  Engine engine(laboratory, im6);
  guard::RunLimits limits;
  limits.deadline_s = 1e-9;  // already expired at the first boundary
  guard::Supervisor supervisor(limits);
  guard::CheckpointPolicy policy;
  auto outcome = engine.run_guarded(cascade_plan(), supervisor, policy);
  ASSERT_TRUE(outcome.has_value()) << outcome.error();
  EXPECT_TRUE(outcome->report.truncated);
  EXPECT_EQ(outcome->report.completed_steps, 0u);
  EXPECT_EQ(outcome->report.planned_steps, cascade_plan().events.size());
  EXPECT_EQ(outcome->sweep.stopped, guard::StopReason::DeadlineExpired);
  const io::Json json = report_to_json(outcome->report);
  EXPECT_TRUE(json.as_object().at("truncated").as_bool());
}

}  // namespace
}  // namespace ranycast::chaos
