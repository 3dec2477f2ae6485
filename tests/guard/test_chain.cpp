// Checkpoint lineage: rotation and pruning, self-healing reads (quarantine
// + fallback), manifest rebuild from a directory scan (also when a bare
// checkpoint sits at the manifest path), the fingerprint hard-stop, offline
// verification, and the transient-I/O retry loop feeding it all.
#include "ranycast/guard/chain.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ranycast/guard/checkpoint.hpp"
#include "ranycast/guard/runtime.hpp"
#include "ranycast/vfs/fault.hpp"

namespace ranycast::guard {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFp = 0x5EED5EED5EED5EEDull;
constexpr CheckpointKind kKind = CheckpointKind::MeasurementSweep;

std::string chain_path(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   ("ranycast_chain_test." + std::to_string(::getpid())) / tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return (dir / "run.ck").string();
}

std::vector<std::uint8_t> payload_of(std::uint8_t marker) {
  return std::vector<std::uint8_t>(64, marker);
}

std::string gen_file(const std::string& ck, std::uint64_t gen) {
  return ck + ".g" + std::to_string(gen);
}

void corrupt_byte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  char byte{};
  f.seekg(offset);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  f.seekp(offset);
  f.write(&byte, 1);
}

TEST(CheckpointChain, WriteRotatesAndPrunes) {
  const std::string ck = chain_path("rotate");
  CheckpointChain chain(ck, /*keep=*/3);
  for (std::uint8_t i = 1; i <= 5; ++i) {
    auto gen = chain.write(kKind, kFp, payload_of(i));
    ASSERT_TRUE(gen.has_value()) << gen.error().to_string();
    EXPECT_EQ(*gen, i);
  }
  EXPECT_TRUE(fs::exists(ck));  // the manifest
  EXPECT_FALSE(fs::exists(gen_file(ck, 1)));
  EXPECT_FALSE(fs::exists(gen_file(ck, 2)));
  EXPECT_TRUE(fs::exists(gen_file(ck, 3)));
  EXPECT_TRUE(fs::exists(gen_file(ck, 4)));
  EXPECT_TRUE(fs::exists(gen_file(ck, 5)));
}

TEST(CheckpointChain, ReadReturnsNewestGeneration) {
  const std::string ck = chain_path("read_newest");
  CheckpointChain chain(ck, 3);
  for (std::uint8_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(chain.write(kKind, kFp, payload_of(i)).has_value());
  }
  CheckpointChain reader(ck, 3);
  auto got = reader.read(kKind, kFp);
  ASSERT_TRUE(got.has_value()) << got.error().to_string();
  EXPECT_EQ(got->payload, payload_of(4));
  EXPECT_EQ(got->generation, 4u);
  EXPECT_EQ(got->fallbacks, 0u);
  EXPECT_EQ(got->quarantined, 0u);
  EXPECT_FALSE(got->manifest_rebuilt);
}

TEST(CheckpointChain, CorruptNewestIsQuarantinedWithFallback) {
  const std::string ck = chain_path("fallback");
  CheckpointChain chain(ck, 3);
  for (std::uint8_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(chain.write(kKind, kFp, payload_of(i)).has_value());
  }
  corrupt_byte(gen_file(ck, 3), 32);  // payload byte -> CRC mismatch

  CheckpointChain reader(ck, 3);
  auto got = reader.read(kKind, kFp);
  ASSERT_TRUE(got.has_value()) << got.error().to_string();
  EXPECT_EQ(got->payload, payload_of(2));
  EXPECT_EQ(got->generation, 2u);
  EXPECT_EQ(got->fallbacks, 1u);
  EXPECT_EQ(got->quarantined, 1u);
  EXPECT_FALSE(fs::exists(gen_file(ck, 3)));
  EXPECT_TRUE(fs::exists(gen_file(ck, 3) + ".quarantined"));
}

TEST(CheckpointChain, EveryGenerationDamagedIsStructuredCorruption) {
  const std::string ck = chain_path("all_damaged");
  CheckpointChain chain(ck, 3);
  for (std::uint8_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(chain.write(kKind, kFp, payload_of(i)).has_value());
  }
  for (std::uint64_t g = 1; g <= 3; ++g) corrupt_byte(gen_file(ck, g), 32);

  CheckpointChain reader(ck, 3);
  auto got = reader.read(kKind, kFp);
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.error().kind, GuardErrorKind::Corrupt);
  EXPECT_EQ(got.error().severity(), GuardSeverity::CorruptState);
  EXPECT_NE(got.error().message.find("damaged"), std::string::npos)
      << got.error().to_string();
}

TEST(CheckpointChain, MissingManifestRebuildsFromDirectoryScan) {
  const std::string ck = chain_path("rebuild");
  CheckpointChain chain(ck, 3);
  for (std::uint8_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(chain.write(kKind, kFp, payload_of(i)).has_value());
  }
  fs::remove(ck);  // the manifest vanishes; generations survive
  ASSERT_TRUE(chain_exists(ck));  // orphan generations still count

  CheckpointChain reader(ck, 3);
  auto got = reader.read(kKind, kFp);
  ASSERT_TRUE(got.has_value()) << got.error().to_string();
  EXPECT_EQ(got->payload, payload_of(3));
  EXPECT_EQ(got->generation, 3u);
  EXPECT_TRUE(got->manifest_rebuilt);
}

TEST(CheckpointChain, CrashOrphanGenerationStaysInvisibleUntilManifestLoss) {
  const std::string ck = chain_path("orphan");
  CheckpointChain chain(ck, 3);
  for (std::uint8_t i = 1; i <= 2; ++i) {
    ASSERT_TRUE(chain.write(kKind, kFp, payload_of(i)).has_value());
  }
  // A crash between "write generation 3" and "rewrite manifest" leaves an
  // orphan file no manifest names.
  ASSERT_TRUE(write_checkpoint(gen_file(ck, 3), kKind, kFp, payload_of(9)).has_value());

  // The manifest is the commit point: while it survives, the uncommitted
  // generation is invisible and resume sees the last COMMITTED state.
  CheckpointChain reader(ck, 3);
  auto committed = reader.read(kKind, kFp);
  ASSERT_TRUE(committed.has_value()) << committed.error().to_string();
  EXPECT_EQ(committed->payload, payload_of(2));
  EXPECT_EQ(committed->generation, 2u);

  // A restarted writer reclaims the orphan's slot idempotently (the retry
  // path: same generation number, atomically overwritten, then committed).
  CheckpointChain writer(ck, 3);
  auto gen = writer.write(kKind, kFp, payload_of(10));
  ASSERT_TRUE(gen.has_value()) << gen.error().to_string();
  EXPECT_EQ(*gen, 3u);
  CheckpointChain after(ck, 3);
  auto got = after.read(kKind, kFp);
  ASSERT_TRUE(got.has_value()) << got.error().to_string();
  EXPECT_EQ(got->payload, payload_of(10));
  EXPECT_EQ(got->generation, 3u);
}

TEST(CheckpointChain, OrphanIsAdoptedByScanWhenManifestIsLost) {
  const std::string ck = chain_path("orphan_scan");
  CheckpointChain chain(ck, 3);
  for (std::uint8_t i = 1; i <= 2; ++i) {
    ASSERT_TRUE(chain.write(kKind, kFp, payload_of(i)).has_value());
  }
  ASSERT_TRUE(write_checkpoint(gen_file(ck, 3), kKind, kFp, payload_of(9)).has_value());
  fs::remove(ck);  // crash also lost the manifest

  // With no manifest to defer to, the directory scan adopts the newest
  // on-disk generation — the orphan's data is better than rolling back.
  CheckpointChain reader(ck, 3);
  auto got = reader.read(kKind, kFp);
  ASSERT_TRUE(got.has_value()) << got.error().to_string();
  EXPECT_EQ(got->payload, payload_of(9));
  EXPECT_EQ(got->generation, 3u);
  EXPECT_TRUE(got->manifest_rebuilt);
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(CheckpointChain, BareCheckpointAtPolicyPathReadsAsUnreadableManifest) {
  // Beside generation files: the directory scan recovers the newest one,
  // and verify lists the bare file as a problem.
  const std::string ck = chain_path("bare_with_generations");
  {
    CheckpointChain chain(ck, 3);
    for (std::uint8_t i = 1; i <= 2; ++i) {
      ASSERT_TRUE(chain.write(kKind, kFp, payload_of(i)).has_value());
    }
  }
  ASSERT_TRUE(write_checkpoint(ck, kKind, kFp, payload_of(7)).has_value());
  CheckpointChain reader(ck, 3);
  auto got = reader.read(kKind, kFp);
  ASSERT_TRUE(got.has_value()) << got.error().to_string();
  EXPECT_EQ(got->payload, payload_of(2));
  EXPECT_EQ(got->generation, 2u);
  EXPECT_TRUE(got->manifest_rebuilt);
  auto verified = chain_verify(ck);
  ASSERT_TRUE(verified.has_value()) << verified.error().to_string();
  EXPECT_EQ(verified->generations, 2u);
  EXPECT_EQ(verified->valid, 2u);
  ASSERT_EQ(verified->problems.size(), 1u);
  EXPECT_NE(verified->problems[0].find("not a chain manifest"), std::string::npos);

  // Alone: the read fails Corrupt and leaves the file as it was, and verify
  // finds nothing valid.
  const std::string bare = chain_path("bare_alone");
  ASSERT_TRUE(write_checkpoint(bare, kKind, kFp, payload_of(7)).has_value());
  ASSERT_TRUE(chain_exists(bare));
  const std::vector<std::uint8_t> before = file_bytes(bare);
  CheckpointChain alone(bare, 3);
  auto refused = alone.read(kKind, kFp);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().kind, GuardErrorKind::Corrupt);
  EXPECT_EQ(file_bytes(bare), before);
  auto lone = chain_verify(bare);
  ASSERT_TRUE(lone.has_value()) << lone.error().to_string();
  EXPECT_FALSE(lone->ok());
  EXPECT_EQ(lone->generations, 0u);
  EXPECT_EQ(lone->problems.size(), 1u);
}

TEST(CheckpointChain, ForeignFingerprintIsNeverQuarantined) {
  const std::string ck = chain_path("foreign");
  CheckpointChain chain(ck, 3);
  ASSERT_TRUE(chain.write(kKind, kFp, payload_of(1)).has_value());

  CheckpointChain reader(ck, 3);
  auto got = reader.read(kKind, kFp + 1);  // a different experiment resumes
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.error().kind, GuardErrorKind::FingerprintMismatch);
  EXPECT_EQ(got.error().severity(), GuardSeverity::Fatal);
  // Operator error, not bit rot: nothing is renamed or destroyed.
  EXPECT_TRUE(fs::exists(gen_file(ck, 1)));
  EXPECT_FALSE(fs::exists(gen_file(ck, 1) + ".quarantined"));
  // The rightful owner can still resume.
  CheckpointChain owner(ck, 3);
  EXPECT_TRUE(owner.read(kKind, kFp).has_value());
}

TEST(CheckpointChain, MismatchedKindIsRejected) {
  const std::string ck = chain_path("kind");
  CheckpointChain chain(ck, 3);
  ASSERT_TRUE(chain.write(CheckpointKind::StabilityTrials, kFp, payload_of(1)).has_value());
  CheckpointChain reader(ck, 3);
  EXPECT_FALSE(reader.read(CheckpointKind::ChaosTimeline, kFp).has_value());
}

TEST(CheckpointChain, VerifyReportsHealthAndDamageWithoutMutating) {
  const std::string ck = chain_path("verify");
  CheckpointChain chain(ck, 3);
  for (std::uint8_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(chain.write(kKind, kFp, payload_of(i)).has_value());
  }
  auto healthy = chain_verify(ck);
  ASSERT_TRUE(healthy.has_value()) << healthy.error().to_string();
  EXPECT_TRUE(healthy->ok());
  EXPECT_EQ(healthy->generations, 3u);
  EXPECT_EQ(healthy->valid, 3u);
  EXPECT_TRUE(healthy->problems.empty());

  corrupt_byte(gen_file(ck, 3), 32);
  auto damaged = chain_verify(ck);
  ASSERT_TRUE(damaged.has_value()) << damaged.error().to_string();
  EXPECT_EQ(damaged->valid, 2u);
  EXPECT_FALSE(damaged->problems.empty());
  // verify is an offline reader: it must never quarantine.
  EXPECT_TRUE(fs::exists(gen_file(ck, 3)));
  EXPECT_FALSE(fs::exists(gen_file(ck, 3) + ".quarantined"));
}

TEST(CheckpointChain, WriteSurvivesTransientFaultsViaRetry) {
  const std::string ck = chain_path("retry_storm");
  Supervisor supervisor;
  RetryPolicy retry;
  retry.max_attempts = 6;
  retry.initial_backoff_ms = 0.01;
  retry.max_backoff_ms = 0.1;

  CheckpointChain chain(ck, 3);
  std::size_t committed = 0;
  {
    // Transient-only storm: every class here surfaces as a retryable error,
    // so nothing can be SILENTLY damaged (no torn renames, no bit rot) and
    // any write that reports success must be readable afterwards.
    vfs::FaultPlan plan;
    plan.seed = 11;
    plan.p_eintr = 0.2;
    plan.p_short_write = 0.3;
    plan.p_write_fail = 0.15;
    plan.p_fsync_fail = 0.1;
    plan.p_rename_fail = 0.1;
    vfs::ScopedFaultPlan faults(plan);
    for (std::uint8_t i = 1; i <= 6; ++i) {
      auto gen = retry_transient(supervisor, retry, [&] {
        return chain.write(kKind, kFp, payload_of(i));
      });
      if (gen) ++committed;
    }
  }
  // The storm may defeat individual writes (fsyncgate is not retryable in
  // place), but anything that committed must resume cleanly afterwards.
  if (committed > 0) {
    CheckpointChain reader(ck, 3);
    auto got = reader.read(kKind, kFp);
    ASSERT_TRUE(got.has_value()) << got.error().to_string();
    EXPECT_FALSE(got->payload.empty());
  }
}

TEST(RetryTransient, RetriesTransientOnlyAndAnnotates) {
  Supervisor supervisor;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 0.01;
  policy.max_backoff_ms = 0.05;

  int attempts = 0;
  auto flaky = retry_transient(supervisor, policy,
                               [&]() -> core::Expected<int, GuardError> {
                                 if (++attempts < 3) {
                                   return core::unexpected(GuardError{
                                       GuardErrorKind::TransientIo, "", "blip"});
                                 }
                                 return 42;
                               });
  ASSERT_TRUE(flaky.has_value());
  EXPECT_EQ(*flaky, 42);
  EXPECT_EQ(attempts, 3);

  attempts = 0;
  auto corrupt = retry_transient(supervisor, policy,
                                 [&]() -> core::Expected<int, GuardError> {
                                   ++attempts;
                                   return core::unexpected(GuardError{
                                       GuardErrorKind::Corrupt, "", "rot"});
                                 });
  ASSERT_FALSE(corrupt.has_value());
  EXPECT_EQ(attempts, 1);  // corrupt state is the chain's job, not a retry's

  attempts = 0;
  auto exhausted = retry_transient(supervisor, policy,
                                   [&]() -> core::Expected<int, GuardError> {
                                     ++attempts;
                                     return core::unexpected(GuardError{
                                         GuardErrorKind::TransientIo, "", "flap"});
                                   });
  ASSERT_FALSE(exhausted.has_value());
  EXPECT_EQ(attempts, 4);
  EXPECT_NE(exhausted.error().message.find("after 4 attempts"), std::string::npos);
}

TEST(RetryTransient, StopsEarlyWhenSupervisorCancels) {
  Supervisor supervisor;
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_ms = 0.01;

  int attempts = 0;
  auto result = retry_transient(supervisor, policy,
                                [&]() -> core::Expected<int, GuardError> {
                                  if (++attempts == 2) supervisor.cancel();
                                  return core::unexpected(GuardError{
                                      GuardErrorKind::TransientIo, "", "blip"});
                                });
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, GuardErrorKind::Cancelled);
  EXPECT_LT(attempts, 100);
}

}  // namespace
}  // namespace ranycast::guard
