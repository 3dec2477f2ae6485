// WorldSnapshot: deterministic builds (any worker count), content
// fingerprints, the frozen six-field wire form, and the exact checkpoint
// codec round-trip including the ping_lost list.
#include "ranycast/serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <span>
#include <thread>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/core/crc32.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/exec/pool.hpp"

namespace ranycast::serve {
namespace {

lab::LabConfig small_config() {
  lab::LabConfig config;
  config.world.stub_count = 400;
  config.census.total_probes = 1200;
  return config;
}

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest()
      : lab_(lab::Lab::create(small_config())),
        im6_(&lab_.add_deployment(cdn::catalog::imperva6())) {}

  /// A snapshot built under measurement faults: some pings are lost and
  /// some DNS answers degraded.
  WorldSnapshot faulty_snapshot() {
    lab::MeasurementFaults faults;
    faults.ping_loss_prob = 0.35;
    faults.dns_timeout_prob = 0.3;
    faults.max_retries = 1;
    lab_.set_measurement_faults(faults);
    WorldSnapshot snap = build_snapshot(lab_, *im6_, 3, 1'000);
    lab_.set_measurement_faults(std::nullopt);
    return snap;
  }

  lab::Lab lab_;
  const lab::DeploymentHandle* im6_;
};

std::size_t count_lost(const WorldSnapshot& snap) {
  std::size_t lost = 0;
  for (const MapEntry& e : snap.entries) lost += e.ping_lost ? 1 : 0;
  return lost;
}

/// The checkpoint bytes of `snap` up to its ping_lost list.
std::vector<std::uint8_t> without_lost_list(const WorldSnapshot& snap) {
  guard::ByteWriter w;
  encode_snapshot(w, snap);
  std::vector<std::uint8_t> bytes = w.take();
  bytes.resize(bytes.size() - 8 - 4 * count_lost(snap));
  return bytes;
}

/// Those bytes followed by `lost` as the ping_lost list, written as the
/// codec writes it: a u64 count, then u32 indices.
std::vector<std::uint8_t> with_lost_list(const WorldSnapshot& snap,
                                         const std::vector<std::uint32_t>& lost) {
  guard::ByteWriter w;
  w.bytes(without_lost_list(snap));
  w.u64(lost.size());
  for (const std::uint32_t i : lost) w.u32(i);
  return w.take();
}

bool decodes(const std::vector<std::uint8_t>& bytes) {
  guard::ByteReader r(bytes);
  WorldSnapshot out;
  return decode_snapshot(r, out);
}

TEST_F(SnapshotTest, CoversEveryRetainedProbe) {
  const WorldSnapshot snap = build_snapshot(lab_, *im6_, 1, 42);
  EXPECT_EQ(snap.epoch, 1u);
  EXPECT_EQ(snap.built_at_ns, 42u);
  EXPECT_EQ(snap.entries.size(), lab_.census().retained().size());
  EXPECT_EQ(snap.fingerprint, snapshot_fingerprint(snap));

  std::size_t routed = 0;
  for (const MapEntry& e : snap.entries) {
    if (!e.routed) continue;
    ++routed;
    EXPECT_NE(e.site, value(kInvalidSite));
    EXPECT_GT(e.rtt_ms, 0.0);
  }
  // A healthy deployment serves the vast majority of the census.
  EXPECT_GT(routed, snap.entries.size() / 2);
}

TEST_F(SnapshotTest, RebuildOfSameWorldIsIdentical) {
  const WorldSnapshot a = build_snapshot(lab_, *im6_, 1, 100);
  const WorldSnapshot b = build_snapshot(lab_, *im6_, 1, 100);
  EXPECT_EQ(a, b);
}

TEST_F(SnapshotTest, WorkerCountDoesNotChangeContent) {
  auto& pool = exec::ThreadPool::global();
  const unsigned original = pool.worker_count();
  pool.resize(1);
  const WorldSnapshot baseline = build_snapshot(lab_, *im6_, 1, 0);
  for (const unsigned workers :
       {2u, std::max(1u, std::thread::hardware_concurrency())}) {
    pool.resize(workers);
    EXPECT_EQ(build_snapshot(lab_, *im6_, 1, 0), baseline) << workers << " workers";
  }
  pool.resize(original);
}

TEST_F(SnapshotTest, FingerprintIgnoresEpochAndBuildTime) {
  const WorldSnapshot a = build_snapshot(lab_, *im6_, 1, 0);
  const WorldSnapshot b = build_snapshot(lab_, *im6_, 7, 999);
  EXPECT_EQ(snapshot_fingerprint(a), snapshot_fingerprint(b));
}

TEST_F(SnapshotTest, EncodeDecodeRoundTripsExactly) {
  const WorldSnapshot snap = build_snapshot(lab_, *im6_, 3, 1'000);
  guard::ByteWriter w;
  encode_snapshot(w, snap);
  guard::ByteReader r(w.data());
  WorldSnapshot restored;
  ASSERT_TRUE(decode_snapshot(r, restored));
  EXPECT_EQ(restored, snap);
}

TEST_F(SnapshotTest, DecodeRefusesCorruptPayload) {
  const WorldSnapshot snap = build_snapshot(lab_, *im6_, 3, 1'000);
  guard::ByteWriter w;
  encode_snapshot(w, snap);
  std::vector<std::uint8_t> bytes(w.data().begin(), w.data().end());
  bytes[bytes.size() / 2] ^= 0x10;  // flip one entry byte: fingerprint must catch it
  guard::ByteReader r(bytes);
  WorldSnapshot restored;
  EXPECT_FALSE(decode_snapshot(r, restored));

  guard::ByteReader short_r(std::span<const std::uint8_t>(bytes.data(), 10));
  EXPECT_FALSE(decode_snapshot(short_r, restored));
}

TEST_F(SnapshotTest, LostPingsTravelAsRoutedZeroRttRows) {
  const WorldSnapshot snap = faulty_snapshot();
  std::size_t degraded = 0;
  for (const MapEntry& e : snap.entries) {
    degraded += e.degraded ? 1 : 0;
    if (!e.ping_lost) continue;
    EXPECT_TRUE(e.routed);
    EXPECT_EQ(e.rtt_ms, 0.0);
  }
  EXPECT_GT(count_lost(snap), 0u);
  EXPECT_GT(degraded, 0u);
}

TEST_F(SnapshotTest, FingerprintPinsTheSixFieldWireForm) {
  // The journaled serve_epoch fingerprints rest on exactly these bytes; the
  // ping_lost bit is not among them.
  const WorldSnapshot snap = faulty_snapshot();
  guard::ByteWriter w;
  w.u64(snap.entries.size());
  for (const MapEntry& e : snap.entries) {
    w.u32(e.address);
    w.u16(e.region);
    w.u16(e.site);
    w.f64(e.rtt_ms);
    w.u8(e.routed ? 1 : 0);
    w.u8(e.degraded ? 1 : 0);
  }
  const std::uint64_t expected =
      hash_combine(snap.entries.size(), core::crc32(w.data().data(), w.data().size()));
  EXPECT_EQ(snap.fingerprint, expected);
  EXPECT_EQ(snapshot_fingerprint(snap), expected);
}

TEST_F(SnapshotTest, EncodeDecodeKeepsLostPings) {
  const WorldSnapshot snap = faulty_snapshot();
  ASSERT_GT(count_lost(snap), 0u);
  guard::ByteWriter w;
  encode_snapshot(w, snap);
  guard::ByteReader r(w.data());
  WorldSnapshot restored;
  ASSERT_TRUE(decode_snapshot(r, restored));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored, snap);
  EXPECT_EQ(count_lost(restored), count_lost(snap));
}

TEST_F(SnapshotTest, DecodeRefusesABadLostList) {
  const WorldSnapshot snap = faulty_snapshot();
  std::vector<std::uint32_t> lost, measured;
  for (std::uint32_t i = 0; i < snap.entries.size(); ++i) {
    const MapEntry& e = snap.entries[i];
    if (e.routed) (e.ping_lost ? lost : measured).push_back(i);
  }
  ASSERT_GE(lost.size(), 2u);
  ASSERT_FALSE(measured.empty());
  ASSERT_TRUE(decodes(with_lost_list(snap, lost)));  // the writer's own list

  EXPECT_FALSE(decodes(without_lost_list(snap)));  // a checkpoint without it

  const auto count = static_cast<std::uint32_t>(snap.entries.size());
  EXPECT_FALSE(decodes(with_lost_list(snap, {lost[0], count})));    // out of range
  EXPECT_FALSE(decodes(with_lost_list(snap, {lost[1], lost[0]})));  // descending
  EXPECT_FALSE(decodes(with_lost_list(snap, {lost[0], lost[0]})));  // repeated
  EXPECT_FALSE(decodes(with_lost_list(snap, {measured[0]})));       // has an RTT

  // A healthy deployment routes every probe: unroute one row to list it.
  WorldSnapshot unrouted = snap;
  MapEntry& e = unrouted.entries[measured[0]];
  e.routed = false;
  e.site = value(kInvalidSite);
  e.rtt_ms = 0.0;
  unrouted.fingerprint = snapshot_fingerprint(unrouted);
  EXPECT_FALSE(decodes(with_lost_list(unrouted, {measured[0]})));   // not routed
}

}  // namespace
}  // namespace ranycast::serve
