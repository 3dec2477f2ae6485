// The immutable world a query is answered from.
//
// A WorldSnapshot is one epoch of the serving plane: the lab's measurement
// pass (lab::Lab::measure), one row per retained probe with the
// site/region/address the deployment currently maps it to and the RTT it
// would measure. Snapshots are built by the refresher off the
// live lab (chaos mutations included): in full by build_snapshot, or, once
// the process has built one, as a patch of the previous epoch whose rows
// the world event moved (serve::Server, chaos::Engine::apply_event). Both
// give the same rows and fingerprint. They are published with an atomic
// shared_ptr swap (RCU-style: readers pin an epoch by copying the pointer,
// retired epochs are reclaimed when the last reader drops its pin) and are
// never mutated after publish — a query either sees the whole epoch or the
// whole previous one, never a torn mix.
//
// Snapshots round-trip exactly through guard::ByteWriter/ByteReader (RTTs
// as raw IEEE-754 bits), which is what lets a SIGKILL'd server restore the
// last published epoch from the checkpoint chain and keep answering
// byte-identically.
//
// A row's wire form is six fields (address u32, region u16, site u16, rtt_ms
// f64, routed u8, degraded u8; a lost ping is a routed row with RTT 0), the
// bytes the journaled fingerprints rest on. ping_lost travels only in the
// checkpoint: a u64 count and the ascending u32 indices of the lost rows.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ranycast/guard/checkpoint.hpp"
#include "ranycast/lab/lab.hpp"

namespace ranycast::serve {

/// One probe's mapping in one epoch: the lab's measurement row, under the
/// name the serving plane's clients spell.
using MapEntry = lab::Measurement;

struct WorldSnapshot {
  std::uint64_t epoch{0};                 ///< publish ordinal, strictly increasing
  std::uint64_t built_at_ns{0};           ///< virtual completion time of the build
  std::uint64_t fingerprint{0};           ///< CRC over the encoded entries
  std::vector<lab::Measurement> entries;  ///< indexed like census().retained()

  bool operator==(const WorldSnapshot&) const = default;
};

/// lab::Lab::measure of the deployment's current routes, fingerprinted:
/// the same lab state yields byte-identical snapshots at any worker count.
/// `built_at_ns` is virtual serving time, never wall clock. The full build,
/// and the reference a patched epoch must equal.
WorldSnapshot build_snapshot(lab::Lab& laboratory, const lab::DeploymentHandle& handle,
                             std::uint64_t epoch, std::uint64_t built_at_ns);

/// hash_combine(entry count, CRC-32 of the six-field entries): two builds
/// of the same world state fingerprint identically.
std::uint64_t snapshot_fingerprint(const WorldSnapshot& snapshot);

void encode_snapshot(guard::ByteWriter& w, const WorldSnapshot& snapshot);
/// Returns false (and leaves `out` unspecified) on a short or garbled
/// payload, including a ping_lost list that is not strictly ascending or
/// names a row not routed with RTT 0; callers treat that as corrupt.
bool decode_snapshot(guard::ByteReader& r, WorldSnapshot& out);

}  // namespace ranycast::serve
