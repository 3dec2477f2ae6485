// Checkpoint lineage: a rotating chain of the last K checkpoint
// generations plus a CRC'd manifest, replacing the single-file checkpoint
// for supervised runs.
//
// Layout on disk, for a policy path of "run.ck" and keep = 3:
//
//   run.ck        manifest (checkpoint envelope, kind = ChainManifest):
//                 keep u32 | count u64 | entries (newest first), each
//                 generation u64 | basename str | file_size u64 | crc32 u32
//   run.ck.g7     newest generation (a normal checkpoint envelope)
//   run.ck.g6     previous generation
//   run.ck.g5     oldest retained generation
//
// Write path: the new generation file is written atomically first, then the
// manifest is rewritten to point at it, then generations that fell off the
// window are pruned. A crash between any two steps leaves a resumable
// state: an orphan generation is re-discovered by the directory scan, a
// stale manifest still names valid older generations.
//
// Read path ("self-healing resume"): generations are validated newest to
// oldest. A corrupt generation is quarantined — renamed to
// "<file>.quarantined", recorded in the journal and in the
// guard.recovery.* metrics — and resume falls back to the previous
// generation transparently. Only a fingerprint mismatch (a checkpoint from
// a DIFFERENT experiment) aborts the scan: that file is evidence of
// operator error, not bit rot, and is never destroyed. If the manifest
// itself is unreadable the chain is rebuilt from a directory scan of
// "<path>.g*" files. Any other envelope at the policy path (a bare
// checkpoint rather than a manifest) counts as an unreadable manifest: the
// scan recovers the generations beside it, and with none the resume fails
// Corrupt.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ranycast/core/expected.hpp"
#include "ranycast/guard/checkpoint.hpp"
#include "ranycast/guard/error.hpp"

namespace ranycast::guard {

/// One generation as recorded in the manifest (newest first).
struct ChainEntry {
  std::uint64_t generation{0};
  std::string file;  ///< full path of the generation file
  std::uint64_t file_size{0};
  std::uint32_t file_crc{0};
};

/// What chain.read() recovered and how hard it had to work for it.
struct RecoveredCheckpoint {
  std::vector<std::uint8_t> payload;
  std::uint64_t generation{0};
  std::size_t fallbacks{0};     ///< generations stepped over to find a valid one
  std::size_t quarantined{0};   ///< corrupt generations renamed aside
  bool manifest_rebuilt{false};  ///< true when the manifest was unreadable and
                                 ///< the chain came from a directory scan
};

/// Offline verification result for `ranycast-flight verify`.
struct ChainVerifyReport {
  std::size_t generations{0};   ///< entries examined
  std::size_t valid{0};         ///< entries whose size, CRC and envelope check out
  std::size_t quarantined{0};   ///< "*.quarantined" casualties found next to the chain
  std::vector<std::string> problems;  ///< one line per damaged/missing entry

  bool ok() const noexcept { return generations > 0 && valid > 0; }
};

class CheckpointChain {
 public:
  /// `path` is the manifest location (the CheckpointPolicy path); generation
  /// files live at "<path>.g<N>". `keep` >= 1 generations are retained.
  CheckpointChain(std::string path, std::size_t keep);

  const std::string& path() const noexcept { return path_; }
  std::size_t keep() const noexcept { return keep_; }

  /// Persist one new generation and rotate the window. Returns the new
  /// generation number. Safe to retry on failure: the generation counter
  /// only advances after the manifest points at the new file.
  core::Expected<std::uint64_t, GuardError> write(CheckpointKind kind,
                                                  std::uint64_t fingerprint,
                                                  std::span<const std::uint8_t> payload);

  /// Recover the newest valid generation, quarantining corrupt ones and
  /// falling back transparently (see file comment). Errors: Io when nothing
  /// resumable exists, Corrupt when every generation was damaged,
  /// FingerprintMismatch immediately on a foreign checkpoint.
  core::Expected<RecoveredCheckpoint, GuardError> read(CheckpointKind expected_kind,
                                                       std::uint64_t expected_fingerprint);

 private:
  void prime_for_write();

  std::string path_;
  std::size_t keep_;
  bool primed_{false};
  std::uint64_t next_generation_{1};
  std::vector<ChainEntry> entries_;  ///< newest first, committed state only
};

/// Whether anything resumable may exist at `path`: a file at the manifest
/// path, or orphaned generation files.
bool chain_exists(const std::string& path) noexcept;

/// Offline validation of a chain at `path`, without knowing the expected
/// kind or fingerprint. Used by `ranycast-flight verify`; never mutates or
/// quarantines anything.
core::Expected<ChainVerifyReport, GuardError> chain_verify(const std::string& path);

}  // namespace ranycast::guard
