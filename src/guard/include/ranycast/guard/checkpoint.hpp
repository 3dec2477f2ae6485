// Crash-safe experiment checkpoints: versioned, checksummed, atomic.
//
// A checkpoint is one binary file:
//
//   magic "RGRD" | format u32 | kind u32 | fingerprint u64
//   | payload_size u64 | payload bytes | crc32 u32
//
// All integers little-endian; the CRC-32 covers every byte before it, so a
// truncated, bit-flipped or foreign file is rejected before any payload is
// trusted. `fingerprint` binds the checkpoint to the exact (config, seed,
// plan) it was taken from: resume refuses to splice progress into a
// different experiment, which is what makes resumed runs byte-identical to
// uninterrupted ones. Writes go to "<path>.tmp", are fsync'd and renamed
// into place, so a crash mid-write leaves the previous checkpoint intact.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "ranycast/core/expected.hpp"
#include "ranycast/core/fields.hpp"
#include "ranycast/guard/error.hpp"

namespace ranycast::guard {

inline constexpr std::uint32_t kCheckpointFormatVersion = 1;

/// What kind of progress the payload encodes. Mismatched kinds are rejected
/// like mismatched fingerprints (a stability checkpoint can never resume a
/// chaos timeline).
enum class CheckpointKind : std::uint32_t {
  ChaosTimeline = 1,
  StabilityTrials = 2,
  MeasurementSweep = 3,
  /// The lineage manifest written at the policy path by CheckpointChain:
  /// its payload lists the rotating generation files (see chain.hpp).
  ChainManifest = 4,
  /// The serving plane's state (serve::Server::save): the published
  /// snapshot, ladder history, admission model, world-drift cursor.
  ServeState = 5,
};

std::string_view to_string(CheckpointKind kind) noexcept;

/// Append-only little-endian encoder for checkpoint payloads.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  /// Doubles are stored as their raw IEEE-754 bits: a round trip is exact,
  /// which the byte-identical resume guarantee depends on.
  void f64(double v);
  void str(std::string_view s);
  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder. Reads past the end return zero
/// values and latch ok() to false — check ok() once after decoding instead
/// of after every field.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take_le<std::uint8_t>(); }
  std::uint16_t u16() { return take_le<std::uint16_t>(); }
  std::uint32_t u32() { return take_le<std::uint32_t>(); }
  std::uint64_t u64() { return take_le<std::uint64_t>(); }
  double f64();
  std::string str();

  bool ok() const noexcept { return ok_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// Latch not-ok, as a short read does: for a value that decoded but is
  /// out of range.
  void fail() noexcept {
    ok_ = false;
    pos_ = data_.size();
  }

 private:
  template <typename T>
  T take_le() {
    if (data_.size() - pos_ < sizeof(T)) {
      ok_ = false;
      pos_ = data_.size();
      return T{};
    }
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
  bool ok_{true};
};

/// A report record's fields (core/fields.hpp) in list order: integers as
/// u64, bools as u8, doubles as raw bits, strings length-prefixed, a vector
/// as a u64 count then its elements, a nested record inline.
template <typename T>
void write_fields(ByteWriter& w, const T& v) {
  if constexpr (std::same_as<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::unsigned_integral<T>) {
    w.u64(v);
  } else if constexpr (std::same_as<T, double>) {
    w.f64(v);
  } else if constexpr (std::same_as<T, std::string>) {
    w.str(v);
  } else if constexpr (core::RecordVector<T>) {
    w.u64(v.size());
    for (const auto& e : v) write_fields(w, e);
  } else {
    static_assert(core::Record<T>, "not a report record field");
    for_each_field(v, [&w](std::string_view, const auto& m) { write_fields(w, m); });
  }
}

/// Reads what write_fields wrote; a bool reads back as nonzero. A vector
/// count larger than the bytes left fails the read (every element takes at
/// least one byte), so a corrupt count cannot reach the reserve. Returns
/// r.ok().
template <typename T>
bool read_fields(ByteReader& r, T& v) {
  if constexpr (std::same_as<T, bool>) {
    v = r.u8() != 0;
  } else if constexpr (std::unsigned_integral<T>) {
    v = static_cast<T>(r.u64());
  } else if constexpr (std::same_as<T, double>) {
    v = r.f64();
  } else if constexpr (std::same_as<T, std::string>) {
    v = r.str();
  } else if constexpr (core::RecordVector<T>) {
    const std::uint64_t count = r.u64();
    if (count > r.remaining()) {
      r.fail();
      return false;
    }
    v.clear();
    v.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) read_fields(r, v.emplace_back());
  } else {
    static_assert(core::Record<T>, "not a report record field");
    for_each_field(v, [&r](std::string_view, auto& m) { read_fields(r, m); });
  }
  return r.ok();
}

/// Header facts of a validated envelope (CRC, magic and version already
/// checked; kind and fingerprint NOT matched against any expectation).
struct CheckpointInfo {
  std::uint32_t format{0};
  CheckpointKind kind{CheckpointKind::ChaosTimeline};
  std::uint64_t fingerprint{0};
  std::uint64_t payload_size{0};
  std::uint64_t file_size{0};
};

/// A checkpoint whose envelope validated, before kind/fingerprint matching.
struct InspectedCheckpoint {
  CheckpointInfo info;
  std::vector<std::uint8_t> payload;
};

/// Serialize the full checkpoint envelope (header + payload + CRC) without
/// touching disk. `write_checkpoint(path, ...)` is `encode_checkpoint` +
/// `vfs::write_file_atomic`; CheckpointChain uses the bytes directly so the
/// manifest can record each generation's exact size and CRC.
std::vector<std::uint8_t> encode_checkpoint(CheckpointKind kind,
                                            std::uint64_t fingerprint,
                                            std::span<const std::uint8_t> payload);

/// Atomically persist a checkpoint (tmp + fsync + rename + parent-dir
/// fsync, all through ranycast::vfs so injected faults are exercised).
core::Expected<std::monostate, GuardError> write_checkpoint(
    const std::string& path, CheckpointKind kind, std::uint64_t fingerprint,
    std::span<const std::uint8_t> payload);

/// Read and validate the envelope (Io / TransientIo on read failure,
/// Corrupt on short/garbled file or CRC mismatch, VersionMismatch on a
/// foreign format version) but accept any kind and fingerprint. This is
/// how CheckpointChain tells its manifest from any other envelope at the
/// policy path, and how `ranycast-flight verify` inspects without a run.
core::Expected<InspectedCheckpoint, GuardError> read_checkpoint_unchecked(
    const std::string& path);

/// Read and fully validate a checkpoint; returns the payload bytes.
/// Rejects everything read_checkpoint_unchecked rejects, plus a mismatched
/// kind (Corrupt) and a mismatched fingerprint (FingerprintMismatch).
core::Expected<std::vector<std::uint8_t>, GuardError> read_checkpoint(
    const std::string& path, CheckpointKind expected_kind,
    std::uint64_t expected_fingerprint);

/// Whether a checkpoint file exists at `path` (resume probing; contents are
/// validated by read_checkpoint).
bool checkpoint_exists(const std::string& path) noexcept;

}  // namespace ranycast::guard
