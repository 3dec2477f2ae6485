#include "ranycast/guard/checkpoint.hpp"

#include <sys/stat.h>

#include <bit>
#include <cstdio>
#include <cstring>

#include "ranycast/core/crc32.hpp"
#include "ranycast/vfs/vfs.hpp"

namespace ranycast::guard {

namespace {

constexpr char kMagic[4] = {'R', 'G', 'R', 'D'};
// Envelope bytes before the payload: magic + format + kind + fingerprint
// + payload size.
constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 8 + 8;
constexpr std::size_t kCrcSize = 4;

GuardError make_error(GuardErrorKind kind, const std::string& path, std::string message) {
  GuardError err;
  err.kind = kind;
  err.path = path;
  err.message = std::move(message);
  return err;
}

/// Envelope validation shared by every read path: CRC first (no header
/// field is trusted before it), then magic and format version. Kind and
/// fingerprint are reported, not matched.
core::Expected<CheckpointInfo, GuardError> validate_envelope(
    const std::string& path, std::span<const std::uint8_t> raw) {
  if (raw.size() < kHeaderSize + kCrcSize) {
    return core::unexpected(make_error(GuardErrorKind::Corrupt, path,
                                       "file too short to be a checkpoint (" +
                                           std::to_string(raw.size()) + " bytes)"));
  }
  const std::size_t body = raw.size() - kCrcSize;
  const std::uint32_t computed = core::crc32(raw.data(), body);
  ByteReader crc_reader(raw.subspan(body));
  const std::uint32_t stored = crc_reader.u32();
  if (computed != stored) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "CRC mismatch (stored 0x%08x, computed 0x%08x)", stored,
                  computed);
    return core::unexpected(make_error(GuardErrorKind::Corrupt, path, msg));
  }

  ByteReader reader(raw.first(body));
  std::uint8_t magic[4];
  for (auto& b : magic) b = reader.u8();
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return core::unexpected(
        make_error(GuardErrorKind::Corrupt, path, "bad magic: not a guard checkpoint"));
  }
  CheckpointInfo info;
  info.format = reader.u32();
  if (info.format != kCheckpointFormatVersion) {
    return core::unexpected(make_error(
        GuardErrorKind::VersionMismatch, path,
        "format version " + std::to_string(info.format) + " (this build reads version " +
            std::to_string(kCheckpointFormatVersion) + ")"));
  }
  info.kind = static_cast<CheckpointKind>(reader.u32());
  info.fingerprint = reader.u64();
  info.payload_size = reader.u64();
  info.file_size = raw.size();
  if (!reader.ok() || info.payload_size != reader.remaining()) {
    return core::unexpected(
        make_error(GuardErrorKind::Corrupt, path, "payload size does not match file size"));
  }
  return info;
}

}  // namespace

std::string_view to_string(CheckpointKind kind) noexcept {
  switch (kind) {
    case CheckpointKind::ChaosTimeline: return "chaos-timeline";
    case CheckpointKind::StabilityTrials: return "stability-trials";
    case CheckpointKind::MeasurementSweep: return "measurement-sweep";
    case CheckpointKind::ChainManifest: return "chain-manifest";
    case CheckpointKind::ServeState: return "serve-state";
  }
  return "unknown";
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint32_t size = u32();
  if (!ok_ || data_.size() - pos_ < size) {
    ok_ = false;
    pos_ = data_.size();
    return {};
  }
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), size);
  pos_ += size;
  return out;
}

std::vector<std::uint8_t> encode_checkpoint(CheckpointKind kind,
                                            std::uint64_t fingerprint,
                                            std::span<const std::uint8_t> payload) {
  ByteWriter envelope;
  envelope.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), sizeof kMagic));
  envelope.u32(kCheckpointFormatVersion);
  envelope.u32(static_cast<std::uint32_t>(kind));
  envelope.u64(fingerprint);
  envelope.u64(payload.size());
  envelope.bytes(payload);
  const std::uint32_t crc = core::crc32(envelope.data().data(), envelope.data().size());
  envelope.u32(crc);
  return envelope.take();
}

core::Expected<std::monostate, GuardError> write_checkpoint(
    const std::string& path, CheckpointKind kind, std::uint64_t fingerprint,
    std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint(kind, fingerprint, payload);
  auto written = vfs::write_file_atomic(path, std::span<const std::uint8_t>(bytes));
  if (!written) return core::unexpected(GuardError::from(written.error()));
  return std::monostate{};
}

core::Expected<InspectedCheckpoint, GuardError> read_checkpoint_unchecked(
    const std::string& path) {
  auto raw = vfs::read_file(path);
  if (!raw) return core::unexpected(GuardError::from(raw.error()));
  auto info = validate_envelope(path, std::span<const std::uint8_t>(*raw));
  if (!info) return core::unexpected(std::move(info).error());
  InspectedCheckpoint out;
  out.info = *info;
  out.payload.assign(raw->begin() + static_cast<std::ptrdiff_t>(kHeaderSize),
                     raw->end() - static_cast<std::ptrdiff_t>(kCrcSize));
  return out;
}

core::Expected<std::vector<std::uint8_t>, GuardError> read_checkpoint(
    const std::string& path, CheckpointKind expected_kind,
    std::uint64_t expected_fingerprint) {
  auto inspected = read_checkpoint_unchecked(path);
  if (!inspected) return core::unexpected(std::move(inspected).error());
  const CheckpointInfo& info = inspected->info;
  if (info.kind != expected_kind) {
    return core::unexpected(make_error(
        GuardErrorKind::Corrupt, path,
        "checkpoint kind " + std::to_string(static_cast<std::uint32_t>(info.kind)) +
            " does not match this runner"));
  }
  if (info.fingerprint != expected_fingerprint) {
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "fingerprint 0x%016llx was taken from a different config/seed/plan "
                  "(expected 0x%016llx)",
                  static_cast<unsigned long long>(info.fingerprint),
                  static_cast<unsigned long long>(expected_fingerprint));
    return core::unexpected(make_error(GuardErrorKind::FingerprintMismatch, path, msg));
  }
  return std::move(inspected->payload);
}

bool checkpoint_exists(const std::string& path) noexcept {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

}  // namespace ranycast::guard
