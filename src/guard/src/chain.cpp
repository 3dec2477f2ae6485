#include "ranycast/guard/chain.hpp"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "ranycast/core/crc32.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/metrics.hpp"
#include "ranycast/vfs/vfs.hpp"

namespace ranycast::guard {

namespace {

GuardError make_error(GuardErrorKind kind, const std::string& path, std::string message) {
  GuardError err;
  err.kind = kind;
  err.path = path;
  err.message = std::move(message);
  return err;
}

void count_recovery(const char* name) {
  auto& c = obs::MetricsRegistry::global().counter(name);
  c.add();
}

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string base_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string generation_path(const std::string& path, std::uint64_t generation) {
  return path + ".g" + std::to_string(generation);
}

/// All "<path>.g<digits>" files next to the manifest, newest first. This is
/// the self-healing fallback when the manifest is unreadable, and how
/// orphan generations from a crash between generation and manifest writes
/// are re-adopted.
std::vector<ChainEntry> scan_generations(const std::string& path) {
  std::vector<ChainEntry> found;
  const std::string dir = dir_of(path);
  const std::string prefix = base_of(path) + ".g";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return found;
  while (const dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string digits = name.substr(prefix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    ChainEntry entry;
    entry.generation = std::strtoull(digits.c_str(), nullptr, 10);
    entry.file = dir == "." && path.find('/') == std::string::npos
                     ? name
                     : dir + "/" + name;
    found.push_back(std::move(entry));
  }
  ::closedir(d);
  std::sort(found.begin(), found.end(), [](const ChainEntry& a, const ChainEntry& b) {
    return a.generation > b.generation;
  });
  return found;
}

/// Decode a ChainManifest payload into entries (full paths, newest first).
bool parse_manifest(const std::string& manifest_path,
                    std::span<const std::uint8_t> payload, std::uint32_t* keep,
                    std::vector<ChainEntry>* entries) {
  ByteReader reader(payload);
  *keep = reader.u32();
  const std::uint64_t count = reader.u64();
  entries->clear();
  const std::string dir = dir_of(manifest_path);
  for (std::uint64_t i = 0; i < count && reader.ok(); ++i) {
    ChainEntry entry;
    entry.generation = reader.u64();
    const std::string basename = reader.str();
    entry.file = dir == "." && manifest_path.find('/') == std::string::npos
                     ? basename
                     : dir + "/" + basename;
    entry.file_size = reader.u64();
    entry.file_crc = reader.u32();
    entries->push_back(std::move(entry));
  }
  return reader.ok() && reader.at_end() && *keep >= 1;
}

void quarantine(const ChainEntry& entry, const GuardError& why) {
  const std::string aside = entry.file + ".quarantined";
  // Best-effort: the rename itself runs through vfs (so torture runs
  // exercise it), but a failed quarantine must not block the fallback.
  (void)vfs::rename_file(entry.file, aside);
  count_recovery("guard.recovery.quarantined");
  obs::journal_event("checkpoint_quarantined",
                     {obs::JournalField::str("file", entry.file),
                      obs::JournalField::str("quarantined_as", aside),
                      obs::JournalField::u64_field("generation", entry.generation),
                      obs::JournalField::str("reason", to_string(why.kind)),
                      obs::JournalField::str("detail", why.message)},
                     /*durable=*/true);
}

}  // namespace

CheckpointChain::CheckpointChain(std::string path, std::size_t keep)
    : path_(std::move(path)), keep_(std::max<std::size_t>(keep, 1)) {}

void CheckpointChain::prime_for_write() {
  if (primed_) return;
  primed_ = true;
  entries_.clear();
  next_generation_ = 1;

  bool from_manifest = false;
  if (vfs::exists(path_)) {
    auto inspected = read_checkpoint_unchecked(path_);
    if (inspected && inspected->info.kind == CheckpointKind::ChainManifest) {
      std::uint32_t keep = 0;
      std::vector<ChainEntry> parsed;
      if (parse_manifest(path_, std::span<const std::uint8_t>(inspected->payload), &keep,
                         &parsed)) {
        entries_ = std::move(parsed);
        from_manifest = true;
      }
    }
  }
  if (!from_manifest) {
    entries_ = scan_generations(path_);
  }
  // Drop entries whose files vanished (quarantined or pruned after the
  // manifest was written) so the next manifest reflects reality.
  std::erase_if(entries_, [](const ChainEntry& e) { return !vfs::exists(e.file); });
  for (const ChainEntry& entry : entries_) {
    next_generation_ = std::max(next_generation_, entry.generation + 1);
  }
}

core::Expected<std::uint64_t, GuardError> CheckpointChain::write(
    CheckpointKind kind, std::uint64_t fingerprint,
    std::span<const std::uint8_t> payload) {
  prime_for_write();
  const std::uint64_t generation = next_generation_;
  const std::string file = generation_path(path_, generation);

  const std::vector<std::uint8_t> bytes = encode_checkpoint(kind, fingerprint, payload);
  if (auto written = vfs::write_file_atomic(file, std::span<const std::uint8_t>(bytes));
      !written) {
    return core::unexpected(GuardError::from(written.error()));
  }

  ChainEntry entry;
  entry.generation = generation;
  entry.file = file;
  entry.file_size = bytes.size();
  entry.file_crc = core::crc32(bytes.data(), bytes.size());

  std::vector<ChainEntry> next_entries;
  next_entries.push_back(entry);
  for (const ChainEntry& old : entries_) {
    if (old.generation < generation) next_entries.push_back(old);
  }
  std::vector<ChainEntry> pruned;
  if (next_entries.size() > keep_) {
    pruned.assign(next_entries.begin() + static_cast<std::ptrdiff_t>(keep_),
                  next_entries.end());
    next_entries.resize(keep_);
  }

  ByteWriter manifest;
  manifest.u32(static_cast<std::uint32_t>(keep_));
  manifest.u64(next_entries.size());
  for (const ChainEntry& e : next_entries) {
    manifest.u64(e.generation);
    manifest.str(base_of(e.file));
    manifest.u64(e.file_size);
    manifest.u32(e.file_crc);
  }
  const std::vector<std::uint8_t> manifest_bytes = encode_checkpoint(
      CheckpointKind::ChainManifest, fingerprint,
      std::span<const std::uint8_t>(manifest.data()));
  if (auto written =
          vfs::write_file_atomic(path_, std::span<const std::uint8_t>(manifest_bytes));
      !written) {
    // The generation file exists but the manifest still points at the old
    // chain. A retry rewrites the SAME generation (the counter has not
    // advanced), and a crash here is healed by the directory scan.
    return core::unexpected(GuardError::from(written.error()));
  }

  // Committed: advance the counter, adopt the new window, prune the rest.
  next_generation_ = generation + 1;
  entries_ = std::move(next_entries);
  for (const ChainEntry& old : pruned) {
    (void)vfs::remove_file(old.file);
  }
  return generation;
}

core::Expected<RecoveredCheckpoint, GuardError> CheckpointChain::read(
    CheckpointKind expected_kind, std::uint64_t expected_fingerprint) {
  std::vector<ChainEntry> entries;
  bool manifest_rebuilt = false;

  if (vfs::exists(path_)) {
    auto inspected = read_checkpoint_unchecked(path_);
    // Any other envelope kind at the manifest path is read like an
    // undecodable manifest.
    if (inspected && inspected->info.kind == CheckpointKind::ChainManifest) {
      if (inspected->info.fingerprint != expected_fingerprint) {
        return core::unexpected(make_error(
            GuardErrorKind::FingerprintMismatch, path_,
            "chain manifest was written by a different config/seed/plan"));
      }
      std::uint32_t keep = 0;
      if (!parse_manifest(path_, std::span<const std::uint8_t>(inspected->payload), &keep,
                          &entries)) {
        entries.clear();
      }
    }
    if (entries.empty()) {
      // Manifest unreadable or undecodable: rebuild the chain from the
      // generation files themselves.
      entries = scan_generations(path_);
      manifest_rebuilt = true;
      if (!entries.empty()) {
        count_recovery("guard.recovery.manifest_rebuilds");
        obs::journal_event(
            "checkpoint_manifest_rebuilt",
            {obs::JournalField::str("path", path_),
             obs::JournalField::u64_field("generations", entries.size())},
            /*durable=*/true);
      }
    }
  } else {
    entries = scan_generations(path_);
    if (entries.empty()) {
      return core::unexpected(
          make_error(GuardErrorKind::Io, path_, "no checkpoint to resume from"));
    }
    manifest_rebuilt = true;
  }

  if (entries.empty()) {
    return core::unexpected(make_error(GuardErrorKind::Corrupt, path_,
                                       "no usable manifest and no generation files"));
  }

  RecoveredCheckpoint out;
  out.manifest_rebuilt = manifest_rebuilt;
  GuardError last_error =
      make_error(GuardErrorKind::Io, path_, "no valid checkpoint generation");
  bool saw_corrupt = false;
  for (const ChainEntry& entry : entries) {
    auto payload = read_checkpoint(entry.file, expected_kind, expected_fingerprint);
    if (payload) {
      out.payload = std::move(*payload);
      out.generation = entry.generation;
      if (out.fallbacks > 0) {
        count_recovery("guard.recovery.fallbacks");
        obs::journal_event(
            "checkpoint_fallback",
            {obs::JournalField::str("path", path_),
             obs::JournalField::u64_field("generation", entry.generation),
             obs::JournalField::u64_field("skipped", out.fallbacks),
             obs::JournalField::u64_field("quarantined", out.quarantined)},
            /*durable=*/true);
      }
      return out;
    }
    GuardError err = std::move(payload).error();
    if (err.kind == GuardErrorKind::FingerprintMismatch) {
      // A checkpoint from a different experiment is operator error, not bit
      // rot: stop immediately and never quarantine it.
      return core::unexpected(std::move(err));
    }
    if (err.severity() == GuardSeverity::CorruptState) {
      quarantine(entry, err);
      ++out.quarantined;
      saw_corrupt = true;
    }
    ++out.fallbacks;
    last_error = std::move(err);
  }

  if (saw_corrupt) {
    return core::unexpected(make_error(
        GuardErrorKind::Corrupt, path_,
        "all " + std::to_string(entries.size()) +
            " checkpoint generation(s) are damaged (last: " + last_error.message + ")"));
  }
  return core::unexpected(std::move(last_error));
}

bool chain_exists(const std::string& path) noexcept {
  if (checkpoint_exists(path)) return true;
  return !scan_generations(path).empty();
}

core::Expected<ChainVerifyReport, GuardError> chain_verify(const std::string& path) {
  ChainVerifyReport report;

  // Count quarantined casualties next to the chain (informational).
  {
    const std::string dir = dir_of(path);
    const std::string prefix = base_of(path);
    if (DIR* d = ::opendir(dir.c_str())) {
      while (const dirent* ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name.compare(0, prefix.size(), prefix) == 0 &&
            name.size() > std::string_view(".quarantined").size() &&
            name.ends_with(".quarantined")) {
          ++report.quarantined;
        }
      }
      ::closedir(d);
    }
  }

  std::vector<ChainEntry> entries;
  bool have_manifest_sums = false;
  if (vfs::exists(path)) {
    auto inspected = read_checkpoint_unchecked(path);
    if (!inspected) {
      report.problems.push_back(path + ": manifest: " + inspected.error().message);
      entries = scan_generations(path);
    } else if (inspected->info.kind != CheckpointKind::ChainManifest) {
      report.problems.push_back(path + ": not a chain manifest (a " +
                                std::string(to_string(inspected->info.kind)) + " checkpoint)");
      entries = scan_generations(path);
    } else {
      std::uint32_t keep = 0;
      if (parse_manifest(path, std::span<const std::uint8_t>(inspected->payload), &keep,
                         &entries)) {
        have_manifest_sums = true;
      } else {
        report.problems.push_back(path + ": manifest payload is undecodable");
        entries = scan_generations(path);
      }
    }
  } else {
    entries = scan_generations(path);
    if (entries.empty()) {
      return core::unexpected(GuardError{GuardErrorKind::Io, path,
                                         "no checkpoint chain at this path"});
    }
    report.problems.push_back(path + ": manifest missing (chain found by scan)");
  }

  report.generations = entries.size();
  for (const ChainEntry& entry : entries) {
    if (!vfs::exists(entry.file)) {
      report.problems.push_back(entry.file + ": missing");
      continue;
    }
    auto raw = vfs::read_file(entry.file);
    if (!raw) {
      report.problems.push_back(entry.file + ": " + raw.error().to_string());
      continue;
    }
    if (have_manifest_sums) {
      if (raw->size() != entry.file_size) {
        report.problems.push_back(entry.file + ": size " + std::to_string(raw->size()) +
                                  " != manifest size " + std::to_string(entry.file_size));
        continue;
      }
      const std::uint32_t crc = core::crc32(raw->data(), raw->size());
      if (crc != entry.file_crc) {
        char msg[64];
        std::snprintf(msg, sizeof msg, ": CRC 0x%08x != manifest CRC 0x%08x", crc,
                      entry.file_crc);
        report.problems.push_back(entry.file + msg);
        continue;
      }
    }
    auto checked = read_checkpoint_unchecked(entry.file);
    if (!checked) {
      report.problems.push_back(entry.file + ": " + checked.error().message);
      continue;
    }
    ++report.valid;
  }
  return report;
}

}  // namespace ranycast::guard
