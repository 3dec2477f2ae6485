#include <cstdlib>
#include <fstream>
#include <map>

#include "ranycast/core/crc32.hpp"
#include "ranycast/flight/flight.hpp"
#include "ranycast/obs/journal.hpp"

namespace ranycast::flight {

namespace {

enum class CrcCheck { NoTag, Valid, Mismatch };

/// Validate the writer's fixed-width `,"crc":"xxxxxxxx"}` line tail (see
/// obs::kJournalCrcTagSize): CRC-32 over every byte before the tag.
CrcCheck check_line_crc(const std::string& line) {
  constexpr std::size_t kTag = obs::kJournalCrcTagSize;
  if (line.size() < kTag + 2) return CrcCheck::NoTag;
  const std::size_t tag_at = line.size() - kTag;
  if (line.compare(tag_at, 8, ",\"crc\":\"") != 0 ||
      line.compare(line.size() - 2, 2, "\"}") != 0) {
    return CrcCheck::NoTag;
  }
  const std::string hex = line.substr(tag_at + 8, 8);
  if (hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return CrcCheck::NoTag;
  }
  const auto stored = static_cast<std::uint32_t>(std::strtoul(hex.c_str(), nullptr, 16));
  const std::uint32_t computed = core::crc32(line.data(), tag_at);
  return stored == computed ? CrcCheck::Valid : CrcCheck::Mismatch;
}

}  // namespace

LineStatus parse_journal_line(const std::string& line, JournalEvent& out) {
  // The CRC tag is checked before parsing: flipped bytes can still yield
  // valid JSON with a silently wrong value, and only the checksum knows.
  const CrcCheck crc = check_line_crc(line);
  if (crc == CrcCheck::Mismatch) return LineStatus::Corrupt;
  auto parsed = io::parse_json(line);
  if (std::holds_alternative<io::JsonParseError>(parsed) ||
      !std::get<io::Json>(parsed).is_object()) {
    return LineStatus::Malformed;
  }
  // Every writer tags its lines, so a whole line without a valid tag
  // cannot be verified: its tag was damaged, or the line was not written
  // by obs::Journal.
  if (crc == CrcCheck::NoTag) return LineStatus::Corrupt;
  out.fields = std::move(std::get<io::Json>(parsed));
  out.type = out.fields.string_or("type", "");
  out.ts_ns = static_cast<std::uint64_t>(out.fields.number_or("ts_ns", 0.0));
  return LineStatus::Event;
}

core::Expected<JournalFile, std::string> load_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return core::unexpected("cannot read journal '" + path + "'");
  JournalFile out;
  std::string line;
  bool last_was_malformed = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    last_was_malformed = false;
    JournalEvent e;
    switch (parse_journal_line(line, e)) {
      case LineStatus::Corrupt:
        ++out.corrupt_lines;
        continue;
      case LineStatus::Malformed:
        // A SIGKILL can cut the last line short; count and move on so the
        // journal stays readable up to the last completed step.
        ++out.malformed_lines;
        last_was_malformed = true;
        continue;
      case LineStatus::Event:
        break;
    }
    if (e.type == "resumed") ++out.resume_markers;
    out.events.push_back(std::move(e));
  }
  // A malformed FINAL line is the expected signature of a kill-cut tail;
  // malformed lines elsewhere are genuine damage (see JournalFile::damaged).
  out.truncated_tail = last_was_malformed;
  return out;
}

core::Expected<std::vector<obs::FlightThreadSnapshot>, std::string> load_flight_dump(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return core::unexpected("cannot read flight dump '" + path + "'");
  std::vector<obs::FlightThreadSnapshot> threads;
  std::map<std::uint64_t, std::size_t> by_tid;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = io::parse_json(line);
    if (std::holds_alternative<io::JsonParseError>(parsed) ||
        !std::get<io::Json>(parsed).is_object()) {
      continue;  // tolerate a cut tail, same as journals
    }
    const io::Json& j = std::get<io::Json>(parsed);
    obs::TraceEvent e;
    e.name = j.string_or("name", "");
    e.parent = j.string_or("parent", "");
    e.depth = static_cast<std::uint32_t>(j.number_or("depth", 0.0));
    e.start_ns = static_cast<std::uint64_t>(j.number_or("start_ns", 0.0));
    e.dur_ns = static_cast<std::uint64_t>(j.number_or("dur_ns", 0.0));
    e.seq = static_cast<std::uint64_t>(j.number_or("seq", 0.0));
    e.tid = static_cast<std::uint64_t>(j.number_or("tid", 0.0));
    const auto [it, inserted] = by_tid.try_emplace(e.tid, threads.size());
    if (inserted) {
      obs::FlightThreadSnapshot t;
      t.slot = static_cast<std::uint32_t>(threads.size());
      t.os_tid = e.tid;
      t.name = j.string_or("thread", "thread-" + std::to_string(threads.size()));
      threads.push_back(std::move(t));
    }
    obs::FlightThreadSnapshot& t = threads[it->second];
    t.events.push_back(std::move(e));
    ++t.recorded;
  }
  return threads;
}

}  // namespace ranycast::flight
