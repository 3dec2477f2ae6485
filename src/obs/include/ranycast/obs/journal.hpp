// The structured run journal: a typed, append-only NDJSON event stream.
//
// Each event is one JSON object on one line: {"type":"<kind>","ts_ns":N,...}.
// Lines are composed in memory and written with a single O_APPEND write, so
// concurrent writers (and a resumed run appending to an earlier journal)
// interleave at line granularity, never mid-line. Events marked durable are
// fsync'd before the call returns — guard uses this at step granularity, so
// the journal of a SIGKILL'd run is readable up to the last completed step.
//
// Event kinds emitted by the codebase (see docs/observability.md for the
// full field tables):
//   run_manifest, phase_begin, phase_end, chaos_step, transient_window,
//   checkpoint, resumed, stopped, bench_sample
//
// Every line ends with a self-checking tag `,"crc":"xxxxxxxx"}` — a CRC-32
// (as 8 lowercase hex digits) over all preceding bytes of the line. Readers
// (ranycast::flight) recompute it to tell two failure modes apart: damage
// (crc mismatch, or a parseable line without a valid tag → the line is
// skipped and counted as corrupt) and a kill-cut final line (unparseable →
// truncated tail).
//
// The journal deliberately lives in obs (below ranycast::io): it writes
// JSON with its own tiny emitter and parses nothing. Reading journals back
// is ranycast::flight's job. All writes go through ranycast::vfs so fault
// plans can torture the journal path too.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ranycast/core/fields.hpp"
#include "ranycast/vfs/vfs.hpp"

namespace ranycast::obs {

/// Byte length of the per-line CRC tag: `,"crc":"` + 8 hex + `"}`.
inline constexpr std::size_t kJournalCrcTagSize = 18;

/// One typed key/value in a journal event.
struct JournalField {
  enum class Kind { String, U64, I64, F64, Bool, RawJson };

  std::string key;
  Kind kind{Kind::String};
  std::string text;       // String / RawJson payload
  std::uint64_t u64{0};
  std::int64_t i64{0};
  double f64{0.0};
  bool boolean{false};

  static JournalField str(std::string key, std::string_view value);
  static JournalField u64_field(std::string key, std::uint64_t value);
  static JournalField i64_field(std::string key, std::int64_t value);
  static JournalField f64_field(std::string key, double value);
  static JournalField bool_field(std::string key, bool value);
  /// `json` must already be a valid JSON value (object/array/number/...);
  /// it is spliced into the line verbatim.
  static JournalField raw(std::string key, std::string json);
};

/// A report record's scalar fields (core/fields.hpp) in list order:
/// integers as u64, doubles as f64, bools and strings. Vectors are skipped.
template <core::Record R>
std::vector<JournalField> journal_fields(const R& record) {
  std::vector<JournalField> out;
  for_each_field(record, [&out](std::string_view name, const auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::same_as<T, bool>) {
      out.push_back(JournalField::bool_field(std::string(name), v));
    } else if constexpr (std::unsigned_integral<T>) {
      out.push_back(JournalField::u64_field(std::string(name), v));
    } else if constexpr (std::same_as<T, double>) {
      out.push_back(JournalField::f64_field(std::string(name), v));
    } else if constexpr (std::same_as<T, std::string>) {
      out.push_back(JournalField::str(std::string(name), v));
    } else {
      static_assert(core::RecordVector<T>, "journal lines carry scalars and skip vectors");
    }
  });
  return out;
}

/// Append-only NDJSON writer over a POSIX fd. Not copyable; movable.
class Journal {
 public:
  Journal() = default;
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;

  /// Opens (creating if needed) `path` for appending. Truncates first unless
  /// `append` — a fresh run starts a fresh journal, `--resume` appends.
  /// Returns false (and records error()) on failure.
  bool open(const std::string& path, bool append);
  void close();
  bool is_open() const noexcept { return file_.is_open(); }
  const std::string& path() const noexcept { return path_; }
  const std::string& error() const noexcept { return error_; }

  /// Appends one event line. `ts_ns` is stamped automatically from
  /// obs::trace_now_ns() so journal events align with flight-recorder spans.
  /// When `durable`, the line is fsync'd before returning.
  bool event(std::string_view type, const std::vector<JournalField>& fields,
             bool durable = false);

  /// fsync the underlying fd (used at phase boundaries).
  bool sync();

  std::uint64_t events_written() const noexcept { return events_written_; }

 private:
  vfs::File file_;
  std::string path_;
  std::string error_;
  std::uint64_t events_written_{0};
};

/// Process-global journal used by library emitters (chaos::Engine,
/// converge::Plane, guard, the bench harness). Null when no journal is
/// installed; emitters must treat that as "journal off". The caller that
/// opens the journal owns it and must uninstall (set_journal(nullptr))
/// before destroying it.
void set_journal(Journal* journal) noexcept;
Journal* journal() noexcept;

/// Convenience: appends an event to the installed journal, if any.
/// Returns false only on a write error (not when no journal is installed).
bool journal_event(std::string_view type, const std::vector<JournalField>& fields,
                   bool durable = false);

}  // namespace ranycast::obs
