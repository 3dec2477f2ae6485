// Reading run journals and flight-recorder dumps back, and converting them
// into Chrome `traceEvents` JSON loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// This sits above ranycast::io (it parses JSON); the write side lives in
// ranycast::obs, which sits below io and only emits. The split keeps obs
// linkable from the innermost layers while forensics tooling gets a real
// parser.
//
// Export mapping (see docs/observability.md for the walkthrough):
//   flight spans        -> "X" complete events, keyed by the real OS tid
//   chaos_step          -> async "b"/"e" pair on the journal track (id=index)
//   transient_window    -> async "b"/"e" blackhole window per affected region
//                          (virtual converge time, rendered schematically)
//   other journal lines -> "i" instant events (manifest, phases, checkpoint,
//                          resumed, stopped, bench_sample)
//   step duration / RSS -> "C" counter samples
// All ts/dur are microseconds since the process trace epoch. Async pairs are
// synthesized from (ts_ns, dur_ns) of completed events, so they are balanced
// by construction even for journals cut short by SIGKILL.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ranycast/core/expected.hpp"
#include "ranycast/io/json.hpp"
#include "ranycast/obs/flight.hpp"

namespace ranycast::flight {

/// One parsed journal line.
struct JournalEvent {
  std::string type;
  std::uint64_t ts_ns{0};
  io::Json fields;  ///< the whole line as a JSON object
};

struct JournalFile {
  std::vector<JournalEvent> events;  ///< in file order
  std::size_t malformed_lines{0};    ///< unparseable lines (a SIGKILL can cut the tail)
  std::size_t corrupt_lines{0};      ///< lines whose CRC-32 tag failed validation
  bool truncated_tail{false};        ///< the FINAL line was malformed (kill-cut)
  std::size_t resume_markers{0};     ///< "resumed" events seen

  /// Whether this journal shows damage beyond a benign kill-cut tail: any
  /// CRC failure, or a malformed line that is not the final one.
  bool damaged() const noexcept {
    return corrupt_lines > 0 ||
           malformed_lines > static_cast<std::size_t>(truncated_tail ? 1 : 0);
  }
};

/// How one journal line classified during parsing.
enum class LineStatus {
  Event,      ///< parsed and CRC-validated
  Corrupt,    ///< parseable, but its CRC tag is missing or does not match
  Malformed,  ///< not parseable JSON (e.g. a kill-cut or mid-append tail)
};

/// Classify and parse one journal line. The CRC tag is checked before the
/// JSON parse (flipped bytes can still be valid JSON); `out` is filled only
/// when the result is LineStatus::Event. Shared by load_journal and
/// JournalTailer so both agree on what a committed line is.
LineStatus parse_journal_line(const std::string& line, JournalEvent& out);

/// Reads an NDJSON journal. Damaged lines are skipped and counted, not
/// fatal — the journal of a killed run must stay readable up to the last
/// completed step. Every line must carry the writer's `,"crc":"xxxxxxxx"}`
/// tag: a mismatch (mid-file bit rot, spliced garbage) or a missing tag on
/// a line that still parses as JSON counts as corrupt_lines. Fails only
/// when the file cannot be read at all.
core::Expected<JournalFile, std::string> load_journal(const std::string& path);

/// Reads an obs::flight_ndjson() dump back into per-thread snapshots
/// (grouped by tid, thread names preserved, events in file order).
core::Expected<std::vector<obs::FlightThreadSnapshot>, std::string> load_flight_dump(
    const std::string& path);

struct TraceOptions {
  std::uint64_t pid{0};  ///< 0: use the current process id
};

/// Converts a journal plus flight-recorder threads into one Chrome
/// `{"traceEvents":[...]}` JSON document. Either input may be empty.
std::string chrome_trace(const JournalFile& journal,
                         const std::vector<obs::FlightThreadSnapshot>& threads,
                         const TraceOptions& options = {});

/// Human-oriented rollup of a journal: events per type, chaos step count
/// (after last-wins dedup by index), resume markers, stop reason if any.
std::string summarize(const JournalFile& journal);

/// The last `n` journal events, one rendered line each (most recent last).
std::string tail(const JournalFile& journal, std::size_t n);

/// One journal event rendered the way `tail` renders it (ts, type, fields).
std::string render_event(const JournalEvent& event);

/// Incremental reader for a journal a live writer is still appending to.
///
/// Each poll() reads the bytes appended since the last poll and consumes
/// ONLY newline-terminated lines: a partial tail — the writer caught
/// mid-append, or the torn final write of a killed process that might still
/// be completed by a retrying vfs write loop — is left unconsumed and
/// retried on the next poll instead of being miscounted as malformed. The
/// byte offset only ever advances past committed lines, so every committed
/// line is surfaced exactly once across any interleaving with the writer.
/// A file that shrank below the committed offset (rotation / truncation)
/// resets the reader to the start and is reported via Poll::rotated.
class JournalTailer {
 public:
  explicit JournalTailer(std::string path) : path_(std::move(path)) {}

  struct Poll {
    std::vector<JournalEvent> events;  ///< newly committed lines, file order
    std::size_t corrupt_lines{0};      ///< committed lines failing their CRC tag
    std::size_t malformed_lines{0};    ///< committed but unparseable lines
    bool rotated{false};               ///< file shrank; reader restarted at 0
  };

  /// Never fails on a missing file (a writer may not have created it yet):
  /// that is an empty poll. Fails only on a read error.
  core::Expected<Poll, std::string> poll();

  /// Committed byte offset: everything before it has been surfaced.
  std::uint64_t offset() const noexcept { return offset_; }

 private:
  std::string path_;
  std::uint64_t offset_{0};
};

}  // namespace ranycast::flight
