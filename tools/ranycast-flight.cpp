// ranycast-flight — run-journal and flight-recorder forensics.
//
//   ranycast-flight export    --journal FILE [--flight FILE] --out FILE
//   ranycast-flight summarize --journal FILE
//   ranycast-flight tail      --journal FILE [--last N]
//   ranycast-flight tail      --journal FILE --follow [--poll-ms N] [--max-polls N]
//   ranycast-flight verify    [--journal FILE] [--checkpoint PATH]
//
// export converts a run journal (the NDJSON stream `ranycast-chaos
// --journal` / `ranycast-experiment --journal` write) plus an optional
// flight-recorder span dump (obs::flight_ndjson()) into Chrome traceEvents
// JSON: open the file in ui.perfetto.dev or chrome://tracing. Spans render
// as duration events on their real thread, chaos steps and blackhole
// windows as async tracks, step duration and RSS as counter tracks.
//
// summarize prints an event-type rollup, distinct chaos steps, resume
// markers and the stop reason; tail prints the last N (default 10) events.
// Both work on journals of killed runs — a cut final line is counted, not
// fatal.
//
// tail --follow streams events as a live writer appends them, polling every
// --poll-ms (default 200) for --max-polls polls (default unbounded). Only
// newline-terminated lines are consumed: a concurrently-appending writer's
// partial tail is retried on the next poll, never printed corrupt and never
// double-printed. Exits 0 when --max-polls is exhausted.
//
// verify checks integrity offline: every journal line's CRC-32 tag, and/or
// a checkpoint chain's manifest + generation files (sizes, CRCs, envelopes).
// A benign kill-cut final journal line is reported but not an error.
// Exit codes: 0 intact, 2 usage/unreadable, 4 corruption detected.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "ranycast/core/flags.hpp"
#include "ranycast/flight/flight.hpp"
#include "ranycast/guard/chain.hpp"

using namespace ranycast;

namespace {

constexpr int kExitCorrupt = 4;

int usage() {
  std::fprintf(stderr,
               "usage: ranycast-flight export --journal FILE [--flight FILE] --out FILE\n"
               "       ranycast-flight summarize --journal FILE\n"
               "       ranycast-flight tail --journal FILE [--last N]\n"
               "       ranycast-flight tail --journal FILE --follow [--poll-ms N]"
               " [--max-polls N]\n"
               "       ranycast-flight verify [--journal FILE] [--checkpoint PATH]\n");
  return 2;
}

int run_verify(const std::optional<std::string>& journal_path,
               const std::optional<std::string>& checkpoint_path) {
  if (!journal_path && !checkpoint_path) {
    std::fprintf(stderr, "verify needs --journal and/or --checkpoint\n");
    return 2;
  }
  bool corrupt = false;

  if (journal_path) {
    auto journal = flight::load_journal(*journal_path);
    if (!journal) {
      std::fprintf(stderr, "%s\n", journal.error().c_str());
      return 2;
    }
    std::printf("journal %s: %zu events, %zu corrupt line%s, %zu malformed%s\n",
                journal_path->c_str(), journal->events.size(), journal->corrupt_lines,
                journal->corrupt_lines == 1 ? "" : "s", journal->malformed_lines,
                journal->truncated_tail ? " (kill-cut tail)" : "");
    if (journal->damaged()) corrupt = true;
  }

  if (checkpoint_path) {
    auto report = guard::chain_verify(*checkpoint_path);
    if (!report) {
      std::fprintf(stderr, "%s\n", report.error().to_string().c_str());
      return 2;
    }
    std::printf("checkpoint %s: %zu generation%s, %zu valid, %zu quarantined\n",
                checkpoint_path->c_str(), report->generations,
                report->generations == 1 ? "" : "s", report->valid, report->quarantined);
    for (const std::string& problem : report->problems) {
      std::printf("  problem: %s\n", problem.c_str());
    }
    if (!report->ok() || !report->problems.empty()) corrupt = true;
  }

  if (corrupt) {
    std::printf("verify: CORRUPT\n");
    return kExitCorrupt;
  }
  std::printf("verify: ok\n");
  return 0;
}

int run_follow(const std::string& journal_path, std::int64_t poll_ms,
               std::int64_t max_polls) {
  flight::JournalTailer tailer(journal_path);
  for (std::int64_t i = 0; max_polls <= 0 || i < max_polls; ++i) {
    if (i != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms < 1 ? 1 : poll_ms));
    }
    auto polled = tailer.poll();
    if (!polled) {
      std::fprintf(stderr, "%s\n", polled.error().c_str());
      return 2;
    }
    if (polled->rotated) std::fprintf(stderr, "journal rotated; restarting from 0\n");
    for (const flight::JournalEvent& e : polled->events) {
      std::printf("%s\n", flight::render_event(e).c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const flags::Parser args(argc, argv);
  for (const auto& bad : args.unknown({"journal", "flight", "out", "last", "checkpoint",
                                       "follow", "poll-ms", "max-polls"})) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.c_str());
    return 2;
  }
  if (args.positional().size() != 1) return usage();
  const std::string& command = args.positional().front();
  if (command != "export" && command != "summarize" && command != "tail" &&
      command != "verify") {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
  }

  if (command == "verify") {
    return run_verify(args.get("journal"), args.get("checkpoint"));
  }

  const auto journal_path = args.get("journal");
  if (!journal_path) {
    std::fprintf(stderr, "--journal FILE is required\n");
    return 2;
  }
  if (command == "tail" && args.has("follow")) {
    return run_follow(*journal_path, args.get_or("poll-ms", std::int64_t{200}),
                      args.get_or("max-polls", std::int64_t{0}));
  }
  auto journal = flight::load_journal(*journal_path);
  if (!journal) {
    std::fprintf(stderr, "%s\n", journal.error().c_str());
    return 2;
  }

  if (command == "summarize") {
    std::fputs(flight::summarize(*journal).c_str(), stdout);
    return 0;
  }
  if (command == "tail") {
    const auto n = static_cast<std::size_t>(args.get_or("last", std::int64_t{10}));
    std::fputs(flight::tail(*journal, n).c_str(), stdout);
    return 0;
  }

  // export
  const auto out_path = args.get("out");
  if (!out_path) {
    std::fprintf(stderr, "export requires --out FILE\n");
    return 2;
  }
  std::vector<obs::FlightThreadSnapshot> threads;
  if (const auto flight_path = args.get("flight")) {
    auto loaded = flight::load_flight_dump(*flight_path);
    if (!loaded) {
      std::fprintf(stderr, "%s\n", loaded.error().c_str());
      return 2;
    }
    threads = std::move(*loaded);
  }
  const std::string trace = flight::chrome_trace(*journal, threads);
  std::ofstream out(*out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path->c_str());
    return 2;
  }
  out << trace;
  std::fprintf(stderr, "wrote %s (%zu journal events, %zu threads)\n", out_path->c_str(),
               journal->events.size(), threads.size());
  return 0;
}
