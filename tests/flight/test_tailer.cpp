// JournalTailer: incremental reads of a journal a live writer is still
// appending to. The contract under test: every committed (newline-
// terminated) line is surfaced exactly once across any interleaving with
// the writer — a partial tail is retried, never consumed, never miscounted
// — and the tailer's accumulated view agrees exactly with a final
// load_journal() of the same file, including under a vfs fault storm with
// writers on several threads (the concurrent reader-vs-writer soak).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ranycast/flight/flight.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/vfs/fault.hpp"

namespace ranycast::flight {
namespace {

namespace fs = std::filesystem;
using F = obs::JournalField;

constexpr const char* kScratchTag = "ranycast_flight_tailer";

std::string scratch(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   (std::string(kScratchTag) + "." + std::to_string(::getpid()));
  fs::create_directories(dir);
  return (dir / (tag + ".ndjson")).string();
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

TEST(JournalTailer, MissingFileIsAnEmptyPollNotAnError) {
  JournalTailer tailer(scratch("never_created"));
  const auto poll = tailer.poll();
  ASSERT_TRUE(poll.has_value()) << poll.error();
  EXPECT_TRUE(poll->events.empty());
  EXPECT_FALSE(poll->rotated);
  EXPECT_EQ(tailer.offset(), 0u);
}

TEST(JournalTailer, DeliversCommittedLinesIncrementallyAndExactlyOnce) {
  const std::string path = scratch("incremental");
  fs::remove(path);
  obs::Journal journal;
  ASSERT_TRUE(journal.open(path, /*append=*/false)) << journal.error();
  JournalTailer tailer(path);

  std::size_t delivered = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(journal.event("tail_probe", {F::u64_field("seq", i)}));
    if (i % 3 != 2) continue;  // poll only sometimes: batches accumulate
    const auto poll = tailer.poll();
    ASSERT_TRUE(poll.has_value());
    for (const JournalEvent& e : poll->events) {
      EXPECT_EQ(e.type, "tail_probe");
      EXPECT_EQ(e.fields.number_or("seq", -1.0), static_cast<double>(delivered))
          << "duplicate or gap";
      ++delivered;
    }
  }
  const auto final_poll = tailer.poll();
  ASSERT_TRUE(final_poll.has_value());
  delivered += final_poll->events.size();
  EXPECT_EQ(delivered, 20u);
  // Nothing left: the next poll is empty.
  EXPECT_TRUE(tailer.poll()->events.empty());
}

TEST(JournalTailer, PartialTailIsRetriedNotConsumed) {
  const std::string path = scratch("partial");
  fs::remove(path);
  obs::Journal journal;
  ASSERT_TRUE(journal.open(path, /*append=*/false)) << journal.error();
  ASSERT_TRUE(journal.event("tail_probe", {F::u64_field("seq", 0)}));
  journal.close();

  std::ifstream in(path);
  std::string committed;
  std::getline(in, committed);
  in.close();

  JournalTailer tailer(path);
  ASSERT_EQ(tailer.poll()->events.size(), 1u);
  const std::uint64_t committed_offset = tailer.offset();

  // A writer caught mid-append: half a line, no newline. The tailer must
  // neither consume it nor count it malformed.
  append_raw(path, committed.substr(0, committed.size() / 2));
  for (int i = 0; i < 3; ++i) {
    const auto poll = tailer.poll();
    ASSERT_TRUE(poll.has_value());
    EXPECT_TRUE(poll->events.empty()) << "retry " << i;
    EXPECT_EQ(poll->malformed_lines, 0u) << "retry " << i;
    EXPECT_EQ(tailer.offset(), committed_offset) << "retry " << i;
  }

  // The writer finishes the line: it is delivered exactly once, whole.
  append_raw(path, committed.substr(committed.size() / 2) + "\n");
  const auto poll = tailer.poll();
  ASSERT_TRUE(poll.has_value());
  ASSERT_EQ(poll->events.size(), 1u);
  EXPECT_EQ(poll->events[0].fields.number_or("seq", 99.0), 0.0);
  EXPECT_TRUE(tailer.poll()->events.empty());
}

TEST(JournalTailer, RotationResetsToTheStartOfTheNewFile) {
  const std::string path = scratch("rotation");
  fs::remove(path);
  {
    obs::Journal journal;
    ASSERT_TRUE(journal.open(path, /*append=*/false));
    for (std::size_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(journal.event("tail_probe", {F::u64_field("seq", i)}));
    }
  }
  JournalTailer tailer(path);
  ASSERT_EQ(tailer.poll()->events.size(), 5u);

  // The file is replaced by a shorter successor (log rotation).
  {
    obs::Journal journal;
    ASSERT_TRUE(journal.open(path, /*append=*/false));
    ASSERT_TRUE(journal.event("tail_probe", {F::u64_field("seq", 100)}));
  }
  const auto poll = tailer.poll();
  ASSERT_TRUE(poll.has_value());
  EXPECT_TRUE(poll->rotated);
  ASSERT_EQ(poll->events.size(), 1u);
  EXPECT_EQ(poll->events[0].fields.number_or("seq", -1.0), 100.0);
}

TEST(JournalTailer, CountsDamageExactlyLikeLoadJournal) {
  const std::string path = scratch("damage");
  fs::remove(path);
  {
    obs::Journal journal;
    ASSERT_TRUE(journal.open(path, /*append=*/false));
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(journal.event("tail_probe", {F::u64_field("seq", i)}));
    }
  }
  // Flip a byte inside line 2's JSON body: its CRC tag can no longer match.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::size_t line = 0, pos = 0;
  while (line < 2) {
    pos = bytes.find('\n', pos) + 1;
    ++line;
  }
  bytes[pos + 10] ^= 0x01;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  append_raw(path, "not json at all\n");

  JournalTailer tailer(path);
  const auto poll = tailer.poll();
  ASSERT_TRUE(poll.has_value());
  const auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(poll->events.size(), loaded->events.size());
  EXPECT_EQ(poll->events.size(), 5u);
  EXPECT_EQ(poll->corrupt_lines, loaded->corrupt_lines);
  EXPECT_EQ(poll->corrupt_lines, 1u);
  EXPECT_EQ(poll->malformed_lines, loaded->malformed_lines);
  EXPECT_EQ(poll->malformed_lines, 1u);
}

// ---------------------------------------------------------------------------
// The concurrent soak: writer threads appending through obs::Journal (all
// journal I/O rides ranycast::vfs, so a fault storm tears real lines) while
// the tailer polls the same file. Afterwards the tailer's accumulated view
// must match load_journal() exactly: every committed line exactly once,
// identical damage accounting, with at most one uncommitted tail pending.
// ---------------------------------------------------------------------------

TEST(JournalTailerConcurrent, ReaderSeesEveryCommittedLineExactlyOnceUnderFaultStorm) {
  constexpr std::size_t kLinesPerWriter = 150;
  for (const unsigned writers :
       {1u, 2u, std::max(2u, std::thread::hardware_concurrency())}) {
    const std::string path = scratch("concurrent_w" + std::to_string(writers));
    fs::remove(path);
    {
      obs::Journal create;  // fault-free creation of the empty journal
      ASSERT_TRUE(create.open(path, /*append=*/false)) << create.error();
    }

    vfs::FaultPlan plan;
    plan.seed = 1000 + writers;
    plan.p_eintr = 0.10;
    plan.p_short_write = 0.10;   // torn mid-line appends
    plan.p_write_fail = 0.05;    // lines lost outright
    plan.p_fsync_fail = 0.05;
    plan.p_close_fail = 0.05;
    plan.path_filter = kScratchTag;

    std::vector<JournalEvent> streamed;
    std::size_t corrupt = 0, malformed = 0;
    JournalTailer tailer(path);
    std::uint64_t fault_decisions = 0;
    {
      const vfs::ScopedFaultPlan faults(plan);
      std::atomic<unsigned> running{writers};
      std::vector<std::thread> threads;
      threads.reserve(writers);
      for (unsigned w = 0; w < writers; ++w) {
        threads.emplace_back([&, w] {
          obs::Journal journal;  // one O_APPEND fd per writer: line-atomic
          if (journal.open(path, /*append=*/true)) {
            for (std::size_t i = 0; i < kLinesPerWriter; ++i) {
              journal.event("tail_probe", {F::u64_field("writer", w),
                                           F::u64_field("seq", i)},
                            /*durable=*/(i % 16) == 0);
              if (i % 8 == 0) std::this_thread::yield();
            }
          }
          running.fetch_sub(1, std::memory_order_release);
        });
      }
      // Poll concurrently with the storm. The tailer reads outside vfs, so
      // only the writers are being tortured.
      while (running.load(std::memory_order_acquire) > 0) {
        const auto poll = tailer.poll();
        ASSERT_TRUE(poll.has_value()) << poll.error();
        EXPECT_FALSE(poll->rotated);
        for (const JournalEvent& e : poll->events) streamed.push_back(e);
        corrupt += poll->corrupt_lines;
        malformed += poll->malformed_lines;
      }
      for (auto& t : threads) t.join();
      fault_decisions = faults.stats().decisions;
    }
    EXPECT_GT(fault_decisions, 0u) << writers << " writers";

    // Drain what the final writes committed.
    for (;;) {
      const auto poll = tailer.poll();
      ASSERT_TRUE(poll.has_value());
      for (const JournalEvent& e : poll->events) streamed.push_back(e);
      corrupt += poll->corrupt_lines;
      malformed += poll->malformed_lines;
      if (poll->events.empty() && poll->corrupt_lines == 0 &&
          poll->malformed_lines == 0) {
        break;
      }
    }

    const auto loaded = load_journal(path);
    ASSERT_TRUE(loaded.has_value()) << loaded.error();
    // An unterminated tail (a torn final write) is pending for the tailer
    // but counted by load_journal as the kill-cut signature.
    const bool pending_tail = tailer.offset() < fs::file_size(path);
    ASSERT_EQ(streamed.size(), loaded->events.size()) << writers << " writers";
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(render_event(streamed[i]), render_event(loaded->events[i]))
          << writers << " writers, event " << i;
    }
    EXPECT_EQ(corrupt, loaded->corrupt_lines) << writers << " writers";
    EXPECT_EQ(malformed + (pending_tail ? 1 : 0), loaded->malformed_lines)
        << writers << " writers";
    if (pending_tail) {
      EXPECT_TRUE(loaded->truncated_tail);
    }

    // Exactly-once also means no duplicates: every surfaced (writer, seq)
    // pair is unique.
    std::vector<std::uint64_t> keys;
    keys.reserve(streamed.size());
    for (const JournalEvent& e : streamed) {
      keys.push_back(
          static_cast<std::uint64_t>(e.fields.number_or("writer", 1e6)) *
              1'000'000 +
          static_cast<std::uint64_t>(e.fields.number_or("seq", 1e6)));
    }
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
        << writers << " writers";
  }
}

}  // namespace
}  // namespace ranycast::flight
