// Journal forensics under damage: every line obs::Journal writes carries a
// CRC-32 tag, and the flight reader must (a) count each mid-file corruption
// exactly, (b) skip damaged lines instead of aborting, (c) treat a single
// cut FINAL line as the benign signature of a kill — not as damage — and
// (d) count a parseable line without a valid tag as corrupt.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ranycast/flight/flight.hpp"
#include "ranycast/obs/journal.hpp"

namespace ranycast::flight {
namespace {

namespace fs = std::filesystem;
using F = obs::JournalField;

std::string scratch(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   ("ranycast_flight_corruption." + std::to_string(::getpid()));
  fs::create_directories(dir);
  return (dir / (tag + ".ndjson")).string();
}

/// Write `n` tagged journal lines the production way.
void write_journal(const std::string& path, std::size_t n) {
  obs::Journal journal;
  ASSERT_TRUE(journal.open(path, /*append=*/false)) << journal.error();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(journal.event("chaos_step", {F::u64_field("index", i)}));
  }
  journal.close();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path, const std::vector<std::string>& lines,
                 bool final_newline = true) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out << lines[i];
    if (i + 1 < lines.size() || final_newline) out << '\n';
  }
}

/// Flip one byte early in line `index` (inside the JSON body, before the
/// CRC tag, so the recomputed CRC cannot match).
void flip_line(std::vector<std::string>& lines, std::size_t index) {
  ASSERT_LT(index, lines.size());
  ASSERT_GT(lines[index].size(), 12u);
  lines[index][10] ^= 0x04;
}

TEST(JournalCorruption, CleanJournalIsUndamaged) {
  const std::string path = scratch("clean");
  write_journal(path, 5);
  auto journal = load_journal(path);
  ASSERT_TRUE(journal.has_value()) << journal.error();
  EXPECT_EQ(journal->events.size(), 5u);
  EXPECT_EQ(journal->corrupt_lines, 0u);
  EXPECT_EQ(journal->malformed_lines, 0u);
  EXPECT_FALSE(journal->truncated_tail);
  EXPECT_FALSE(journal->damaged());
}

TEST(JournalCorruption, MidFileFlipIsCountedAndSkipped) {
  const std::string path = scratch("one_flip");
  write_journal(path, 6);
  auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 6u);
  flip_line(lines, 2);
  write_lines(path, lines);

  auto journal = load_journal(path);
  ASSERT_TRUE(journal.has_value()) << journal.error();
  EXPECT_EQ(journal->corrupt_lines, 1u);
  EXPECT_EQ(journal->events.size(), 5u);  // the damaged line is skipped
  EXPECT_EQ(journal->malformed_lines, 0u);
  EXPECT_FALSE(journal->truncated_tail);
  EXPECT_TRUE(journal->damaged());
}

TEST(JournalCorruption, ExactCorruptLineAccounting) {
  const std::string path = scratch("three_flips");
  write_journal(path, 8);
  auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 8u);
  flip_line(lines, 1);
  flip_line(lines, 3);
  flip_line(lines, 5);
  write_lines(path, lines);

  auto journal = load_journal(path);
  ASSERT_TRUE(journal.has_value()) << journal.error();
  EXPECT_EQ(journal->corrupt_lines, 3u);
  EXPECT_EQ(journal->events.size(), 5u);
  EXPECT_TRUE(journal->damaged());
}

TEST(JournalCorruption, FlipThatStaysValidJsonIsStillCaught) {
  // The reason the CRC is checked BEFORE the JSON parse: a bit flip inside
  // a numeric field often yields a perfectly parseable line with a wrong
  // value — structurally fine, semantically poison.
  const std::string path = scratch("valid_json_flip");
  write_journal(path, 3);
  auto lines = read_lines(path);
  const auto digit = lines[1].find("\"index\":1");
  ASSERT_NE(digit, std::string::npos);
  lines[1][digit + 8] = '7';  // 1 -> 7: still valid JSON
  write_lines(path, lines);

  auto journal = load_journal(path);
  ASSERT_TRUE(journal.has_value()) << journal.error();
  EXPECT_EQ(journal->corrupt_lines, 1u);
  EXPECT_EQ(journal->events.size(), 2u);
  EXPECT_TRUE(journal->damaged());
}

TEST(JournalCorruption, SplicedGarbageIsMalformedNotFatal) {
  const std::string path = scratch("spliced");
  write_journal(path, 4);
  auto lines = read_lines(path);
  lines.insert(lines.begin() + 2, "@@@ splice: not json, no crc @@@");
  write_lines(path, lines);

  auto journal = load_journal(path);
  ASSERT_TRUE(journal.has_value()) << journal.error();
  EXPECT_EQ(journal->events.size(), 4u);
  EXPECT_EQ(journal->malformed_lines, 1u);
  EXPECT_EQ(journal->corrupt_lines, 0u);
  EXPECT_FALSE(journal->truncated_tail);  // mid-file, not a kill-cut
  EXPECT_TRUE(journal->damaged());
}

TEST(JournalCorruption, KillCutTailIsBenign) {
  const std::string path = scratch("kill_cut");
  write_journal(path, 5);
  auto lines = read_lines(path);
  // A SIGKILL mid-write leaves a prefix of the final line and no newline.
  lines.back() = lines.back().substr(0, lines.back().size() / 2);
  write_lines(path, lines, /*final_newline=*/false);

  auto journal = load_journal(path);
  ASSERT_TRUE(journal.has_value()) << journal.error();
  EXPECT_EQ(journal->events.size(), 4u);
  EXPECT_EQ(journal->malformed_lines, 1u);
  EXPECT_TRUE(journal->truncated_tail);
  EXPECT_FALSE(journal->damaged());  // expected kill signature, not rot
}

TEST(JournalCorruption, KillCutPlusMidFileDamageIsStillDamage) {
  const std::string path = scratch("cut_and_rot");
  write_journal(path, 6);
  auto lines = read_lines(path);
  flip_line(lines, 1);
  lines.back() = lines.back().substr(0, 10);
  write_lines(path, lines, /*final_newline=*/false);

  auto journal = load_journal(path);
  ASSERT_TRUE(journal.has_value()) << journal.error();
  EXPECT_EQ(journal->corrupt_lines, 1u);
  EXPECT_TRUE(journal->truncated_tail);
  EXPECT_TRUE(journal->damaged());  // the tail is excused, the rot is not
}

TEST(JournalCorruption, UntaggedParseableLinesAreCorrupt) {
  const std::string path = scratch("untagged");
  write_journal(path, 4);
  auto lines = read_lines(path);
  // Line 1 loses its whole tag; line 2's tag prefix loses one bit ("crc"
  // becomes "csc"). Both still parse as JSON, but neither can be verified.
  lines[1] = lines[1].substr(0, lines[1].size() - obs::kJournalCrcTagSize) + "}";
  const std::size_t key_at = lines[2].rfind("\"crc\"");
  ASSERT_NE(key_at, std::string::npos);
  lines[2][key_at + 2] = static_cast<char>(lines[2][key_at + 2] ^ 0x01);
  write_lines(path, lines);

  auto journal = load_journal(path);
  ASSERT_TRUE(journal.has_value()) << journal.error();
  EXPECT_EQ(journal->events.size(), 2u);
  EXPECT_EQ(journal->corrupt_lines, 2u);
  EXPECT_EQ(journal->malformed_lines, 0u);
  EXPECT_TRUE(journal->damaged());
}

TEST(JournalCorruption, SummarizeReportsCorruptionCounts) {
  const std::string path = scratch("summary");
  write_journal(path, 4);
  auto lines = read_lines(path);
  flip_line(lines, 1);
  write_lines(path, lines);

  auto journal = load_journal(path);
  ASSERT_TRUE(journal.has_value()) << journal.error();
  const std::string text = summarize(*journal);
  EXPECT_NE(text.find("1 corrupt"), std::string::npos) << text;
}

}  // namespace
}  // namespace ranycast::flight
