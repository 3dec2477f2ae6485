// Deterministic structure-aware fuzzing of the JSON layer and its two
// consumers: the lab-config binder and the chaos scenario parser.
//
// No libFuzzer: a fixed-seed xoshiro mutator walks the committed corpus in
// tests/fuzz/corpus/, producing byte flips, truncations, structural-token
// insertions and cross-file splices. Every mutant must either parse or
// return a structured error — never crash, hang, or throw past the API
// boundary. Parsed documents additionally go through dump() → reparse to
// check the printer emits what the parser accepts.
//
// Crashes found by this harness graduate to named regression cases at the
// bottom of the file (and, when input-shaped, to corpus files).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <variant>
#include <vector>

#include "ranycast/chaos/scenario.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/io/json.hpp"

#ifndef RANYCAST_FUZZ_CORPUS_DIR
#error "build must define RANYCAST_FUZZ_CORPUS_DIR"
#endif

namespace ranycast {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> load_corpus() {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(RANYCAST_FUZZ_CORPUS_DIR)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // directory order is not portable
  std::vector<std::string> corpus;
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  return corpus;
}

/// Tokens that matter to a JSON parser: inserting these moves the mutant
/// between syntactic states far more often than random bytes would.
constexpr std::string_view kStructural[] = {
    "{", "}", "[", "]", ":", ",", "\"", "\\", "true", "false", "null",
    "0",  "-", "e", ".", "1e309", "\"type\"", "{\"events\":", "\0\0",
};

std::string mutate(const std::vector<std::string>& corpus, Rng& rng) {
  std::string input = corpus[rng() % corpus.size()];
  const std::size_t rounds = 1 + rng() % 4;
  for (std::size_t round = 0; round < rounds; ++round) {
    switch (rng() % 5) {
      case 0: {  // flip a byte
        if (input.empty()) break;
        input[rng() % input.size()] ^= static_cast<char>(1 << (rng() % 8));
        break;
      }
      case 1: {  // truncate
        input.resize(input.empty() ? 0 : rng() % input.size());
        break;
      }
      case 2: {  // insert a structural token
        const auto token = kStructural[rng() % std::size(kStructural)];
        input.insert(rng() % (input.size() + 1), token.data(), token.size());
        break;
      }
      case 3: {  // splice a window from another corpus entry
        const std::string& donor = corpus[rng() % corpus.size()];
        if (donor.empty()) break;
        const std::size_t at = rng() % donor.size();
        const std::size_t len = 1 + rng() % (donor.size() - at);
        input.insert(rng() % (input.size() + 1), donor, at, len);
        break;
      }
      case 4: {  // overwrite with raw bytes (exercises UTF-8/control paths)
        if (input.empty()) break;
        input[rng() % input.size()] = static_cast<char>(rng() % 256);
        break;
      }
    }
  }
  return input;
}

/// One mutant through every parser: nothing may escape as a crash or an
/// unstructured exception. Returns true when the document parsed.
bool exercise(const std::string& input) {
  auto parsed = io::parse_json(input);
  if (std::holds_alternative<io::JsonParseError>(parsed)) return false;
  const io::Json& json = std::get<io::Json>(parsed);

  // Printer/parser agreement: what dump() emits must reparse to a document
  // that dumps identically (fixed point after one round).
  const std::string once = json.dump();
  auto reparsed = io::parse_json(once);
  EXPECT_TRUE(std::holds_alternative<io::Json>(reparsed))
      << "dump() produced unparseable output for: " << input.substr(0, 200);
  if (auto* round = std::get_if<io::Json>(&reparsed)) {
    EXPECT_EQ(round->dump(), once) << "dump() is not a fixed point";
  }

  // Binders are total on parsed documents: a value or a structured error,
  // never a throw.
  lab::LabConfig config;
  if (!io::from_json(json, config, "<fuzz>")) (void)io::validate_lab_config(config);
  (void)chaos::plan_from_json(json, "<fuzz>");
  return true;
}

TEST(Fuzz, CorpusFilesThemselvesAreHandled) {
  const auto corpus = load_corpus();
  ASSERT_GE(corpus.size(), 5u) << "corpus went missing from " << RANYCAST_FUZZ_CORPUS_DIR;
  std::size_t parsed = 0;
  for (const auto& doc : corpus) parsed += exercise(doc) ? 1 : 0;
  // The corpus deliberately mixes valid and malformed documents.
  EXPECT_GE(parsed, 3u) << "valid seeds stopped parsing";
  EXPECT_LT(parsed, corpus.size()) << "malformed seeds stopped failing";
}

TEST(Fuzz, DeterministicMutationSweep) {
  const auto corpus = load_corpus();
  ASSERT_FALSE(corpus.empty());
  // Fixed seed + bounded iterations: this is the CI smoke configuration.
  // For a deeper local run, raise kIterations; failures reproduce exactly.
  constexpr std::uint64_t kSeed = 20230805;
  constexpr int kIterations = 2000;
  Rng rng(kSeed);
  std::size_t parsed = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = mutate(corpus, rng);
    SCOPED_TRACE("iteration " + std::to_string(i));
    parsed += exercise(input) ? 1 : 0;
  }
  // Structure-aware mutation keeps a healthy share of mutants parseable;
  // if this drops to ~0 the mutator degenerated into noise.
  EXPECT_GT(parsed, 0u);
}

// --- regression cases: inputs that once crashed or misbehaved -------------

TEST(FuzzRegression, DeepArrayNestingReturnsErrorNotCrash) {
  // Pre-depth-cap, 400 nested arrays overflowed the recursive-descent stack.
  const std::string deep(400, '[');
  auto result = io::parse_json(deep + "0" + std::string(400, ']'));
  ASSERT_TRUE(std::holds_alternative<io::JsonParseError>(result));
  EXPECT_NE(std::get<io::JsonParseError>(result).message.find("nesting"),
            std::string::npos);
}

TEST(FuzzRegression, DeepObjectNestingReturnsErrorNotCrash) {
  std::string deep;
  for (int i = 0; i < 400; ++i) deep += "{\"a\":";
  deep += "1";
  deep.append(400, '}');
  auto result = io::parse_json(deep);
  ASSERT_TRUE(std::holds_alternative<io::JsonParseError>(result));
}

TEST(FuzzRegression, NestingJustUnderTheCapStillParses) {
  const int depth = 250;  // cap is 256
  std::string doc(depth, '[');
  doc += "0";
  doc.append(depth, ']');
  EXPECT_TRUE(std::holds_alternative<io::Json>(io::parse_json(doc)));
}

TEST(FuzzRegression, LoneSurrogateAndControlBytesDoNotCrash) {
  (void)io::parse_json("\"\\udc00\"");
  (void)io::parse_json(std::string("\"\x01\x02\x7f\"", 5));
  (void)io::parse_json(std::string("\0", 1));
}

TEST(FuzzRegression, ScenarioBinderRejectsNonObjectEvents) {
  auto json = io::parse_json_or_throw(
      R"({"name": "x", "events": [42, {"type": "site_withdraw", "site": 0}]})");
  auto plan = chaos::plan_from_json(json, "<fuzz>");
  EXPECT_FALSE(plan.has_value());
}

TEST(FuzzRegression, LabBinderRefusesWrongScalarTypes) {
  // A mistyped member is refused with its path instead of falling back to
  // the default, and nothing throws.
  auto json = io::parse_json_or_throw(
      R"({"seed": "not a number", "world": [1, 2], "census": {"total_probes": true}})");
  lab::LabConfig config;
  const auto err = io::from_json(json, config, "<fuzz>");
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "seed");
  EXPECT_EQ(err->file, "<fuzz>");
}

}  // namespace
}  // namespace ranycast
