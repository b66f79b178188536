// Regression corpus replay: every checked-in .ithasm program in
// tests/fuzz/corpus must load, verify, and pass the differential oracle.
// The corpus holds the only copy of the three hand-written edge cases; any
// repro a future fuzzing campaign shrinks out of a real bug lands here too,
// so a fixed bug stays fixed. The files also seed a sweep of damaged
// program text through the parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bytecode/serializer.hpp"
#include "bytecode/verifier.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "support/error.hpp"

#ifndef ITH_FUZZ_CORPUS_DIR
#error "ITH_FUZZ_CORPUS_DIR must point at tests/fuzz/corpus"
#endif

namespace ith::fuzz {
namespace {

TEST(Corpus, ContainsTheSeededEdgeCases) {
  const auto entries = load_corpus(ITH_FUZZ_CORPUS_DIR);
  ASSERT_GE(entries.size(), 3u) << "corpus directory missing or empty";
  auto has = [&](const std::string& name) {
    return std::any_of(entries.begin(), entries.end(),
                       [&](const auto& e) { return e.first == name; });
  };
  EXPECT_TRUE(has("edge_empty_body_leaf"));
  EXPECT_TRUE(has("edge_max_stack_boundary"));
  EXPECT_TRUE(has("edge_self_recursive"));
  // Control-flow repros: jumps that split straight-line runs, back edges
  // into the middle of a loop guard or a local update, OSR entries at a
  // loop guard, deep call+return chains, and a branch whose delta and
  // operands come from a long guard run.
  EXPECT_TRUE(has("cf_split_jump"));
  EXPECT_TRUE(has("cf_backedge_interior"));
  EXPECT_TRUE(has("cf_osr_midpattern"));
  EXPECT_TRUE(has("cf_ret_chain"));
  EXPECT_TRUE(has("cf_osr_imm_window"));
  EXPECT_TRUE(has("cf_backedge_imm_interior"));
  EXPECT_TRUE(has("cf_sidepool_operand"));
}

TEST(Corpus, EveryEntryVerifiesAndPassesTheOracle) {
  for (const auto& [name, prog] : load_corpus(ITH_FUZZ_CORPUS_DIR)) {
    EXPECT_NO_THROW(bc::verify_program(prog)) << name;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 5ull, 9ull}) {
      OracleConfig config;
      config.seed = seed;
      const OracleVerdict verdict = DifferentialOracle(config).check(prog);
      EXPECT_FALSE(verdict.reference_failed)
          << name << " oracle seed " << seed << ": " << verdict.reference_error;
      EXPECT_FALSE(verdict.diverged)
          << name << " oracle seed " << seed << ": " << verdict.summary();
    }
  }
}

TEST(Corpus, WrittenEntryLoadsBackAndDamageNamesTheFile) {
  const std::string dir = ::testing::TempDir() + "corpus_written_entry";
  std::filesystem::remove_all(dir);
  GeneratorSpec spec;
  spec.seed = 7;
  const bc::Program prog = generate_adversarial(spec);
  const std::string path = write_corpus_entry(dir, "repro_seed7", prog);
  EXPECT_EQ(path, dir + "/repro_seed7.ithasm");
  const auto entries = load_corpus(dir);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, "repro_seed7");
  EXPECT_EQ(entries[0].second, prog);

  std::ofstream(dir + "/damaged.ithasm") << "program name=x globals=0 entry=main\n  zap\n";
  try {
    load_corpus(dir);
    ADD_FAILURE() << "damaged entry loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("damaged.ithasm"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("line 2:"), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(dir);
}

/// The raw text of every corpus file, sorted by name.
std::vector<std::string> corpus_texts() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(ITH_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".ithasm") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> texts;
  for (const auto& path : files) {
    std::ifstream is(path);
    texts.emplace_back(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  return texts;
}

/// `text` split after each newline (the last line may lack one).
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t next = std::min(text.find('\n', at), text.size() - 1) + 1;
    lines.push_back(text.substr(at, next - at));
    at = next;
  }
  return lines;
}

// Damaged program text: every truncation prefix of every entry, every
// single-byte replacement from a small alphabet, and every line-aligned
// splice of two entries. Each must end in a typed ith::Error or in a
// verified program that round-trips exactly; nothing else may escape.
TEST(Corpus, MutatedEntriesParseOrThrowTypedErrors) {
  const std::vector<std::string> texts = corpus_texts();
  ASSERT_FALSE(texts.empty()) << "corpus directory missing or empty";
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  const auto feed = [&](const std::string& input) {
    try {
      const bc::Program p = bc::parse_program(input);
      EXPECT_EQ(bc::parse_program(bc::dump_program(p)), p) << input;
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception '" << e.what() << "' on:\n" << input;
    }
  };

  static constexpr char kAlphabet[] = {'\0', '7', '-', ' ', '\n', '=', '{', '}', 'x', '#'};
  for (const std::string& text : texts) {
    for (std::size_t cut = 0; cut <= text.size(); ++cut) feed(text.substr(0, cut));
    for (std::size_t at = 0; at < text.size(); ++at) {
      for (const char c : kAlphabet) {
        std::string mutant = text;
        mutant[at] = c;
        feed(mutant);
      }
    }
  }
  for (std::size_t a = 0; a < texts.size(); ++a) {
    const std::vector<std::string> head = lines_of(texts[a]);
    for (std::size_t b = 0; b < texts.size(); ++b) {
      if (a == b) continue;
      const std::vector<std::string> tail = lines_of(texts[b]);
      // a's first `split` lines, then b's from line `split` on.
      for (std::size_t split = 0; split <= head.size(); ++split) {
        std::string spliced;
        for (std::size_t i = 0; i < split; ++i) spliced += head[i];
        for (std::size_t i = split; i < tail.size(); ++i) spliced += tail[i];
        feed(spliced);
      }
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace ith::fuzz
