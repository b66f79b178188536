// Regression corpus replay: every checked-in .mbc repro in
// tests/fuzz/corpus must load, verify, and pass the differential oracle.
// The corpus is seeded with the three hand-written edge cases; any repro a
// future fuzzing campaign shrinks out of a real bug lands here too, so a
// fixed bug stays fixed.
#include <gtest/gtest.h>

#include <algorithm>

#include "bytecode/binary.hpp"
#include "bytecode/verifier.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/oracle.hpp"

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
    for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
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

TEST(Corpus, RoundTripsThroughTheBinaryFormat) {
  // Checked-in files were produced by write_corpus_entry; loading and
  // re-serializing must agree with what the built-ins produce today, so
  // the corpus cannot silently drift from the generator's edge cases.
  const auto entries = load_corpus(ITH_FUZZ_CORPUS_DIR);
  for (const auto& [name, prog] : builtin_edge_cases()) {
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&](const auto& e) { return e.first == name; });
    ASSERT_NE(it, entries.end()) << name;
    EXPECT_EQ(bc::to_binary(it->second), bc::to_binary(prog)) << name;
  }
}

}  // namespace
}  // namespace ith::fuzz
