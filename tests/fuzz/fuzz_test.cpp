// Fuzzing subsystem correctness: the adversarial generator only emits
// verified programs and is deterministic in its seed, the four-tier
// differential oracle is deterministic and clean over a seed block, and an
// intentionally planted miscompile is caught, bisected to the carrying
// pass, and shrunk to a handful of instructions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>

#include "bytecode/builder.hpp"
#include "bytecode/verifier.hpp"
#include "fuzz/bisect.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "opt/pipeline.hpp"
#include "support/error.hpp"

namespace ith::fuzz {
namespace {

TEST(Generator, ProducesVerifiedNonTrivialPrograms) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    GeneratorSpec spec;
    spec.seed = seed;
    const bc::Program prog = generate_adversarial(spec);
    // generate_adversarial verifies internally; re-check the contract here
    // so a regression fails with the verifier's message, not deep inside.
    EXPECT_NO_THROW(bc::verify_program(prog)) << "seed " << seed;
    EXPECT_GE(prog.num_methods(),
              static_cast<std::size_t>(spec.min_methods) + 1)  // + entry
        << "seed " << seed;
    EXPECT_GE(prog.total_code_size(), 50u) << "seed " << seed;
  }
}

TEST(Generator, ByteIdenticalForEqualSeeds) {
  GeneratorSpec spec;
  spec.seed = 7;
  const bc::Program first = generate_adversarial(spec);
  const bc::Program second = generate_adversarial(spec);
  EXPECT_EQ(first, second);

  spec.seed = 8;
  EXPECT_NE(generate_adversarial(spec), first)
      << "different seeds should not collide on identical programs";
}

TEST(Oracle, VerdictIsDeterministic) {
  GeneratorSpec spec;
  spec.seed = 7;
  const bc::Program prog = generate_adversarial(spec);
  OracleConfig config;
  config.seed = 7;
  const DifferentialOracle first(config);
  const DifferentialOracle second(config);
  const OracleVerdict a = first.check(prog);
  const OracleVerdict b = second.check(prog);
  EXPECT_EQ(a.diverged, b.diverged);
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(Oracle, CleanOverSeedBlock) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    GeneratorSpec spec;
    spec.seed = seed;
    const bc::Program prog = generate_adversarial(spec);
    OracleConfig config;
    config.seed = seed;
    const DifferentialOracle oracle(config);
    const OracleVerdict verdict = oracle.check(prog);
    if (verdict.reference_failed) continue;  // too hot to fuzz, not a bug
    EXPECT_FALSE(verdict.diverged) << "seed " << seed << ": " << verdict.summary();
  }
}

/// What one oracle seed draws for the optimized tiers.
struct SeedDraw {
  heur::InlineParams::Array params;
  const char* pipeline;
  std::uint64_t hot_method_threshold;
  std::uint64_t hot_site_threshold;
  std::uint64_t rehot_multiplier;
  bool enable_osr;
  rt::EngineKind engine;
};

std::string pipeline_text(const DifferentialOracle& oracle) {
  return oracle.pipeline().to_string();
}

// Campaign seeds name configurations: a repro is replayed with the seed
// that found it, so seeds 1-32 must keep drawing exactly these.
TEST(Oracle, SeedDrawsArePinned) {
  static const SeedDraw kDraws[] = {
      {{41, 6, 3, 1127, 111, 39},
       "inline,fixpoint(fold,algebraic,compare_fusion,copyprop,dce,unreachable):6",
       167, 97, 0, true, rt::EngineKind::kReference},
      {{16, 6, 3, 1980, 172, 2},
       "fixpoint(fold,algebraic,compare_fusion,copyprop,dce,unreachable):6",
       761, 193, 0, false, rt::EngineKind::kFast},
      {{7, 28, 15, 2110, 22, 38},
       "inline,fixpoint(fold,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       485, 146, 2, false, rt::EngineKind::kReference},
      {{12, 12, 7, 2518, 316, 21},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop):6",
       309, 308, 12, true, rt::EngineKind::kFast},
      {{22, 14, 2, 215, 239, 34},
       "fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop):6",
       171, 189, 0, false, rt::EngineKind::kFast},
      {{1, 21, 3, 74, 317, 30},
       "inline,fixpoint(fold,algebraic,branch_simplify,copyprop,dce,unreachable):6",
       504, 101, 0, true, rt::EngineKind::kFast},
      {{3, 10, 14, 681, 333, 31},
       "inline,fixpoint(fold,compare_fusion,branch_simplify,dce,unreachable):6",
       500, 362, 1, true, rt::EngineKind::kFast},
      {{14, 16, 8, 1432, 360, 27},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop):6",
       83, 546, 12, true, rt::EngineKind::kFast},
      {{13, 4, 5, 1280, 349, 11},
       "inline,fixpoint(fold,algebraic,compare_fusion,copyprop,dce,unreachable):6",
       248, 493, 12, false, rt::EngineKind::kReference},
      {{37, 5, 6, 2187, 354, 31},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       169, 123, 2, false, rt::EngineKind::kReference},
      {{11, 28, 9, 1478, 350, 22},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop):6",
       62, 410, 2, false, rt::EngineKind::kReference},
      {{33, 24, 8, 1069, 89, 11},
       "inline,fixpoint(algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       363, 40, 2, false, rt::EngineKind::kReference},
      {{31, 23, 5, 3642, 266, 9},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       685, 286, 0, false, rt::EngineKind::kFast},
      {{46, 14, 9, 912, 390, 11},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       698, 50, 1, false, rt::EngineKind::kReference},
      {{12, 28, 3, 2669, 272, 19},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       479, 67, 2, true, rt::EngineKind::kReference},
      {{21, 15, 9, 665, 116, 0},
       "inline,fixpoint(fold,algebraic,branch_simplify,copyprop,dce,unreachable):6",
       692, 395, 1, false, rt::EngineKind::kFast},
      {{20, 27, 3, 2892, 380, 13},
       "inline,fixpoint(fold,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       222, 68, 1, false, rt::EngineKind::kReference},
      {{35, 20, 5, 1053, 191, 40},
       "inline,fixpoint(compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       436, 222, 12, true, rt::EngineKind::kReference},
      {{39, 1, 15, 170, 101, 29},
       "inline,fixpoint(fold,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       346, 120, 2, false, rt::EngineKind::kReference},
      {{42, 20, 10, 1075, 143, 3},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       458, 531, 2, true, rt::EngineKind::kReference},
      {{5, 28, 7, 279, 229, 9},
       "inline,fixpoint(compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       762, 70, 1, true, rt::EngineKind::kReference},
      {{19, 10, 11, 3853, 300, 5},
       "inline,fixpoint(fold,compare_fusion,branch_simplify,dce,unreachable):6",
       271, 308, 0, false, rt::EngineKind::kReference},
      {{9, 5, 10, 2764, 45, 28},
       "inline,fixpoint(fold,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       189, 282, 2, false, rt::EngineKind::kReference},
      {{15, 3, 12, 619, 205, 26},
       "inline,fixpoint(fold,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       208, 197, 12, true, rt::EngineKind::kReference},
      {{30, 1, 9, 823, 101, 17},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       396, 502, 2, false, rt::EngineKind::kFast},
      {{30, 16, 3, 3545, 87, 15},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       677, 315, 0, true, rt::EngineKind::kFast},
      {{31, 6, 3, 1909, 321, 7},
       "inline,fixpoint(algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       341, 265, 1, true, rt::EngineKind::kFast},
      {{42, 12, 8, 688, 66, 36},
       "fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       401, 509, 1, false, rt::EngineKind::kFast},
      {{4, 9, 11, 1734, 321, 27},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       752, 347, 2, false, rt::EngineKind::kFast},
      {{18, 28, 10, 249, 281, 5},
       "inline,fixpoint(fold,algebraic,compare_fusion,copyprop,dce,unreachable):6",
       149, 92, 0, true, rt::EngineKind::kReference},
      {{18, 30, 1, 3238, 332, 1},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,dce,unreachable):6",
       792, 40, 0, true, rt::EngineKind::kFast},
      {{8, 19, 13, 1574, 76, 30},
       "inline,fixpoint(fold,algebraic,compare_fusion,branch_simplify,copyprop,dce,unreachable):6",
       125, 97, 1, true, rt::EngineKind::kReference},
  };
  for (std::uint64_t seed = 1; seed <= std::size(kDraws); ++seed) {
    SCOPED_TRACE("oracle seed " + std::to_string(seed));
    const SeedDraw& want = kDraws[seed - 1];
    OracleConfig config;
    config.seed = seed;
    const DifferentialOracle oracle(config);
    EXPECT_EQ(oracle.params().to_array(), want.params);
    EXPECT_EQ(pipeline_text(oracle), want.pipeline);
    EXPECT_EQ(oracle.hot_method_threshold(), want.hot_method_threshold);
    EXPECT_EQ(oracle.hot_site_threshold(), want.hot_site_threshold);
    EXPECT_EQ(oracle.rehot_multiplier(), want.rehot_multiplier);
    EXPECT_EQ(oracle.enable_osr(), want.enable_osr);
    EXPECT_EQ(oracle.engine(), want.engine);
  }
}

/// A program whose observable output depends on a `const; const; add`
/// triple the sound folder must skip (the sum overflows int32) — exactly
/// the residue the kFoldOverflow plant miscompiles — surrounded by enough
/// benign structure that shrinking has real work to do.
bc::Program make_planted_bug_program() {
  constexpr std::int64_t kMax32 = 2147483647;
  bc::ProgramBuilder pb("planted", 8);
  pb.method("square", 1, 1).load(0).load(0).mul().ret();
  auto& m = pb.method("main", 0, 2);
  // Benign loop: g[0] = sum of squares 0..4.
  m.const_(5).store(0).const_(0).store(1);
  m.label("head");
  m.load(0).jz("done");
  m.load(1).load(0).call("square", 1).add().store(1);
  m.load(0).const_(1).sub().store(0);
  m.jmp("head");
  m.label("done");
  m.const_(0).load(1).gstore();
  // The payload: g[3] = kMax32 + 10 (does not fit int32; the sound folder
  // leaves the triple alone, the planted bug clamps it).
  m.const_(3).const_(kMax32).const_(10).add().gstore();
  // More benign traffic after the payload.
  m.const_(5).const_(4).call("square", 1).gstore();
  m.const_(0).halt();
  pb.entry("main");
  return pb.build();
}

TEST(PlantedBug, CaughtBisectedToFoldingAndShrunk) {
  const bc::Program prog = make_planted_bug_program();
  bc::verify_program(prog);

  OracleConfig config;
  config.seed = 3;
  config.planted_bug = PlantedBug::kFoldOverflow;
  config.forced_pipeline = opt::PipelineDesc::standard();  // all passes on
  const DifferentialOracle oracle(config);

  // Caught: the oracle reports the miscompiled global.
  const OracleVerdict verdict = oracle.check(prog);
  ASSERT_TRUE(verdict.diverged) << verdict.summary();

  // Bisected: the plant rides on the fold pass, so dropping that pass —
  // and only that pass — must make the divergence disappear.
  const BisectResult bisect = bisect_passes(prog, oracle);
  EXPECT_TRUE(bisect.reproduced);
  ASSERT_EQ(bisect.guilty.size(), 1u) << bisect.to_string();
  EXPECT_EQ(bisect.guilty[0], "fold");

  // Shrunk: greedy deletion keeps only the payload.
  ShrinkStats stats;
  const bc::Program shrunk = shrink_program(
      prog, [&](const bc::Program& p) { return oracle.check(p).diverged; }, &stats);
  EXPECT_TRUE(oracle.check(shrunk).diverged);
  EXPECT_LE(shrunk.total_code_size(), 10u)
      << "shrunk repro still has " << shrunk.total_code_size() << " instructions after "
      << stats.rounds << " round(s)";
  EXPECT_LT(stats.final_instructions, stats.initial_instructions);
}

TEST(PlantedBug, InertWhenCarryingPassDisabled) {
  const bc::Program prog = make_planted_bug_program();
  OracleConfig config;
  config.seed = 3;
  config.planted_bug = PlantedBug::kFoldOverflow;
  config.forced_pipeline = opt::PipelineDesc::standard().without("fold");
  const OracleVerdict verdict = DifferentialOracle(config).check(prog);
  EXPECT_FALSE(verdict.diverged) << verdict.summary();
}

TEST(Shrink, RejectsProgramThatDoesNotReproduce) {
  const bc::Program prog = make_planted_bug_program();
  EXPECT_THROW(shrink_program(prog, [](const bc::Program&) { return false; }, nullptr),
               ith::Error);
}

TEST(Campaign, SeedWalkReportsCleanRun) {
  CampaignConfig config;
  config.seed_begin = 1;
  config.seed_end = 10;
  config.corpus_dir = ITH_FUZZ_CORPUS_DIR;
  config.write_repros = false;
  const CampaignReport report = run_campaign(config);
  EXPECT_EQ(report.seeds_run, 10u);
  EXPECT_EQ(report.corpus_replayed, 10u);  // every checked-in corpus entry
  EXPECT_GT(report.total_instructions_generated, 0u);
  EXPECT_TRUE(report.clean()) << report.findings.size() << " finding(s)";
}

}  // namespace
}  // namespace ith::fuzz
