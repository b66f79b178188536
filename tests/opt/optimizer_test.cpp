// Optimizer (PassManager) tests plus the central soundness property:
// for arbitrary generated programs and arbitrary heuristic settings, the
// optimized program verifies and computes the same exit value.
#include "opt/pipeline.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

#include "bytecode/size_estimator.hpp"
#include "bytecode/verifier.hpp"
#include "heuristics/heuristic.hpp"
#include "testing.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace ith::opt {
namespace {

/// Optimizes every method of `prog` under `h` and returns the runnable result.
bc::Program optimize_whole_program(const bc::Program& prog, const heur::InlineHeuristic& h) {
  PassManager pm(prog, h);
  bc::Program out = prog;
  for (std::size_t i = 0; i < prog.num_methods(); ++i) {
    out.mutable_method(static_cast<bc::MethodId>(i)) =
        pm.run(static_cast<bc::MethodId>(i)).body.method;
  }
  return out;
}

TEST(Optimizer, FoldsThroughInlinedArguments) {
  // main calls add2(2,3): after inlining + copy-prop + folding the whole
  // thing should reduce to pushing the constant 5.
  const bc::Program p = ith::test::make_add_program();
  heur::AlwaysInlineHeuristic h;
  PassManager pm(p, h);
  const OptimizeResult r = pm.run(p.entry());
  bc::Program q = p;
  q.mutable_method(q.entry()) = r.body.method;
  bc::verify_program(q);
  EXPECT_EQ(ith::test::run_exit_value(q), 5);
  // The optimized entry should be tiny: const 5; halt.
  EXPECT_LE(q.method(q.entry()).size(), 2u)
      << "inlining should enable complete constant folding here";
}

TEST(Optimizer, ReducesDynamicWorkOnLoops) {
  const bc::Program p = ith::test::make_loop_program(50);
  heur::AlwaysInlineHeuristic h;
  const bc::Program q = optimize_whole_program(p, h);
  EXPECT_EQ(ith::test::run_exit_value(q), ith::test::run_exit_value(p));
  // Entry should contain no calls once square() is inlined.
  EXPECT_TRUE(q.method(q.entry()).call_sites().empty());
}

TEST(Optimizer, DisabledPassesDoNothing) {
  const bc::Program p = ith::test::make_add_program();
  heur::AlwaysInlineHeuristic h;
  PassManager pm(p, h, cold_site,
                 PipelineDesc::parse("fixpoint(algebraic,compare_fusion):6"));
  const OptimizeResult r = pm.run(p.entry());
  EXPECT_EQ(r.body.method, p.method(p.entry()));
  EXPECT_EQ(r.stats.folds, 0u);
}

TEST(Optimizer, StatsAccumulate) {
  const bc::Program p = ith::test::make_add_program();
  heur::AlwaysInlineHeuristic h;
  PassManager pm(p, h);
  const OptimizeResult r = pm.run(p.entry());
  EXPECT_EQ(r.stats.inline_stats.sites_inlined, 1u);
  EXPECT_GT(r.stats.copyprops + r.stats.folds, 0u);
  EXPECT_GT(r.stats.instructions_compacted, 0u);
  EXPECT_GE(r.stats.iterations, 1);
}

TEST(Optimizer, RejectsZeroIterations) {
  const bc::Program p = ith::test::make_add_program();
  heur::NeverInlineHeuristic h;
  PipelineDesc bad = PipelineDesc::standard();
  bad.max_iterations = 0;
  EXPECT_THROW(PassManager(p, h, cold_site, bad), ith::Error);
}

TEST(Optimizer, NeverHeuristicStillCleansUp) {
  // Even with inlining off, scalar passes fold main's own constants.
  bc::ProgramBuilder pb("c");
  pb.method("main", 0, 0).const_(2).const_(3).add().const_(4).mul().halt();
  pb.entry("main");
  const bc::Program p = pb.build();
  heur::NeverInlineHeuristic h;
  PassManager pm(p, h);
  const OptimizeResult r = pm.run(p.entry());
  EXPECT_LE(r.body.method.size(), 2u);
  bc::Program q = p;
  q.mutable_method(q.entry()) = r.body.method;
  EXPECT_EQ(ith::test::run_exit_value(q), 20);
}

// --- Soundness property over generated programs -------------------------------

struct SoundnessCase {
  std::uint64_t program_seed;
  int callee_max;
  int always;
  int depth;
  int caller_max;
};

class OptimizerSoundness : public ::testing::TestWithParam<SoundnessCase> {};

TEST_P(OptimizerSoundness, OptimizedProgramVerifiesAndMatches) {
  const SoundnessCase c = GetParam();
  wl::SyntheticSpec spec;
  spec.seed = c.program_seed;
  spec.n_leaves = 8;
  spec.n_chains = 2;
  spec.chain_levels = 3;
  spec.n_dispatchers = 1;
  spec.n_recursive = 1;
  spec.n_blobs = 1;
  spec.hot_iters = 12;
  const bc::Program p = wl::make_synthetic(spec);

  heur::InlineParams params = heur::default_params();
  params.callee_max_size = c.callee_max;
  params.always_inline_size = c.always;
  params.max_inline_depth = c.depth;
  params.caller_max_size = c.caller_max;
  heur::JikesHeuristic h(params);

  const bc::Program q = optimize_whole_program(p, h);
  ASSERT_NO_THROW(bc::verify_program(q));
  EXPECT_EQ(ith::test::run_exit_value(q), ith::test::run_exit_value(p))
      << "seed=" << c.program_seed << " params=" << params.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    ParamSweep, OptimizerSoundness,
    ::testing::Values(SoundnessCase{1, 23, 11, 5, 2048}, SoundnessCase{2, 50, 30, 15, 4000},
                      SoundnessCase{3, 1, 1, 1, 1}, SoundnessCase{4, 50, 1, 15, 4000},
                      SoundnessCase{5, 10, 9, 2, 100}, SoundnessCase{6, 35, 20, 8, 500},
                      SoundnessCase{7, 23, 11, 5, 2048}, SoundnessCase{8, 45, 2, 12, 3000},
                      SoundnessCase{9, 5, 4, 15, 4000}, SoundnessCase{10, 28, 14, 3, 64}));

// The same soundness property over the real benchmark programs with the
// default heuristic and an aggressive one.
class WorkloadSoundness : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSoundness, OptimizeWholeProgramPreservesBehaviour) {
  const bc::Program p = wl::make_workload(GetParam()).program;
  const std::int64_t expected = ith::test::run_exit_value(p);

  for (int aggressive = 0; aggressive < 2; ++aggressive) {
    heur::InlineParams params = heur::default_params();
    if (aggressive) {
      params.callee_max_size = 50;
      params.always_inline_size = 30;
      params.max_inline_depth = 15;
      params.caller_max_size = 4000;
    }
    heur::JikesHeuristic h(params);
    const bc::Program q = optimize_whole_program(p, h);
    ASSERT_NO_THROW(bc::verify_program(q));
    EXPECT_EQ(ith::test::run_exit_value(q), expected) << GetParam() << " aggressive=" << aggressive;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSoundness,
                         ::testing::Values("compress", "jess", "db", "javac", "mpegaudio",
                                           "raytrace", "jack", "antlr", "fop", "jython", "pmd",
                                           "ps", "ipsixql", "pseudojbb"));

}  // namespace
}  // namespace ith::opt
