// Inliner correctness: the transformed body must verify and compute the
// same values, call sites must disappear, and the structural guards
// (recursion, depth, shape) must hold. Bodies are built the way the inline
// pass builds them: DecisionProbe walks the method, the Inliner splices it.
#include "opt/inliner.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

#include "bytecode/size_estimator.hpp"
#include "bytecode/verifier.hpp"
#include "heuristics/heuristic.hpp"
#include "opt/decision_probe.hpp"
#include "testing.hpp"

namespace ith::opt {
namespace {

/// Walks method `id` and splices the walk.
AnnotatedMethod inline_body(const bc::Program& prog, bc::MethodId id,
                            const heur::InlineHeuristic& h, InlineStats* stats = nullptr,
                            InlineLimits limits = {}, SiteOracle oracle = cold_site) {
  const ProbeFacts facts(prog);
  VerdictTrace walk;
  DecisionProbe(facts, h, std::move(oracle), limits).probe_method(id, walk);
  return Inliner(prog).run(id, walk, stats);
}

/// Replaces method `id`'s body with the inlined version and returns the
/// resulting runnable program.
bc::Program with_inlined(const bc::Program& prog, bc::MethodId id,
                         const heur::InlineHeuristic& h, InlineStats* stats = nullptr,
                         InlineLimits limits = {}) {
  AnnotatedMethod am = inline_body(prog, id, h, stats, limits);
  bc::Program out = prog;
  out.mutable_method(id) = am.method;
  return out;
}

TEST(Inliner, InlinesSimpleCall) {
  const bc::Program p = ith::test::make_add_program();
  heur::AlwaysInlineHeuristic h;
  InlineStats stats;
  const bc::Program q = with_inlined(p, p.entry(), h, &stats);
  EXPECT_EQ(stats.sites_inlined, 1u);
  EXPECT_TRUE(q.method(q.entry()).call_sites().empty());
  bc::verify_program(q);
  EXPECT_EQ(ith::test::run_exit_value(q), 5);
}

TEST(Inliner, NeverHeuristicLeavesBodyUntouched) {
  const bc::Program p = ith::test::make_add_program();
  heur::NeverInlineHeuristic h;
  InlineStats stats;
  const bc::Program q = with_inlined(p, p.entry(), h, &stats);
  EXPECT_EQ(stats.sites_inlined, 0u);
  EXPECT_EQ(stats.sites_refused_by_heuristic, 1u);
  EXPECT_EQ(q.method(q.entry()), p.method(p.entry()));
}

TEST(Inliner, PreservesLoopSemantics) {
  const bc::Program p = ith::test::make_loop_program(17);
  heur::AlwaysInlineHeuristic h;
  const bc::Program q = with_inlined(p, p.entry(), h);
  bc::verify_program(q);
  EXPECT_EQ(ith::test::run_exit_value(q), ith::test::run_exit_value(p));
}

TEST(Inliner, GrowsLocalSpaceForCalleeFrames) {
  const bc::Program p = ith::test::make_add_program();
  heur::AlwaysInlineHeuristic h;
  const bc::Program q = with_inlined(p, p.entry(), h);
  EXPECT_GE(q.method(q.entry()).num_locals(),
            p.method(p.entry()).num_locals() + p.method(p.find_method("add2")).num_locals());
}

TEST(Inliner, DepthIsTracked) {
  // chain: main -> a -> b, all inlinable: depth 2 reached.
  bc::ProgramBuilder pb("chain");
  pb.method("b", 1, 1).load(0).const_(1).add().ret();
  pb.method("a", 1, 1).load(0).call("b", 1).ret();
  pb.method("main", 0, 0).const_(5).call("a", 1).halt();
  pb.entry("main");
  const bc::Program p = pb.build();

  heur::AlwaysInlineHeuristic h;
  InlineStats stats;
  const bc::Program q = with_inlined(p, p.entry(), h, &stats);
  EXPECT_EQ(stats.max_depth_reached, 2);
  EXPECT_EQ(ith::test::run_exit_value(q), 6);
}

TEST(Inliner, DepthCapStopsRecursiveExpansion) {
  const bc::Program p = ith::test::make_fib_program(8);
  heur::AlwaysInlineHeuristic h(/*depth_cap=*/15);
  InlineLimits limits;
  limits.hard_depth_cap = 6;
  limits.max_recursive_occurrences = 3;
  InlineStats stats;
  const bc::Program q = with_inlined(p, p.find_method("fib"), h, &stats, limits);
  EXPECT_LE(stats.max_depth_reached, 6);
  bc::verify_program(q);
  EXPECT_EQ(ith::test::run_exit_value(q), ith::test::run_exit_value(p));
}

TEST(Inliner, RecursionGuardDefaultAllowsOneLevel) {
  const bc::Program p = ith::test::make_fib_program(8);
  heur::AlwaysInlineHeuristic h;
  InlineStats stats;
  const bc::Program q = with_inlined(p, p.find_method("fib"), h, &stats);
  // fib may be spliced into itself once (chain [fib]); the next level is
  // refused because fib already appears on the chain.
  EXPECT_GT(stats.sites_refused_structural, 0u);
  EXPECT_EQ(ith::test::run_exit_value(q), ith::test::run_exit_value(p));
}

TEST(Inliner, BodySizeCapRefusesGrowth) {
  const bc::Program p = ith::test::make_loop_program(5);
  heur::AlwaysInlineHeuristic h;
  InlineLimits limits;
  limits.max_body_words = 1;  // nothing may grow
  InlineStats stats;
  const bc::Program q = with_inlined(p, p.entry(), h, &stats, limits);
  EXPECT_EQ(stats.sites_inlined, 0u);
  EXPECT_EQ(q.method(q.entry()), p.method(p.entry()));
}

TEST(Inliner, MultipleReturnsBecomeJumpsToLanding) {
  // Callee with two returns on different paths.
  bc::ProgramBuilder pb("multi");
  auto& f = pb.method("f", 1, 1);
  f.load(0).jz("zero");
  f.ret_const(10);
  f.label("zero");
  f.ret_const(20);
  pb.method("main", 0, 1)
      .const_(0)
      .call("f", 1)
      .const_(1)
      .call("f", 1)
      .add()
      .halt();
  pb.entry("main");
  const bc::Program p = pb.build();
  EXPECT_EQ(ith::test::run_exit_value(p), 30);

  heur::AlwaysInlineHeuristic h;
  AnnotatedMethod am = inline_body(p, p.entry(), h);
  bc::Program q = p;
  q.mutable_method(q.entry()) = am.method;
  bc::verify_program(q);
  EXPECT_EQ(ith::test::run_exit_value(q), 30);
}

TEST(Inliner, HotOracleRoutesToFigure4) {
  // Heuristic that refuses everything cold but accepts hot sites.
  const bc::Program p = ith::test::make_add_program();
  heur::InlineParams params = heur::default_params();
  params.callee_max_size = 0;        // Figure 3 path refuses everything
  params.always_inline_size = 0;
  params.hot_callee_max_size = 400;  // Figure 4 path accepts
  heur::JikesHeuristic h(params);

  InlineStats cold_stats;
  inline_body(p, p.entry(), h, &cold_stats);
  EXPECT_EQ(cold_stats.sites_inlined, 0u);

  InlineStats hot_stats;
  inline_body(p, p.entry(), h, &hot_stats, {},
              [](bc::MethodId, std::int32_t) { return SiteProfile{true, 1000}; });
  EXPECT_EQ(hot_stats.sites_inlined, 1u);
}

TEST(Inliner, IsInlinableRejectsHalt) {
  bc::ProgramBuilder pb("p");
  pb.method("stops", 0, 0).const_(1).halt();
  pb.method("main", 0, 0).call("stops", 0).halt();
  pb.entry("main");
  const bc::Program p = pb.build();
  EXPECT_FALSE(Inliner::is_inlinable(p, p.find_method("stops")));
  EXPECT_TRUE(Inliner::is_inlinable(p, p.find_method("main")) == false);  // also has halt
}

TEST(Inliner, IsInlinableAcceptsCleanMethods) {
  const bc::Program p = ith::test::make_fib_program();
  EXPECT_TRUE(Inliner::is_inlinable(p, p.find_method("fib")));
}

TEST(Inliner, StatsSizesAreConsistent) {
  const bc::Program p = ith::test::make_add_program();
  heur::AlwaysInlineHeuristic h;
  InlineStats stats;
  with_inlined(p, p.entry(), h, &stats);
  EXPECT_EQ(stats.size_before_words, bc::estimated_method_size(p.method(p.entry())));
  EXPECT_GT(stats.size_after_words, 0);
  EXPECT_EQ(stats.sites_considered,
            stats.sites_inlined + stats.sites_refused_by_heuristic + stats.sites_refused_structural);
}

TEST(Inliner, CallerSizeSeenByHeuristicGrowsDuringSession) {
  // A heuristic with a caller-size cap: after enough splices the cap binds.
  bc::ProgramBuilder pb("grow");
  pb.method("leaf", 1, 1).load(0).const_(1).add().load(0).mul().ret();
  auto& m = pb.method("main", 0, 1);
  m.const_(1).store(0);
  for (int i = 0; i < 12; ++i) {
    m.load(0).call("leaf", 1).store(0);
  }
  m.load(0).halt();
  pb.entry("main");
  const bc::Program p = pb.build();

  heur::InlineParams params = heur::default_params();
  params.always_inline_size = 1;  // no bypass
  params.callee_max_size = 50;
  params.caller_max_size = 100;  // above the initial body size; binds after a few splices
  heur::JikesHeuristic h(params);
  InlineStats stats;
  const bc::Program q = with_inlined(p, p.entry(), h, &stats);
  EXPECT_GT(stats.sites_inlined, 0u);
  EXPECT_GT(stats.sites_refused_by_heuristic, 0u) << "caller cap should eventually bind";
  EXPECT_EQ(ith::test::run_exit_value(q), ith::test::run_exit_value(p));
}

TEST(Inliner, ZeroInitializesCalleeLocalsWhenSiteReExecutes) {
  // A real call starts from a zeroed frame every time; an inlined region
  // inside a loop re-executes with the caller's locals as they were left.
  // The callee reads non-arg local 1 before (conditionally) writing it, so
  // without an explicit clearing prologue the second trip would observe the
  // first trip's store. Found by the differential fuzzer (seed 2).
  bc::ProgramBuilder pb("stale");
  auto& f = pb.method("stale_reader", 1, 2);
  f.load(1).load(0).store(1).ret();  // returns old local1 (always 0), then local1 = arg
  auto& m = pb.method("main", 0, 2);
  m.const_(3).store(0).const_(0).store(1);
  m.label("head");
  m.load(0).jz("done");
  m.load(1).const_(5).call("stale_reader", 1).add().store(1);
  m.load(0).const_(1).sub().store(0);
  m.jmp("head");
  m.label("done");
  m.load(1).halt();
  pb.entry("main");
  const bc::Program p = pb.build();
  ASSERT_EQ(ith::test::run_exit_value(p), 0);  // every activation returns 0

  heur::AlwaysInlineHeuristic h;
  InlineStats stats;
  const bc::Program q = with_inlined(p, p.entry(), h, &stats);
  ASSERT_EQ(stats.sites_inlined, 1u);
  bc::verify_program(q);
  EXPECT_EQ(ith::test::run_exit_value(q), 0)
      << "inlined loop body leaked a local value between trips";
}

TEST(Inliner, SkipsClearingPrologueWhenLocalsAreDefinitelyAssigned) {
  // add2 writes nothing beyond its arguments, so the splice needs no
  // clearing prologue: the only kStores in the inlined entry are the two
  // argument marshalling stores.
  const bc::Program p = ith::test::make_add_program();
  heur::AlwaysInlineHeuristic h;
  const bc::Program q = with_inlined(p, p.entry(), h);
  std::size_t stores = 0;
  for (const bc::Instruction& insn : q.method(q.entry()).code()) {
    if (insn.op == bc::Op::kStore) ++stores;
  }
  EXPECT_EQ(stores, 2u);
}

}  // namespace
}  // namespace ith::opt
