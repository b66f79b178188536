// Partial inlining (the sixth tunable dimension): guard-head shape
// detection, behavioural equivalence of the head-splice + outlined-tail
// transformation on both the hot and the cold path, the structured report
// rows it emits, and the structural guard that keeps the residual stub call
// from being re-expanded.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "bytecode/builder.hpp"
#include "bytecode/size_estimator.hpp"
#include "bytecode/verifier.hpp"
#include "opt/analysis.hpp"
#include "opt/pipeline.hpp"
#include "testing.hpp"

namespace ith::opt {
namespace {

// guard(n): if (n < 10) return 0; else <heavy accumulation tail>.
// The first six instructions form a pure guard head (argument loads only,
// stack empty on the cold exit, one reachable kRet); the tail is fat enough
// that the default CALLEE_MAX_SIZE refuses a full inline.
bc::Program make_guard_program() {
  bc::ProgramBuilder pb("partial", 0);
  auto& g = pb.method("guard", 1, 2);
  g.load(0).const_(10).cmplt().jz("tail");
  g.const_(0).ret();
  g.label("tail");
  g.load(0).store(1);
  for (int i = 1; i <= 9; ++i) {
    g.load(1).const_(i).add().store(1);
  }
  g.load(1).ret();

  auto& m = pb.method("main", 0, 0);
  m.const_(3).call("guard", 1);   // hot path: head returns 0 inline
  m.const_(50).call("guard", 1);  // cold path: stub re-invokes the tail
  m.add().halt();
  pb.entry("main");
  return pb.build();
}

heur::InlineParams partial_params() {
  heur::InlineParams p = heur::default_params();
  p.partial_max_head_size = 40;
  return p;
}

TEST(PartialShape, DetectsThePureGuardHead) {
  const bc::Program p = make_guard_program();
  const bc::MethodId guard = p.find_method("guard");
  const std::optional<PartialShape> shape = partial_inline_shape(p.method(guard));
  ASSERT_TRUE(shape.has_value());
  EXPECT_EQ(shape->head_len, 6);  // load const cmplt jz const ret
  EXPECT_GT(shape->head_words, 0);
  EXPECT_LT(shape->head_words, bc::estimated_method_size(p.method(guard)));

  // The guard must actually be too big for a full inline, or this file
  // tests nothing.
  EXPECT_GT(bc::estimated_method_size(p.method(guard)),
            heur::default_params().callee_max_size);
}

TEST(PartialShape, ImpureHeadHasNoShape) {
  bc::ProgramBuilder pb("noguard", 0);
  auto& f = pb.method("f", 1, 2);
  f.load(0).store(1).load(1).ret();  // store before the first ret: impure
  pb.method("main", 0, 0).const_(1).call("f", 1).halt();
  pb.entry("main");
  const bc::Program p = pb.build();
  EXPECT_FALSE(partial_inline_shape(p.method(p.find_method("f"))).has_value());
}

TEST(PartialInline, SpliceIsBehaviourallyEquivalentOnBothPaths) {
  const bc::Program p = make_guard_program();
  const std::int64_t expected = ith::test::run_exit_value(p);

  const heur::JikesHeuristic h(partial_params());
  PassManager pm(p, h);
  bc::Program q = p;
  std::size_t partials = 0;
  for (bc::MethodId id = 0; id < static_cast<bc::MethodId>(p.num_methods()); ++id) {
    const OptimizeResult r = pm.run(id);
    ASSERT_TRUE(r.body.consistent());
    partials += r.stats.inline_stats.sites_partially_inlined;
    q.mutable_method(id) = r.body.method;
  }
  ASSERT_GE(partials, 2u) << "both call sites should take the partial path";
  ASSERT_NO_THROW(bc::verify_program(q));
  EXPECT_EQ(ith::test::run_exit_value(q), expected);
}

TEST(PartialInline, StubKeepsTheResidualCallAndIsNotReExpanded) {
  const bc::Program p = make_guard_program();
  const bc::MethodId guard = p.find_method("guard");
  const heur::JikesHeuristic h(partial_params());
  PassManager pm(p, h);
  const OptimizeResult r = pm.run(p.find_method("main"));

  std::size_t residual_calls = 0;
  for (const bc::Instruction& insn : r.body.method.code()) {
    if (insn.op == bc::Op::kCall && insn.a == guard) ++residual_calls;
  }
  EXPECT_EQ(residual_calls, 2u) << "each partial splice leaves exactly one stub call";
  // The inliner revisits the spliced region; the stub call's chain already
  // holds the callee, so the recursion guard refuses it structurally.
  EXPECT_GE(r.stats.inline_stats.sites_refused_structural, 2u);
  EXPECT_EQ(r.stats.inline_stats.sites_partially_inlined, 2u);
}

TEST(PartialInline, ReportRecordsPartialOutcomes) {
  const bc::Program p = make_guard_program();
  const heur::JikesHeuristic h(partial_params());
  PassManager pm(p, h);
  InlineReport report;
  pm.run(p.find_method("main"), &report);

  std::size_t partial_rows = 0;
  for (const ProbeDecision& e : report) {
    if (e.outcome != ProbeDecision::Outcome::kPartial) continue;
    ++partial_rows;
    EXPECT_EQ(e.callee, p.find_method("guard"));
    EXPECT_GT(e.head_size, 0);
    EXPECT_NE(std::string(e.rule).find("partial_head"), std::string::npos);
  }
  EXPECT_EQ(partial_rows, 2u);
  const std::string text = format_inline_report(p, report);
  EXPECT_NE(text.find("partially inlined"), std::string::npos);
}

TEST(PartialInline, ZeroHeadBudgetDisablesTheSixthDimension) {
  const bc::Program p = make_guard_program();
  heur::InlineParams off = partial_params();
  off.partial_max_head_size = 0;
  const heur::JikesHeuristic h(off);
  PassManager pm(p, h);
  const OptimizeResult r = pm.run(p.find_method("main"));
  EXPECT_EQ(r.stats.inline_stats.sites_partially_inlined, 0u);
  // With partial off the too-big callee is refused outright, exactly the
  // five-parameter behaviour.
  EXPECT_EQ(r.stats.inline_stats.sites_inlined, 0u);
  EXPECT_GE(r.stats.inline_stats.sites_refused_by_heuristic, 2u);
}

}  // namespace
}  // namespace ith::opt
