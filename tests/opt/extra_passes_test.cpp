// Tests for the extended optimizer passes: algebraic simplification,
// compare/branch fusion, and the definite-assignment analysis; plus the
// self-recursive programs the deleted tail-recursion pass was tested on,
// which the standard pipeline must now leave calling themselves.
#include <gtest/gtest.h>

#include "bytecode/builder.hpp"
#include "bytecode/verifier.hpp"
#include "heuristics/heuristic.hpp"
#include "opt/passes.hpp"
#include "opt/pipeline.hpp"
#include "support/error.hpp"
#include "testing.hpp"

namespace ith::opt {
namespace {

using bc::Instruction;
using bc::Op;

AnnotatedMethod annotate(std::vector<Instruction> code, int num_args = 0, int num_locals = 2) {
  bc::Method m("m", num_args, num_locals);
  for (const Instruction& insn : code) m.append(insn);
  return AnnotatedMethod::from_method(m, 0);
}

// --- simplify_algebraic -------------------------------------------------------

TEST(Algebraic, AddZeroRemoved) {
  AnnotatedMethod am = annotate({{Op::kLoad, 0, 0}, {Op::kConst, 0, 0}, {Op::kAdd, 0, 0},
                                 {Op::kHalt, 0, 0}});
  EXPECT_EQ(simplify_algebraic(am), 1u);
  compact_nops(am);
  ASSERT_EQ(am.method.size(), 2u);
  EXPECT_EQ(am.method.code()[0].op, Op::kLoad);
}

TEST(Algebraic, SubZeroAndMulDivOne) {
  for (const auto& [c, op] : std::vector<std::pair<int, Op>>{
           {0, Op::kSub}, {1, Op::kMul}, {1, Op::kDiv}}) {
    AnnotatedMethod am = annotate({{Op::kLoad, 0, 0}, {Op::kConst, c, 0}, {op, 0, 0},
                                   {Op::kHalt, 0, 0}});
    EXPECT_EQ(simplify_algebraic(am), 1u) << static_cast<int>(op);
  }
}

TEST(Algebraic, MulZeroBecomesPopConstZero) {
  AnnotatedMethod am = annotate({{Op::kLoad, 0, 0}, {Op::kConst, 0, 0}, {Op::kMul, 0, 0},
                                 {Op::kHalt, 0, 0}});
  EXPECT_EQ(simplify_algebraic(am), 1u);
  EXPECT_EQ(am.method.code()[1].op, Op::kPop);
  EXPECT_EQ(am.method.code()[2], (Instruction{Op::kConst, 0, 0}));
}

TEST(Algebraic, ModOneIsZero) {
  AnnotatedMethod am = annotate({{Op::kLoad, 0, 0}, {Op::kConst, 1, 0}, {Op::kMod, 0, 0},
                                 {Op::kHalt, 0, 0}});
  EXPECT_EQ(simplify_algebraic(am), 1u);
  EXPECT_EQ(am.method.code()[2], (Instruction{Op::kConst, 0, 0}));
}

TEST(Algebraic, AddNonZeroKept) {
  AnnotatedMethod am = annotate({{Op::kLoad, 0, 0}, {Op::kConst, 5, 0}, {Op::kAdd, 0, 0},
                                 {Op::kHalt, 0, 0}});
  EXPECT_EQ(simplify_algebraic(am), 0u);
}

TEST(Algebraic, DivZeroNotTouched) {
  // x / 0 must stay (it evaluates to 0 at runtime; constant_fold handles the
  // all-constant form, not this one).
  AnnotatedMethod am = annotate({{Op::kLoad, 0, 0}, {Op::kConst, 0, 0}, {Op::kDiv, 0, 0},
                                 {Op::kHalt, 0, 0}});
  EXPECT_EQ(simplify_algebraic(am), 0u);
}

TEST(Algebraic, RespectsBranchTargets) {
  AnnotatedMethod am = annotate({
      {Op::kLoad, 0, 0},   // 0
      {Op::kJz, 3, 0},     // 1 -> targets the add (pattern unsafe)... target pc3
      {Op::kConst, 0, 0},  // 2
      {Op::kAdd, 0, 0},    // 3 <- targeted
      {Op::kHalt, 0, 0},
  });
  EXPECT_EQ(simplify_algebraic(am), 0u);
}

// --- fuse_compare_branch ------------------------------------------------------

TEST(CompareFusion, EqZeroJzBecomesJnz) {
  // x == 0 feeding jz: branch taken when x != 0.
  AnnotatedMethod am = annotate({{Op::kLoad, 0, 0}, {Op::kConst, 0, 0}, {Op::kCmpEq, 0, 0},
                                 {Op::kJz, 5, 0}, {Op::kNop, 0, 0}, {Op::kHalt, 0, 0}});
  EXPECT_EQ(fuse_compare_branch(am), 1u);
  compact_nops(am);
  EXPECT_EQ(am.method.code()[1].op, Op::kJnz);
}

TEST(CompareFusion, AllFourPolarities) {
  const struct {
    Op cmp;
    Op branch;
    Op expect;
  } cases[] = {
      {Op::kCmpEq, Op::kJz, Op::kJnz},
      {Op::kCmpEq, Op::kJnz, Op::kJz},
      {Op::kCmpNe, Op::kJz, Op::kJz},
      {Op::kCmpNe, Op::kJnz, Op::kJnz},
  };
  for (const auto& c : cases) {
    AnnotatedMethod am = annotate({{Op::kLoad, 0, 0}, {Op::kConst, 0, 0}, {c.cmp, 0, 0},
                                   {c.branch, 5, 0}, {Op::kNop, 0, 0}, {Op::kHalt, 0, 0}});
    ASSERT_EQ(fuse_compare_branch(am), 1u);
    compact_nops(am);
    EXPECT_EQ(am.method.code()[1].op, c.expect);
  }
}

TEST(CompareFusion, SemanticEquivalenceOnRealProgram) {
  // abs-like: if (x == 0) 100 else 7, for x in {0, 5}.
  bc::ProgramBuilder pb("p");
  auto& f = pb.method("f", 1, 1);
  f.load(0).const_(0).cmpeq().jz("nz");
  f.ret_const(100);
  f.label("nz");
  f.ret_const(7);
  pb.method("main", 0, 0)
      .const_(0).call("f", 1)
      .const_(5).call("f", 1)
      .add().halt();
  pb.entry("main");
  const bc::Program p = pb.build();
  ASSERT_EQ(ith::test::run_exit_value(p), 107);

  AnnotatedMethod am = AnnotatedMethod::from_method(p.method(p.find_method("f")), 1);
  EXPECT_EQ(fuse_compare_branch(am), 1u);
  compact_nops(am);
  bc::Program q = p;
  q.mutable_method(q.find_method("f")) = am.method;
  bc::verify_program(q);
  EXPECT_EQ(ith::test::run_exit_value(q), 107);
}

TEST(CompareFusion, NegBeforeBranchDropped) {
  AnnotatedMethod am = annotate({{Op::kLoad, 0, 0}, {Op::kNeg, 0, 0}, {Op::kJz, 3, 0},
                                 {Op::kHalt, 0, 0}});
  EXPECT_EQ(fuse_compare_branch(am), 1u);
  EXPECT_EQ(am.method.code()[1].op, Op::kNop);
}

TEST(CompareFusion, NonZeroConstantNotFused) {
  AnnotatedMethod am = annotate({{Op::kLoad, 0, 0}, {Op::kConst, 3, 0}, {Op::kCmpEq, 0, 0},
                                 {Op::kJz, 5, 0}, {Op::kNop, 0, 0}, {Op::kHalt, 0, 0}});
  EXPECT_EQ(fuse_compare_branch(am), 0u);
}

// --- definite assignment ------------------------------------------------------

TEST(DefiniteAssignment, ArgsOnlyIsTriviallySafe) {
  bc::Method m("m", 2, 2);
  m.append({Op::kLoad, 0, 0});
  m.append({Op::kRet, 0, 0});
  EXPECT_TRUE(non_arg_locals_definitely_assigned(m));
}

TEST(DefiniteAssignment, WriteBeforeReadIsSafe) {
  bc::Method m("m", 1, 2);
  m.append({Op::kConst, 0, 0});
  m.append({Op::kStore, 1, 0});
  m.append({Op::kLoad, 1, 0});
  m.append({Op::kRet, 0, 0});
  EXPECT_TRUE(non_arg_locals_definitely_assigned(m));
}

TEST(DefiniteAssignment, ReadBeforeWriteIsUnsafe) {
  bc::Method m("m", 1, 2);
  m.append({Op::kLoad, 1, 0});  // reads the zero-initialized local
  m.append({Op::kRet, 0, 0});
  EXPECT_FALSE(non_arg_locals_definitely_assigned(m));
}

TEST(DefiniteAssignment, MustJoinIsIntersection) {
  // One branch writes local 1, the other doesn't; the read after the join
  // is unsafe.
  bc::Method m("m", 1, 2);
  m.append({Op::kLoad, 0, 0});   // 0
  m.append({Op::kJz, 4, 0});     // 1
  m.append({Op::kConst, 7, 0});  // 2
  m.append({Op::kStore, 1, 0});  // 3
  m.append({Op::kLoad, 1, 0});   // 4 <- join: only one path assigned
  m.append({Op::kRet, 0, 0});    // 5
  EXPECT_FALSE(non_arg_locals_definitely_assigned(m));
}

// --- self-recursive programs --------------------------------------------------
//
// There is no tail-recursion pass. The standard pipeline must keep every
// self call a call and preserve each program's result.

// count(n) = n <= 0 ? 0 : count(n-1)  — a pure self tail call.
bc::Program tail_count_program(std::int64_t n) {
  bc::ProgramBuilder pb("tail");
  auto& f = pb.method("count", 1, 1);
  f.load(0).const_(1).cmplt().jz("rec");
  f.ret_const(0);
  f.label("rec");
  f.load(0).const_(1).sub();
  f.call("count", 1);
  f.ret();
  pb.method("main", 0, 0).const_(n).call("count", 1).halt();
  pb.entry("main");
  return pb.build();
}

/// `p` with `method` replaced by its standard-pipeline body (no inlining).
bc::Program optimize_method(const bc::Program& p, const std::string& method,
                            OptStats* stats = nullptr) {
  heur::NeverInlineHeuristic h;
  PassManager pm(p, h);
  const OptimizeResult r = pm.run(p.find_method(method));
  if (stats != nullptr) *stats = r.stats;
  bc::Program q = p;
  q.mutable_method(q.find_method(method)) = r.body.method;
  bc::verify_program(q);
  return q;
}

TEST(TailRecursion, NonTailCallUntouched) {
  // fib's recursive calls feed an add: not tail position.
  const bc::Program p = ith::test::make_fib_program(8);
  const bc::Program q = optimize_method(p, "fib");
  EXPECT_EQ(q.method(q.find_method("fib")).call_sites().size(),
            p.method(p.find_method("fib")).call_sites().size());
  EXPECT_EQ(ith::test::run_exit_value(q), ith::test::run_exit_value(p));
}

TEST(TailRecursion, RefusedWhenNonArgLocalLeaks) {
  // g(n): if (n < 1) return t; t = 7; return g(n-1);
  // Reusing the frame would let t persist across logical activations and
  // make the base case return 7; every activation must get a fresh frame.
  bc::ProgramBuilder pb("leak");
  auto& g = pb.method("g", 1, 2);
  g.load(0).const_(1).cmplt().jz("rec");
  g.load(1).ret();  // reads t (zero-initialized on a fresh frame)
  g.label("rec");
  g.const_(7).store(1);
  g.load(0).const_(1).sub().call("g", 1).ret();
  pb.method("main", 0, 0).const_(3).call("g", 1).halt();
  pb.entry("main");
  const bc::Program p = pb.build();
  EXPECT_EQ(ith::test::run_exit_value(p), 0) << "fresh frames: t is 0 at the base case";
  const bc::Program q = optimize_method(p, "g");
  EXPECT_FALSE(q.method(q.find_method("g")).call_sites().empty());
  EXPECT_EQ(ith::test::run_exit_value(q), 0) << "the optimized g must not return 7";
}

TEST(TailRecursion, MultiArgumentOrderPreserved) {
  // sum(n, acc) = n <= 0 ? acc : sum(n-1, acc+n)
  bc::ProgramBuilder pb("sum");
  auto& f = pb.method("sum", 2, 2);
  f.load(0).const_(1).cmplt().jz("rec");
  f.load(1).ret();
  f.label("rec");
  f.load(0).const_(1).sub();   // new n
  f.load(1).load(0).add();     // new acc
  f.call("sum", 2);
  f.ret();
  pb.method("main", 0, 0).const_(100).const_(0).call("sum", 2).halt();
  pb.entry("main");
  const bc::Program p = pb.build();
  ASSERT_EQ(ith::test::run_exit_value(p), 5050);
  EXPECT_EQ(ith::test::run_exit_value(optimize_method(p, "sum")), 5050);
}

TEST(TailRecursion, ViaOptimizerPipeline) {
  const bc::Program p = tail_count_program(50);
  OptStats stats;
  const bc::Program q = optimize_method(p, "count", &stats);
  EXPECT_EQ(stats.tail_calls_eliminated, 0u);
  EXPECT_EQ(q.method(q.find_method("count")).call_sites().size(), 1u)
      << "the self tail call stays a call";
  EXPECT_EQ(ith::test::run_exit_value(q), ith::test::run_exit_value(p));
}

TEST(TailRecursion, DisabledByOption) {
  // No pipeline text can name the pass: it is not registered, the standard
  // pipeline does not hold it, and removing it changes nothing.
  const PipelineDesc standard = PipelineDesc::standard();
  EXPECT_FALSE(standard.has_pass("tail_recursion"));
  EXPECT_EQ(standard.without("tail_recursion"), standard);
  for (const std::string& name : known_pass_names()) EXPECT_NE(name, "tail_recursion");
  EXPECT_NO_THROW(PipelineDesc::parse("inline,fixpoint(dce):6"));
  EXPECT_THROW(PipelineDesc::parse("inline,fixpoint(tail_recursion,dce):6"), Error);
  EXPECT_THROW(PipelineDesc::parse("inline,tail_recursion,fixpoint(dce):6"), Error);
}

}  // namespace
}  // namespace ith::opt
