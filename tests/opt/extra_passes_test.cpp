// Tests for the extended optimizer passes: algebraic simplification,
// compare/branch fusion, and self-tail-call elimination (including its
// definite-assignment safety analysis).
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

// --- tail-recursion elimination -------------------------------------------------

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

TEST(TailRecursion, EliminatesSelfTailCall) {
  const bc::Program p = tail_count_program(10);
  AnnotatedMethod am = AnnotatedMethod::from_method(p.method(p.find_method("count")),
                                                    p.find_method("count"));
  EXPECT_EQ(eliminate_tail_recursion(am, p.find_method("count"), 1), 1u);
  EXPECT_TRUE(am.method.call_sites().empty());
  bc::Program q = p;
  q.mutable_method(q.find_method("count")) = am.method;
  bc::verify_program(q);
  EXPECT_EQ(ith::test::run_exit_value(q), 0);
}

TEST(TailRecursion, TurnsDeepRecursionIntoConstantStack) {
  // Without elimination, count(3000) overflows a 64-frame stack; with it,
  // the loop runs in one frame.
  const bc::Program p = tail_count_program(3000);
  const rt::MachineModel machine = rt::pentium4_model();
  rt::InterpreterOptions opts;
  opts.max_frames = 64;
  {
    ith::test::IdentitySource source(p);
    rt::Interpreter interp(p, machine, source, nullptr, opts);
    EXPECT_THROW(interp.run(), Error);
  }
  AnnotatedMethod am = AnnotatedMethod::from_method(p.method(p.find_method("count")),
                                                    p.find_method("count"));
  ASSERT_EQ(eliminate_tail_recursion(am, p.find_method("count"), 1), 1u);
  bc::Program q = p;
  q.mutable_method(q.find_method("count")) = am.method;
  ith::test::IdentitySource source(q);
  rt::Interpreter interp(q, machine, source, nullptr, opts);
  const rt::ExecStats r = interp.run();
  EXPECT_EQ(r.exit_value, 0);
  EXPECT_LE(r.max_frame_depth, 3u);
}

TEST(TailRecursion, NonTailCallUntouched) {
  // fib's recursive calls feed an add: not tail position.
  const bc::Program p = ith::test::make_fib_program(8);
  AnnotatedMethod am = AnnotatedMethod::from_method(p.method(p.find_method("fib")),
                                                    p.find_method("fib"));
  EXPECT_EQ(eliminate_tail_recursion(am, p.find_method("fib"), 1), 0u);
}

TEST(TailRecursion, RefusedWhenNonArgLocalLeaks) {
  // g(n): if (n < 1) return t; t = 7; return g(n-1);
  // Reuses the frame -> t would persist across logical activations; the
  // definite-assignment guard must refuse.
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

  AnnotatedMethod am =
      AnnotatedMethod::from_method(p.method(p.find_method("g")), p.find_method("g"));
  EXPECT_EQ(eliminate_tail_recursion(am, p.find_method("g"), 1), 0u)
      << "rewriting would make the base case return 7";
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

  AnnotatedMethod am =
      AnnotatedMethod::from_method(p.method(p.find_method("sum")), p.find_method("sum"));
  ASSERT_EQ(eliminate_tail_recursion(am, p.find_method("sum"), 2), 1u);
  bc::Program q = p;
  q.mutable_method(q.find_method("sum")) = am.method;
  bc::verify_program(q);
  EXPECT_EQ(ith::test::run_exit_value(q), 5050);
}

TEST(TailRecursion, ViaOptimizerPipeline) {
  const bc::Program p = tail_count_program(50);
  heur::NeverInlineHeuristic h;
  PassManager pm(p, h);
  const OptimizeResult r = pm.run(p.find_method("count"));
  EXPECT_EQ(r.stats.tail_calls_eliminated, 1u);
  bc::Program q = p;
  q.mutable_method(q.find_method("count")) = r.body.method;
  bc::verify_program(q);
  EXPECT_EQ(ith::test::run_exit_value(q), ith::test::run_exit_value(p));
}

TEST(TailRecursion, DisabledByOption) {
  const bc::Program p = tail_count_program(50);
  heur::NeverInlineHeuristic h;
  PassManager pm(p, h, cold_site, PipelineDesc::standard().without("tail_recursion"));
  EXPECT_EQ(pm.run(p.find_method("count")).stats.tail_calls_eliminated, 0u);
}

}  // namespace
}  // namespace ith::opt
