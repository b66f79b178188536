// Systematic opcode-semantics matrix: every arithmetic/comparison opcode
// against a grid of operand pairs (including the signed edge cases), run
// three ways that must agree: (1) interpreted through locals (unfoldable),
// (2) interpreted as constants, (3) constant-folded by the optimizer and
// then interpreted. Pins down the "total semantics" contract shared by the
// interpreter and the folder.
#include <gtest/gtest.h>

#include <array>
#include <limits>

#include "bytecode/builder.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "heuristics/heuristic.hpp"
#include "opt/optimizer.hpp"
#include "testing.hpp"

namespace ith::rt {
namespace {

constexpr std::int64_t kMin32 = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();

/// The reference semantics (wrapping add/sub/mul; total div/mod).
std::int64_t model(bc::Op op, std::int64_t a, std::int64_t b) {
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  switch (op) {
    case bc::Op::kAdd: return static_cast<std::int64_t>(ua + ub);
    case bc::Op::kSub: return static_cast<std::int64_t>(ua - ub);
    case bc::Op::kMul: return static_cast<std::int64_t>(ua * ub);
    case bc::Op::kDiv: return b == 0 ? 0 : (b == -1 ? static_cast<std::int64_t>(0 - ua) : a / b);
    case bc::Op::kMod: return (b == 0 || b == -1) ? 0 : a % b;
    case bc::Op::kCmpLt: return a < b ? 1 : 0;
    case bc::Op::kCmpLe: return a <= b ? 1 : 0;
    case bc::Op::kCmpEq: return a == b ? 1 : 0;
    case bc::Op::kCmpNe: return a != b ? 1 : 0;
    default: return 0;
  }
}

void emit_op(bc::MethodBuilder& m, bc::Op op) {
  switch (op) {
    case bc::Op::kAdd: m.add(); break;
    case bc::Op::kSub: m.sub(); break;
    case bc::Op::kMul: m.mul(); break;
    case bc::Op::kDiv: m.div(); break;
    case bc::Op::kMod: m.mod(); break;
    case bc::Op::kCmpLt: m.cmplt(); break;
    case bc::Op::kCmpLe: m.cmple(); break;
    case bc::Op::kCmpEq: m.cmpeq(); break;
    case bc::Op::kCmpNe: m.cmpne(); break;
    default: FAIL() << "unsupported op in matrix";
  }
}

bc::Program via_locals(bc::Op op, std::int64_t a, std::int64_t b) {
  bc::ProgramBuilder pb("m");
  auto& m = pb.method("main", 0, 2);
  m.const_(a).store(0).const_(b).store(1);
  m.load(0).load(1);
  emit_op(m, op);
  m.halt();
  pb.entry("main");
  return pb.build();
}

bc::Program via_constants(bc::Op op, std::int64_t a, std::int64_t b) {
  bc::ProgramBuilder pb("m");
  auto& m = pb.method("main", 0, 0);
  m.const_(a).const_(b);
  emit_op(m, op);
  m.halt();
  pb.entry("main");
  return pb.build();
}

class OpcodeMatrix : public ::testing::TestWithParam<bc::Op> {};

TEST_P(OpcodeMatrix, InterpreterFolderAndModelAgree) {
  const bc::Op op = GetParam();
  const std::int64_t operands[] = {0, 1, -1, 2, -2, 7, -7, 1000, -1000, kMax32, kMin32};
  heur::NeverInlineHeuristic h;
  for (std::int64_t a : operands) {
    for (std::int64_t b : operands) {
      const std::int64_t want = model(op, a, b);
      EXPECT_EQ(ith::test::run_exit_value(via_locals(op, a, b)), want)
          << bc::op_info(op).name << "(" << a << ", " << b << ") via locals";
      const bc::Program constant = via_constants(op, a, b);
      EXPECT_EQ(ith::test::run_exit_value(constant), want)
          << bc::op_info(op).name << "(" << a << ", " << b << ") via constants";

      // Constant-folded: the optimizer must not change the value (the
      // folded result may exceed the 32-bit immediate field, in which case
      // folding is skipped — still the same value at runtime).
      const opt::Optimizer optimizer(constant, h);
      bc::Program folded = constant;
      folded.mutable_method(folded.entry()) = optimizer.optimize(folded.entry()).body.method;
      EXPECT_EQ(ith::test::run_exit_value(folded), want)
          << bc::op_info(op).name << "(" << a << ", " << b << ") folded";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBinaryOps, OpcodeMatrix,
                         ::testing::Values(bc::Op::kAdd, bc::Op::kSub, bc::Op::kMul, bc::Op::kDiv,
                                           bc::Op::kMod, bc::Op::kCmpLt, bc::Op::kCmpLe,
                                           bc::Op::kCmpEq, bc::Op::kCmpNe),
                         [](const ::testing::TestParamInfo<bc::Op>& param_info) {
                           return std::string(bc::op_info(param_info.param).name);
                         });

TEST(OpcodeMatrix, EveryOpcodeAppearsInTheDifferentialFuzzCorpus) {
  // The differential oracle is only as strong as the programs it sees:
  // every opcode must occur in at least one corpus entry of the standard
  // smoke-fuzz seed block (generated seeds plus the built-in edge cases),
  // or a miscompile of that opcode could never be caught.
  std::array<bool, static_cast<std::size_t>(bc::kNumOps)> seen{};
  const auto scan = [&seen](const bc::Program& prog) {
    for (std::size_t m = 0; m < prog.num_methods(); ++m) {
      for (const bc::Instruction& insn : prog.method(static_cast<bc::MethodId>(m)).code()) {
        seen[static_cast<std::size_t>(insn.op)] = true;
      }
    }
  };
  for (const auto& [name, prog] : fuzz::builtin_edge_cases()) scan(prog);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    fuzz::GeneratorSpec spec;
    spec.seed = seed;
    scan(fuzz::generate_adversarial(spec));
  }
  for (int op = 0; op < bc::kNumOps; ++op) {
    EXPECT_TRUE(seen[static_cast<std::size_t>(op)])
        << "opcode " << bc::op_info(static_cast<bc::Op>(op)).name
        << " never appears in the seed corpus";
  }
}

TEST(OpcodeMatrix, NegationEdgeCases) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{5}, std::int64_t{-5}, kMax32, kMin32}) {
    bc::ProgramBuilder pb("m");
    pb.method("main", 0, 1).const_(v).store(0).load(0).neg().halt();
    pb.entry("main");
    EXPECT_EQ(ith::test::run_exit_value(pb.build()),
              static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(v)))
        << "neg(" << v << ")";
  }
}

}  // namespace
}  // namespace ith::rt
