#include "bytecode/verifier.hpp"

#include <gtest/gtest.h>

#include "bytecode/builder.hpp"
#include "support/error.hpp"
#include "testing.hpp"

namespace ith::bc {
namespace {

/// Builds a single-method program around raw instructions (no build-time
/// verification) so malformed shapes can be fed to the verifier directly.
Program raw_program(std::vector<Instruction> code, int num_args = 0, int num_locals = 2) {
  Program p("raw");
  Method m("main", num_args, num_locals);
  for (const Instruction& insn : code) m.append(insn);
  p.add_method(std::move(m));
  p.set_entry(0);
  return p;
}

TEST(Verifier, AcceptsFixturePrograms) {
  EXPECT_NO_THROW(verify_program(ith::test::make_add_program()));
  EXPECT_NO_THROW(verify_program(ith::test::make_loop_program()));
  EXPECT_NO_THROW(verify_program(ith::test::make_fib_program()));
  EXPECT_NO_THROW(verify_program(ith::test::make_globals_program()));
}

TEST(Verifier, ComputesMaxStack) {
  // const const const add add halt -> peak depth 3
  const Program p = raw_program({{Op::kConst, 1, 0},
                                 {Op::kConst, 2, 0},
                                 {Op::kConst, 3, 0},
                                 {Op::kAdd, 0, 0},
                                 {Op::kAdd, 0, 0},
                                 {Op::kHalt, 0, 0}});
  const auto infos = verify_program(p);
  EXPECT_EQ(infos[0].max_stack, 3);
  EXPECT_EQ(infos[0].reachable, 6u);
}

TEST(Verifier, RejectsStackUnderflow) {
  const Program p = raw_program({{Op::kAdd, 0, 0}, {Op::kHalt, 0, 0}});
  EXPECT_THROW(verify_program(p), Error);
}

TEST(Verifier, RejectsFallThroughEnd) {
  const Program p = raw_program({{Op::kConst, 1, 0}, {Op::kPop, 0, 0}});
  EXPECT_THROW(verify_program(p), Error);
}

TEST(Verifier, RejectsBranchOutOfRange) {
  const Program p = raw_program({{Op::kJmp, 9, 0}, {Op::kHalt, 0, 0}});
  EXPECT_THROW(verify_program(p), Error);
}

TEST(Verifier, RejectsLocalOutOfRange) {
  const Program p = raw_program({{Op::kLoad, 5, 0}, {Op::kHalt, 0, 0}}, 0, 2);
  EXPECT_THROW(verify_program(p), Error);
}

TEST(Verifier, RejectsNegativeLocal) {
  const Program p = raw_program({{Op::kLoad, -1, 0}, {Op::kHalt, 0, 0}});
  EXPECT_THROW(verify_program(p), Error);
}

TEST(Verifier, RejectsInconsistentJoinDepth) {
  // Two paths reach pc 4 with different stack depths.
  const Program p = raw_program({
      {Op::kConst, 0, 0},  // 0: push
      {Op::kJz, 4, 0},     // 1: pop, branch to 4 (depth 0)
      {Op::kConst, 7, 0},  // 2: push (depth 1)
      {Op::kNop, 0, 0},    // 3: fall through to 4 at depth 1
      {Op::kHalt, 0, 0},   // 4: join
  });
  EXPECT_THROW(verify_program(p), Error);
}

TEST(Verifier, RejectsCallArityMismatch) {
  Program p("p");
  Method callee("f", 2, 2);
  callee.append({Op::kConst, 1, 0});
  callee.append({Op::kRet, 0, 0});
  p.add_method(std::move(callee));
  Method m("main", 0, 0);
  m.append({Op::kConst, 1, 0});
  m.append({Op::kCall, 0, 1});  // f takes 2 args, called with 1
  m.append({Op::kHalt, 0, 0});
  p.add_method(std::move(m));
  p.set_entry(p.find_method("main"));
  EXPECT_THROW(verify_program(p), Error);
}

TEST(Verifier, RejectsCallTargetOutOfRange) {
  const Program p = raw_program({{Op::kCall, 7, 0}, {Op::kHalt, 0, 0}});
  EXPECT_THROW(verify_program(p), Error);
}

TEST(Verifier, RejectsRetOnEmptyStack) {
  const Program p = raw_program({{Op::kRet, 0, 0}});
  EXPECT_THROW(verify_program(p), Error);
}

TEST(Verifier, RejectsEntryWithArguments) {
  Program p("p");
  Method m("main", 1, 1);
  m.append({Op::kConst, 0, 0});
  m.append({Op::kHalt, 0, 0});
  p.add_method(std::move(m));
  p.set_entry(0);
  EXPECT_THROW(verify_program(p), Error);
}

TEST(Verifier, RejectsEmptyMethod) {
  Program p("p");
  p.add_method(Method("main", 0, 0));
  p.set_entry(0);
  EXPECT_THROW(verify_program(p), Error);
}

TEST(Verifier, UnreachableCodeIsNotVerifiedForDepth) {
  // Code after an unconditional jmp is unreachable; even though it would
  // underflow, the method is accepted (matching JVM-style reachability).
  const Program p = raw_program({
      {Op::kJmp, 2, 0},
      {Op::kAdd, 0, 0},  // unreachable underflow
      {Op::kHalt, 0, 0},
  });
  const auto infos = verify_program(p);
  EXPECT_EQ(infos[0].reachable, 2u);
}

TEST(Verifier, LoopsVerify) {
  const Program p = ith::test::make_loop_program(5);
  const auto infos = verify_program(p);
  EXPECT_GT(infos[static_cast<std::size_t>(p.entry())].max_stack, 0);
}

TEST(Verifier, ErrorMessageNamesMethodAndPc) {
  const Program p = raw_program({{Op::kAdd, 0, 0}, {Op::kHalt, 0, 0}});
  try {
    verify_program(p);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("main"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("pc 0"), std::string::npos);
  }
}

}  // namespace
}  // namespace ith::bc
