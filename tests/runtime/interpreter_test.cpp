// Execution-engine tests: semantics of every opcode, cost accounting,
// profiling hooks, and the runaway guards.
#include "runtime/interpreter.hpp"

#include <gtest/gtest.h>

#include "bytecode/builder.hpp"
#include "bytecode/size_estimator.hpp"
#include "runtime/machine.hpp"
#include "runtime/profile.hpp"
#include "support/error.hpp"
#include "testing.hpp"

namespace ith::rt {
namespace {

std::int64_t run_value(const bc::Program& p) { return ith::test::run_exit_value(p); }

bc::Program expr_program(const std::function<void(bc::MethodBuilder&)>& body) {
  bc::ProgramBuilder pb("expr", 16);
  auto& m = pb.method("main", 0, 4);
  body(m);
  m.halt();
  pb.entry("main");
  return pb.build();
}

TEST(Interpreter, Arithmetic) {
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(6).const_(7).mul(); })), 42);
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(10).const_(3).sub(); })), 7);
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(10).const_(3).div(); })), 3);
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(10).const_(3).mod(); })), 1);
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(5).neg(); })), -5);
}

TEST(Interpreter, DivisionTotalSemantics) {
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(10).const_(0).div(); })), 0);
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(10).const_(0).mod(); })), 0);
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(-7).const_(2).div(); })), -3);
}

TEST(Interpreter, Comparisons) {
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(2).const_(3).cmplt(); })), 1);
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(3).const_(3).cmplt(); })), 0);
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(3).const_(3).cmple(); })), 1);
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(3).const_(3).cmpeq(); })), 1);
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(3).const_(4).cmpne(); })), 1);
}

TEST(Interpreter, OperandOrderIsProgramOrder) {
  // lhs pushed first: 10 - 3, not 3 - 10.
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(10).const_(3).sub(); })), 7);
  EXPECT_EQ(run_value(expr_program([](auto& m) { m.const_(10).const_(3).cmplt(); })), 0);
}

TEST(Interpreter, MulWrapsInsteadOfUb) {
  const std::int64_t big = 2'000'000'000;
  bc::ProgramBuilder pb("wrap", 0);
  auto& m = pb.method("main", 0, 1);
  m.const_(big).store(0);
  m.load(0).load(0).mul().load(0).mul().load(0).mul();  // big^4 wraps
  m.halt();
  pb.entry("main");
  EXPECT_NO_THROW(run_value(pb.build()));
}

TEST(Interpreter, LocalsAndGlobals) {
  EXPECT_EQ(run_value(ith::test::make_globals_program()), 42);
  EXPECT_EQ(run_value(expr_program([](auto& m) {
              m.const_(9).store(2).load(2).load(2).add();
            })),
            18);
}

TEST(Interpreter, GlobalIndexWrapsModuloSize) {
  // Index 19 in a 16-element array lands on slot 3; negative wraps too.
  EXPECT_EQ(run_value(expr_program([](auto& m) {
              m.const_(3).const_(5).gstore();
              m.const_(19).gload();
            })),
            5);
  EXPECT_EQ(run_value(expr_program([](auto& m) {
              m.const_(13).const_(8).gstore();
              m.const_(-3).gload();  // -3 mod 16 == 13
            })),
            8);
}

TEST(Interpreter, CallsAndRecursion) {
  EXPECT_EQ(run_value(ith::test::make_add_program()), 5);
  EXPECT_EQ(run_value(ith::test::make_fib_program(10)), 55);
  EXPECT_EQ(run_value(ith::test::make_loop_program(10)), 285);  // sum of squares < 10
}

TEST(Interpreter, EntryMayReturnInsteadOfHalt) {
  bc::ProgramBuilder pb("ret", 0);
  pb.method("main", 0, 0).const_(7).ret();
  pb.entry("main");
  EXPECT_EQ(run_value(pb.build()), 7);
}

TEST(Interpreter, CyclesScaleWithTierCpi) {
  const bc::Program p = ith::test::make_loop_program(100);
  const MachineModel machine = pentium4_model();

  ith::test::IdentitySource opt_source(p, Tier::kOpt);
  Interpreter opt_interp(p, machine, opt_source, nullptr);
  const ExecStats opt = opt_interp.run();

  ith::test::IdentitySource base_source(p, Tier::kBaseline);
  Interpreter base_interp(p, machine, base_source, nullptr);
  const ExecStats base = base_interp.run();

  EXPECT_EQ(opt.instructions, base.instructions) << "same code, same dynamic count";
  EXPECT_GT(base.cycles, opt.cycles) << "baseline tier must be slower";
}

TEST(Interpreter, CallOverheadCharged) {
  const MachineModel machine = pentium4_model();
  const bc::Program with_call = ith::test::make_add_program();
  ith::test::IdentitySource s1(with_call);
  Interpreter i1(with_call, machine, s1, nullptr);
  const ExecStats r1 = i1.run();
  EXPECT_EQ(r1.calls, 1u);
  // Cycles must include the call overhead beyond per-word costs.
  double words = 0;
  const ExecStats probe = r1;
  (void)probe;
  EXPECT_GE(r1.cycles, machine.call_overhead_cycles);
  (void)words;
}

TEST(Interpreter, ICacheMissesAddCycles) {
  const bc::Program p = ith::test::make_loop_program(200);
  const MachineModel machine = pentium4_model();

  ith::test::IdentitySource s1(p);
  Interpreter no_cache(p, machine, s1, nullptr);
  const ExecStats without = no_cache.run();

  ICache icache(machine.icache_bytes, machine.icache_line_bytes, machine.icache_assoc);
  ith::test::IdentitySource s2(p);
  Interpreter with_cache(p, machine, s2, &icache);
  const ExecStats with = with_cache.run();

  EXPECT_GT(with.icache_probes, 0u);
  EXPECT_GT(with.icache_misses, 0u);
  EXPECT_EQ(with.cycles, without.cycles + with.icache_misses * machine.icache_miss_cycles);
}

TEST(Interpreter, ICacheLineSizeMustMatchTheMachine) {
  // The fast engine probes by the machine's line index, the reference engine
  // by byte address; they agree only when the cache uses the same lines.
  const bc::Program p = ith::test::make_loop_program(10);
  const MachineModel machine = pentium4_model();
  ICache icache(machine.icache_bytes, machine.icache_line_bytes / 2, machine.icache_assoc);
  ith::test::IdentitySource s(p);
  for (const EngineKind engine : {EngineKind::kFast, EngineKind::kReference}) {
    InterpreterOptions opts;
    opts.engine = engine;
    EXPECT_THROW(Interpreter(p, machine, s, &icache, opts), Error);
  }
}

TEST(Interpreter, MaxFrameDepthTracksRecursion) {
  const bc::Program p = ith::test::make_fib_program(6);
  const MachineModel machine = pentium4_model();
  ith::test::IdentitySource s(p);
  Interpreter interp(p, machine, s, nullptr);
  const ExecStats r = interp.run();
  EXPECT_GE(r.max_frame_depth, 6u);
}

TEST(Interpreter, StackOverflowGuard) {
  // Unbounded recursion: f(n) = f(n+1).
  bc::ProgramBuilder pb("inf", 0);
  pb.method("f", 1, 1).load(0).const_(1).add().call("f", 1).ret();
  pb.method("main", 0, 0).const_(0).call("f", 1).halt();
  pb.entry("main");
  const bc::Program p = pb.build();
  const MachineModel machine = pentium4_model();
  ith::test::IdentitySource s(p);
  InterpreterOptions opts;
  opts.max_frames = 64;
  Interpreter interp(p, machine, s, nullptr, opts);
  EXPECT_THROW(interp.run(), Error);
}

TEST(Interpreter, InstructionBudgetGuard) {
  // Infinite loop trips the instruction budget.
  bc::ProgramBuilder pb("spin", 0);
  auto& m = pb.method("main", 0, 0);
  m.label("top").jmp("top");
  pb.entry("main");
  const bc::Program p = pb.build();
  const MachineModel machine = pentium4_model();
  ith::test::IdentitySource s(p);
  InterpreterOptions opts;
  opts.max_instructions = 10'000;
  Interpreter interp(p, machine, s, nullptr, opts);
  EXPECT_THROW(interp.run(), Error);
}

TEST(Interpreter, GlobalsPersistAcrossRunsUntilReset) {
  bc::ProgramBuilder pb("accum", 4);
  auto& m = pb.method("main", 0, 0);
  m.const_(0).const_(0).gload().const_(1).add().gstore();
  m.const_(0).gload().halt();
  pb.entry("main");
  const bc::Program p = pb.build();
  const MachineModel machine = pentium4_model();
  ith::test::IdentitySource s(p);
  Interpreter interp(p, machine, s, nullptr);
  EXPECT_EQ(interp.run().exit_value, 1);
  EXPECT_EQ(interp.run().exit_value, 2) << "globals persist";
  interp.reset_globals();
  EXPECT_EQ(interp.run().exit_value, 1) << "reset clears them";
}

// Profiling hooks.
class RecordingSource final : public CodeSource {
 public:
  explicit RecordingSource(const bc::Program& prog) : profile_(prog.num_methods()), inner_(prog) {}
  const CompiledMethod& invoke(bc::MethodId id) override {
    profile_.record_invocation(id);
    return inner_.invoke(id);
  }
  void on_back_edge(bc::MethodId id) override { profile_.record_back_edge(id); }
  void on_call_site(bc::MethodId m, std::int32_t pc) override { profile_.record_call_site(m, pc); }
  ProfileData profile_;

 private:
  ith::test::IdentitySource inner_;
};

TEST(Interpreter, ProfileHooksFire) {
  const bc::Program p = ith::test::make_loop_program(10);
  const MachineModel machine = pentium4_model();
  RecordingSource s(p);
  Interpreter interp(p, machine, s, nullptr);
  interp.run();
  const bc::MethodId square = p.find_method("square");
  EXPECT_EQ(s.profile_.invocations(square), 10u);
  EXPECT_EQ(s.profile_.invocations(p.entry()), 1u);
  EXPECT_EQ(s.profile_.back_edges(p.entry()), 10u);
  const std::size_t call_pc = p.method(p.entry()).call_sites().front();
  EXPECT_EQ(s.profile_.site_count(p.entry(), static_cast<std::int32_t>(call_pc)), 10u);
}

}  // namespace
}  // namespace ith::rt
