// The contracts superinstruction fusion was held to, kept after fusion was
// deleted (DESIGN.md §7 gives the measured reason there is none): predecode
// emits one entry per bytecode instruction, with its op and operands, at
// every tier, each carrying the cost and length of the rest of its
// straight-line run; and the fast engine stays bit-identical (ExecStats and
// globals) to the reference engine on programs that land control transfers
// in the middle of straight-line sequences, at every instruction budget,
// and across OSR entry. The suite keeps its name so each test can be traced
// back to the fused behaviour it used to pin; Predecode.* pins where runs
// start.
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bytecode/builder.hpp"
#include "heuristics/heuristic.hpp"
#include "runtime/icache.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/machine.hpp"
#include "runtime/predecode.hpp"
#include "support/error.hpp"
#include "testing.hpp"
#include "vm/vm.hpp"

namespace ith {
namespace {

bool is_jump(bc::Op op) { return op == bc::Op::kJmp || op == bc::Op::kJz || op == bc::Op::kJnz; }

const rt::CompiledMethod& compile_identity(const bc::Program& prog, const std::string& method,
                                           rt::Tier tier) {
  // The predecoded body points back into its CompiledMethod, so every source
  // stays alive (and is freed) with the test binary.
  static std::vector<std::unique_ptr<test::IdentitySource>> sources;
  sources.push_back(std::make_unique<test::IdentitySource>(prog, tier));
  return sources.back()->invoke(prog.find_method(method));
}

rt::PredecodedBody predecode_method(const bc::Program& prog, const std::string& method,
                                    rt::Tier tier = rt::Tier::kOpt) {
  return rt::predecode(compile_identity(prog, method, tier), rt::pentium4_model());
}

/// Every bytecode instruction of the body has exactly one predecoded entry,
/// at the same pc, with the same op and operands (jumps as pc-relative
/// deltas): nothing is rewritten, merged or dropped.
void expect_one_entry_per_op(const rt::PredecodedBody& pb, const std::string& label) {
  ASSERT_NE(pb.cm, nullptr) << label;
  const std::vector<bc::Instruction>& code = pb.cm->body.code();
  ASSERT_EQ(pb.code.size(), code.size()) << label;
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    EXPECT_EQ(pb.code[pc].op, code[pc].op) << label << " pc " << pc;
    const std::int32_t want_a =
        is_jump(code[pc].op) ? code[pc].a - static_cast<std::int32_t>(pc) : code[pc].a;
    EXPECT_EQ(pb.code[pc].a, want_a) << label << " pc " << pc;
    EXPECT_EQ(pb.code[pc].b, code[pc].b) << label << " pc " << pc;
  }
}

// The 40-byte layout promise, checked at runtime too so a failure names the
// actual size instead of failing to compile.
TEST(Fusion, PredecodedInsnLayoutBudget) {
  EXPECT_EQ(sizeof(rt::PredecodedInsn), 40u);
  EXPECT_EQ(offsetof(rt::PredecodedInsn, target), 0u);
  EXPECT_EQ(offsetof(rt::PredecodedInsn, run_cost), 8u);
  EXPECT_EQ(offsetof(rt::PredecodedInsn, run_len), 12u);
  EXPECT_EQ(offsetof(rt::PredecodedInsn, line), 16u);
  EXPECT_EQ(offsetof(rt::PredecodedInsn, a), 24u);
  EXPECT_EQ(offsetof(rt::PredecodedInsn, b), 28u);
  EXPECT_EQ(offsetof(rt::PredecodedInsn, op), 32u);
  EXPECT_EQ(offsetof(rt::PredecodedInsn, head), 33u);
}

TEST(Fusion, RewritesHeadKeepsInterior) {
  // square(x) = x * x is the load+load+mul sequence fusion used to rewrite
  // at its head. Now the head keeps its own op and operand, and the whole
  // body (load load mul ret, one I-cache line) is one run: only pc 0 is a
  // head, and each entry carries the cost and length from itself to the
  // run's end.
  const bc::Program prog = test::make_loop_program(10);
  const rt::PredecodedBody pb = predecode_method(prog, "square");
  expect_one_entry_per_op(pb, "square");
  ASSERT_EQ(pb.code.size(), 4u);
  EXPECT_EQ(pb.code[0].op, bc::Op::kLoad);
  EXPECT_EQ(pb.code[1].op, bc::Op::kLoad);
  EXPECT_EQ(pb.code[2].op, bc::Op::kMul);
  EXPECT_EQ(pb.code[3].op, bc::Op::kRet);
  const std::uint32_t unit = rt::pentium4_model().cpi_units()[2];
  EXPECT_EQ(unit, 20u) << "O2 CPI 1.0";
  std::uint32_t suffix = 0;
  for (std::size_t pc = pb.code.size(); pc-- > 0;) {
    suffix += static_cast<std::uint32_t>(bc::op_info(pb.code[pc].op).machine_words) * unit;
    EXPECT_EQ(pb.code[pc].head, pc == 0) << pc;
    EXPECT_EQ(pb.code[pc].run_cost, suffix) << pc;
    EXPECT_EQ(pb.code[pc].run_len, pb.code.size() - pc) << pc;
    EXPECT_EQ(pb.code[pc].line, pb.code[0].line) << pc;
  }
  EXPECT_EQ(pb.code[0].run_cost, 5u * unit) << "1 + 1 + 1 + 2 machine words";
}

TEST(Fusion, LoopGuardUsesLongestPattern) {
  // The loop head is load(i) const(n) cmplt jz: four entries, in order, with
  // the jz carrying its pc-relative delta.
  const bc::Program prog = test::make_loop_program(10);
  const rt::PredecodedBody pb = predecode_method(prog, "main");
  expect_one_entry_per_op(pb, "main");
  bool saw_guard = false;
  for (std::size_t pc = 0; pc + 3 < pb.code.size(); ++pc) {
    if (pb.code[pc].op == bc::Op::kLoad && pb.code[pc + 1].op == bc::Op::kConst &&
        pb.code[pc + 2].op == bc::Op::kCmpLt && pb.code[pc + 3].op == bc::Op::kJz) {
      saw_guard = true;
      EXPECT_GT(pb.code[pc + 3].a, 0) << "the guard's exit branch jumps forward";
    }
  }
  EXPECT_TRUE(saw_guard);
}

TEST(Fusion, CallRetMarksCallerReturn) {
  // f2 calls f3 and immediately returns: the caller's kRet is a plain return
  // entry after a plain call entry, and the chain of returns still delivers
  // the value.
  bc::ProgramBuilder pb("chain", 0);
  pb.method("f3", 1, 1).load(0).ret();
  pb.method("f2", 1, 1).load(0).call("f3", 1).ret();
  pb.method("main", 0, 0).const_(9).call("f2", 1).halt();
  pb.entry("main");
  const bc::Program prog = pb.build();
  const rt::PredecodedBody f2 = predecode_method(prog, "f2");
  expect_one_entry_per_op(f2, "f2");
  ASSERT_EQ(f2.code.size(), 3u);
  EXPECT_EQ(f2.code[1].op, bc::Op::kCall);
  EXPECT_EQ(f2.code[1].b, 1) << "argument count";
  EXPECT_EQ(f2.code[2].op, bc::Op::kRet);
  EXPECT_EQ(test::run_exit_value(prog), 9);
}

TEST(Fusion, PolicyGatesByTier) {
  // Tier changes only the run costs: the same method predecodes to the same
  // ops, operands, lines, heads and run lengths at every tier, each run
  // costing the sum of machine_words * cpi_units[tier] over its rest.
  const bc::Program prog = test::make_loop_program(10);
  const std::array<std::uint32_t, 3> units = rt::pentium4_model().cpi_units();
  EXPECT_EQ(units, (std::array<std::uint32_t, 3>{44, 29, 20})) << "CPI 2.2, 1.45, 1.0";
  const rt::PredecodedBody opt = predecode_method(prog, "main", rt::Tier::kOpt);
  for (const rt::Tier tier : {rt::Tier::kBaseline, rt::Tier::kMidOpt, rt::Tier::kOpt}) {
    const rt::PredecodedBody pb = predecode_method(prog, "main", tier);
    expect_one_entry_per_op(pb, "main");
    ASSERT_EQ(pb.code.size(), opt.code.size());
    const std::uint32_t unit = units[static_cast<std::size_t>(tier)];
    std::uint32_t suffix = 0;
    for (std::size_t pc = pb.code.size(); pc-- > 0;) {
      EXPECT_EQ(pb.code[pc].op, opt.code[pc].op) << pc;
      EXPECT_EQ(pb.code[pc].line, opt.code[pc].line) << pc;
      EXPECT_EQ(pb.code[pc].head, opt.code[pc].head) << pc;
      EXPECT_EQ(pb.code[pc].run_len, opt.code[pc].run_len) << pc;
      if (pc + 1 == pb.code.size() || pb.code[pc + 1].head) suffix = 0;
      suffix += static_cast<std::uint32_t>(bc::op_info(pb.code[pc].op).machine_words) * unit;
      EXPECT_EQ(pb.code[pc].run_cost, suffix) << pc;
    }
  }
}

// --- equivalence: fast and reference executions of the same program must
// --- agree on every ExecStats field and the globals.

rt::ExecStats run_with(const bc::Program& prog, rt::EngineKind engine, bool with_icache,
                       std::vector<std::int64_t>* globals_out = nullptr,
                       std::uint64_t max_instructions = 2'000'000'000ULL) {
  static const rt::MachineModel machine = rt::pentium4_model();
  test::IdentitySource source(prog);
  std::optional<rt::ICache> icache;
  if (with_icache) {
    icache.emplace(machine.icache_bytes, machine.icache_line_bytes, machine.icache_assoc);
  }
  rt::InterpreterOptions opts;
  opts.engine = engine;
  opts.max_instructions = max_instructions;
  rt::Interpreter interp(prog, machine, source, icache ? &*icache : nullptr, opts);
  const rt::ExecStats stats = interp.run();
  if (globals_out != nullptr) *globals_out = interp.globals();
  return stats;
}

void expect_engines_identical(const bc::Program& prog, const std::string& label) {
  for (const bool with_icache : {false, true}) {
    std::vector<std::int64_t> fast_g, ref_g;
    const rt::ExecStats fast = run_with(prog, rt::EngineKind::kFast, with_icache, &fast_g);
    const rt::ExecStats ref = run_with(prog, rt::EngineKind::kReference, with_icache, &ref_g);
    EXPECT_EQ(fast.cycles, ref.cycles) << label << " icache " << with_icache;
    EXPECT_EQ(fast.instructions, ref.instructions) << label << " icache " << with_icache;
    EXPECT_EQ(fast.icache_probes, ref.icache_probes) << label << " icache " << with_icache;
    EXPECT_EQ(fast.icache_misses, ref.icache_misses) << label << " icache " << with_icache;
    EXPECT_TRUE(fast == ref) << label << " fast vs reference, icache " << with_icache;
    EXPECT_EQ(fast_g, ref_g) << label;
  }
}

TEST(Predecode, RunHeadsAtJumpTargetsAfterControlAndAtLineChanges) {
  // Word addresses count the 2-word frame prologue; 4-byte words on 64-byte
  // lines from a line-aligned code base put 16 words on a line:
  //    pc  word
  //     0    2  const 0    <- head: pc 0
  //     1    3  store 0
  //     2    4  load 0     <- head: jump target (the loop)
  //     3-8  5  const 1; add; store 0; load 0; const 3; cmplt
  //     9   11  jnz 2      (2 words)
  //    10   13  load 0     <- head: after a branch
  //    11   14  const 1
  //    12   15  add
  //    13   16  store 0    <- head: first instruction on the next line
  //    14   17  load 0
  //    15   18  halt
  bc::ProgramBuilder pbuild("runs", 0);
  auto& m = pbuild.method("main", 0, 1);
  m.const_(0).store(0);
  m.label("loop");
  m.load(0).const_(1).add().store(0);
  m.load(0).const_(3).cmplt().jnz("loop");
  m.load(0).const_(1).add().store(0);
  m.load(0).halt();
  pbuild.entry("main");
  const bc::Program prog = pbuild.build();
  const rt::PredecodedBody pb = predecode_method(prog, "main");
  ASSERT_EQ(pb.code.size(), 16u);
  const std::vector<std::size_t> heads = {0, 2, 10, 13};
  for (std::size_t pc = 0; pc < pb.code.size(); ++pc) {
    const bool want = std::find(heads.begin(), heads.end(), pc) != heads.end();
    EXPECT_EQ(pb.code[pc].head, want) << "pc " << pc;
    if (!want) {
      EXPECT_EQ(pb.code[pc].line, pb.code[pc - 1].line) << "a run has one line, pc " << pc;
    }
  }
  EXPECT_NE(pb.code[13].line, pb.code[12].line) << "pc 13 starts its run by a line change";
  EXPECT_EQ(pb.code[0].run_len, 2u);
  EXPECT_EQ(pb.code[2].run_len, 8u) << "load const add store load const cmplt jnz";
  EXPECT_EQ(pb.code[10].run_len, 3u);
  EXPECT_EQ(pb.code[11].run_len, 2u);
  EXPECT_EQ(pb.code[13].run_len, 3u);
  EXPECT_EQ(test::run_exit_value(prog), 4);
  expect_engines_identical(prog, "runs");

  // The single-step twin the engine finishes a budget-truncated run in:
  // every entry is its own run, and the own costs add up to the runs'.
  const rt::PredecodedBody twin = rt::single_step_twin(pb);
  ASSERT_EQ(twin.code.size(), pb.code.size());
  std::uint32_t run_sum = 0;
  for (std::size_t pc = pb.code.size(); pc-- > 0;) {
    EXPECT_TRUE(twin.code[pc].head) << pc;
    EXPECT_EQ(twin.code[pc].run_len, 1u) << pc;
    EXPECT_EQ(twin.code[pc].op, pb.code[pc].op) << pc;
    EXPECT_EQ(twin.code[pc].line, pb.code[pc].line) << pc;
    run_sum += twin.code[pc].run_cost;
    if (pb.code[pc].head) {
      EXPECT_EQ(run_sum, pb.code[pc].run_cost) << "run at pc " << pc;
      run_sum = 0;
    }
  }
}

TEST(Fusion, IncLocalCapturesTheCountedLoopIncrement) {
  // The canonical counted-loop increment: load i; const 3; add; store i —
  // four entries, each with its own operand.
  bc::ProgramBuilder pbuild("inc", 0);
  auto& m = pbuild.method("main", 0, 1);
  m.const_(4).store(0);
  m.load(0).const_(3).add().store(0);
  m.load(0).halt();
  pbuild.entry("main");
  const bc::Program prog = pbuild.build();
  const rt::PredecodedBody pb = predecode_method(prog, "main");
  expect_one_entry_per_op(pb, "inc");
  EXPECT_EQ(pb.code[2].op, bc::Op::kLoad);
  EXPECT_EQ(pb.code[2].a, 0) << "slot";
  EXPECT_EQ(pb.code[3].op, bc::Op::kConst);
  EXPECT_EQ(pb.code[3].a, 3) << "immediate";
  EXPECT_EQ(pb.code[4].op, bc::Op::kAdd);
  EXPECT_EQ(pb.code[5].op, bc::Op::kStore);
  EXPECT_EQ(pb.code[5].a, 0) << "slot";
  EXPECT_EQ(test::run_exit_value(prog), 7);
  expect_engines_identical(prog, "inc");
}

TEST(Fusion, IncLocalRequiresTheSameSlot) {
  // load 0 ... store 1 is not an increment but a whole assignment statement:
  // the store keeps its own destination slot.
  bc::ProgramBuilder pbuild("notinc", 0);
  auto& m = pbuild.method("main", 0, 2);
  m.const_(4).store(0);
  m.load(0).const_(3).add().store(1);
  m.load(1).halt();
  pbuild.entry("main");
  const bc::Program prog = pbuild.build();
  const rt::PredecodedBody pb = predecode_method(prog, "main");
  expect_one_entry_per_op(pb, "notinc");
  EXPECT_EQ(pb.code[2].a, 0) << "source slot";
  EXPECT_EQ(pb.code[3].a, 3) << "immediate";
  EXPECT_EQ(pb.code[5].op, bc::Op::kStore);
  EXPECT_EQ(pb.code[5].a, 1) << "destination slot";
  EXPECT_EQ(test::run_exit_value(prog), 7);
  expect_engines_identical(prog, "notinc");
}

TEST(Fusion, PoolOverflowLeavesWindowsUnfused) {
  // A body longer than the 16-bit handle space fusion's side pool had: every
  // entry still mirrors its bytecode instruction, and the two engines agree
  // on the whole run, including the call+return pair at the end.
  constexpr std::size_t kPairs = std::size_t{1} << 16;
  bc::ProgramBuilder pbuild("overflow", 0);
  pbuild.method("id", 1, 1).load(0).ret();
  auto& m = pbuild.method("main", 0, 1);
  m.const_(0);
  for (std::size_t i = 0; i < kPairs; ++i) m.const_(1).add();
  m.store(0);
  m.load(0).const_(1).add().store(0);
  m.load(0).const_(1).add();
  m.call("id", 1).ret();
  pbuild.entry("main");
  const bc::Program prog = pbuild.build();
  const rt::PredecodedBody pb = predecode_method(prog, "main");
  ASSERT_EQ(pb.code.size(), 1 + 2 * kPairs + 1 + 9);
  expect_one_entry_per_op(pb, "overflow");
  expect_engines_identical(prog, "pool_overflow");
}

/// A back edge whose target is the interior of a 4-long loop guard: the
/// loop re-enters at the kCmpLt, so the guard's first two instructions run
/// only on the fall-through entry.
bc::Program make_backedge_into_window_program() {
  bc::ProgramBuilder pb("backedge_interior", 0);
  auto& m = pb.method("main", 0, 1);
  m.const_(5).store(0);
  m.label("guard");
  m.load(0).const_(1);
  m.label("mid");  // lands on the kCmpLt, inside the guard sequence
  m.cmplt().jz("body");
  m.jmp("done");
  m.label("body");
  m.load(0).const_(1).sub().store(0);  // i--
  m.load(0).load(0).load(0);           // (i, i, i): two survive the branch pop
  m.jnz("mid");                        // i != 0: back edge into the guard
  m.pop().pop();                       // i == 0: drop the pair, exit via guard
  m.jmp("guard");
  m.label("done");
  m.load(0).halt();
  pb.entry("main");
  return pb.build();
}

/// A forward jump into the middle of a {kConst, kAdd} pair: the kAdd is the
/// join point of a diamond, and the two-trip loop takes each arm once, so
/// the pair runs whole on trip one and is entered at the kAdd on trip two.
bc::Program make_jump_into_window_program() {
  bc::ProgramBuilder pb("jump_interior", 0);
  auto& m = pb.method("main", 0, 1);
  m.const_(0).store(0);  // trip counter doubles as path selector
  m.label("iter");
  m.const_(100);  // base operand, both arms
  m.load(0).jnz("taken");
  m.const_(41);
  m.label("mid");
  m.add();  // entered from fall-through and from the jump
  m.jmp("join");
  m.label("taken");
  m.const_(7).jmp("mid");
  m.label("join");
  m.pop();
  m.load(0).const_(1).add().store(0);
  m.load(0).const_(2).cmplt().jnz("iter");
  m.load(0).halt();
  pb.entry("main");
  return pb.build();
}

/// A back edge into the middle of a {kLoad, kConst, kSub, kStore} decrement:
/// the branch lands on the kConst, so the decrement runs whole on
/// fall-through and with live operand-stack input when entered mid-sequence.
bc::Program make_backedge_into_inc_window_program() {
  bc::ProgramBuilder pb("backedge_inc_interior", 0);
  auto& m = pb.method("main", 0, 1);
  m.const_(5).store(0);
  m.load(0);
  m.label("mid");  // lands on the kConst, inside the decrement
  m.const_(1).sub().store(0);
  m.load(0).load(0).jnz("mid");  // i != 0: back edge into the decrement
  m.pop();
  m.load(0).halt();
  pb.entry("main");
  return pb.build();
}

/// Deep call+return chain: every frame returns straight into another return.
bc::Program make_ret_chain_program() {
  bc::ProgramBuilder pb("ret_chain", 0);
  pb.method("f0", 1, 1).load(0).const_(1).add().ret();
  for (int depth = 1; depth <= 6; ++depth) {
    pb.method("f" + std::to_string(depth), 1, 1)
        .load(0)
        .call("f" + std::to_string(depth - 1), 1)
        .ret();
  }
  auto& m = pb.method("main", 0, 1);
  m.const_(0).store(0);
  m.label("head");
  m.load(0).const_(20).cmplt().jz("done");
  m.load(0).call("f6", 1).pop();
  m.load(0).const_(1).add().store(0);
  m.jmp("head");
  m.label("done");
  m.load(0).halt();
  pb.entry("main");
  return pb.build();
}

TEST(Fusion, AdversarialControlFlowIsBitIdentical) {
  expect_engines_identical(make_backedge_into_window_program(), "backedge_interior");
  expect_engines_identical(make_backedge_into_inc_window_program(), "backedge_inc_interior");
  expect_engines_identical(make_jump_into_window_program(), "jump_interior");
  expect_engines_identical(make_ret_chain_program(), "ret_chain");
  expect_engines_identical(test::make_loop_program(200), "guard_loop");
  expect_engines_identical(test::make_fib_program(12), "fib");
  expect_engines_identical(test::make_globals_program(), "globals");
}

// The instruction budget must trip at the same instruction with the same
// message on both engines, swept across budgets so the trip point lands on
// every instruction of the sequences the branches enter mid-way.
TEST(Fusion, BudgetTrapParityAcrossFusedWindows) {
  for (const bc::Program& prog :
       {make_backedge_into_window_program(), make_backedge_into_inc_window_program()}) {
    for (std::uint64_t budget = 1; budget <= 60; ++budget) {
      std::string outcome[2];
      int i = 0;
      for (const rt::EngineKind engine : {rt::EngineKind::kFast, rt::EngineKind::kReference}) {
        try {
          const rt::ExecStats stats = run_with(prog, engine, false, nullptr, budget);
          outcome[i++] = "ok:" + std::to_string(stats.instructions);
        } catch (const Error& e) {
          outcome[i++] = std::string("trap:") + e.what();
        }
      }
      EXPECT_EQ(outcome[0], outcome[1]) << "budget " << budget;
    }
  }
}

// OSR entry into promoted code under aggressive thresholds in the adaptive
// VM: fast vs reference must agree on every iteration stat including the
// transition count.
TEST(Fusion, OsrUnderFusionMatchesReference) {
  const bc::Program prog = test::make_loop_program(3000);
  std::uint64_t osr_seen = 0;
  std::vector<rt::ExecStats> per_engine[2];
  int idx = 0;
  for (const rt::EngineKind engine : {rt::EngineKind::kFast, rt::EngineKind::kReference}) {
    vm::VmConfig cfg;
    cfg.scenario = vm::Scenario::kAdapt;
    cfg.enable_osr = true;
    cfg.hot_method_threshold = 40;
    cfg.hot_site_threshold = 30;
    cfg.rehot_multiplier = 4;
    cfg.interp_options.engine = engine;
    heur::InlineParams params = heur::default_params();
    heur::JikesHeuristic h(params);
    vm::VirtualMachine machine(prog, rt::pentium4_model(), h, cfg);
    const vm::RunResult rr = machine.run(2);
    for (const vm::IterationStats& it : rr.iterations) {
      per_engine[idx].push_back(it.exec);
      osr_seen += it.exec.osr_transitions;
    }
    ++idx;
  }
  ASSERT_EQ(per_engine[0].size(), per_engine[1].size());
  for (std::size_t i = 0; i < per_engine[0].size(); ++i) {
    EXPECT_TRUE(per_engine[0][i] == per_engine[1][i]) << "iteration " << i;
  }
  EXPECT_GT(osr_seen, 0u) << "OSR never fired; the test lost its point";
}

}  // namespace
}  // namespace ith
