// Superinstruction fusion (DESIGN.md §14): the pattern-table rewrite in
// predecode, the tier/policy gating, and the contract that matters — fused
// execution is bit-identical (ExecStats and globals) to unfused and to the
// reference engine, including on programs built to land control transfers
// in the middle of fused windows.
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
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

rt::PredecodedBody predecode_method(const bc::Program& prog, const std::string& method,
                                    rt::FusionPolicy policy, rt::FusionStats* stats = nullptr,
                                    rt::Tier tier = rt::Tier::kOpt) {
  // The predecoded body points back into its CompiledMethod, so every source
  // stays alive (and is freed) with the test binary.
  static std::vector<std::unique_ptr<test::IdentitySource>> sources;
  sources.push_back(std::make_unique<test::IdentitySource>(prog, tier));
  const rt::CompiledMethod& cm = sources.back()->invoke(prog.find_method(method));
  return rt::predecode(cm, rt::pentium4_model(), policy, stats);
}

// --- satellite: the 40-byte layout promise, checked at runtime too so a
// --- failure names the actual size instead of failing to compile.
TEST(Fusion, PredecodedInsnLayoutBudget) {
  EXPECT_EQ(sizeof(rt::PredecodedInsn), 40u);
  EXPECT_EQ(offsetof(rt::PredecodedInsn, target), 0u);
  EXPECT_EQ(offsetof(rt::PredecodedInsn, base_cost), 8u);
  EXPECT_EQ(offsetof(rt::PredecodedInsn, line), 16u);
  // The side-pool handle rides in the former tail padding: adding it must
  // not have grown the entry or moved a hot field.
  EXPECT_EQ(offsetof(rt::PredecodedInsn, imm), 36u);
}

TEST(Fusion, PatternTableIsWellFormed) {
  const auto& rules = rt::fusion_rules();
  ASSERT_FALSE(rules.empty());
  // One fused opcode per rule, and no opcode without a rule.
  EXPECT_EQ(rt::kNumXOps, bc::kNumOps + static_cast<int>(rules.size()));
  std::set<rt::XOp> fused_ops;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    const rt::FusionRule& rule = rules[r];
    EXPECT_NE(rule.name, nullptr);
    EXPECT_GE(rule.len, 2) << rule.name;
    EXPECT_LE(rule.len, rt::kMaxFusionPatternLen) << rule.name;
    EXPECT_LT(rule.rewrite_at, rule.len) << rule.name;
    EXPECT_GE(static_cast<int>(rule.fused), bc::kNumOps) << rule.name << " maps to a mirror xop";
    EXPECT_TRUE(fused_ops.insert(rule.fused).second) << rule.name << " shares its fused xop";
    // Operand capture assumes the head leads; only call_ret marks a later
    // component (its kRet).
    if (std::string(rule.name) == "call_ret") {
      EXPECT_EQ(rule.rewrite_at, 1);
    } else {
      EXPECT_EQ(rule.rewrite_at, 0) << rule.name;
    }
    // Capture descriptors must address components inside the window.
    EXPECT_LT(rule.capture_b, static_cast<std::int8_t>(rule.len)) << rule.name;
    EXPECT_LT(rule.capture_extra, static_cast<std::int8_t>(rule.len)) << rule.name;
    EXPECT_LT(rule.require_same_a, static_cast<std::int8_t>(rule.len)) << rule.name;
    // Longest-first ordering is what makes "first match wins" pick the
    // longest pattern.
    if (r > 0) {
      EXPECT_LE(rule.len, rules[r - 1].len) << rule.name;
    }
  }
}

TEST(Fusion, RewritesHeadKeepsInterior) {
  // square(x) = x * x is exactly the load+load+mul pattern, which now
  // rewrites to the immediate form: both slots in the head, accounting data
  // in the side-pool record, interiors untouched.
  const bc::Program prog = test::make_loop_program(10);
  rt::FusionStats stats;
  const rt::PredecodedBody pb =
      predecode_method(prog, "square", rt::FusionPolicy::kAll, &stats);
  ASSERT_GE(pb.code.size(), 4u);
  EXPECT_TRUE(pb.fused);
  EXPECT_EQ(pb.code[0].xop, rt::XOp::kFLoadLoadMulImm);
  EXPECT_EQ(pb.code[0].fuse_len, 3);
  EXPECT_EQ(pb.code[0].b, pb.code[1].a) << "second slot not captured into the head";
  ASSERT_LT(pb.code[0].imm, pb.pool.size());
  const rt::FusedWindow& w = pb.pool[pb.code[0].imm];
  EXPECT_EQ(w.cost[0], pb.code[1].base_cost);
  EXPECT_EQ(w.cost[1], pb.code[2].base_cost);
  EXPECT_EQ(w.line[0], pb.code[1].line);
  EXPECT_EQ(w.line[1], pb.code[2].line);
  // Interior entries keep their mirror identity (and original operands), so
  // any control transfer landing on them executes unfused.
  EXPECT_EQ(pb.code[1].xop, rt::XOp::kLoad);
  EXPECT_EQ(pb.code[1].fuse_len, 1);
  EXPECT_EQ(pb.code[2].xop, rt::XOp::kMul);
  EXPECT_EQ(pb.code[0].op, bc::Op::kLoad);  // pre-fusion identity preserved
  EXPECT_EQ(stats.rules_fired, 1u);
  EXPECT_EQ(stats.insns_fused, 2u);
  EXPECT_EQ(stats.windows_imm, 1u);
  EXPECT_EQ(stats.pool_overflows, 0u);
}

TEST(Fusion, LoopGuardUsesLongestPattern) {
  // The loop head is load(i) const(n) cmplt jz — the 4-long guard rule must
  // win over the embedded cmplt+jz pair.
  const bc::Program prog = test::make_loop_program(10);
  rt::FusionStats stats;
  const rt::PredecodedBody pb = predecode_method(prog, "main", rt::FusionPolicy::kAll, &stats);
  bool saw_guard = false;
  for (const rt::PredecodedInsn& pi : pb.code) {
    EXPECT_NE(pi.xop, rt::XOp::kFCmpLtJzImm) << "pair rule fired inside the guard window";
    if (pi.xop == rt::XOp::kFLoadConstCmpLtJzImm) {
      saw_guard = true;
      EXPECT_EQ(pi.fuse_len, 4);
      // Guard capture layout: slot in a (untouched), bound in b, branch
      // delta in the pool record's extra.
      EXPECT_EQ(pi.b, pb.code[static_cast<std::size_t>(&pi - pb.code.data()) + 1].a);
      ASSERT_LT(pi.imm, pb.pool.size());
      EXPECT_EQ(pb.pool[pi.imm].extra,
                pb.code[static_cast<std::size_t>(&pi - pb.code.data()) + 3].a);
    }
  }
  EXPECT_TRUE(saw_guard);
  const auto& rules = rt::fusion_rules();
  std::uint64_t hits = 0;
  ASSERT_EQ(stats.rule_hits.size(), rules.size());
  for (std::size_t r = 0; r < rules.size(); ++r) {
    hits += stats.rule_hits[r];
    if (std::string(rules[r].name) == "load_const_cmplt_jz") {
      EXPECT_GE(stats.rule_hits[r], 1u);
    }
  }
  EXPECT_EQ(hits, stats.rules_fired) << "per-rule hits must sum to rules_fired";
  // No call+return pair in main: every fired rule took a side-pool record.
  EXPECT_EQ(stats.windows_imm, stats.rules_fired);
}

TEST(Fusion, CallRetMarksCallerReturn) {
  // f2 calls f3 and immediately returns: the kRet (not the kCall) carries
  // the chained mark, with fuse_len 1 (nothing after it is retired).
  bc::ProgramBuilder pb("chain", 0);
  pb.method("f3", 1, 1).load(0).ret();
  pb.method("f2", 1, 1).load(0).call("f3", 1).ret();
  pb.method("main", 0, 0).const_(9).call("f2", 1).halt();
  pb.entry("main");
  const bc::Program prog = pb.build();
  const rt::PredecodedBody f2 = predecode_method(prog, "f2", rt::FusionPolicy::kAll);
  ASSERT_EQ(f2.code.size(), 3u);
  EXPECT_EQ(f2.code[1].xop, rt::XOp::kCall);
  EXPECT_EQ(f2.code[2].xop, rt::XOp::kFRetChained);
  EXPECT_EQ(f2.code[2].fuse_len, 1);
  EXPECT_EQ(test::run_exit_value(prog), 9);
}

TEST(Fusion, PolicyGatesByTier) {
  const bc::Program prog = test::make_loop_program(10);
  // kOff never fuses; kPromotedOnly skips baseline bodies but fuses
  // promoted ones; kAll fuses everything.
  EXPECT_FALSE(
      predecode_method(prog, "square", rt::FusionPolicy::kOff, nullptr, rt::Tier::kOpt).fused);
  EXPECT_FALSE(predecode_method(prog, "square", rt::FusionPolicy::kPromotedOnly, nullptr,
                                rt::Tier::kBaseline)
                   .fused);
  EXPECT_TRUE(predecode_method(prog, "square", rt::FusionPolicy::kPromotedOnly, nullptr,
                               rt::Tier::kMidOpt)
                  .fused);
  EXPECT_TRUE(
      predecode_method(prog, "square", rt::FusionPolicy::kAll, nullptr, rt::Tier::kBaseline)
          .fused);
}

TEST(Fusion, EnvVarSelectsPolicy) {
  const char* saved = std::getenv("ITH_FUSION");
  const std::string saved_value = saved == nullptr ? "" : saved;
  const auto expect_policy = [](const char* value, rt::FusionPolicy want) {
    ::setenv("ITH_FUSION", value, 1);
    EXPECT_EQ(rt::default_fusion_policy(), want) << "ITH_FUSION=" << value;
  };
  expect_policy("0", rt::FusionPolicy::kOff);
  expect_policy("off", rt::FusionPolicy::kOff);
  expect_policy("1", rt::FusionPolicy::kPromotedOnly);
  expect_policy("promoted", rt::FusionPolicy::kPromotedOnly);
  expect_policy("all", rt::FusionPolicy::kAll);
  ::unsetenv("ITH_FUSION");
  EXPECT_EQ(rt::default_fusion_policy(), rt::FusionPolicy::kPromotedOnly);
  ::setenv("ITH_FUSION", "typo", 1);
  EXPECT_THROW(rt::default_fusion_policy(), Error);
  if (saved == nullptr) {
    ::unsetenv("ITH_FUSION");
  } else {
    ::setenv("ITH_FUSION", saved_value.c_str(), 1);
  }
  EXPECT_STREQ(rt::fusion_policy_name(rt::FusionPolicy::kOff), "off");
  EXPECT_STREQ(rt::fusion_policy_name(rt::FusionPolicy::kPromotedOnly), "promoted");
  EXPECT_STREQ(rt::fusion_policy_name(rt::FusionPolicy::kAll), "all");
}

// --- equivalence: fused, unfused and reference executions of the same
// --- program must agree on every ExecStats field and the globals.

rt::ExecStats run_with(const bc::Program& prog, rt::EngineKind engine, rt::FusionPolicy fusion,
                       bool with_icache, std::vector<std::int64_t>* globals_out = nullptr,
                       std::uint64_t max_instructions = 2'000'000'000ULL) {
  static const rt::MachineModel machine = rt::pentium4_model();
  test::IdentitySource source(prog);
  std::optional<rt::ICache> icache;
  if (with_icache) {
    icache.emplace(machine.icache_bytes, machine.icache_line_bytes, machine.icache_assoc);
  }
  rt::InterpreterOptions opts;
  opts.engine = engine;
  opts.fusion = fusion;
  opts.max_instructions = max_instructions;
  rt::Interpreter interp(prog, machine, source, icache ? &*icache : nullptr, opts);
  const rt::ExecStats stats = interp.run();
  if (globals_out != nullptr) *globals_out = interp.globals();
  return stats;
}

void expect_three_way_identical(const bc::Program& prog, const std::string& label) {
  for (const bool with_icache : {false, true}) {
    std::vector<std::int64_t> fused_g, unfused_g, ref_g;
    const rt::ExecStats fused =
        run_with(prog, rt::EngineKind::kFast, rt::FusionPolicy::kAll, with_icache, &fused_g);
    const rt::ExecStats unfused =
        run_with(prog, rt::EngineKind::kFast, rt::FusionPolicy::kOff, with_icache, &unfused_g);
    const rt::ExecStats ref = run_with(prog, rt::EngineKind::kReference, rt::FusionPolicy::kOff,
                                       with_icache, &ref_g);
    EXPECT_EQ(fused.cycles, ref.cycles) << label << " icache " << with_icache;
    EXPECT_EQ(fused.instructions, ref.instructions) << label << " icache " << with_icache;
    EXPECT_EQ(fused.icache_probes, ref.icache_probes) << label << " icache " << with_icache;
    EXPECT_EQ(fused.icache_misses, ref.icache_misses) << label << " icache " << with_icache;
    EXPECT_TRUE(fused == ref) << label << " fused vs reference, icache " << with_icache;
    EXPECT_TRUE(unfused == ref) << label << " unfused vs reference, icache " << with_icache;
    EXPECT_EQ(fused_g, ref_g) << label;
    EXPECT_EQ(unfused_g, ref_g) << label;
  }
}

// --- operand capture: layout, the same-slot constraint, and what happens
// --- when a body runs out of side-pool handles.

TEST(Fusion, IncLocalCapturesTheCountedLoopIncrement) {
  // The canonical counted-loop increment: load i; const 1; add; store i.
  bc::ProgramBuilder pbuild("inc", 0);
  auto& m = pbuild.method("main", 0, 1);
  m.const_(4).store(0);
  m.load(0).const_(3).add().store(0);
  m.load(0).halt();
  pbuild.entry("main");
  const bc::Program prog = pbuild.build();
  rt::FusionStats stats;
  const rt::PredecodedBody pb = predecode_method(prog, "main", rt::FusionPolicy::kAll, &stats);
  const rt::PredecodedInsn& head = pb.code[2];
  EXPECT_EQ(head.xop, rt::XOp::kFIncLocal);
  EXPECT_EQ(head.fuse_len, 4);
  EXPECT_EQ(head.a, 0) << "slot";
  EXPECT_EQ(head.b, 3) << "captured immediate";
  ASSERT_LT(head.imm, pb.pool.size());
  const rt::FusedWindow& w = pb.pool[head.imm];
  for (std::size_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(w.cost[k - 1], pb.code[2 + k].base_cost);
    EXPECT_EQ(w.line[k - 1], pb.code[2 + k].line);
  }
  // Interiors keep their mirrors for mid-window control transfers.
  EXPECT_EQ(pb.code[3].xop, rt::XOp::kConst);
  EXPECT_EQ(pb.code[4].xop, rt::XOp::kAdd);
  EXPECT_EQ(pb.code[5].xop, rt::XOp::kStore);
  EXPECT_EQ(test::run_exit_value(prog), 7);
}

TEST(Fusion, IncLocalRequiresTheSameSlot) {
  // load 0 ... store 1 is NOT an increment, but it IS a whole assignment
  // statement: the same-slot miss must fall through to the general
  // loc_add_k rule, which captures all three operands (source slot in the
  // head's a, immediate in b, destination slot in the window's extra).
  bc::ProgramBuilder pbuild("notinc", 0);
  auto& m = pbuild.method("main", 0, 2);
  m.const_(4).store(0);
  m.load(0).const_(3).add().store(1);
  m.load(1).halt();
  pbuild.entry("main");
  const bc::Program prog = pbuild.build();
  const rt::PredecodedBody pb = predecode_method(prog, "main", rt::FusionPolicy::kAll);
  const rt::PredecodedInsn& head = pb.code[2];
  EXPECT_EQ(head.xop, rt::XOp::kFLocAddK) << "same-slot miss must fall to loc_add_k";
  EXPECT_EQ(head.a, 0) << "source slot";
  EXPECT_EQ(head.b, 3) << "captured immediate";
  ASSERT_LT(head.imm, pb.pool.size());
  EXPECT_EQ(pb.pool[head.imm].extra, 1) << "captured destination slot";
  EXPECT_EQ(test::run_exit_value(prog), 7);
}

TEST(Fusion, PoolOverflowLeavesWindowsUnfused) {
  // Exhaust the 16-bit handle space, then demand more windows: every entry
  // past the pool keeps its mirror xop (the embedded const+add pair cannot
  // take a record either), while a call+return pair, which needs no record,
  // still fuses.
  bc::ProgramBuilder pbuild("overflow", 0);
  pbuild.method("id", 1, 1).load(0).ret();
  auto& m = pbuild.method("main", 0, 1);
  m.const_(0);
  for (std::size_t i = 0; i < rt::kMaxFusedWindowsPerBody; ++i) m.const_(1).add();
  m.store(0);
  m.load(0).const_(1).add().store(0);  // inc_local window past the pool
  m.load(0).const_(1).add();           // load_add_k window past the pool
  m.call("id", 1).ret();               // call_ret pair past the pool
  pbuild.entry("main");
  const bc::Program prog = pbuild.build();
  rt::FusionStats stats;
  const rt::PredecodedBody pb = predecode_method(prog, "main", rt::FusionPolicy::kAll, &stats);
  EXPECT_EQ(pb.pool.size(), rt::kMaxFusedWindowsPerBody);
  EXPECT_EQ(stats.windows_imm, rt::kMaxFusedWindowsPerBody);
  EXPECT_GE(stats.pool_overflows, 2u);
  const std::size_t past_pool = 1 + 2 * rt::kMaxFusedWindowsPerBody + 1;
  ASSERT_EQ(pb.code.size(), past_pool + 9);
  for (std::size_t pc = past_pool; pc < past_pool + 8; ++pc) {
    EXPECT_EQ(static_cast<int>(pb.code[pc].xop), static_cast<int>(pb.code[pc].op))
        << "window at pc " << pc << " fused past the pool";
    EXPECT_EQ(pb.code[pc].fuse_len, 1) << pc;
  }
  EXPECT_EQ(pb.code[past_pool + 8].xop, rt::XOp::kFRetChained);
  // Bit-identity holds even straddling the overflow boundary.
  expect_three_way_identical(prog, "pool_overflow");
}

/// A back edge whose target is the INTERIOR of a fused 4-long guard window:
/// the loop re-enters at the kCmpLt, so the fused head executes only on the
/// fall-through entry and the interior entries must still run unfused.
bc::Program make_backedge_into_window_program() {
  bc::ProgramBuilder pb("backedge_interior", 0);
  auto& m = pb.method("main", 0, 1);
  m.const_(5).store(0);
  m.label("guard");
  m.load(0).const_(1);
  m.label("mid");  // lands on the kCmpLt: interior entry of the fused guard
  m.cmplt().jz("body");
  m.jmp("done");
  m.label("body");
  m.load(0).const_(1).sub().store(0);  // i--
  m.load(0).load(0).load(0);           // (i, i, i): two survive the branch pop
  m.jnz("mid");                        // i != 0: back edge into the window
  m.pop().pop();                       // i == 0: drop the pair, exit via guard
  m.jmp("guard");
  m.label("done");
  m.load(0).halt();
  pb.entry("main");
  return pb.build();
}

/// A forward jump over a fused head into its interior: the kAdd of a
/// {kConst, kAdd} window is the join point of a diamond, and the two-trip
/// loop takes each arm once — so the window executes fused on trip one and
/// is entered mid-window (raw interior kAdd) on trip two.
bc::Program make_jump_into_window_program() {
  bc::ProgramBuilder pb("jump_interior", 0);
  auto& m = pb.method("main", 0, 1);
  m.const_(0).store(0);  // trip counter doubles as path selector
  m.label("iter");
  m.const_(100);  // base operand, both arms
  m.load(0).jnz("taken");
  m.const_(41);  // head of the fused {kConst, kAdd} window
  m.label("mid");
  m.add();  // interior: entered fused from fall-through, raw from the jump
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

/// A back edge into the interior of an operand-captured kFDecLocal window:
/// the branch lands on the kConst component, so the decrement runs fused on
/// fall-through and unfused (with live operand-stack input) when entered
/// mid-window — the captured operands must never shadow the interiors.
bc::Program make_backedge_into_inc_window_program() {
  bc::ProgramBuilder pb("backedge_inc_interior", 0);
  auto& m = pb.method("main", 0, 1);
  m.const_(5).store(0);
  m.load(0);       // window head: {kLoad, kConst, kSub, kStore} on slot 0
  m.label("mid");  // lands on the kConst: interior of the captured window
  m.const_(1).sub().store(0);
  m.load(0).load(0).jnz("mid");  // i != 0: back edge into the window
  m.pop();
  m.load(0).halt();
  pb.entry("main");
  return pb.build();
}

/// Deep call+return chain: every frame returns straight into another return,
/// so one dynamic kRet chains through the whole stack.
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
  expect_three_way_identical(make_backedge_into_window_program(), "backedge_interior");
  expect_three_way_identical(make_backedge_into_inc_window_program(), "backedge_inc_interior");
  expect_three_way_identical(make_jump_into_window_program(), "jump_interior");
  expect_three_way_identical(make_ret_chain_program(), "ret_chain");
  expect_three_way_identical(test::make_loop_program(200), "guard_loop");
  expect_three_way_identical(test::make_fib_program(12), "fib");
  expect_three_way_identical(test::make_globals_program(), "globals");
}

// The instruction budget must trip at the same instruction with the same
// message whether that instruction is a fused head, a fused interior
// component, or unfused — swept across budgets so the trip point lands on
// every offset within the fused windows.
TEST(Fusion, BudgetTrapParityAcrossFusedWindows) {
  for (const bc::Program& prog :
       {make_backedge_into_window_program(), make_backedge_into_inc_window_program()}) {
    for (std::uint64_t budget = 1; budget <= 60; ++budget) {
    std::string outcome[3];
    int i = 0;
    const struct {
      rt::EngineKind engine;
      rt::FusionPolicy fusion;
    } variants[] = {{rt::EngineKind::kFast, rt::FusionPolicy::kAll},
                    {rt::EngineKind::kFast, rt::FusionPolicy::kOff},
                    {rt::EngineKind::kReference, rt::FusionPolicy::kOff}};
    for (const auto& v : variants) {
      try {
        const rt::ExecStats stats = run_with(prog, v.engine, v.fusion, false, nullptr, budget);
        outcome[i++] = "ok:" + std::to_string(stats.instructions);
      } catch (const Error& e) {
        outcome[i++] = std::string("trap:") + e.what();
      }
    }
    EXPECT_EQ(outcome[0], outcome[1]) << "budget " << budget;
    EXPECT_EQ(outcome[1], outcome[2]) << "budget " << budget;
    }
  }
}

// OSR entry into promoted code while fused windows are live: aggressive
// thresholds in the adaptive VM, fused vs reference must agree on every
// iteration stat including the transition count.
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
    cfg.interp_options.fusion = rt::FusionPolicy::kAll;
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

TEST(Fusion, EngineExposesStatsReferenceDoesNot) {
  const bc::Program prog = test::make_loop_program(50);
  test::IdentitySource source(prog);
  rt::InterpreterOptions opts;
  opts.engine = rt::EngineKind::kFast;
  opts.fusion = rt::FusionPolicy::kAll;
  rt::Interpreter fast(prog, rt::pentium4_model(), source, nullptr, opts);
  fast.run();
  const rt::FusionStats* stats = fast.fusion_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->bodies_fused, 0u);
  EXPECT_GT(stats->rules_fired, 0u);
  EXPECT_GE(stats->bodies_considered, stats->bodies_fused);
  EXPECT_EQ(stats->rule_hits.size(), rt::fusion_rules().size());

  test::IdentitySource source2(prog);
  rt::InterpreterOptions ref_opts;
  ref_opts.engine = rt::EngineKind::kReference;
  rt::Interpreter ref(prog, rt::pentium4_model(), source2, nullptr, ref_opts);
  ref.run();
  EXPECT_EQ(ref.fusion_stats(), nullptr);
}

}  // namespace
}  // namespace ith
