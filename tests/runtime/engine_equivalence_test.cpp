// The tentpole guarantee of the fast engine: bit-identical ExecStats (all
// fields) and globals against the reference interpreter, over the whole
// workload suite, under every scenario that exercises the cost model —
// icache simulation, adaptive recompilation, and OSR frame transfer.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bytecode/builder.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "heuristics/heuristic.hpp"
#include "runtime/icache.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/machine.hpp"
#include "runtime/predecode.hpp"
#include "support/error.hpp"
#include "testing.hpp"
#include "vm/vm.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

struct VmObservation {
  std::vector<rt::ExecStats> per_iteration;
  std::uint64_t total_cycles = 0;
  std::uint64_t running_cycles = 0;
  std::uint64_t compile_cycles_all = 0;
  std::vector<std::int64_t> globals;
};

VmObservation observe_vm(const bc::Program& prog, vm::VmConfig cfg, rt::EngineKind engine,
                         int iterations = 2) {
  cfg.interp_options.engine = engine;
  heur::InlineParams params = heur::default_params();
  heur::JikesHeuristic h(params);
  vm::VirtualMachine machine(prog, rt::pentium4_model(), h, cfg);
  const vm::RunResult rr = machine.run(iterations);
  VmObservation obs;
  for (const vm::IterationStats& it : rr.iterations) obs.per_iteration.push_back(it.exec);
  obs.total_cycles = rr.total_cycles;
  obs.running_cycles = rr.running_cycles;
  obs.compile_cycles_all = rr.compile_cycles_all;
  obs.globals = machine.globals();
  return obs;
}

void expect_identical(const VmObservation& fast, const VmObservation& ref,
                      const std::string& label) {
  ASSERT_EQ(fast.per_iteration.size(), ref.per_iteration.size()) << label;
  for (std::size_t i = 0; i < fast.per_iteration.size(); ++i) {
    const rt::ExecStats& a = fast.per_iteration[i];
    const rt::ExecStats& b = ref.per_iteration[i];
    // Field-by-field first so a mismatch names the diverging field.
    EXPECT_EQ(a.cycles, b.cycles) << label << " iteration " << i;
    EXPECT_EQ(a.instructions, b.instructions) << label << " iteration " << i;
    EXPECT_EQ(a.calls, b.calls) << label << " iteration " << i;
    EXPECT_EQ(a.icache_probes, b.icache_probes) << label << " iteration " << i;
    EXPECT_EQ(a.icache_misses, b.icache_misses) << label << " iteration " << i;
    EXPECT_EQ(a.osr_transitions, b.osr_transitions) << label << " iteration " << i;
    EXPECT_EQ(a.max_frame_depth, b.max_frame_depth) << label << " iteration " << i;
    EXPECT_EQ(a.exit_value, b.exit_value) << label << " iteration " << i;
    EXPECT_TRUE(a == b) << label << " iteration " << i;  // defaulted ==: every field
  }
  EXPECT_EQ(fast.total_cycles, ref.total_cycles) << label;
  EXPECT_EQ(fast.running_cycles, ref.running_cycles) << label;
  EXPECT_EQ(fast.compile_cycles_all, ref.compile_cycles_all) << label;
  EXPECT_EQ(fast.globals, ref.globals) << label;
}

TEST(EngineEquivalence, WholeSuiteAdaptScenario) {
  for (const wl::Workload& w : wl::make_suite("all")) {
    vm::VmConfig cfg;
    cfg.scenario = vm::Scenario::kAdapt;
    expect_identical(observe_vm(w.program, cfg, rt::EngineKind::kFast),
                     observe_vm(w.program, cfg, rt::EngineKind::kReference),
                     "adapt/" + w.name);
  }
}

TEST(EngineEquivalence, WholeSuiteOptScenario) {
  for (const wl::Workload& w : wl::make_suite("all")) {
    vm::VmConfig cfg;
    cfg.scenario = vm::Scenario::kOpt;
    expect_identical(observe_vm(w.program, cfg, rt::EngineKind::kFast),
                     observe_vm(w.program, cfg, rt::EngineKind::kReference),
                     "opt/" + w.name);
  }
}

// Aggressive thresholds + OSR so baseline frames are replaced mid-loop; the
// suite-wide transition count must be nonzero (the config exercises the
// transfer path, not just the guards) and identical between engines.
TEST(EngineEquivalence, OsrEnabledAdaptIsIdenticalAndTransitions) {
  std::uint64_t fast_osr = 0;
  std::uint64_t ref_osr = 0;
  for (const wl::Workload& w : wl::make_suite("specjvm98")) {
    vm::VmConfig cfg;
    cfg.scenario = vm::Scenario::kAdapt;
    cfg.enable_osr = true;
    cfg.hot_method_threshold = 40;
    cfg.hot_site_threshold = 30;
    cfg.rehot_multiplier = 4;
    const VmObservation fast = observe_vm(w.program, cfg, rt::EngineKind::kFast);
    const VmObservation ref = observe_vm(w.program, cfg, rt::EngineKind::kReference);
    expect_identical(fast, ref, "osr/" + w.name);
    for (const rt::ExecStats& s : fast.per_iteration) fast_osr += s.osr_transitions;
    for (const rt::ExecStats& s : ref.per_iteration) ref_osr += s.osr_transitions;
  }
  EXPECT_GT(fast_osr, 0u) << "OSR config never transitioned; thresholds too high?";
  EXPECT_EQ(fast_osr, ref_osr);
}

rt::ExecStats run_plain(const bc::Program& prog, rt::EngineKind engine, bool with_icache,
                        std::vector<std::int64_t>* globals_out = nullptr) {
  static const rt::MachineModel machine = rt::pentium4_model();
  test::IdentitySource source(prog);
  std::optional<rt::ICache> icache;
  if (with_icache) {
    icache.emplace(machine.icache_bytes, machine.icache_line_bytes, machine.icache_assoc);
  }
  rt::InterpreterOptions opts;
  opts.engine = engine;
  rt::Interpreter interp(prog, machine, source, icache ? &*icache : nullptr, opts);
  const rt::ExecStats stats = interp.run();
  if (globals_out != nullptr) *globals_out = interp.globals();
  return stats;
}

TEST(EngineEquivalence, FuzzedProgramsIdenticalWithAndWithoutICache) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    fuzz::GeneratorSpec spec;
    spec.seed = seed;
    const bc::Program prog = fuzz::generate_adversarial(spec);
    for (const bool with_icache : {false, true}) {
      std::vector<std::int64_t> fast_globals;
      std::vector<std::int64_t> ref_globals;
      const rt::ExecStats fast =
          run_plain(prog, rt::EngineKind::kFast, with_icache, &fast_globals);
      const rt::ExecStats ref =
          run_plain(prog, rt::EngineKind::kReference, with_icache, &ref_globals);
      EXPECT_TRUE(fast == ref) << "seed " << seed << " icache " << with_icache;
      EXPECT_EQ(fast_globals, ref_globals) << "seed " << seed;
    }
  }
}

// The fast engine tracks the budget as a countdown register; the observable
// contract (throws while executing instruction budget+1, same message) must
// not drift from the reference.
TEST(EngineEquivalence, BudgetTrapMessageIdentical) {
  const bc::Program prog = test::make_loop_program(1'000'000);
  std::string messages[2];
  int i = 0;
  for (const rt::EngineKind engine : {rt::EngineKind::kFast, rt::EngineKind::kReference}) {
    test::IdentitySource source(prog);
    rt::InterpreterOptions opts;
    opts.engine = engine;
    opts.max_instructions = 10'000;
    rt::Interpreter interp(prog, rt::pentium4_model(), source, nullptr, opts);
    try {
      interp.run();
      FAIL() << "budget did not trip under " << rt::engine_name(engine);
    } catch (const Error& e) {
      messages[i++] = e.what();
    }
  }
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_NE(messages[0].find("instruction budget exceeded"), std::string::npos);
}

/// Runs `prog` under an instruction budget and describes the outcome: the
/// trap message, or every ExecStats field. `interp`'s globals are reset
/// and its I-cache flushed first, so each budget starts from scratch.
std::string budgeted_outcome(rt::Interpreter& interp, rt::ICache* icache, std::uint64_t budget) {
  interp.reset_globals();
  if (icache != nullptr) icache->flush();
  interp.set_instruction_limit(budget);
  try {
    const rt::ExecStats s = interp.run();
    return "ok cycles=" + std::to_string(s.cycles) + " insns=" + std::to_string(s.instructions) +
           " calls=" + std::to_string(s.calls) + " osr=" + std::to_string(s.osr_transitions) +
           " probes=" + std::to_string(s.icache_probes) +
           " misses=" + std::to_string(s.icache_misses) +
           " depth=" + std::to_string(s.max_frame_depth) + " exit=" + std::to_string(s.exit_value);
  } catch (const Error& e) {
    return std::string("trap: ") + e.what();
  }
}

/// Sweeps every budget in [1, max_budget] over `prog` on both engines, with
/// and without the I-cache, from sources `make_source` builds, and expects
/// the same outcome and the same globals. A budget that ends inside a
/// straight-line run still executes the instructions before the trap, and
/// those may store globals. Reports the first mismatch per configuration.
/// Returns how many budgets trapped.
template <typename MakeSource>
std::uint64_t expect_budget_sweep_identical(const bc::Program& prog, const std::string& label,
                                            std::uint64_t max_budget, MakeSource make_source) {
  static const rt::MachineModel machine = rt::pentium4_model();
  std::uint64_t traps = 0;
  for (const bool with_icache : {false, true}) {
    struct Side {
      std::unique_ptr<rt::CodeSource> source;
      std::optional<rt::ICache> icache;
      std::unique_ptr<rt::Interpreter> interp;
    } sides[2];
    const rt::EngineKind engines[2] = {rt::EngineKind::kFast, rt::EngineKind::kReference};
    for (int e = 0; e < 2; ++e) {
      sides[e].source = make_source();
      if (with_icache) {
        sides[e].icache.emplace(machine.icache_bytes, machine.icache_line_bytes,
                                machine.icache_assoc);
      }
      rt::InterpreterOptions opts;
      opts.engine = engines[e];
      sides[e].interp = std::make_unique<rt::Interpreter>(
          prog, machine, *sides[e].source, sides[e].icache ? &*sides[e].icache : nullptr, opts);
    }
    std::uint64_t mismatches = 0;
    for (std::uint64_t budget = 1; budget <= max_budget; ++budget) {
      std::string outcome[2];
      for (int e = 0; e < 2; ++e) {
        outcome[e] = budgeted_outcome(*sides[e].interp,
                                      sides[e].icache ? &*sides[e].icache : nullptr, budget);
      }
      if (outcome[1].rfind("trap", 0) == 0) ++traps;
      if (outcome[0] != outcome[1] || sides[0].interp->globals() != sides[1].interp->globals()) {
        if (mismatches++ == 0) {
          ADD_FAILURE() << label << " icache " << with_icache << " budget " << budget
                        << ":\n  fast:      " << outcome[0] << "\n  reference: " << outcome[1]
                        << "\n  globals equal: "
                        << (sides[0].interp->globals() == sides[1].interp->globals());
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << label << " icache " << with_icache;
  }
  return traps;
}

TEST(EngineEquivalence, BudgetTrapLeavesIdenticalGlobals) {
  std::vector<std::pair<std::string, bc::Program>> programs =
      fuzz::load_corpus(ITH_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(programs.empty());
  programs.emplace_back("globals", test::make_globals_program());
  programs.emplace_back("loop50", test::make_loop_program(50));
  std::uint64_t traps = 0;
  for (const auto& [name, prog] : programs) {
    traps += expect_budget_sweep_identical(prog, name, 3000, [&prog = prog] {
      return std::make_unique<test::IdentitySource>(prog);
    });
  }
  EXPECT_GT(traps, 0u) << "no budget trapped; the sweep lost its point";
}

/// Serves `baseline` on every invocation and offers `replacement` for OSR
/// from the `after`-th taken back edge on.
class MidRunOsrSource final : public rt::CodeSource {
 public:
  MidRunOsrSource(const rt::CompiledMethod& baseline, const rt::CompiledMethod& replacement,
                  std::uint64_t after)
      : baseline_(baseline), replacement_(replacement), after_(after) {}

  const rt::CompiledMethod& invoke(bc::MethodId) override { return baseline_; }
  void on_back_edge(bc::MethodId) override { ++back_edges_; }
  const rt::CompiledMethod* osr_replacement(const rt::CompiledMethod&, std::size_t) override {
    return back_edges_ >= after_ ? &replacement_ : nullptr;
  }

 private:
  const rt::CompiledMethod& baseline_;
  const rt::CompiledMethod& replacement_;
  std::uint64_t after_;
  std::uint64_t back_edges_ = 0;
};

/// s = sum of i for i in [0, 40); globals[0] = s; exit s. With
/// `nop_at_head`, a kNop sits in front of the loop header and the back
/// edge jumps to it, so the header itself is neither a jump target nor
/// after a control instruction (and a nop adds no machine words, so it
/// shares the header's I-cache line).
bc::Program make_sum_loop(bool nop_at_head) {
  bc::ProgramBuilder pb("sum_loop", 1);
  auto& m = pb.method("main", 0, 2);
  m.const_(0).store(0).const_(0).store(1);
  m.label("head");
  if (nop_at_head) m.nop();
  m.load(0).const_(40).cmplt().jz("done");
  m.load(1).load(0).add().store(1);
  m.load(0).const_(1).add().store(0);
  m.jmp("head");
  m.label("done");
  m.const_(0).load(1).gstore();
  m.load(1).halt();
  pb.entry("main");
  return pb.build();
}

TEST(EngineEquivalence, OsrEntryInsideARunChargesTheRestOfTheRun) {
  const bc::Program prog = make_sum_loop(false);
  const bc::Program with_nop = make_sum_loop(true);
  const bc::MethodId main_id = prog.find_method("main");
  constexpr std::int32_t kHeaderPc = 4;  // the baseline's loop header
  constexpr std::size_t kNopPc = 4;      // the replacement's kNop

  rt::CompiledMethod baseline;
  baseline.body = prog.method(main_id);
  baseline.tier = rt::Tier::kBaseline;
  baseline.method_id = main_id;
  baseline.code_base = 0x1000;
  for (std::size_t pc = 0; pc < baseline.body.size(); ++pc) {
    baseline.origin.emplace_back(main_id, static_cast<std::int32_t>(pc));
  }
  baseline.finalize();

  // The replacement: the same loop at O2 with the kNop in front of the
  // header; every other instruction keeps its baseline origin.
  rt::CompiledMethod replacement;
  replacement.body = with_nop.method(with_nop.find_method("main"));
  replacement.tier = rt::Tier::kOpt;
  replacement.method_id = main_id;
  replacement.code_base = 0x90000;
  for (std::size_t pc = 0; pc < replacement.body.size(); ++pc) {
    if (pc == kNopPc) {
      replacement.origin.emplace_back(-1, -1);
    } else {
      const std::size_t from = pc < kNopPc ? pc : pc - 1;
      replacement.origin.emplace_back(main_id, static_cast<std::int32_t>(from));
    }
  }
  replacement.finalize();
  ASSERT_EQ(replacement.body.code()[kNopPc].op, bc::Op::kNop);

  const std::int64_t entry = replacement.find_origin(main_id, kHeaderPc);
  ASSERT_EQ(entry, static_cast<std::int64_t>(kNopPc + 1));
  const rt::PredecodedBody pb = rt::predecode(replacement, rt::pentium4_model());
  EXPECT_FALSE(pb.code[static_cast<std::size_t>(entry)].head)
      << "the OSR entry must land inside a run for this test to mean anything";

  auto make_source = [&] { return std::make_unique<MidRunOsrSource>(baseline, replacement, 3); };
  for (const bool with_icache : {false, true}) {
    std::vector<std::int64_t> globals[2];
    rt::ExecStats stats[2];
    int e = 0;
    for (const rt::EngineKind engine : {rt::EngineKind::kFast, rt::EngineKind::kReference}) {
      static const rt::MachineModel machine = rt::pentium4_model();
      const auto source = make_source();
      std::optional<rt::ICache> icache;
      if (with_icache) {
        icache.emplace(machine.icache_bytes, machine.icache_line_bytes, machine.icache_assoc);
      }
      rt::InterpreterOptions opts;
      opts.engine = engine;
      rt::Interpreter interp(prog, machine, *source, icache ? &*icache : nullptr, opts);
      stats[e] = interp.run();
      globals[e++] = interp.globals();
    }
    EXPECT_EQ(stats[0].osr_transitions, 1u) << "icache " << with_icache;
    EXPECT_EQ(stats[0].exit_value, 780) << "sum of 0..39";
    EXPECT_EQ(stats[0].cycles, stats[1].cycles) << "icache " << with_icache;
    EXPECT_TRUE(stats[0] == stats[1]) << "icache " << with_icache;
    EXPECT_EQ(globals[0], globals[1]);
  }
  // Every budget, so one trap lands inside the run the OSR entry charges.
  EXPECT_GT(expect_budget_sweep_identical(prog, "mid_run_osr", 600, make_source), 0u);
}

TEST(EngineEquivalence, StackOverflowTrapMessageIdentical) {
  // main() calls itself forever: trips max_frames, never the budget.
  bc::ProgramBuilder pb("inf_rec", 0);
  pb.method("spin", 0, 0).call("spin", 0).ret();
  pb.method("main", 0, 0).call("spin", 0).halt();
  pb.entry("main");
  const bc::Program prog = pb.build();
  std::string messages[2];
  int i = 0;
  for (const rt::EngineKind engine : {rt::EngineKind::kFast, rt::EngineKind::kReference}) {
    test::IdentitySource source(prog);
    rt::InterpreterOptions opts;
    opts.engine = engine;
    opts.max_frames = 64;
    rt::Interpreter interp(prog, rt::pentium4_model(), source, nullptr, opts);
    try {
      interp.run();
      FAIL() << "recursion did not trip max_frames under " << rt::engine_name(engine);
    } catch (const Error& e) {
      messages[i++] = e.what();
    }
  }
  // ITH_CHECK prefixes file:line, which rightly differs per engine; the
  // message text after the location must match.
  for (std::string& m : messages) {
    const std::size_t at = m.find("simulated stack overflow");
    ASSERT_NE(at, std::string::npos) << m;
    m = m.substr(at);
  }
  EXPECT_EQ(messages[0], messages[1]);
}

TEST(EngineEquivalence, FacadeReportsSelectedEngine) {
  const bc::Program prog = test::make_add_program();
  test::IdentitySource source(prog);
  rt::InterpreterOptions opts;
  opts.engine = rt::EngineKind::kReference;
  rt::Interpreter ref(prog, rt::pentium4_model(), source, nullptr, opts);
  EXPECT_EQ(ref.engine_kind(), rt::EngineKind::kReference);
  EXPECT_STREQ(rt::engine_name(rt::EngineKind::kFast), "fast");
  EXPECT_STREQ(rt::engine_name(rt::EngineKind::kReference), "reference");
  // Default options select the fast engine.
  test::IdentitySource source2(prog);
  rt::Interpreter fast(prog, rt::pentium4_model(), source2, nullptr);
  EXPECT_EQ(fast.engine_kind(), rt::EngineKind::kFast);
}

}  // namespace
}  // namespace ith
