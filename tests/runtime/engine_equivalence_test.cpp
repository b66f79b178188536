// The tentpole guarantee of the fast engine: bit-identical ExecStats (all
// fields) and globals against the reference interpreter, over the whole
// workload suite, under every scenario that exercises the cost model —
// icache simulation, adaptive recompilation, and OSR frame transfer.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/generator.hpp"
#include "heuristics/heuristic.hpp"
#include "runtime/icache.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/machine.hpp"
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
