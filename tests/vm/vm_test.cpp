// VirtualMachine tests: scenario behaviour, tiered/adaptive compilation,
// the paper's two-iteration methodology, and time accounting.
#include "vm/vm.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

#include "heuristics/heuristic.hpp"
#include "testing.hpp"
#include "workloads/suite.hpp"

namespace ith::vm {
namespace {

RunResult run_vm(const bc::Program& p, Scenario sc, heur::InlineHeuristic& h, int iterations = 2,
                 VmConfig cfg = {}) {
  const rt::MachineModel machine = rt::pentium4_model();
  cfg.scenario = sc;
  VirtualMachine m(p, machine, h, cfg);
  return m.run(iterations);
}

TEST(Vm, OptScenarioCompilesEverythingInvokedAtOptTier) {
  const bc::Program p = ith::test::make_loop_program(20);
  heur::NeverInlineHeuristic h;
  const RunResult r = run_vm(p, Scenario::kOpt, h);
  EXPECT_EQ(r.methods_opt_compiled, p.num_methods());
  EXPECT_EQ(r.methods_baseline_compiled, 0u);
  EXPECT_EQ(r.recompilations, 0u);
}

TEST(Vm, AdaptScenarioStartsBaseline) {
  const bc::Program p = ith::test::make_loop_program(20);
  heur::NeverInlineHeuristic h;
  VmConfig cfg;
  cfg.hot_method_threshold = 1'000'000;  // never hot
  const RunResult r = run_vm(p, Scenario::kAdapt, h, 2, cfg);
  EXPECT_EQ(r.methods_baseline_compiled, p.num_methods());
  EXPECT_EQ(r.methods_opt_compiled, 0u);
}

TEST(Vm, AdaptRecompilesHotMethods) {
  const bc::Program p = ith::test::make_loop_program(500);
  heur::JikesHeuristic h;
  VmConfig cfg;
  cfg.hot_method_threshold = 50;
  cfg.rehot_multiplier = 0;
  const RunResult r = run_vm(p, Scenario::kAdapt, h, 2, cfg);
  EXPECT_GT(r.recompilations, 0u);
  EXPECT_GT(r.methods_opt_compiled, 0u);
}

TEST(Vm, MultiLevelRecompilationTriggersOnVeryHotMethods) {
  const bc::Program p = ith::test::make_loop_program(2000);
  heur::JikesHeuristic h;
  VmConfig cfg;
  cfg.hot_method_threshold = 50;
  cfg.rehot_multiplier = 4;
  const RunResult r = run_vm(p, Scenario::kAdapt, h, 2, cfg);

  VmConfig cfg_single = cfg;
  cfg_single.rehot_multiplier = 0;
  heur::JikesHeuristic h2;
  const RunResult r_single = run_vm(p, Scenario::kAdapt, h2, 2, cfg_single);
  EXPECT_GT(r.recompilations, r_single.recompilations);
}

TEST(Vm, RecompilationLadderReusesCachedAnalyses) {
  // The session-persistent PassManager carries program-scope analyses
  // across the O1->O2 ladder: recompiling a hot method must *hit* the
  // cached call graph, never recompute it.
  const bc::Program p = ith::test::make_loop_program(2000);
  heur::JikesHeuristic h;
  const rt::MachineModel machine = rt::pentium4_model();
  obs::MemorySink sink;
  obs::Context ctx(&sink, obs::kAllCategories);
  VmConfig cfg;
  cfg.scenario = Scenario::kAdapt;
  cfg.hot_method_threshold = 50;
  cfg.rehot_multiplier = 4;
  cfg.obs = &ctx;
  VirtualMachine m(p, machine, h, cfg);
  const RunResult r = m.run(2);
  ASSERT_GT(r.recompilations, 0u) << "the ladder never fired; thresholds need retuning";

  const opt::AnalysisStats& s = m.pass_manager().analyses().stats();
  EXPECT_GT(s.hits, 0u);
  const auto cg = static_cast<unsigned>(opt::AnalysisId::kCallGraph);
  EXPECT_GT(s.hits_by_kind[cg], 0u) << "O2 recompile must reuse the O1 call graph";
  EXPECT_LE(s.misses_by_kind[cg], p.num_methods())
      << "call graph computed more than once per method";

  // The same reuse is visible to dashboards through the obs counters.
  ctx.flush();
  std::int64_t counter_hits = -1;
  for (const obs::Event& e : sink.events()) {
    if (e.phase != obs::Phase::kCounter) continue;
    for (const obs::Arg& arg : e.args) {
      if (arg.key == "opt.analysis_hits") counter_hits = std::get<std::int64_t>(arg.value);
    }
  }
  EXPECT_GT(counter_hits, 0) << "opt.analysis_hits counter missing from the trace";
}

TEST(Vm, ConfiguredPipelineReachesTheVm) {
  // VmConfig::pipeline is the VM's only optimizer configuration; unset, the
  // VM compiles with the standard pipeline.
  const bc::Program p = ith::test::make_loop_program(100);
  const rt::MachineModel machine = rt::pentium4_model();
  heur::JikesHeuristic h;
  EXPECT_EQ(VirtualMachine(p, machine, h, VmConfig{}).pass_manager().pipeline(),
            opt::PipelineDesc::standard());

  VmConfig no_inline;
  no_inline.pipeline = opt::PipelineDesc::parse("fixpoint(fold,branch_simplify):6");
  EXPECT_EQ(VirtualMachine(p, machine, h, no_inline).pass_manager().pipeline(),
            *no_inline.pipeline);
  const RunResult a = run_vm(p, Scenario::kOpt, h, 2, no_inline);

  // The pipeline is what compiles: dropping the inline pass runs exactly
  // like an inline pass that refuses every site, and slower than inlining.
  VmConfig refusing;
  refusing.pipeline = opt::PipelineDesc::parse("inline,fixpoint(fold,branch_simplify):6");
  heur::NeverInlineHeuristic never;
  const RunResult b = run_vm(p, Scenario::kOpt, never, 2, refusing);
  EXPECT_EQ(a.running_cycles, b.running_cycles);
  EXPECT_GT(a.running_cycles, run_vm(p, Scenario::kOpt, h).running_cycles);
}

TEST(Vm, LazyCompilationSkipsUninvokedMethods) {
  // A method that exists but is never called must never be compiled.
  bc::ProgramBuilder pb("lazy", 0);
  pb.method("unused", 0, 0).ret_const(1);
  pb.method("main", 0, 0).const_(7).halt();
  pb.entry("main");
  const bc::Program p = pb.build();
  heur::JikesHeuristic h;
  const RunResult r = run_vm(p, Scenario::kOpt, h);
  EXPECT_EQ(r.methods_opt_compiled, 1u) << "only main";
}

TEST(Vm, TotalIsFirstIterationRunningIsBestLater) {
  const bc::Program p = ith::test::make_loop_program(200);
  heur::JikesHeuristic h;
  const RunResult r = run_vm(p, Scenario::kOpt, h, 3);
  ASSERT_EQ(r.iterations.size(), 3u);
  EXPECT_EQ(r.total_cycles, r.iterations[0].exec.cycles + r.iterations[0].compile_cycles);
  EXPECT_EQ(r.running_cycles,
            std::min(r.iterations[1].exec.cycles, r.iterations[2].exec.cycles));
}

TEST(Vm, SecondIterationNeedsNoCompilationUnderOpt) {
  const bc::Program p = ith::test::make_loop_program(100);
  heur::JikesHeuristic h;
  const RunResult r = run_vm(p, Scenario::kOpt, h, 2);
  EXPECT_GT(r.iterations[0].compile_cycles, 0u);
  EXPECT_EQ(r.iterations[1].compile_cycles, 0u);
}

TEST(Vm, AdaptTotalCheaperCompilationThanOptOnColdCode) {
  // A program that runs briefly: Adapt should spend far less on compilation.
  const bc::Program p = wl::make_workload("antlr").program;
  heur::JikesHeuristic h1, h2;
  const RunResult opt = run_vm(p, Scenario::kOpt, h1);
  const RunResult adapt = run_vm(p, Scenario::kAdapt, h2);
  EXPECT_LT(adapt.iterations[0].compile_cycles, opt.iterations[0].compile_cycles / 2);
  EXPECT_LT(adapt.total_cycles, opt.total_cycles);
}

TEST(Vm, OptRunningBeatsAdaptRunningWithColdCode) {
  // With the heuristic held fixed (no inlining anywhere), the only
  // difference is tiering: cold methods stay at the baseline tier under
  // Adapt, so its steady-state running time can't beat Opt's. (With a real
  // heuristic Adapt may legitimately win running time, because its hot-site
  // Figure 4 path can inline more than Opt's Figure 3 chain.)
  const bc::Program p = wl::make_workload("jess").program;
  heur::NeverInlineHeuristic h1, h2;
  const RunResult opt = run_vm(p, Scenario::kOpt, h1);
  const RunResult adapt = run_vm(p, Scenario::kAdapt, h2);
  EXPECT_LE(opt.running_cycles, adapt.running_cycles);
}

TEST(Vm, InliningReducesRunningTime) {
  const bc::Program p = ith::test::make_loop_program(500);
  heur::NeverInlineHeuristic never;
  heur::AlwaysInlineHeuristic always;
  const RunResult off = run_vm(p, Scenario::kOpt, never);
  const RunResult on = run_vm(p, Scenario::kOpt, always);
  EXPECT_LT(on.running_cycles, off.running_cycles);
  EXPECT_GT(on.opt_stats.inline_stats.sites_inlined, 0u);
}

TEST(Vm, AggressiveInliningIncreasesCompileTime) {
  const bc::Program p = wl::make_workload("javac").program;
  heur::NeverInlineHeuristic never;
  heur::AlwaysInlineHeuristic always;
  const RunResult off = run_vm(p, Scenario::kOpt, never);
  const RunResult on = run_vm(p, Scenario::kOpt, always);
  EXPECT_GT(on.iterations[0].compile_cycles, off.iterations[0].compile_cycles);
  EXPECT_GT(on.code_words_emitted, off.code_words_emitted);
}

TEST(Vm, DeterministicAcrossRuns) {
  const bc::Program p = wl::make_workload("db").program;
  heur::JikesHeuristic h1, h2;
  const RunResult a = run_vm(p, Scenario::kAdapt, h1, 2);
  const RunResult b = run_vm(p, Scenario::kAdapt, h2, 2);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.running_cycles, b.running_cycles);
  EXPECT_EQ(a.code_words_emitted, b.code_words_emitted);
}

TEST(Vm, ResultsIndependentAcrossVmInstances) {
  // Running one VM must not perturb another's results (no shared state).
  const bc::Program p = ith::test::make_loop_program(100);
  heur::JikesHeuristic h1;
  const RunResult first = run_vm(p, Scenario::kOpt, h1);
  {
    heur::AlwaysInlineHeuristic h_noise;
    run_vm(p, Scenario::kOpt, h_noise);
  }
  heur::JikesHeuristic h2;
  const RunResult again = run_vm(p, Scenario::kOpt, h2);
  EXPECT_EQ(first.total_cycles, again.total_cycles);
}

TEST(Vm, RequiresAtLeastOneIteration) {
  const bc::Program p = ith::test::make_add_program();
  heur::JikesHeuristic h;
  const rt::MachineModel machine = rt::pentium4_model();
  VirtualMachine m(p, machine, h, VmConfig{});
  EXPECT_THROW(m.run(0), ith::Error);
}

TEST(Vm, SingleIterationRunningEqualsFirstExec) {
  const bc::Program p = ith::test::make_add_program();
  heur::JikesHeuristic h;
  const RunResult r = run_vm(p, Scenario::kOpt, h, 1);
  EXPECT_EQ(r.running_cycles, r.iterations[0].exec.cycles);
}

TEST(Vm, ExitValueUnaffectedByHeuristic) {
  const bc::Program p = ith::test::make_loop_program(50);
  heur::NeverInlineHeuristic never;
  heur::AlwaysInlineHeuristic always;
  const RunResult a = run_vm(p, Scenario::kOpt, never);
  const RunResult b = run_vm(p, Scenario::kOpt, always);
  EXPECT_EQ(a.iterations[0].exec.exit_value, b.iterations[0].exec.exit_value);
  EXPECT_EQ(a.iterations[0].exec.exit_value, ith::test::run_exit_value(p));
}

TEST(Vm, IcacheCanBeDisabled) {
  const bc::Program p = ith::test::make_loop_program(100);
  heur::JikesHeuristic h;
  VmConfig cfg;
  cfg.simulate_icache = false;
  const RunResult r = run_vm(p, Scenario::kOpt, h, 2, cfg);
  EXPECT_EQ(r.iterations[0].exec.icache_probes, 0u);
}

TEST(Vm, ScenarioNames) {
  EXPECT_STREQ(scenario_name(Scenario::kAdapt), "Adapt");
  EXPECT_STREQ(scenario_name(Scenario::kOpt), "Opt");
}

}  // namespace
}  // namespace ith::vm
