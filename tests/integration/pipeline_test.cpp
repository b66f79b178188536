// End-to-end integration tests: the full pipeline (workloads -> VM ->
// evaluator -> fitness -> GA) exercised together, plus the qualitative
// paper shapes the benches rely on, so a regression in any layer that
// would silently distort the reproduction fails CI instead.
#include <gtest/gtest.h>

#include "ga/baselines.hpp"
#include "support/error.hpp"
#include "tuner/parameter_space.hpp"
#include "tuner/report.hpp"
#include "tuner/tuner.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

tuner::EvalConfig opt_x86() {
  tuner::EvalConfig cfg;
  cfg.machine = rt::pentium4_model();
  cfg.scenario = vm::Scenario::kOpt;
  return cfg;
}

TEST(Pipeline, WholeSuiteEvaluationIsDeterministic) {
  tuner::SuiteEvaluator a(wl::make_suite("specjvm98"), opt_x86());
  tuner::SuiteEvaluator b(wl::make_suite("specjvm98"), opt_x86());
  const auto& ra = *a.evaluate(heur::default_params());
  const auto& rb = *b.evaluate(heur::default_params());
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].running_cycles, rb[i].running_cycles) << ra[i].name;
    EXPECT_EQ(ra[i].total_cycles, rb[i].total_cycles) << ra[i].name;
  }
}

TEST(Pipeline, DefaultBeatsNeverInlineOnRunningTime) {
  // Figure 1's core premise: inlining improves SPEC running time a lot.
  tuner::SuiteEvaluator eval(wl::make_suite("specjvm98"), opt_x86());
  const auto no_inline = eval.evaluate_heuristic([] { return heur::make_never(); });
  const auto with_default = eval.default_results();
  const auto rows = tuner::compare_results(*with_default, no_inline);
  const double avg_running = tuner::average_row(rows).running_ratio;
  EXPECT_LT(avg_running, 0.85) << "default inlining must buy well over 15% running time";
}

TEST(Pipeline, AggressiveInliningInflatesOptCompileTime) {
  // Figure 1's other half: the cost side of the trade-off.
  tuner::SuiteEvaluator eval(wl::make_suite("dacapo+jbb"), opt_x86());
  const auto off = eval.evaluate_heuristic([] { return heur::make_never(); });
  const auto on = eval.evaluate_heuristic([] { return heur::make_always(); });
  std::uint64_t compile_off = 0, compile_on = 0;
  for (std::size_t i = 0; i < off.size(); ++i) {
    compile_off += off[i].compile_cycles;
    compile_on += on[i].compile_cycles;
  }
  EXPECT_GT(compile_on, 2 * compile_off)
      << "inline-everything must at least double suite compile time";
}

TEST(Pipeline, AdaptSpendsFarLessCompileThanOptOnColdSuite) {
  // The premise behind the Adapt scenario (and Figures 5 vs 6/7).
  tuner::EvalConfig adapt = opt_x86();
  adapt.scenario = vm::Scenario::kAdapt;
  tuner::SuiteEvaluator opt_eval(wl::make_suite("dacapo+jbb"), opt_x86());
  tuner::SuiteEvaluator adapt_eval(wl::make_suite("dacapo+jbb"), adapt);
  const auto& o = *opt_eval.default_results();
  const auto& a = *adapt_eval.default_results();
  for (std::size_t i = 0; i < o.size(); ++i) {
    EXPECT_LT(a[i].total_cycles, o[i].total_cycles)
        << a[i].name << ": Adapt total must beat Opt total on one-shot-heavy programs";
  }
}

TEST(Pipeline, GaTuningBeatsDefaultAndIsCompetitiveWithRandom) {
  tuner::SuiteEvaluator eval(wl::make_suite("specjvm98"), opt_x86());
  ga::GaConfig cfg = tuner::default_ga_config(/*generations=*/10, /*seed=*/5);
  cfg.population = 12;
  const tuner::TuneResult tuned = tuner::tune(eval, tuner::Goal::kTotal, cfg);
  EXPECT_LT(tuned.best_fitness, 1.0);

  // The five-threshold landscape has broad plateau optima, so at small
  // budgets random sampling is genuinely competitive (see ablation_search);
  // the GA just must not be *much* worse.
  const ga::GenomeSpace space = tuner::inline_param_space(false);
  const ga::FitnessFn fitness = tuner::make_fitness(eval, tuner::Goal::kTotal);
  const ga::SearchResult rnd =
      ga::random_search(space, fitness, std::max<std::size_t>(tuned.ga.evaluations, 10), 5);
  EXPECT_LE(tuned.best_fitness, rnd.best_fitness * 1.12);
}

TEST(Pipeline, TunedForTotalImprovesUnseenSuiteTotal) {
  // The paper's generalization claim, as a regression test with a live
  // (small-budget) GA rather than recorded parameters.
  tuner::SuiteEvaluator train(wl::make_suite("specjvm98"), opt_x86());
  ga::GaConfig cfg = tuner::default_ga_config(/*generations=*/12, /*seed=*/9);
  const tuner::TuneResult tuned = tuner::tune(train, tuner::Goal::kTotal, cfg);

  tuner::SuiteEvaluator test(wl::make_suite("dacapo+jbb"), opt_x86());
  const auto rows = tuner::compare_results(*test.evaluate(tuned.best), *test.default_results());
  EXPECT_LT(tuner::average_row(rows).total_ratio, 1.0)
      << "params tuned on SPEC must still cut total time on the unseen suite";
}

TEST(Pipeline, BalanceGoalSitsBetweenRunningAndTotalGoals) {
  // Tuning for balance should never be *worse on running* than tuning for
  // total, nor *worse on total* than tuning for running (up to GA noise).
  tuner::SuiteEvaluator eval(wl::make_suite("specjvm98"), opt_x86());
  ga::GaConfig cfg = tuner::default_ga_config(/*generations=*/10, /*seed=*/3);
  cfg.population = 12;
  const auto for_running = tuner::tune(eval, tuner::Goal::kRunning, cfg);
  const auto for_total = tuner::tune(eval, tuner::Goal::kTotal, cfg);
  const auto for_balance = tuner::tune(eval, tuner::Goal::kBalance, cfg);

  const auto& dflt = *eval.default_results();
  const double bal_running =
      tuner::suite_fitness(tuner::Goal::kRunning, *eval.evaluate(for_balance.best), dflt);
  const double tot_running =
      tuner::suite_fitness(tuner::Goal::kRunning, *eval.evaluate(for_total.best), dflt);
  const double bal_total =
      tuner::suite_fitness(tuner::Goal::kTotal, *eval.evaluate(for_balance.best), dflt);
  const double run_total =
      tuner::suite_fitness(tuner::Goal::kTotal, *eval.evaluate(for_running.best), dflt);

  EXPECT_LE(bal_running, tot_running + 0.05) << "balance shouldn't sacrifice running like Tot does";
  EXPECT_LE(bal_total, run_total + 0.05) << "balance shouldn't sacrifice total like Running does";
}

TEST(Pipeline, HotCalleeGeneMattersOnlyUnderAdapt) {
  // Structural NA of Table 4: sweeping HOT_CALLEE_MAX_SIZE changes nothing
  // under Opt (no profile ever marks a site hot) but does under Adapt.
  heur::InlineParams lo = heur::default_params();
  lo.hot_callee_max_size = 1;
  heur::InlineParams hi = heur::default_params();
  hi.hot_callee_max_size = 400;

  tuner::SuiteEvaluator opt_eval({wl::make_workload("compress")}, opt_x86());
  EXPECT_EQ((*opt_eval.evaluate(lo))[0].total_cycles, (*opt_eval.evaluate(hi))[0].total_cycles);

  tuner::EvalConfig adapt = opt_x86();
  adapt.scenario = vm::Scenario::kAdapt;
  tuner::SuiteEvaluator adapt_eval({wl::make_workload("compress")}, adapt);
  EXPECT_NE((*adapt_eval.evaluate(lo))[0].running_cycles, (*adapt_eval.evaluate(hi))[0].running_cycles);
}

TEST(Pipeline, PpcAndX86ProduceDifferentTimes) {
  tuner::EvalConfig ppc = opt_x86();
  ppc.machine = rt::ppc_g4_model();
  tuner::SuiteEvaluator x86_eval({wl::make_workload("jess")}, opt_x86());
  tuner::SuiteEvaluator ppc_eval({wl::make_workload("jess")}, ppc);
  EXPECT_NE((*x86_eval.default_results())[0].total_cycles,
            (*ppc_eval.default_results())[0].total_cycles);
}

}  // namespace
}  // namespace ith
