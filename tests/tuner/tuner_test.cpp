// Tuner tests: genome<->parameter mapping, the paper's fitness formulas,
// suite evaluation + memoization, comparison reports, and a small
// end-to-end tuning run that must beat the default heuristic.
#include "tuner/tuner.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "tuner/parameter_space.hpp"
#include "tuner/report.hpp"

namespace ith::tuner {
namespace {

std::vector<wl::Workload> tiny_suite() {
  return {wl::make_workload("compress"), wl::make_workload("raytrace")};
}

// --- parameter space ------------------------------------------------------------

TEST(ParameterSpace, AdaptHasFiveGenesOptFour) {
  EXPECT_EQ(inline_param_space(true).size(), 5u);
  EXPECT_EQ(inline_param_space(false).size(), 4u);
}

TEST(ParameterSpace, GenomeRoundTrip) {
  heur::InlineParams p = heur::default_params();
  p.callee_max_size = 49;
  p.hot_callee_max_size = 352;
  EXPECT_EQ(params_from_genome(genome_from_params(p, true)), p);
  // Four-gene genomes keep the default hot size.
  const heur::InlineParams q = params_from_genome(genome_from_params(p, false));
  EXPECT_EQ(q.callee_max_size, 49);
  EXPECT_EQ(q.hot_callee_max_size, heur::default_params().hot_callee_max_size);
}

TEST(ParameterSpace, RejectsWrongArity) {
  EXPECT_THROW(params_from_genome({1, 2, 3}), Error);
  EXPECT_THROW(params_from_genome({1, 2, 3, 4, 5, 6, 7}), Error);
}

TEST(ParameterSpace, SixthGeneDecodesPartialHeadSize) {
  const heur::InlineParams p = params_from_genome({23, 5, 5, 2048, 135, 12});
  EXPECT_EQ(p.hot_callee_max_size, 135);
  EXPECT_EQ(p.partial_max_head_size, 12);

  const ga::GenomeSpace s = inline_param_space(true, true);
  ASSERT_EQ(s.size(), 6u);
  EXPECT_EQ(s.gene(5).name, "PARTIAL_MAX_HEAD_SIZE");
  EXPECT_EQ(s.gene(5).lo, 0);

  heur::InlineParams q = heur::default_params();
  q.partial_max_head_size = 9;
  const ga::Genome g = genome_from_params(q, true, true);
  ASSERT_EQ(g.size(), 6u);
  EXPECT_EQ(params_from_genome(g), q);

  // Positional encoding: the partial gene cannot exist without the hot gene.
  EXPECT_THROW(inline_param_space(false, true), Error);
}

TEST(ParameterSpace, RangesMatchTable1) {
  const ga::GenomeSpace s = inline_param_space(true);
  EXPECT_EQ(s.gene(0).name, "CALLEE_MAX_SIZE");
  EXPECT_EQ(s.gene(0).hi, 50);
  EXPECT_EQ(s.gene(4).name, "HOT_CALLEE_MAX_SIZE");
  EXPECT_EQ(s.gene(4).hi, 400);
}

// --- fitness -----------------------------------------------------------------------

BenchmarkResult br(const std::string& name, std::uint64_t running, std::uint64_t total) {
  return BenchmarkResult{name, running, total, total - running};
}

TEST(Fitness, RunningAndTotalAreNormalizedRatios) {
  const BenchmarkResult dflt = br("x", 100, 200);
  EXPECT_DOUBLE_EQ(benchmark_metric(Goal::kRunning, br("x", 80, 300), dflt), 0.8);
  EXPECT_DOUBLE_EQ(benchmark_metric(Goal::kTotal, br("x", 500, 100), dflt), 0.5);
}

TEST(Fitness, BalanceMatchesPaperFormula) {
  // factor = Total_def / Running_def = 2; metric = (2*Running + Total) / (2*Total_def).
  const BenchmarkResult dflt = br("x", 100, 200);
  const BenchmarkResult cand = br("x", 90, 150);
  EXPECT_DOUBLE_EQ(benchmark_metric(Goal::kBalance, cand, dflt), (2.0 * 90 + 150) / 400.0);
}

TEST(Fitness, BalanceOfDefaultIsOne) {
  const BenchmarkResult dflt = br("x", 123, 456);
  EXPECT_DOUBLE_EQ(benchmark_metric(Goal::kBalance, dflt, dflt), 1.0);
}

TEST(Fitness, SuiteFitnessIsGeomean) {
  const std::vector<BenchmarkResult> dflt = {br("a", 100, 100), br("b", 100, 100)};
  const std::vector<BenchmarkResult> cand = {br("a", 50, 100), br("b", 200, 100)};
  EXPECT_DOUBLE_EQ(suite_fitness(Goal::kRunning, cand, dflt), 1.0);  // sqrt(0.5 * 2)
}

TEST(Fitness, MismatchedSuitesRejected) {
  const std::vector<BenchmarkResult> a = {br("a", 1, 1)};
  const std::vector<BenchmarkResult> b = {br("b", 1, 1)};
  EXPECT_THROW(suite_fitness(Goal::kRunning, a, b), Error);
}

TEST(Fitness, GoalNames) {
  EXPECT_STREQ(goal_name(Goal::kRunning), "running");
  EXPECT_STREQ(goal_name(Goal::kTotal), "total");
  EXPECT_STREQ(goal_name(Goal::kBalance), "balance");
}

// --- evaluator -----------------------------------------------------------------------

TEST(Evaluator, ProducesOneResultPerBenchmarkInOrder) {
  SuiteEvaluator eval(tiny_suite(), EvalConfig{});
  const auto& results = *eval.evaluate(heur::default_params());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "compress");
  EXPECT_EQ(results[1].name, "raytrace");
  EXPECT_GT(results[0].running_cycles, 0u);
  EXPECT_GE(results[0].total_cycles, results[0].running_cycles);
}

TEST(Evaluator, MemoizesByParams) {
  SuiteEvaluator eval(tiny_suite(), EvalConfig{});
  const auto first = eval.evaluate(heur::default_params());
  const auto again = eval.evaluate(heur::default_params());
  EXPECT_EQ(first.get(), again.get()) << "same params must return the cached vector";
  EXPECT_EQ(eval.cache_size(), 1u);
  heur::InlineParams other = heur::default_params();
  other.callee_max_size = 1;
  eval.evaluate(other);
  EXPECT_EQ(eval.cache_size(), 2u);
}

TEST(Evaluator, ScenarioConfigRespected) {
  EvalConfig cfg;
  cfg.scenario = vm::Scenario::kOpt;
  SuiteEvaluator opt_eval(tiny_suite(), cfg);
  cfg.scenario = vm::Scenario::kAdapt;
  SuiteEvaluator adapt_eval(tiny_suite(), cfg);
  const auto& opt = *opt_eval.evaluate(heur::default_params());
  const auto& adapt = *adapt_eval.evaluate(heur::default_params());
  EXPECT_NE(opt[0].total_cycles, adapt[0].total_cycles);
}

TEST(Evaluator, EmptySuiteRejected) {
  EXPECT_THROW(SuiteEvaluator({}, EvalConfig{}), Error);
}

TEST(Evaluator, HeuristicEvaluationNotMemoized) {
  SuiteEvaluator eval(tiny_suite(), EvalConfig{});
  const auto r = eval.evaluate_heuristic([] { return heur::make_never(); });
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(eval.cache_size(), 0u);
}

// --- report --------------------------------------------------------------------------

TEST(Report, RatiosAndAverages) {
  const std::vector<BenchmarkResult> base = {br("a", 100, 200), br("b", 100, 200)};
  const std::vector<BenchmarkResult> cand = {br("a", 50, 100), br("b", 150, 300)};
  const auto rows = compare_results(cand, base);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].running_ratio, 0.5);
  EXPECT_DOUBLE_EQ(rows[1].total_ratio, 1.5);
  const ComparisonRow avg = average_row(rows);
  EXPECT_DOUBLE_EQ(avg.running_ratio, 1.0);
  EXPECT_DOUBLE_EQ(avg.total_ratio, 1.0);
}

TEST(Report, TableContainsAverageRow) {
  const std::vector<BenchmarkResult> base = {br("a", 100, 200)};
  const std::vector<BenchmarkResult> cand = {br("a", 80, 160)};
  const std::string s = comparison_table(compare_results(cand, base)).to_string();
  EXPECT_NE(s.find("average"), std::string::npos);
  EXPECT_NE(s.find("+20.0%"), std::string::npos);
}

TEST(Report, ZeroBaselineRejected) {
  const std::vector<BenchmarkResult> base = {br("a", 0, 200)};
  const std::vector<BenchmarkResult> cand = {br("a", 80, 160)};
  EXPECT_THROW(compare_results(cand, base), Error);
}

// --- end-to-end tuning -----------------------------------------------------------------

TEST(Tune, BeatsOrMatchesDefaultOnTrainingSuite) {
  EvalConfig cfg;
  cfg.scenario = vm::Scenario::kOpt;
  SuiteEvaluator eval(tiny_suite(), cfg);
  ga::GaConfig ga_cfg = default_ga_config(/*generations=*/8, /*seed=*/42);
  ga_cfg.population = 10;
  const TuneResult r = tune(eval, Goal::kTotal, ga_cfg);
  EXPECT_LE(r.best_fitness, 1.0) << "the default genome is reachable, so tuned can't be worse";
  // The workloads are calibrated so the Jikes defaults are close to locally
  // optimal on SPEC-like hot paths (as in the paper); even a small GA budget
  // must still find *some* total-time headroom (compile-time waste).
  EXPECT_LT(r.best_fitness, 0.995);
}

TEST(Tune, OptScenarioSearchesFourGenes) {
  EvalConfig cfg;
  cfg.scenario = vm::Scenario::kOpt;
  SuiteEvaluator eval(tiny_suite(), cfg);
  ga::GaConfig ga_cfg = default_ga_config(2, 1);
  ga_cfg.population = 4;
  const TuneResult r = tune(eval, Goal::kTotal, ga_cfg);
  EXPECT_EQ(r.ga.best.size(), 4u);
}

TEST(Tune, AdaptScenarioSearchesFiveGenes) {
  EvalConfig cfg;
  cfg.scenario = vm::Scenario::kAdapt;
  SuiteEvaluator eval(tiny_suite(), cfg);
  ga::GaConfig ga_cfg = default_ga_config(2, 1);
  ga_cfg.population = 4;
  const TuneResult r = tune(eval, Goal::kBalance, ga_cfg);
  EXPECT_EQ(r.ga.best.size(), 5u);
}

TEST(Tune, SixGeneSearchMatchesOrBeatsTheFiveGeneWinner) {
  // The sixth dimension strictly widens the space: seeding the six-gene
  // population with the five-gene winner (extended by its own partial value)
  // guarantees the GA can only hold or improve the fitness — the acceptance
  // bar for partial inlining as a tunable dimension.
  EvalConfig cfg;
  cfg.scenario = vm::Scenario::kAdapt;
  SuiteEvaluator eval5(tiny_suite(), cfg);
  ga::GaConfig ga5 = default_ga_config(/*generations=*/3, /*seed=*/7);
  ga5.population = 6;
  const TuneResult five = tune(eval5, Goal::kTotal, ga5);
  ASSERT_EQ(five.ga.best.size(), 5u);

  SuiteEvaluator eval6(tiny_suite(), cfg);
  ga::GaConfig ga6 = default_ga_config(/*generations=*/3, /*seed=*/7);
  ga6.population = 6;
  ga6.seed_individuals = {genome_from_params(five.best, /*include_hot_gene=*/true,
                                             /*include_partial_gene=*/true)};
  const TuneResult six = tune(eval6, Goal::kTotal, ga6, {}, /*include_partial_gene=*/true);
  EXPECT_EQ(six.ga.best.size(), 6u);
  EXPECT_LE(six.best_fitness, five.best_fitness + 1e-12);
}

TEST(Tune, DefaultGaConfigMatchesPaperPopulation) {
  const ga::GaConfig cfg = default_ga_config(40, 1);
  EXPECT_EQ(cfg.population, 20);  // the paper's population size
  EXPECT_TRUE(cfg.memoize);
}

}  // namespace
}  // namespace ith::tuner
