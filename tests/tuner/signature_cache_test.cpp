// Two-level signature cache, end to end: a warm tuning run restored from a
// cold run's snapshot must reproduce the identical winner without a single
// real suite execution, aliased parameter vectors must share one cache slot
// (and one quarantine verdict), and the collapse statistics must add up.
#include <vector>

#include <gtest/gtest.h>

#include "ga/ga.hpp"
#include "heuristics/inline_params.hpp"
#include "resilience/fault.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/tuner.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

tuner::SuiteEvaluator make_evaluator(const resilience::FaultPlan* plan = nullptr,
                                     vm::Scenario scenario = vm::Scenario::kAdapt) {
  std::vector<wl::Workload> suite;
  suite.push_back(wl::make_workload("db"));
  tuner::EvalConfig config;
  config.scenario = scenario;
  config.iterations = 2;
  config.max_retries = 1;
  config.vm_config.faults = plan;
  return tuner::SuiteEvaluator(std::move(suite), config);
}

ga::GaConfig small_ga_config() {
  ga::GaConfig config;
  config.population = 6;
  config.generations = 3;
  config.seed = 21;
  return config;
}

// The property the persistent cache exists for: restore a cold run's
// snapshot into a fresh evaluator, re-run the same tune, and the GA must
// land on the bit-identical winner while the evaluator performs *zero* real
// suite executions — every signature it asks for is already cached
// (including the default-params baseline the fitness normalizes against).
TEST(SignatureCache, WarmTuneMatchesColdWithZeroRealEvaluations) {
  const ga::GaConfig config = small_ga_config();

  tuner::SuiteEvaluator cold = make_evaluator();
  const tuner::TuneResult want = tuner::tune(cold, tuner::Goal::kTotal, config, {});
  ASSERT_GT(cold.evaluations_performed(), 0u);

  tuner::SuiteEvaluator warm = make_evaluator();
  warm.restore(cold.snapshot());
  const tuner::TuneResult got = tuner::tune(warm, tuner::Goal::kTotal, config, {});

  EXPECT_EQ(warm.evaluations_performed(), 0u);
  EXPECT_EQ(got.best.to_array(), want.best.to_array());
  EXPECT_EQ(got.best_fitness, want.best_fitness);
  EXPECT_EQ(got.ga.best, want.ga.best);
  ASSERT_EQ(got.ga.history.size(), want.ga.history.size());
  for (std::size_t i = 0; i < want.ga.history.size(); ++i) {
    EXPECT_EQ(got.ga.history[i].best, want.ga.history[i].best);
    EXPECT_EQ(got.ga.history[i].best_genome, want.ga.history[i].best_genome);
  }

  // Collapse bookkeeping: the GA probed at least as many param vectors as
  // there are signatures, and every distinct signature got exactly one run.
  EXPECT_GE(cold.params_seen(), cold.signatures_seen());
  EXPECT_EQ(cold.evaluations_performed(), cold.cache_size());
}

// Regression for quarantine keyed on raw params: two aliased genomes whose
// shared signature fails persistently must produce ONE quarantine entry,
// and the second genome must short-circuit to the penalized verdict without
// ever re-running the failing suite. Under an armed plan only Opt's probe
// keys alias (Adapt's keys then derive from the parameter vector, and a
// failed run is never recorded), so the campaign runs under Opt.
TEST(SignatureCache, AliasedFailingParamsShareOneQuarantineEntry) {
  heur::InlineParams a = heur::default_params();
  heur::InlineParams b = a;
  b.max_inline_depth += 1;  // deeper than db's call graph: decisions unchanged

  // The alias must actually hold or this test degenerates; assert it with a
  // fault-free evaluator (the probe ignores the fault plan).
  {
    tuner::SuiteEvaluator probe = make_evaluator(nullptr, vm::Scenario::kOpt);
    ASSERT_EQ(probe.signature_of(a), probe.signature_of(b));
  }

  resilience::FaultPlan plan;
  plan.rate = 1.0;  // every attempt faults — the signature is doomed
  plan.seed = 1;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kEvaluator);
  tuner::SuiteEvaluator eval = make_evaluator(&plan, vm::Scenario::kOpt);

  const tuner::SuiteEvaluator::Results first = eval.evaluate(a);
  EXPECT_FALSE((*first)[0].outcome.ok());
  EXPECT_GT((*first)[0].attempts, 0);
  ASSERT_EQ(eval.quarantined_keys().size(), 1u);
  EXPECT_EQ(eval.evaluations_performed(), 1u);

  // The aliased genome hits the cached penalized result — same pointer, no
  // new run, still exactly one quarantine entry.
  const tuner::SuiteEvaluator::Results second = eval.evaluate(b);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(eval.evaluations_performed(), 1u);
  EXPECT_EQ(eval.quarantined_keys().size(), 1u);

  // And a fresh evaluator that only preloads the quarantine (the resume
  // path) short-circuits genome b without ever having seen genome a.
  tuner::SuiteEvaluator resumed = make_evaluator(&plan, vm::Scenario::kOpt);
  resumed.preload_quarantine(eval.quarantined_keys());
  const tuner::SuiteEvaluator::Results shortcut = resumed.evaluate(b);
  EXPECT_EQ((*shortcut)[0].attempts, 0);
  EXPECT_EQ((*shortcut)[0].outcome.detail, "quarantined");
  EXPECT_EQ(resumed.evaluations_performed(), 0u);
}

// The quarantine snapshot/restore path used by GA checkpoints widens each
// 64-bit signature into two ints; entries with any other arity come from
// pre-signature checkpoints and must be dropped, not misread.
TEST(SignatureCache, PreloadIgnoresForeignQuarantineArity) {
  tuner::SuiteEvaluator eval = make_evaluator();
  eval.preload_quarantine({{1, 2, 3, 4, 5}, {7}, {}});  // old param-keyed shapes
  EXPECT_TRUE(eval.quarantined_keys().empty());

  const std::uint64_t sig = 0xdeadbeefcafef00dULL;
  const std::vector<int> widened = {static_cast<int>(static_cast<std::uint32_t>(sig)),
                                    static_cast<int>(static_cast<std::uint32_t>(sig >> 32))};
  eval.preload_quarantine({widened});
  const auto keys = eval.quarantined_keys();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], widened);
}

}  // namespace
}  // namespace ith
