// Per-benchmark results: SuiteEvaluator keys each benchmark's ok result by
// (benchmark, workload key) — a run key under Adapt, a probe value under
// Opt — so a new suite signature runs only the benchmarks whose keys no
// earlier suite reached, and an ITHEVC3 snapshot carries every resolved
// parameter vector's keys, so a restored evaluator never resolves again. Every result must still equal a serial, uncached
// loop of guarded runs salted with the benchmark's own key, whatever the
// evaluation order; failures are never reused, so quarantine and its
// release keep their suite meaning.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ga/ga.hpp"
#include "heuristics/heuristic.hpp"
#include "heuristics/inline_params.hpp"
#include "obs/context.hpp"
#include "resilience/fault.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/serial_suite.hpp"
#include "tuner/tuner.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

using test::expect_same;
using test::key_salts;
using test::serial_suite;
using tuner::BenchmarkResult;
using tuner::WorkloadKey;

using KeyPairs = std::set<std::pair<std::size_t, WorkloadKey>>;

/// Every (benchmark, key) pair the suites of `params` cover.
KeyPairs key_pairs(tuner::SuiteEvaluator& eval, const std::vector<heur::InlineParams>& params) {
  KeyPairs pairs;
  for (const heur::InlineParams& p : params) {
    const std::vector<WorkloadKey> keys = eval.workload_keys(p);
    for (std::size_t i = 0; i < keys.size(); ++i) pairs.emplace(i, keys[i]);
  }
  return pairs;
}

/// `n` parameter vectors with pairwise distinct suite signatures, each one
/// gene away from the defaults: a one-gene step changes the decisions in
/// some programs only, so the suites share most of their workload keys.
std::vector<heur::InlineParams> neighbour_params(tuner::SuiteEvaluator& eval, std::size_t n) {
  std::vector<heur::InlineParams> out{heur::default_params()};
  std::set<tuner::SuiteEvaluator::Signature> seen{eval.signature_of(out.front())};
  const heur::InlineParams::Array base = heur::default_params().to_array();
  const auto& ranges = heur::param_ranges();
  for (int step = 1; step <= 8 && out.size() < n; ++step) {
    for (std::size_t k = 0; k < 5 && out.size() < n; ++k) {
      for (const int sign : {-1, 1}) {
        heur::InlineParams::Array a = base;
        const int span = ranges[k].hi - ranges[k].lo;
        a[k] = std::clamp(base[k] + sign * step * std::max(1, span / 16), ranges[k].lo,
                          ranges[k].hi);
        const heur::InlineParams p = heur::InlineParams::from_array(a);
        if (out.size() < n && seen.insert(eval.signature_of(p)).second) out.push_back(p);
      }
    }
  }
  EXPECT_EQ(out.size(), n) << "too few distinct signatures";
  return out;
}

struct Case {
  const char* suite;
  vm::Scenario scenario;
};

std::string to_string(const Case& c) {
  std::string s = c.suite;
  for (char& ch : s) {
    if (ch == '+') ch = '_';
  }
  return s + (c.scenario == vm::Scenario::kAdapt ? "_adapt" : "_opt");
}

// Keeps the listed test names free of the suite name's pointer value.
void PrintTo(const Case& c, std::ostream* os) { *os << to_string(c); }

std::string case_name(const testing::TestParamInfo<Case>& info) { return to_string(info.param); }

class BenchStore : public testing::TestWithParam<Case> {};

TEST_P(BenchStore, SharedKeysRunOnceAndMatchSerialRuns) {
  const Case& c = GetParam();
  const std::vector<wl::Workload> suite = wl::make_suite(c.suite);
  tuner::EvalConfig config;
  config.scenario = c.scenario;

  tuner::SuiteEvaluator eval(suite, config);
  const std::vector<heur::InlineParams> params = neighbour_params(eval, 8);
  const KeyPairs pairs = key_pairs(eval, params);
  ASSERT_LT(pairs.size(), suite.size() * params.size()) << "the suites share no workload key";

  for (const heur::InlineParams& p : params) {
    SCOPED_TRACE(p.to_string());
    heur::JikesHeuristic h(p);
    expect_same(*eval.evaluate(p), serial_suite(suite, config, h, key_salts(eval, p)));
  }
  if (c.scenario == vm::Scenario::kAdapt) {
    // Each run key names one recorded run, which ran exactly once.
    EXPECT_EQ(eval.benchmark_runs(), pairs.size());
  } else {
    // Each distinct (benchmark, key) pair ran or was replayed exactly once.
    EXPECT_EQ(eval.benchmark_runs() + eval.benchmark_replays(), pairs.size());
  }
  EXPECT_LT(eval.benchmark_runs(), suite.size() * eval.evaluations_performed());
  EXPECT_LE(eval.evaluations_performed(), params.size());
}

INSTANTIATE_TEST_SUITE_P(SuitesAndScenarios, BenchStore,
                         testing::Values(Case{"specjvm98", vm::Scenario::kAdapt},
                                         Case{"specjvm98", vm::Scenario::kOpt},
                                         Case{"dacapo+jbb", vm::Scenario::kAdapt},
                                         Case{"dacapo+jbb", vm::Scenario::kOpt}),
                         case_name);

std::vector<wl::Workload> small_suite() {
  std::vector<wl::Workload> suite;
  suite.push_back(wl::make_workload("compress"));
  suite.push_back(wl::make_workload("db"));
  return suite;
}

ga::GaConfig small_ga_config() {
  ga::GaConfig config;
  config.population = 6;
  config.generations = 3;
  config.seed = 17;
  return config;
}

TEST(BenchStoreSnapshot, RestoredKeysEqualFreshProbesAndWarmTuneProbesNothing) {
  tuner::SuiteEvaluator cold(small_suite(), tuner::EvalConfig{});
  const tuner::TuneResult want = tuner::tune(cold, tuner::Goal::kTotal, small_ga_config());
  const tuner::EvalCacheSnapshot snap = cold.snapshot();
  ASSERT_EQ(snap.params.size(), cold.params_seen());

  obs::Context ctx(nullptr);
  tuner::EvalConfig traced;
  traced.obs = &ctx;
  tuner::SuiteEvaluator warm(small_suite(), traced);
  warm.restore(snap);
  EXPECT_EQ(ctx.counter("sig.restored").value(), snap.params.size());
  EXPECT_EQ(warm.params_seen(), snap.params.size());
  EXPECT_EQ(warm.signatures_seen(), cold.signatures_seen());

  tuner::SuiteEvaluator fresh(small_suite(), tuner::EvalConfig{});
  for (const tuner::EvalCacheSnapshot::ParamsKeys& row : snap.params) {
    const heur::InlineParams p = heur::InlineParams::from_array(row.params);
    SCOPED_TRACE(p.to_string());
    EXPECT_EQ(warm.signature_of(p), fresh.signature_of(p));
    EXPECT_EQ(warm.workload_keys(p), fresh.workload_keys(p));
  }

  const tuner::TuneResult got = tuner::tune(warm, tuner::Goal::kTotal, small_ga_config());
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.best_fitness, want.best_fitness);
  EXPECT_EQ(ctx.counter("sig.probes").value(), 0u);
  EXPECT_EQ(warm.evaluations_performed(), 0u);
  EXPECT_EQ(warm.benchmark_runs(), 0u);
}

TEST(BenchStoreSnapshot, RestoredResultsSeedTheStore) {
  // Two suites that share a key on one benchmark: after restoring only
  // the first suite's result, the second runs just its other benchmark.
  tuner::SuiteEvaluator probe(small_suite(), tuner::EvalConfig{});
  const std::vector<heur::InlineParams> params = neighbour_params(probe, 8);
  const heur::InlineParams& a = params[0];
  const std::vector<WorkloadKey> ka = probe.workload_keys(a);
  const heur::InlineParams* b = nullptr;
  for (const heur::InlineParams& p : params) {
    const std::vector<WorkloadKey> kp = probe.workload_keys(p);
    if ((kp[0] == ka[0]) != (kp[1] == ka[1])) b = &p;
  }
  ASSERT_NE(b, nullptr) << "no neighbour shares exactly one key with the defaults";

  tuner::SuiteEvaluator producer(small_suite(), tuner::EvalConfig{});
  producer.evaluate(a);
  tuner::SuiteEvaluator consumer(small_suite(), tuner::EvalConfig{});
  consumer.restore(producer.snapshot());
  const tuner::SuiteEvaluator::Results got = consumer.evaluate(*b);
  EXPECT_EQ(consumer.evaluations_performed(), 1u);
  EXPECT_EQ(consumer.benchmark_runs(), 1u);

  tuner::SuiteEvaluator reference(small_suite(), tuner::EvalConfig{});
  expect_same(*got, *reference.evaluate(*b));
}

TEST(BenchStoreSnapshot, FingerprintMismatchAppliesNothing) {
  tuner::SuiteEvaluator producer(small_suite(), tuner::EvalConfig{});
  producer.evaluate(heur::default_params());
  tuner::EvalCacheSnapshot snap = producer.snapshot();
  ASSERT_EQ(snap.params.size(), 1u);

  tuner::EvalConfig other_config;
  other_config.iterations = 3;
  tuner::SuiteEvaluator other(small_suite(), other_config);
  EXPECT_THROW(other.restore(snap), Error);
  EXPECT_EQ(other.params_seen(), 0u);
  EXPECT_EQ(other.cache_size(), 0u);

  // A matching fingerprint with a row that does not fit the suite is
  // refused just as whole.
  snap.params.front().keys.pop_back();
  tuner::SuiteEvaluator same(small_suite(), tuner::EvalConfig{});
  EXPECT_THROW(same.restore(snap), Error);
  EXPECT_EQ(same.params_seen(), 0u);
  EXPECT_EQ(same.cache_size(), 0u);
}

/// A fault plan over every simulated-program site, with the compile cap
/// chaos_tune derives so that inflated compiles trip and are retried.
struct ArmedConfig {
  resilience::FaultPlan plan;
  tuner::EvalConfig config;

  explicit ArmedConfig(const std::vector<wl::Workload>& suite) {
    tuner::SuiteEvaluator clean(suite, config);
    std::uint64_t worst = 1;
    for (const BenchmarkResult& r : *clean.default_results()) {
      worst = std::max(worst, r.compile_cycles);
    }
    plan.seed = 5;
    plan.rate = 0.3;
    plan.sites = resilience::FaultPlan::parse_sites("all");
    config.vm_config.budget.max_compile_cycles = 50 * worst;
    config.vm_config.faults = &plan;
  }
};

TEST(BenchStoreFaults, EvaluationOrderDoesNotChangeResults) {
  const std::vector<wl::Workload> suite = wl::make_suite("specjvm98");
  const ArmedConfig armed(suite);
  tuner::SuiteEvaluator probe(suite, tuner::EvalConfig{});
  const std::vector<heur::InlineParams> params = neighbour_params(probe, 3);
  const KeyPairs pairs = key_pairs(probe, params);
  ASSERT_LT(pairs.size(), suite.size() * params.size()) << "the suites share no workload key";

  tuner::SuiteEvaluator forward(suite, armed.config);
  tuner::SuiteEvaluator backward(suite, armed.config);
  std::vector<tuner::SuiteEvaluator::Results> got_forward;
  for (const heur::InlineParams& p : params) got_forward.push_back(forward.evaluate(p));
  std::vector<tuner::SuiteEvaluator::Results> got_backward(params.size());
  for (std::size_t i = params.size(); i-- > 0;) got_backward[i] = backward.evaluate(params[i]);

  int retried = 0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    SCOPED_TRACE(params[i].to_string());
    heur::JikesHeuristic h(params[i]);
    const std::vector<BenchmarkResult> want =
        serial_suite(suite, armed.config, h, key_salts(forward, params[i]));
    expect_same(*got_forward[i], want);
    expect_same(*got_backward[i], want);
    for (const BenchmarkResult& r : want) retried += r.attempts > 1 ? 1 : 0;
  }
  EXPECT_GT(retried, 0) << "the fault plan never made a benchmark retry";
}

TEST(BenchStoreFaults, ReleasedQuarantineRerunsOnlyTheFailedBenchmark) {
  const heur::InlineParams params = heur::default_params();
  tuner::EvalConfig config;
  config.max_retries = 0;
  // Under an armed plan every key derives from the parameter vector, so it
  // does not depend on the plan's seed.
  resilience::FaultPlan plan;
  plan.rate = 0.5;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kEvaluator);
  config.vm_config.faults = &plan;
  const std::vector<WorkloadKey> keys =
      tuner::SuiteEvaluator(small_suite(), config).workload_keys(params);
  const auto fault_key = [&](std::size_t i, const char* name) {
    return resilience::mix_keys(keys[i].salt(), resilience::mix_keys(codec::fnv1a(name), 0));
  };

  // A plan under which compress's only attempt faults and db's does not.
  for (plan.seed = 1; plan.seed < 10000; ++plan.seed) {
    if (plan.should_inject(resilience::FaultSite::kEvaluator, fault_key(0, "compress")) &&
        !plan.should_inject(resilience::FaultSite::kEvaluator, fault_key(1, "db"))) {
      break;
    }
  }
  ASSERT_LT(plan.seed, 10000u) << "no seed found (key derivation changed?)";

  tuner::SuiteEvaluator eval(small_suite(), config);
  const tuner::SuiteEvaluator::Results first = eval.evaluate(params);
  EXPECT_FALSE((*first)[0].outcome.ok());
  EXPECT_TRUE((*first)[1].outcome.ok());
  const tuner::SuiteEvaluator::Signature sig = eval.signature_of(params);
  ASSERT_TRUE(eval.is_quarantined(sig));
  EXPECT_EQ(eval.benchmark_runs(), 2u);

  // Quarantined: a second evaluate is the cached penalty, no run.
  eval.evaluate(params);
  EXPECT_EQ(eval.evaluations_performed(), 1u);

  // Released: the suite is evaluated again, and only the benchmark that
  // failed runs; the ok one comes from the store.
  ASSERT_TRUE(eval.release_quarantine(sig));
  const tuner::SuiteEvaluator::Results second = eval.evaluate(params);
  EXPECT_EQ(eval.evaluations_performed(), 2u);
  EXPECT_EQ(eval.benchmark_runs(), 3u);
  expect_same(*second, *first);  // the fault draw is a pure hash of the key
  EXPECT_TRUE(eval.is_quarantined(sig));
}

}  // namespace
}  // namespace ith
