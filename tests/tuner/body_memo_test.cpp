// The evaluator's memo of optimized bodies: every VM a SuiteEvaluator starts
// shares one opt::BodyMemo, and a memo hit must install exactly what the
// passes would have built. So evaluate() over many distinct decision
// signatures must equal, field by field, a serial guarded_run loop whose VMs
// have no memo — with the memo actually hitting, with a budget small enough
// to evict, and with four threads sharing one evaluator. A whole cold Opt
// tune must fit the default budget, so that it compiles each body once.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "heuristics/heuristic.hpp"
#include "heuristics/inline_params.hpp"
#include "obs/context.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/parameter_space.hpp"
#include "tuner/serial_suite.hpp"
#include "tuner/tuner.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

using test::expect_same;
using test::serial_suite;
using tuner::BenchmarkResult;

constexpr std::size_t kParams = 8;

/// `n` parameter vectors with pairwise distinct decision signatures under
/// `eval`, drawn from a fixed-seed walk over the five tuned genes.
std::vector<heur::InlineParams> distinct_signature_params(tuner::SuiteEvaluator& eval,
                                                          std::size_t n) {
  std::vector<heur::InlineParams> out{heur::default_params()};
  std::set<tuner::SuiteEvaluator::Signature> seen{eval.signature_of(out.front())};
  std::mt19937_64 rng(20261017);
  const auto& ranges = heur::param_ranges();
  for (int tries = 0; out.size() < n && tries < 1000; ++tries) {
    heur::InlineParams::Array a{};
    for (std::size_t k = 0; k < a.size(); ++k) {
      std::uniform_int_distribution<int> dist(ranges[k].lo, ranges[k].hi);
      a[k] = dist(rng);
    }
    a[5] = 0;  // partial inlining off, as in the paper's five-gene genome
    const heur::InlineParams p = heur::InlineParams::from_array(a);
    if (seen.insert(eval.signature_of(p)).second) out.push_back(p);
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

class MemoizedSuite : public testing::TestWithParam<Case> {};

TEST_P(MemoizedSuite, EvaluateMatchesSerialRunsWithoutMemo) {
  const Case& c = GetParam();
  const std::vector<wl::Workload> suite = wl::make_suite(c.suite);
  tuner::EvalConfig config;
  config.scenario = c.scenario;

  // The serial reference runs once; workload keys (the fault salts) depend
  // on the configuration only, so every evaluator below shares them.
  tuner::SuiteEvaluator reference(suite, config);
  const std::vector<heur::InlineParams> params = distinct_signature_params(reference, kParams);
  std::vector<std::vector<BenchmarkResult>> want;
  std::set<std::pair<std::size_t, tuner::WorkloadKey>> distinct_runs;
  for (const heur::InlineParams& p : params) {
    heur::JikesHeuristic h(p);
    want.push_back(serial_suite(suite, config, h, test::key_salts(reference, p)));
    const std::vector<tuner::WorkloadKey> keys = reference.workload_keys(p);
    for (std::size_t i = 0; i < keys.size(); ++i) distinct_runs.emplace(i, keys[i]);
  }

  // The default budget, then one of 32 KiB: a few dozen bodies, so
  // inserts evict (and a suite run larger than the memo may never hit).
  for (const std::size_t budget : {opt::BodyMemo::kBudgetBytes, std::size_t{32} << 10}) {
    SCOPED_TRACE("memo budget " + std::to_string(budget));
    obs::Context ctx(nullptr);
    tuner::EvalConfig traced = config;
    traced.obs = &ctx;
    tuner::SuiteEvaluator eval(suite, traced, budget);
    for (std::size_t i = 0; i < params.size(); ++i) {
      SCOPED_TRACE(params[i].to_string());
      expect_same(*eval.evaluate(params[i]), want[i]);
    }
    // Distinct signatures, but a suite whose every benchmark key an
    // earlier suite already ran is assembled from the per-benchmark store.
    EXPECT_LE(eval.evaluations_performed(), kParams);
    if (c.scenario == vm::Scenario::kAdapt) {
      // Each run key names one recorded run, which ran once.
      EXPECT_EQ(eval.benchmark_runs(), distinct_runs.size());
    } else {
      EXPECT_EQ(eval.benchmark_runs() + eval.benchmark_replays(), distinct_runs.size());
    }
    EXPECT_GT(ctx.counter("opt.memo_misses").value(), 0u);
    if (budget == opt::BodyMemo::kBudgetBytes) {
      EXPECT_GT(ctx.counter("opt.memo_hits").value(), 0u);
    } else {
      EXPECT_GT(ctx.counter("opt.memo_evictions").value(), 0u);
    }
  }
}

std::string case_name(const testing::TestParamInfo<Case>& info) { return to_string(info.param); }

INSTANTIATE_TEST_SUITE_P(SuitesAndScenarios, MemoizedSuite,
                         testing::Values(Case{"specjvm98", vm::Scenario::kAdapt},
                                         Case{"specjvm98", vm::Scenario::kOpt},
                                         Case{"dacapo+jbb", vm::Scenario::kAdapt},
                                         Case{"dacapo+jbb", vm::Scenario::kOpt}),
                         case_name);

TEST(MemoizedSuiteThreads, FourThreadsMatchSequentialCalls) {
  const std::vector<wl::Workload> suite = wl::make_suite("dacapo+jbb");
  tuner::EvalConfig config;
  config.scenario = vm::Scenario::kOpt;

  tuner::SuiteEvaluator sequential(suite, config);
  const std::vector<heur::InlineParams> params = distinct_signature_params(sequential, kParams);
  std::vector<std::vector<BenchmarkResult>> want;
  for (const heur::InlineParams& p : params) want.push_back(*sequential.evaluate(p));

  // Each thread walks every params vector from its own starting point, so
  // the threads compile, hit and evict against one memo at the same time.
  tuner::SuiteEvaluator shared(suite, config);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<tuner::SuiteEvaluator::Results>> got(
      kThreads, std::vector<tuner::SuiteEvaluator::Results>(params.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < params.size(); ++k) {
        const std::size_t i = (k + 2 * t) % params.size();
        got[t][i] = shared.evaluate(params[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + " " + params[i].to_string());
      expect_same(*got[t][i], want[i]);
    }
  }
}

TEST(MemoizedSuiteBudget, ColdOptTuneCompilesEachBodyOnce) {
  // The benchmark's tune_opt campaign: 24 generations of dacapo+jbb under
  // Opt, the default parameters seeded into the first population. Its
  // bodies fit the default budget, so no entry is evicted and every miss
  // stays in the memo: each distinct body is compiled once. A change that
  // makes entries larger shows here first.
  const std::vector<wl::Workload> suite = wl::make_suite("dacapo+jbb");
  obs::Context ctx(nullptr);
  tuner::EvalConfig config;
  config.scenario = vm::Scenario::kOpt;
  config.obs = &ctx;
  tuner::SuiteEvaluator eval(suite, config);
  ga::GaConfig ga_cfg = tuner::default_ga_config(24, 42);
  ga_cfg.seed_individuals.push_back(tuner::genome_from_params(heur::default_params(), false));
  tuner::tune(eval, tuner::Goal::kTotal, ga_cfg);

  const opt::BodyMemo::Stats s = eval.memo_stats();
  EXPECT_EQ(ctx.counter("opt.memo_evictions").value(), 0u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(ctx.counter("opt.memo_misses").value(), s.entries);
  EXPECT_EQ(s.misses, s.entries);
  EXPECT_GT(s.hits, s.misses);
  EXPECT_LE(s.bytes, opt::BodyMemo::kBudgetBytes / 2);
}

}  // namespace
}  // namespace ith
