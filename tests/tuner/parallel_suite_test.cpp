// Parallel suite runs: SuiteEvaluator runs a suite's benchmarks concurrently
// on the shared pool, longest first, and every result must be bit-identical
// to running the same benchmarks one after another on one thread. The
// reference here is a serial loop of resilience::guarded_run with the
// evaluator's documented fault keys and retry rule.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "heuristics/heuristic.hpp"
#include "heuristics/inline_params.hpp"
#include "heuristics/knapsack.hpp"
#include "resilience/fault.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/serial_suite.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

using test::expect_same;
using test::serial_suite;
using tuner::BenchmarkResult;

std::vector<heur::InlineParams> param_vectors() {
  heur::InlineParams none = heur::default_params();
  none.callee_max_size = 0;
  none.always_inline_size = 0;
  heur::InlineParams wide = heur::default_params();
  wide.callee_max_size = 200;
  wide.max_inline_depth = 8;
  wide.caller_max_size = 4000;
  wide.hot_callee_max_size = 400;
  return {heur::default_params(), none, wide};
}

struct Case {
  const char* suite;
  vm::Scenario scenario;
  bool faults;
};

std::string to_string(const Case& c) {
  std::string s = c.suite;
  for (char& ch : s) {
    if (ch == '+') ch = '_';
  }
  return s + (c.scenario == vm::Scenario::kAdapt ? "_adapt" : "_opt") + (c.faults ? "_faults" : "");
}

// Keeps the listed test names free of the suite name's pointer value.
void PrintTo(const Case& c, std::ostream* os) { *os << to_string(c); }

std::string case_name(const testing::TestParamInfo<Case>& info) { return to_string(info.param); }

class ParallelSuite : public testing::TestWithParam<Case> {};

TEST_P(ParallelSuite, EvaluateMatchesSerialGuardedRuns) {
  const Case& c = GetParam();
  const std::vector<wl::Workload> suite = wl::make_suite(c.suite);
  tuner::EvalConfig config;
  config.scenario = c.scenario;

  resilience::FaultPlan plan;
  if (c.faults) {
    // Every simulated-program site, compile inflation included, with a
    // compile cap that passes every honest compile (as chaos_tune derives
    // it) so an inflated one trips and is retried.
    tuner::SuiteEvaluator clean(suite, config);
    std::uint64_t worst = 1;
    for (const BenchmarkResult& r : *clean.default_results()) {
      worst = std::max(worst, r.compile_cycles);
    }
    plan.seed = 11;
    plan.rate = 0.2;
    plan.sites = resilience::FaultPlan::parse_sites("all");
    config.vm_config.budget.max_compile_cycles = 50 * worst;
    config.vm_config.faults = &plan;
  }

  tuner::SuiteEvaluator eval(suite, config);
  int retried = 0;
  for (const heur::InlineParams& params : param_vectors()) {
    SCOPED_TRACE(params.to_string());
    const tuner::SuiteEvaluator::Results got = eval.evaluate(params);
    heur::JikesHeuristic h(params);
    const std::vector<BenchmarkResult> want =
        serial_suite(suite, config, h, eval.signature_of(params));
    expect_same(*got, want);
    bool failed = false;
    for (const BenchmarkResult& r : want) {
      retried += r.attempts > 1 ? 1 : 0;
      failed = failed || !r.outcome.ok();
    }
    EXPECT_EQ(eval.is_quarantined(eval.signature_of(params)), failed);
  }
  if (c.faults) {
    EXPECT_GT(retried, 0) << "the fault plan never made a benchmark retry";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SuitesAndScenarios, ParallelSuite,
    testing::Values(Case{"specjvm98", vm::Scenario::kAdapt, false},
                    Case{"specjvm98", vm::Scenario::kOpt, false},
                    Case{"dacapo+jbb", vm::Scenario::kAdapt, false},
                    Case{"dacapo+jbb", vm::Scenario::kOpt, false},
                    Case{"specjvm98", vm::Scenario::kAdapt, true},
                    Case{"specjvm98", vm::Scenario::kOpt, true},
                    Case{"dacapo+jbb", vm::Scenario::kAdapt, true},
                    Case{"dacapo+jbb", vm::Scenario::kOpt, true}),
    case_name);

TEST(ParallelSuiteHeuristic, KnapsackFactoryMatchesSerialRuns) {
  // The knapsack oracle rewrites its selection in prepare(), once per
  // program: concurrent benchmark runs each need their own instance.
  const std::vector<wl::Workload> suite = wl::make_suite("specjvm98");
  tuner::EvalConfig config;
  config.scenario = vm::Scenario::kOpt;
  tuner::SuiteEvaluator eval(suite, config);
  const std::vector<BenchmarkResult> got =
      eval.evaluate_heuristic([] { return std::make_unique<heur::KnapsackHeuristic>(0.05); });
  heur::KnapsackHeuristic serial(0.05);
  expect_same(got, serial_suite(suite, config, serial, /*salt=*/0));
}

TEST(ParallelSuiteHeuristic, ConcurrentEvaluateMatchesSequentialCalls) {
  const std::vector<wl::Workload> suite = wl::make_suite("specjvm98");
  std::vector<heur::InlineParams> params = param_vectors();
  heur::InlineParams shallow = heur::default_params();
  shallow.max_inline_depth = 1;
  params.push_back(shallow);

  tuner::SuiteEvaluator sequential(suite, tuner::EvalConfig{});
  std::vector<std::vector<BenchmarkResult>> want;
  for (const heur::InlineParams& p : params) want.push_back(*sequential.evaluate(p));

  tuner::SuiteEvaluator shared(suite, tuner::EvalConfig{});
  std::vector<tuner::SuiteEvaluator::Results> got(params.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < params.size(); ++t) {
    threads.emplace_back([&, t] { got[t] = shared.evaluate(params[t]); });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < params.size(); ++t) {
    SCOPED_TRACE(params[t].to_string());
    expect_same(*got[t], want[t]);
  }
}

}  // namespace
}  // namespace ith
