// SuiteEvaluator cache single-flighting: concurrent GA threads asking for
// the same uncached InlineParams must trigger exactly one full-suite
// evaluation — the rest block and share the cached result. Concurrent first
// probes must also agree while racing to build the evaluator's lazy probe
// facts.
#include <cstddef>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "heuristics/inline_params.hpp"
#include "obs/context.hpp"
#include "obs/sink.hpp"
#include "support/error.hpp"
#include "tuner/evaluator.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

tuner::SuiteEvaluator make_small_evaluator() {
  std::vector<wl::Workload> suite;
  suite.push_back(wl::make_workload("db"));
  tuner::EvalConfig config;
  config.iterations = 2;
  return tuner::SuiteEvaluator(std::move(suite), config);
}

TEST(SuiteEvaluatorSingleFlight, ConcurrentSameKeyEvaluatesOnce) {
  tuner::SuiteEvaluator eval = make_small_evaluator();
  const heur::InlineParams params = heur::default_params();
  constexpr int kThreads = 8;
  std::vector<tuner::SuiteEvaluator::Results> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[static_cast<std::size_t>(t)] = eval.evaluate(params); });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(eval.evaluations_performed(), 1u);
  EXPECT_EQ(eval.cache_size(), 1u);
  for (int t = 1; t < kThreads; ++t) {
    // Memoized: every caller shares ownership of the same cached vector.
    EXPECT_EQ(results[static_cast<std::size_t>(t)].get(), results[0].get());
  }
  ASSERT_NE(results[0], nullptr);
  EXPECT_EQ((*results[0])[0].name, "db");

  // A later call is a pure cache hit.
  eval.evaluate(params);
  EXPECT_EQ(eval.evaluations_performed(), 1u);
}

TEST(SuiteEvaluatorSingleFlight, DistinctSignaturesEvaluateIndependently) {
  tuner::SuiteEvaluator eval = make_small_evaluator();
  heur::InlineParams a = heur::default_params();
  heur::InlineParams b = heur::default_params();
  // Params that imply different inline decisions (refuse everything) — a
  // mere numeric tweak would collapse onto a's decision signature and share
  // its cache slot.
  b.callee_max_size = 0;
  b.always_inline_size = 0;
  ASSERT_NE(eval.signature_of(a), eval.signature_of(b));
  std::thread ta([&] { eval.evaluate(a); });
  std::thread tb([&] { eval.evaluate(b); });
  ta.join();
  tb.join();
  EXPECT_EQ(eval.evaluations_performed(), 2u);
  EXPECT_EQ(eval.cache_size(), 2u);
}

TEST(SuiteEvaluatorSingleFlight, AliasedParamsCollapseOntoOneEvaluation) {
  tuner::SuiteEvaluator eval = make_small_evaluator();
  heur::InlineParams a = heur::default_params();
  heur::InlineParams b = heur::default_params();
  // Raising a cap that is not the binding constraint changes no decision, so
  // both params map to one signature and the second call is a pure hit.
  b.max_inline_depth += 1;
  ASSERT_EQ(eval.signature_of(a), eval.signature_of(b));
  const tuner::SuiteEvaluator::Results ra = eval.evaluate(a);
  const tuner::SuiteEvaluator::Results rb = eval.evaluate(b);
  EXPECT_EQ(ra.get(), rb.get());  // pointer-identical shared results
  EXPECT_EQ(eval.evaluations_performed(), 1u);
  EXPECT_EQ(eval.cache_size(), 1u);
  EXPECT_EQ(eval.params_seen(), 2u);
  EXPECT_EQ(eval.signatures_seen(), 1u);
}

TEST(SuiteEvaluatorSingleFlight, ConcurrentFirstProbesMatchSingleThreaded) {
  const auto make = [] {
    tuner::EvalConfig config;
    config.iterations = 1;
    return tuner::SuiteEvaluator(wl::make_suite("specjvm98"), config);
  };
  // Distinct vectors, some of which collapse onto one signature (a deeper
  // depth cap that never binds, a partial budget without an opportunity).
  std::vector<heur::InlineParams> params;
  for (const heur::InlineParams::Array& a : std::vector<heur::InlineParams::Array>{
           {23, 11, 5, 2048, 135, 0}, {23, 11, 6, 2048, 135, 0}, {23, 11, 5, 2048, 135, 12},
           {1, 1, 1, 1, 1, 0},        {1, 1, 1, 1, 1, 1},        {30, 14, 6, 1200, 200, 0},
           {30, 14, 6, 1200, 200, 18}, {15, 10, 2, 800, 90, 9},  {20, 5, 4, 1500, 15, 40},
           {50, 30, 15, 4000, 400, 40}}) {
    params.push_back(heur::InlineParams::from_array(a));
  }

  tuner::SuiteEvaluator reference = make();
  std::vector<tuner::SuiteEvaluator::Signature> expected;
  for (const heur::InlineParams& p : params) expected.push_back(reference.signature_of(p));

  // Four threads, released together so their first probes race on the lazy
  // facts; each walks an overlapping window of the vectors in its own order.
  tuner::SuiteEvaluator eval = make();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kWindow = 6;
  std::vector<std::vector<tuner::SuiteEvaluator::Signature>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t k = 0; k < kWindow; ++k) {
        const std::size_t i = (2 * t + (t % 2 == 0 ? k : kWindow - 1 - k)) % params.size();
        got[t].push_back(eval.signature_of(params[i]));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < kWindow; ++k) {
      const std::size_t i = (2 * t + (t % 2 == 0 ? k : kWindow - 1 - k)) % params.size();
      EXPECT_EQ(got[t][k], expected[i]) << "thread " << t << ", params #" << i;
    }
  }
  EXPECT_EQ(eval.params_seen(), reference.params_seen());
  EXPECT_EQ(eval.signatures_seen(), reference.signatures_seen());
  EXPECT_LT(reference.signatures_seen(), reference.params_seen());  // the set does collapse
}

// Benchmark failures are guarded now (they become penalized results, not
// exceptions), so the remaining way an exception can escape evaluate() while
// the key is in flight is the observability path itself — e.g. a trace sink
// whose disk is gone. That exit must release the in-flight key too, or
// every later caller of the same params deadlocks on a result that will
// never arrive.
class ThrowOnceSink final : public obs::TraceSink {
 public:
  void write(const obs::Event&) override {
    if (armed_) {
      armed_ = false;
      throw Error("trace disk vanished");
    }
  }

 private:
  bool armed_ = true;
};

TEST(SuiteEvaluatorSingleFlight, ExceptionReleasesInFlightKey) {
  ThrowOnceSink sink;
  obs::Context ctx(&sink);
  std::vector<wl::Workload> suite;
  suite.push_back(wl::make_workload("db"));
  tuner::EvalConfig config;
  config.iterations = 1;
  config.obs = &ctx;
  tuner::SuiteEvaluator eval(std::move(suite), config);
  const heur::InlineParams params = heur::default_params();
  EXPECT_THROW(eval.evaluate(params), Error);  // sink throws mid-evaluation
  EXPECT_EQ(eval.cache_size(), 0u);

  // The key was released, so the next caller simply becomes the new owner
  // and (with the sink now quiet) completes and caches the result.
  const tuner::SuiteEvaluator::Results results = eval.evaluate(params);
  ASSERT_NE(results, nullptr);
  EXPECT_TRUE((*results)[0].outcome.ok());
  EXPECT_EQ(eval.cache_size(), 1u);
}

}  // namespace
}  // namespace ith
