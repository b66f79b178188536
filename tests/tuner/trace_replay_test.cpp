// Run-level replay: SuiteEvaluator keeps a decision trie of each
// benchmark's recorded runs and reuses a recorded result when the
// candidate's verdicts agree with every compile of that run. Every result
// must still equal a serial, uncached loop of guarded runs salted with the
// benchmark's own key, for the default params, the recorded Table 4
// genomes and seeded random genomes, on both suites and both scenarios,
// also while several threads share one evaluator. An armed fault plan
// turns replay off, and a trie that is asked to record two different runs
// down one path throws.
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common.hpp"
#include "heuristics/heuristic.hpp"
#include "heuristics/inline_params.hpp"
#include "resilience/fault.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tuner/decision_trie.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/parameter_space.hpp"
#include "tuner/serial_suite.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

using test::expect_same;
using test::key_salts;
using test::serial_suite;
using tuner::BenchmarkResult;
using tuner::WorkloadKey;

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

/// The default params, the five recorded Table 4 genomes and twelve seeded
/// random genomes of the scenario's search space (Adapt with the hot and
/// partial genes, Opt with neither).
std::vector<heur::InlineParams> genomes(vm::Scenario scenario) {
  std::vector<heur::InlineParams> out{heur::default_params()};
  for (const heur::InlineParams& p : bench::recorded_tuned_params()) out.push_back(p);
  const bool adapt = scenario == vm::Scenario::kAdapt;
  const ga::GenomeSpace space = tuner::inline_param_space(adapt, adapt);
  Pcg32 rng(2005);
  for (int i = 0; i < 12; ++i) out.push_back(tuner::params_from_genome(space.random(rng)));
  return out;
}

/// Every (benchmark, key) pair the suites of `params` cover.
std::set<std::pair<std::size_t, WorkloadKey>> key_pairs(
    tuner::SuiteEvaluator& eval, const std::vector<heur::InlineParams>& params) {
  std::set<std::pair<std::size_t, WorkloadKey>> pairs;
  for (const heur::InlineParams& p : params) {
    const std::vector<WorkloadKey> keys = eval.workload_keys(p);
    for (std::size_t i = 0; i < keys.size(); ++i) pairs.emplace(i, keys[i]);
  }
  return pairs;
}

class TraceReplay : public testing::TestWithParam<Case> {};

TEST_P(TraceReplay, EvaluateMatchesSerialKeySaltedRuns) {
  const Case& c = GetParam();
  const std::vector<wl::Workload> suite = wl::make_suite(c.suite);
  tuner::EvalConfig config;
  config.scenario = c.scenario;

  tuner::SuiteEvaluator eval(suite, config);
  const std::vector<heur::InlineParams> params = genomes(c.scenario);
  {
    heur::JikesHeuristic h(heur::default_params());
    expect_same(*eval.default_results(),
                serial_suite(suite, config, h, key_salts(eval, heur::default_params())));
  }
  for (const heur::InlineParams& p : params) {
    SCOPED_TRACE(p.to_string());
    heur::JikesHeuristic h(p);
    expect_same(*eval.evaluate(p), serial_suite(suite, config, h, key_salts(eval, p)));
  }
  if (c.scenario == vm::Scenario::kAdapt) {
    // Each distinct run key names one recorded run: it ran exactly once,
    // and every other suite that reached it walked there.
    EXPECT_EQ(eval.benchmark_runs(), key_pairs(eval, params).size());
    if (std::string(c.suite) == "specjvm98") {
      EXPECT_GT(eval.benchmark_replays(), 0u);
    }
  } else {
    // Each distinct (benchmark, key) pair ran or was replayed exactly once;
    // the store served every later suite that shared it.
    EXPECT_EQ(eval.benchmark_runs() + eval.benchmark_replays(), key_pairs(eval, params).size());
  }
}

TEST_P(TraceReplay, ThreeThreadsAgreeWithOneThread) {
  const Case& c = GetParam();
  const std::vector<wl::Workload> suite = wl::make_suite(c.suite);
  tuner::EvalConfig config;
  config.scenario = c.scenario;
  const std::vector<heur::InlineParams> params = genomes(c.scenario);

  tuner::SuiteEvaluator sequential(suite, config);
  std::vector<std::vector<BenchmarkResult>> want;
  for (const heur::InlineParams& p : params) want.push_back(*sequential.evaluate(p));

  tuner::SuiteEvaluator shared(suite, config);
  std::vector<std::vector<std::vector<BenchmarkResult>>> got(3);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the genomes from a different starting point, so
      // the threads record and replay in different orders.
      got[t].resize(params.size());
      for (std::size_t k = 0; k < params.size(); ++k) {
        const std::size_t i = (k + t * params.size() / 3) % params.size();
        got[t][i] = *shared.evaluate(params[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < got.size(); ++t) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + " " + params[i].to_string());
      expect_same(got[t][i], want[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SuitesAndScenarios, TraceReplay,
                         testing::Values(Case{"specjvm98", vm::Scenario::kAdapt},
                                         Case{"specjvm98", vm::Scenario::kOpt},
                                         Case{"dacapo+jbb", vm::Scenario::kAdapt},
                                         Case{"dacapo+jbb", vm::Scenario::kOpt}),
                         case_name);

TEST(TraceReplayFaults, ArmedPlanReplaysNothingAndMatchesSerialRuns) {
  const std::vector<wl::Workload> suite = wl::make_suite("specjvm98");
  resilience::FaultPlan plan;
  plan.seed = 11;
  plan.rate = 0.05;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kEvaluator) |
               resilience::FaultPlan::site_bit(resilience::FaultSite::kVmTrap);
  tuner::EvalConfig config;
  config.vm_config.faults = &plan;

  tuner::SuiteEvaluator eval(suite, config);
  // The default params share the fault-free baseline's key, so evaluate()
  // returns the baseline itself.
  EXPECT_EQ(eval.evaluate(heur::default_params()), eval.default_results());
  // The Table 4 genomes: without replay, a longer list would only add runs.
  const std::vector<heur::InlineParams> params = bench::recorded_tuned_params();
  for (const heur::InlineParams& p : params) {
    SCOPED_TRACE(p.to_string());
    heur::JikesHeuristic h(p);
    expect_same(*eval.evaluate(p), serial_suite(suite, config, h, key_salts(eval, p)));
  }
  EXPECT_EQ(eval.benchmark_replays(), 0u);
  EXPECT_GT(eval.benchmark_runs(), 0u);
}

vm::CompileEvent event(bc::MethodId method, std::vector<std::uint64_t> hot, std::string verdicts) {
  vm::CompileEvent e;
  e.method = method;
  e.tier = rt::Tier::kMidOpt;
  e.hot_sites = std::move(hot);
  e.verdicts = std::move(verdicts);
  return e;
}

BenchmarkResult result(std::uint64_t total_cycles) {
  BenchmarkResult r;
  r.name = "bench";
  r.running_cycles = total_cycles / 2;
  r.total_cycles = total_cycles;
  return r;
}

TEST(DecisionTrie, FindFollowsVerdictsToTheRecordedResult) {
  tuner::DecisionTrie trie;
  const auto verdicts_of = [](std::string first, std::string second) {
    return [first, second](bc::MethodId method, const std::vector<std::uint64_t>& hot) {
      const std::vector<std::uint64_t> want_hot =
          method == 1 ? std::vector<std::uint64_t>{7} : std::vector<std::uint64_t>{7, 9};
      EXPECT_EQ(hot, want_hot);
      return method == 1 ? first : second;
    };
  };
  EXPECT_EQ(trie.find(verdicts_of("a", "b")), nullptr);
  const tuner::CompileTrace ab{event(1, {7}, "a"), event(2, {7, 9}, "b")};
  const tuner::CompileTrace ac{event(1, {7}, "a"), event(2, {7, 9}, "c")};
  const tuner::DecisionTrie::Inserted first = trie.insert(ab, result(100));
  EXPECT_GT(first.bytes, 0u);
  const tuner::DecisionTrie::Inserted second = trie.insert(ac, result(200));
  EXPECT_GT(second.bytes, 0u);
  const tuner::DecisionTrie::Inserted again = trie.insert(ac, result(200));
  EXPECT_EQ(again.bytes, 0u);
  EXPECT_EQ(again.leaf, second.leaf);

  // A walk reaches the leaf a run recorded, and both name the run key of
  // the path: a content hash that any process computes alike.
  EXPECT_EQ(trie.find(verdicts_of("a", "b")), first.leaf);
  EXPECT_EQ(trie.find(verdicts_of("a", "b"))->result.total_cycles, 100u);
  EXPECT_EQ(trie.find(verdicts_of("a", "c"))->result.total_cycles, 200u);
  EXPECT_EQ(first.leaf->key, tuner::run_key(ab));
  EXPECT_EQ(second.leaf->key, tuner::run_key(ac));
  EXPECT_NE(first.leaf->key, second.leaf->key);
  EXPECT_EQ(trie.find(verdicts_of("a", "d")), nullptr);
  EXPECT_EQ(trie.find(verdicts_of("x", "b")), nullptr);
}

TEST(DecisionTrie, ConflictingInsertThrows) {
  tuner::DecisionTrie trie;
  trie.insert({event(1, {7}, "a"), event(2, {7, 9}, "b")}, result(100));
  const std::size_t bytes = trie.bytes();
  // The same path ending in another result.
  EXPECT_THROW(trie.insert({event(1, {7}, "a"), event(2, {7, 9}, "b")}, result(101)), Error);
  // The same verdicts followed by another method, another tier or another
  // hot set.
  EXPECT_THROW(trie.insert({event(1, {7}, "a"), event(3, {7, 9}, "b")}, result(100)), Error);
  vm::CompileEvent full = event(2, {7, 9}, "b");
  full.tier = rt::Tier::kOpt;
  EXPECT_THROW(trie.insert({event(1, {7}, "a"), full}, result(100)), Error);
  EXPECT_THROW(trie.insert({event(1, {7}, "a"), event(2, {9}, "b")}, result(100)), Error);
  // A run that stops where a recorded one compiles again, and one that
  // compiles again where a recorded one stopped.
  EXPECT_THROW(trie.insert({event(1, {7}, "a")}, result(100)), Error);
  EXPECT_THROW(trie.insert({event(1, {7}, "a"), event(2, {7, 9}, "b"), event(4, {}, "")},
                           result(100)),
               Error);
  EXPECT_EQ(trie.bytes(), bytes);
}

}  // namespace
}  // namespace ith
