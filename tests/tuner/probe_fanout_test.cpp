// The level-1 fan-out: SuiteEvaluator resolves a suite's workloads at once
// on the shared pool, and every key and suite signature must equal a serial
// reference in suite order — under Opt a loop of opt::decision_signature,
// under Adapt the run key (tuner::run_key) of a plain VM run of each
// benchmark, so a walk's key and a run's key agree — for the default
// params, the recorded Table 4 genomes and seeded random genomes, on both
// suites and both scenarios, also while several threads resolve through
// one evaluator. A one-workload suite resolves on the caller and never
// starts the shared pool; a resolution issued from inside a pool task
// completes.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common.hpp"
#include "heuristics/inline_params.hpp"
#include "opt/decision_probe.hpp"
#include "resilience/fault.hpp"
#include "support/codec.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "heuristics/heuristic.hpp"
#include "opt/body_memo.hpp"
#include "tuner/decision_trie.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/parameter_space.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

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

/// The default params, the five recorded Table 4 genomes and ten seeded
/// random genomes of the scenario's search space (Adapt with the hot and
/// partial genes, Opt with neither).
std::vector<heur::InlineParams> genomes(vm::Scenario scenario) {
  std::vector<heur::InlineParams> out{heur::default_params()};
  for (const heur::InlineParams& p : bench::recorded_tuned_params()) out.push_back(p);
  const bool adapt = scenario == vm::Scenario::kAdapt;
  const ga::GenomeSpace space = tuner::inline_param_space(adapt, adapt);
  Pcg32 rng(2005);
  for (int i = 0; i < 10; ++i) out.push_back(tuner::params_from_genome(space.random(rng)));
  return out;
}

tuner::EvalConfig config_for(vm::Scenario scenario) {
  tuner::EvalConfig config;
  config.scenario = scenario;
  return config;
}

/// The serial reference: one key per workload in suite order on this
/// thread, and the suite signature mixed from them. Under Opt a decision
/// walk over facts built here; under Adapt a VM run (with a body memo of
/// its own, so the VM records its compile trace) and that trace's run key.
struct SerialProbe {
  std::vector<WorkloadKey> keys;
  tuner::SuiteEvaluator::Signature sig = 0;
};

std::vector<const bc::Program*> programs_of(const std::vector<wl::Workload>& suite) {
  std::vector<const bc::Program*> out;
  for (const wl::Workload& w : suite) out.push_back(&w.program);
  return out;
}

class SerialProber {
 public:
  SerialProber(const std::vector<wl::Workload>& suite, const tuner::EvalConfig& config)
      : suite_(suite),
        config_(config),
        memo_(programs_of(suite), config.vm_config.effective_pipeline(),
              config.vm_config.inline_limits, nullptr, opt::BodyMemo::kBudgetBytes) {
    opts_.adaptive = false;
    for (const wl::Workload& w : suite_) facts_.emplace_back(w.program);
  }

  SerialProbe probe(const heur::InlineParams& params) {
    SerialProbe out;
    out.sig = codec::fnv1a("ith-suite-signature-v1");
    for (std::size_t i = 0; i < suite_.size(); ++i) {
      WorkloadKey key;
      if (config_.scenario == vm::Scenario::kAdapt) {
        heur::JikesHeuristic h(params);
        vm::VmConfig cfg = config_.vm_config;
        cfg.scenario = config_.scenario;
        cfg.body_memo = &memo_;
        vm::VirtualMachine machine(suite_[i].program, config_.machine, h, cfg);
        key = WorkloadKey{tuner::run_key(machine.run(config_.iterations).compile_trace), true};
      } else {
        const opt::SignatureResult r = opt::decision_signature(
            suite_[i].program, facts_[i], params, config_.vm_config.inline_limits, opts_);
        key = WorkloadKey{r.value, r.exact};
      }
      out.keys.push_back(key);
      out.sig = resilience::mix_keys(out.sig, key.value);
    }
    return out;
  }

 private:
  const std::vector<wl::Workload>& suite_;
  tuner::EvalConfig config_;
  opt::SignatureOptions opts_;
  std::vector<opt::ProbeFacts> facts_;
  opt::BodyMemo memo_;
};

void expect_keys(const std::vector<WorkloadKey>& got, const std::vector<WorkloadKey>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("workload " + std::to_string(i));
    EXPECT_EQ(got[i].value, want[i].value);
    EXPECT_EQ(got[i].exact, want[i].exact);
  }
}

class ProbeFanOut : public testing::TestWithParam<Case> {};

TEST_P(ProbeFanOut, KeysAndSignatureMatchSerialWalks) {
  const Case& c = GetParam();
  const std::vector<wl::Workload> suite = wl::make_suite(c.suite);
  const tuner::EvalConfig config = config_for(c.scenario);
  tuner::SuiteEvaluator eval(suite, config);
  SerialProber serial(suite, config);
  std::set<tuner::SuiteEvaluator::Signature> signatures;
  const std::vector<heur::InlineParams> params = genomes(c.scenario);
  for (const heur::InlineParams& p : params) {
    SCOPED_TRACE(p.to_string());
    const SerialProbe want = serial.probe(p);
    expect_keys(eval.workload_keys(p), want.keys);
    EXPECT_EQ(eval.signature_of(p), want.sig);
    signatures.insert(want.sig);
  }
  if (c.scenario == vm::Scenario::kAdapt) {
    // Adapt resolves by running what no walk resolves: walks reached
    // recorded runs, and every suite that ran something gained a signature.
    EXPECT_GT(eval.benchmark_replays(), 0u);
    EXPECT_LE(eval.evaluations_performed(), signatures.size());
  }
}

TEST_P(ProbeFanOut, ConcurrentProbesOfOneEvaluatorAgree) {
  const Case& c = GetParam();
  const std::vector<wl::Workload> suite = wl::make_suite(c.suite);
  const tuner::EvalConfig config = config_for(c.scenario);
  const std::vector<heur::InlineParams> params = genomes(c.scenario);
  SerialProber serial(suite, config);
  std::vector<SerialProbe> want;
  for (const heur::InlineParams& p : params) want.push_back(serial.probe(p));

  // Three fleet-client-like threads share one evaluator, each walking the
  // genomes from a different starting point, so first probes of one
  // genome race.
  tuner::SuiteEvaluator eval(suite, config);
  constexpr std::size_t kThreads = 3;
  std::vector<std::vector<SerialProbe>> got(kThreads, std::vector<SerialProbe>(params.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < params.size(); ++k) {
        const std::size_t i = (k + t * 5) % params.size();
        got[t][i].keys = eval.workload_keys(params[i]);
        got[t][i].sig = eval.signature_of(params[i]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + " " + params[i].to_string());
      expect_keys(got[t][i].keys, want[i].keys);
      EXPECT_EQ(got[t][i].sig, want[i].sig);
    }
  }
  EXPECT_EQ(eval.params_seen(), params.size());
}

INSTANTIATE_TEST_SUITE_P(Suites, ProbeFanOut,
                         testing::Values(Case{"specjvm98", vm::Scenario::kAdapt},
                                         Case{"specjvm98", vm::Scenario::kOpt},
                                         Case{"dacapo+jbb", vm::Scenario::kAdapt},
                                         Case{"dacapo+jbb", vm::Scenario::kOpt}),
                         case_name);

TEST(ProbeFanOutNesting, ProbesFromEveryPoolWorkerComplete) {
  // The probe is never reached from a pool task, but if it were, every
  // worker waiting on its own pool's fan-out must not deadlock it: each
  // nested fan-out runs on its worker.
  const std::vector<wl::Workload> suite = wl::make_suite("specjvm98");
  const tuner::EvalConfig config = config_for(vm::Scenario::kAdapt);
  const std::vector<heur::InlineParams> params = genomes(vm::Scenario::kAdapt);
  SerialProber serial(suite, config);
  tuner::SuiteEvaluator eval(suite, config);
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t n = std::min(params.size(), 2 * pool.size());
  std::vector<std::vector<WorkloadKey>> got(n);
  pool.parallel_for(n, [&](std::size_t i) { got[i] = eval.workload_keys(params[i]); });
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(params[i].to_string());
    expect_keys(got[i], serial.probe(params[i]).keys);
  }
}

std::ptrdiff_t live_threads() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

TEST(ProbeFanOutDeathTest, OneWorkloadSuiteNeverStartsTheSharedPool) {
  // A fresh process, so no earlier test has started the pool: probing a
  // one-workload suite, as the serving shadow evaluator does, must leave
  // the thread count where it was.
  const std::string style = testing::GTEST_FLAG(death_test_style);
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const std::ptrdiff_t before = live_threads();
        const std::vector<wl::Workload> suite{wl::make_workload("jess")};
        const tuner::EvalConfig config = config_for(vm::Scenario::kAdapt);
        tuner::SuiteEvaluator eval(suite, config);
        SerialProber serial(suite, config);
        bool same = true;
        for (const heur::InlineParams& p : genomes(vm::Scenario::kAdapt)) {
          const SerialProbe want = serial.probe(p);
          same = same && eval.workload_keys(p) == want.keys && eval.signature_of(p) == want.sig;
        }
        std::exit(same && live_threads() == before ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
  testing::GTEST_FLAG(death_test_style) = style;
}

}  // namespace
}  // namespace ith
