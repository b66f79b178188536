// Serial reference for suite evaluations: every benchmark of a suite in
// order on the calling thread through resilience::guarded_run, with the
// evaluator's documented fault keys and retry rule, under one shared
// heuristic and no memo of optimized bodies. SuiteEvaluator results must
// equal it field by field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "heuristics/heuristic.hpp"
#include "resilience/fault.hpp"
#include "resilience/guard.hpp"
#include "support/codec.hpp"
#include "tuner/evaluator.hpp"
#include "workloads/suite.hpp"

namespace ith::test {

/// Serial reference: every benchmark in suite order on the calling thread,
/// under one shared heuristic, with the evaluator's fault keys and retries.
inline std::vector<tuner::BenchmarkResult> serial_suite(const std::vector<wl::Workload>& suite,
                                                        const tuner::EvalConfig& config,
                                                        heur::InlineHeuristic& h,
                                                        std::uint64_t salt) {
  const resilience::FaultPlan* plan = config.vm_config.faults;
  const bool compile_faults = plan != nullptr && plan->armed() &&
                              plan->enabled(resilience::FaultSite::kCompileInflate);
  std::vector<tuner::BenchmarkResult> out;
  for (const wl::Workload& w : suite) {
    tuner::BenchmarkResult br;
    br.name = w.name;
    for (int attempt = 0; attempt <= config.max_retries; ++attempt) {
      vm::VmConfig cfg = config.vm_config;
      cfg.scenario = config.scenario;
      cfg.fault_key = resilience::mix_keys(
          salt, resilience::mix_keys(codec::fnv1a(w.name), static_cast<std::uint64_t>(attempt)));
      resilience::GuardedRun gr;
      if (plan != nullptr &&
          plan->should_inject(resilience::FaultSite::kEvaluator, cfg.fault_key)) {
        gr.outcome = resilience::EvalOutcome::make_trap(resilience::TrapKind::kInjected,
                                                        "injected evaluator fault");
      } else {
        gr = resilience::guarded_run(w.program, config.machine, h, cfg, config.iterations);
      }
      br.attempts = attempt + 1;
      br.outcome = gr.outcome;
      if (gr.outcome.ok()) {
        br.running_cycles = gr.result.running_cycles;
        br.total_cycles = gr.result.total_cycles;
        br.compile_cycles = gr.result.compile_cycles_all;
        break;
      }
      const resilience::EvalOutcome& o = gr.outcome;
      const bool retryable =
          o.trap == resilience::TrapKind::kInjected ||
          o.budget == resilience::BudgetKind::kWallClock ||
          o.kind == resilience::OutcomeKind::kCrash ||
          (compile_faults && o.budget == resilience::BudgetKind::kCompileCycles);
      if (!retryable) break;
    }
    out.push_back(std::move(br));
  }
  return out;
}

inline void expect_same(const std::vector<tuner::BenchmarkResult>& got,
                        const std::vector<tuner::BenchmarkResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(want[i].name);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].running_cycles, want[i].running_cycles);
    EXPECT_EQ(got[i].total_cycles, want[i].total_cycles);
    EXPECT_EQ(got[i].compile_cycles, want[i].compile_cycles);
    EXPECT_TRUE(got[i].outcome.same_classification(want[i].outcome))
        << got[i].outcome.to_string() << " vs " << want[i].outcome.to_string();
    EXPECT_EQ(got[i].outcome.detail, want[i].outcome.detail);
    EXPECT_EQ(got[i].attempts, want[i].attempts);
  }
}

}  // namespace ith::test
