// Chaos for the serving tier: faults mid-request and mid-retune are data,
// not crashes — every request keeps its record slot, chaos runs replay
// bit-identically, and the online controller's quarantine-release path
// un-pins a signature a transient fault would otherwise starve forever.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "heuristics/inline_params.hpp"
#include "resilience/fault.hpp"
#include "serving/driver.hpp"
#include "serving/online_tuner.hpp"
#include "serving/workloads.hpp"
#include "tuner/evaluator.hpp"

namespace ith {
namespace {

serving::ServingConfig chaos_config(const resilience::FaultPlan* plan) {
  serving::ServingConfig c;
  c.seed = 9;
  c.instances = 2;
  c.requests = 160;
  c.calibration_requests = 32;
  c.threads = 2;
  c.faults = plan;
  c.fault_seed = plan->seed;
  return c;
}

/// A candidate whose inline decisions are guaranteed to differ from the
/// defaults (refuses every callee), so it gets its own decision signature.
heur::InlineParams no_inline_params() {
  heur::InlineParams p = heur::default_params();
  p.callee_max_size = 0;
  p.always_inline_size = 0;
  return p;
}

tuner::SuiteEvaluator make_shadow_evaluator() {
  std::vector<wl::Workload> suite;
  suite.push_back(serving::make_serving_workload("kv_server", serving::ServingMode::kBatch));
  return tuner::SuiteEvaluator(std::move(suite), tuner::EvalConfig{});
}

/// The signature a failed run of `params` leaves on the shadow suite. A
/// failed run is never recorded, so its benchmark keeps the key derived
/// from the parameter vector — the key every benchmark has under an armed
/// fault plan, where an evaluator names it without running anything.
std::uint64_t failing_signature(const heur::InlineParams& params) {
  resilience::FaultPlan plan;
  plan.rate = 1.0;
  plan.seed = 1;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kEvaluator);
  std::vector<wl::Workload> suite;
  suite.push_back(serving::make_serving_workload("kv_server", serving::ServingMode::kBatch));
  tuner::EvalConfig config;
  config.vm_config.faults = &plan;
  return tuner::SuiteEvaluator(std::move(suite), config).signature_of(params);
}

std::vector<std::vector<int>> quarantine_key(std::uint64_t sig) {
  return {{static_cast<int>(static_cast<std::uint32_t>(sig & 0xffffffffULL)),
           static_cast<int>(static_cast<std::uint32_t>(sig >> 32))}};
}

TEST(ServingChaos, MidRequestFaultsDropNoRequests) {
  resilience::FaultPlan plan;
  plan.rate = 0.1;
  plan.seed = 4;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kVmTrap);
  const serving::ServingConfig config = chaos_config(&plan);

  const serving::WorkloadServeReport report = serving::serve_workload("kv_server", config);

  // Quarantine-without-drops: every request — including those in flight on
  // an instance that faulted and rebuilt — has a complete record.
  ASSERT_EQ(report.records.size(), config.requests);
  EXPECT_GT(report.faulted_requests, 0u);
  EXPECT_LT(report.faulted_requests, config.requests);  // the fleet survives
  ASSERT_GT(report.slo_cycles, 0u);
  std::size_t not_ok = 0;
  for (const serving::RequestRecord& rec : report.records) {
    if (!rec.ok) {
      ++not_ok;
      // A faulted request is charged the penalty (SLO) latency, no more.
      EXPECT_EQ(rec.service, report.slo_cycles);
    } else {
      EXPECT_GT(rec.service, 0u);
    }
  }
  EXPECT_EQ(not_ok, report.faulted_requests);

  // Chaos is replayable: the fault plan is a pure function of (seed, site,
  // key), so a second run reproduces the identical record vector.
  const serving::WorkloadServeReport replay = serving::serve_workload("kv_server", config);
  ASSERT_EQ(replay.records.size(), report.records.size());
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    EXPECT_EQ(report.records[i].latency, replay.records[i].latency) << "request " << i;
    EXPECT_EQ(report.records[i].ok, replay.records[i].ok) << "request " << i;
  }
  EXPECT_EQ(report.faulted_requests, replay.faulted_requests);
}

TEST(ServingChaos, MidRetuneFaultsAreAbsorbed) {
  resilience::FaultPlan plan;
  plan.rate = 0.05;
  plan.seed = 11;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kVmTrap) |
               resilience::FaultPlan::site_bit(resilience::FaultSite::kEvaluator);
  serving::ServingConfig config = chaos_config(&plan);
  config.online_tune = true;
  config.ga_generations = 2;
  config.ga_population = 6;

  const serving::WorkloadServeReport report = serving::serve_workload("kv_server", config);

  // Serving completed under fire: all records present, every retune epoch
  // reached a verdict, and the verdicts account for every consideration.
  ASSERT_EQ(report.records.size(), config.requests);
  EXPECT_EQ(report.retune.considered,
            static_cast<std::size_t>(config.ga_generations) + 1);
  EXPECT_EQ(report.retune.considered,
            report.retune.installed + report.retune.skipped_signature +
                report.retune.skipped_worse + report.retune.rejected_fault +
                report.retune.rejected_slo);
}

TEST(ServingChaos, QuarantinedSignatureStarvesControllerWithoutRetry) {
  tuner::SuiteEvaluator shadow = make_shadow_evaluator();
  const heur::InlineParams candidate = no_inline_params();
  const std::uint64_t sig = failing_signature(candidate);
  ASSERT_NE(sig, failing_signature(heur::default_params()));
  shadow.preload_quarantine(quarantine_key(sig));

  serving::OnlineTunerConfig oc;
  oc.retry_quarantined = false;
  serving::OnlineController controller(shadow, heur::default_params(), oc);

  // The starvation bug this PR fixes: with the quarantine keyed on
  // signature and no release path, every later retune of this genome
  // short-circuits to the penalty result — the controller can never
  // observe it recovering.
  const serving::RetuneDecision first = controller.consider(candidate);
  EXPECT_EQ(first.action, serving::RetuneAction::kRejectedFault);
  EXPECT_FALSE(first.released_quarantine);
  const serving::RetuneDecision second = controller.consider(candidate);
  EXPECT_EQ(second.action, serving::RetuneAction::kRejectedFault);
  EXPECT_TRUE(shadow.is_quarantined(sig));
  EXPECT_EQ(controller.stats().rejected_fault, 2u);
  EXPECT_EQ(controller.stats().quarantine_released, 0u);
  EXPECT_EQ(controller.installed(), heur::default_params());
}

TEST(ServingChaos, QuarantineReleaseUnpinsTheCandidate) {
  tuner::SuiteEvaluator shadow = make_shadow_evaluator();
  const heur::InlineParams candidate = no_inline_params();
  const std::uint64_t sig = failing_signature(candidate);
  shadow.preload_quarantine(quarantine_key(sig));

  serving::OnlineTunerConfig oc;
  oc.retry_quarantined = true;
  serving::OnlineController controller(shadow, heur::default_params(), oc);

  // Gate 2 grants the signature one release + fresh guarded run; with no
  // faults armed the re-run succeeds, so the candidate is judged on its
  // real fitness instead of the penalty.
  const serving::RetuneDecision first = controller.consider(candidate);
  EXPECT_TRUE(first.released_quarantine);
  EXPECT_NE(first.action, serving::RetuneAction::kRejectedFault);
  EXPECT_FALSE(shadow.is_quarantined(sig));
  EXPECT_EQ(controller.stats().quarantine_released, 1u);

  // The release is one-shot per signature: a later consideration hits the
  // (now real) cached result without another release.
  const serving::RetuneDecision second = controller.consider(candidate);
  EXPECT_FALSE(second.released_quarantine);
  EXPECT_NE(second.action, serving::RetuneAction::kRejectedFault);
  EXPECT_EQ(controller.stats().quarantine_released, 1u);
}

TEST(ServingChaos, ReleaseQuarantineEvaluatorContract) {
  tuner::SuiteEvaluator eval = make_shadow_evaluator();
  const heur::InlineParams candidate = no_inline_params();
  const std::uint64_t sig = failing_signature(candidate);

  EXPECT_FALSE(eval.is_quarantined(sig));
  EXPECT_FALSE(eval.release_quarantine(sig));  // nothing to release

  eval.preload_quarantine(quarantine_key(sig));
  ASSERT_TRUE(eval.is_quarantined(sig));

  // While quarantined, evaluate() synthesizes the penalty result without
  // running (and without counting as a real evaluation).
  const std::uint64_t before = eval.evaluations_performed();
  const tuner::SuiteEvaluator::Results penalized = eval.evaluate(candidate);
  ASSERT_EQ(penalized->size(), 1u);
  EXPECT_FALSE((*penalized)[0].outcome.ok());
  EXPECT_EQ((*penalized)[0].attempts, 0);
  EXPECT_EQ(eval.evaluations_performed(), before);

  // Release drops both the quarantine entry and the cached penalty, so the
  // next evaluation performs a fresh guarded run that succeeds.
  EXPECT_TRUE(eval.release_quarantine(sig));
  EXPECT_FALSE(eval.is_quarantined(sig));
  EXPECT_FALSE(eval.release_quarantine(sig));  // idempotent: already lifted
  const tuner::SuiteEvaluator::Results fresh = eval.evaluate(candidate);
  ASSERT_EQ(fresh->size(), 1u);
  EXPECT_TRUE((*fresh)[0].outcome.ok());
  EXPECT_GT((*fresh)[0].total_cycles, 0u);
  EXPECT_EQ(eval.evaluations_performed(), before + 1);
}

}  // namespace
}  // namespace ith
