#include "serving/online_tuner.hpp"

#include <algorithm>

#include "serving/workloads.hpp"

namespace ith::serving {

const char* retune_action_name(RetuneAction a) {
  switch (a) {
    case RetuneAction::kInstalled: return "installed";
    case RetuneAction::kSkippedSignature: return "skipped-signature";
    case RetuneAction::kSkippedWorse: return "skipped-worse";
    case RetuneAction::kRejectedFault: return "rejected-fault";
    case RetuneAction::kRejectedSlo: return "rejected-slo";
  }
  return "?";
}

OnlineController::OnlineController(tuner::SuiteEvaluator& shadow, heur::InlineParams initial,
                                   OnlineTunerConfig config)
    : shadow_(shadow), config_(config), installed_(initial) {
  installed_sig_ = shadow_.signature_of(installed_);
  installed_fitness_ = fitness_of(shadow_.evaluate(installed_));
}

double OnlineController::fitness_of(const tuner::SuiteEvaluator::Results& results) {
  return tuner::suite_fitness(config_.goal, *results, *shadow_.default_results());
}

std::uint64_t OnlineController::predict_worst(const std::vector<tuner::BenchmarkResult>& results) {
  std::uint64_t worst = 0;
  for (const tuner::BenchmarkResult& r : results) {
    const std::uint64_t storm = r.total_cycles > r.running_cycles ? r.total_cycles - r.running_cycles : 0;
    const std::uint64_t per_request =
        (r.running_cycles + static_cast<std::uint64_t>(kBatchRequests) - 1) /
        static_cast<std::uint64_t>(kBatchRequests);
    worst = std::max(worst, storm + per_request);
  }
  return worst;
}

RetuneDecision OnlineController::consider(const heur::InlineParams& candidate) {
  ++stats_.considered;
  obs::Context* obs = config_.obs;
  if (obs != nullptr) obs->counter("serve.retune.considered").add(1);

  RetuneDecision d;
  // Where a signature names recorded runs, resolving it may run the
  // candidate; a quarantine that run just set is this consideration's
  // verdict, not an earlier one to retry.
  const std::uint64_t evaluations = shadow_.evaluations_performed();
  d.signature = shadow_.signature_of(candidate);
  const bool just_ran = shadow_.evaluations_performed() != evaluations;

  // Gate 1: identical decisions => identical code; an install would be a
  // recompilation storm buying nothing.
  if (d.signature == installed_sig_) {
    d.action = RetuneAction::kSkippedSignature;
    ++stats_.skipped_signature;
    if (obs != nullptr) obs->counter("serve.retune.skipped_signature").add(1);
    return d;
  }

  // Gate 2: one release+re-run per quarantined signature.
  if (config_.retry_quarantined && !just_ran && shadow_.is_quarantined(d.signature) &&
      released_.insert(d.signature).second) {
    if (shadow_.release_quarantine(d.signature)) {
      d.released_quarantine = true;
      ++stats_.quarantine_released;
      if (obs != nullptr) obs->counter("serve.retune.quarantine_released").add(1);
    }
  }

  const tuner::SuiteEvaluator::Results results = shadow_.evaluate(candidate);
  // A re-run after a release records runs the failure did not, and so
  // can give the candidate another signature.
  if (d.released_quarantine) d.signature = shadow_.signature_of(candidate);
  d.fitness = fitness_of(results);
  d.predicted_worst = predict_worst(*results);

  // Gate 3: a genome the shadow run could not complete never reaches the
  // fleet, whatever its (penalized) fitness says.
  const bool any_fault = std::any_of(results->begin(), results->end(),
                                     [](const tuner::BenchmarkResult& r) { return !r.outcome.ok(); });
  if (any_fault) {
    d.action = RetuneAction::kRejectedFault;
    ++stats_.rejected_fault;
    if (obs != nullptr) obs->counter("serve.retune.rejected_fault").add(1);
    return d;
  }

  // Gate 4: the install itself must fit the latency envelope.
  if (config_.slo_cycles != 0 && d.predicted_worst > config_.slo_cycles) {
    d.action = RetuneAction::kRejectedSlo;
    ++stats_.rejected_slo;
    if (obs != nullptr) obs->counter("serve.retune.rejected_slo").add(1);
    return d;
  }

  // Gate 5: strict improvement only.
  if (d.fitness >= installed_fitness_) {
    d.action = RetuneAction::kSkippedWorse;
    ++stats_.skipped_worse;
    if (obs != nullptr) obs->counter("serve.retune.skipped_worse").add(1);
    return d;
  }

  installed_ = candidate;
  installed_sig_ = d.signature;
  installed_fitness_ = d.fitness;
  d.action = RetuneAction::kInstalled;
  ++stats_.installed;
  if (obs != nullptr) obs->counter("serve.retune.installed").add(1);
  return d;
}

}  // namespace ith::serving
