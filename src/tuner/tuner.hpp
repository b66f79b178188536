// Tuner: the paper's off-line step. Given a training suite, a compilation
// scenario/architecture (the evaluator) and an optimization goal, run the
// genetic algorithm over the Table 1 space and return the tuned parameters
// that would be "shipped with the compiler".
#pragma once

#include <string>

#include "ga/ga.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/fitness.hpp"

namespace ith::tuner {

struct TuneResult {
  heur::InlineParams best;
  double best_fitness = 0.0;  ///< normalized Perf(S); < 1.0 beats the default
  ga::GaResult ga;
};

/// Checkpoint/resume policy for tune(). With a non-empty path the GA
/// journals its complete state there (atomically) after every `every`-th
/// generation; with `resume` additionally set, tune() loads the checkpoint
/// first and continues — bit-identically to a run that was never stopped —
/// re-arming the evaluator's quarantine set along the way.
struct TuneCheckpointOptions {
  std::string path;
  bool resume = false;
  int every = 1;
  /// Invoked after each generation completes — crucially, *after* its
  /// checkpoint has been journaled, so a process killed inside this callback
  /// (the chaos harness's kill point) always resumes from the generation it
  /// just finished.
  std::function<void(const ga::GenerationStats&)> on_generation;
};

/// Runs the GA. `ga_config.seed_individuals` may be used to inject the
/// default parameters into the initial population. `include_partial_gene`
/// widens the search to PARTIAL_MAX_HEAD_SIZE (the sixth dimension; implies
/// the hot gene, so the space is always the full six-gene encoding).
TuneResult tune(SuiteEvaluator& evaluator, Goal goal, ga::GaConfig ga_config,
                const TuneCheckpointOptions& checkpoint = {}, bool include_partial_gene = false);

/// Convenience: a GA configuration scaled for the bench harnesses.
/// Population 20 (the paper's), `generations` as given, memoized,
/// single-threaded, patience 10. The parallelism is one level down: each
/// real fitness call runs its suite's benchmarks concurrently on the shared
/// pool (SuiteEvaluator), so the GA itself stays serial and deterministic.
ga::GaConfig default_ga_config(int generations, std::uint64_t seed);

}  // namespace ith::tuner
