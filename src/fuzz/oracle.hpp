// Multi-tier differential execution oracle.
//
// Runs one program four ways that must agree on every observable —
// exit value, final global data segment, and verifier acceptance of every
// transformed body:
//
//   reference  — the unoptimized program, plain interpretation
//   O1         — every method statically optimized under the Jikes
//                heuristic with seed-randomized InlineParams and a
//                seed-randomized pipeline, then interpreted
//   O2         — every method statically optimized under the
//                always-inline heuristic (maximal splicing) with the same
//                pipeline, then interpreted
//   adaptive   — the full VirtualMachine in the Adapt scenario with
//                seed-randomized tiering thresholds and OSR, two
//                iterations (exercises recompilation and frame transfer)
//
// plus an engine-differential tier: the unoptimized program is executed by
// both interpreter engines (reference switch dispatch and predecoded
// direct-threaded fast engine) with I-cache simulation on, and the complete
// ExecStats — cycles, instructions, calls, icache probes/misses, OSR
// transitions, max frame depth, exit value — must be bit-identical, along
// with the final globals. The optimized tiers themselves run under an
// engine chosen per seed, so both engines stay continuously fuzzed.
//
// A further budget-classification tier re-runs the unoptimized program on
// both engines under a deliberately tight RunBudget (half the reference
// run's instructions, half its frame depth) and asserts the engines agree
// on the resilience::EvalOutcome *classification* — same budget axis
// tripped, or both Ok with equal exit values. This pins down the guarded-
// evaluation layer the tuner depends on: an engine that trips the wrong
// budget (or none) under pressure corrupts penalized fitness silently.
//
// Finally a signature-equivalence tier guards the tuner's decision-
// signature cache (opt/decision_probe.hpp): it perturbs the seed's
// InlineParams a few times, and whenever a perturbed vector maps to the
// *same* decision signature as the original over this program, both are run
// through the full adaptive VM — every iteration's ExecStats, the compile
// statistics, and the final globals must be bit-identical. A divergence
// here means the signature is collapsing params that are in fact
// behaviourally different, i.e. the evaluation cache would return wrong
// fitness.
//
// Both static tiers compile with AnalysisManager::set_verify(true), so a
// pass that claims to preserve an analysis it changed is reported as an
// "optimizer trap" even when the stale fact happens not to miscompile.
//
// The reference run also sets the dynamic-instruction budget for the other
// tiers, so a transformation that introduces non-termination is reported as
// a divergence rather than hanging the fuzzer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bytecode/program.hpp"
#include "heuristics/inline_params.hpp"
#include "opt/pipeline.hpp"
#include "runtime/interpreter.hpp"

namespace ith::fuzz {

/// Deliberate miscompilations the oracle can inject after optimization —
/// used only by tests to prove the fuzzer catches, bisects, and shrinks a
/// real bug. Each plant rides on one pipeline pass so pass bisection has a
/// well-defined correct answer.
enum class PlantedBug : std::uint8_t {
  kNone,
  /// Folds residual `const a; const b; add` triples (the overflow cases the
  /// real folder deliberately skips) by clamping the sum into the int32
  /// immediate field — wrong whenever the true sum does not fit. Active
  /// only when the pipeline has the fold pass.
  kFoldOverflow,
};

struct OracleConfig {
  /// Seed for randomized InlineParams / pipeline / VM thresholds.
  std::uint64_t seed = 1;
  /// Dynamic-instruction budget for the reference run; a program exceeding
  /// it is reported as reference_failed (skip it, it is too hot to fuzz).
  std::uint64_t reference_budget = 8'000'000;
  /// Optimized tiers get reference_count * budget_slack + reference_budget/8
  /// instructions before being declared divergent (non-terminating).
  std::uint64_t budget_slack = 8;
  int vm_iterations = 2;
  PlantedBug planted_bug = PlantedBug::kNone;
  /// When set, overrides the seed-randomized pipeline/params — used by the
  /// planted-bug tests to pin a known configuration.
  std::optional<opt::PipelineDesc> forced_pipeline;
  std::optional<heur::InlineParams> forced_params;
  /// When set, pins the execution engine for the optimized tiers instead of
  /// the seed-randomized coin flip. The engine-differential tier always
  /// runs both engines regardless.
  std::optional<rt::EngineKind> forced_engine;
};

enum class TierKind : std::uint8_t {
  kReference,
  kO1,
  kO2,
  kAdaptive,
  kEngineDiff,
  kBudgetDiff,
  kSigEquiv,
};

const char* tier_name(TierKind t);

/// One observed disagreement between the reference and an optimized tier.
struct Divergence {
  TierKind tier = TierKind::kReference;
  std::string detail;  ///< human-readable: what differed and how
};

struct OracleVerdict {
  bool reference_failed = false;  ///< reference itself trapped (skip seed)
  std::string reference_error;
  bool diverged = false;
  std::vector<Divergence> divergences;

  std::string summary() const;
};

class DifferentialOracle {
 public:
  explicit DifferentialOracle(OracleConfig config);

  /// Full four-tier differential check under this oracle's pipeline.
  OracleVerdict check(const bc::Program& prog) const;

  /// Same check with an explicit pipeline (pass bisection hook).
  OracleVerdict check_with_pipeline(const bc::Program& prog,
                                    const opt::PipelineDesc& pipeline) const;

  const opt::PipelineDesc& pipeline() const { return pipeline_; }
  const heur::InlineParams& params() const { return params_; }
  const OracleConfig& config() const { return config_; }
  rt::EngineKind engine() const { return engine_; }
  /// The adaptive tier's seed-randomized VM settings.
  std::uint64_t hot_method_threshold() const { return hot_method_threshold_; }
  std::uint64_t hot_site_threshold() const { return hot_site_threshold_; }
  std::uint64_t rehot_multiplier() const { return rehot_multiplier_; }
  bool enable_osr() const { return enable_osr_; }

 private:
  OracleConfig config_;
  opt::PipelineDesc pipeline_;      // seed-randomized (or forced)
  heur::InlineParams params_;       // seed-randomized (or forced)
  std::uint64_t hot_method_threshold_ = 400;
  std::uint64_t hot_site_threshold_ = 300;
  std::uint64_t rehot_multiplier_ = 12;
  bool enable_osr_ = false;
  rt::EngineKind engine_ = rt::EngineKind::kFast;  // seed-randomized (or forced)
};

/// Applies `bug` to an optimized body (post-optimizer, pre-execution).
/// Exposed for the shrinker/bisection tests. No-op for kNone or when the
/// carrying pass is not in `pipeline`.
std::size_t apply_planted_bug(bc::Method& body, PlantedBug bug,
                              const opt::PipelineDesc& pipeline);

}  // namespace ith::fuzz
