// PassManager: the optimizing compiler's one orchestrator. A compilation
// is a pipeline description — a list of setup passes (inline) followed by
// a fixpoint group of scalar passes — executed
// over one shared AnalysisManager. Pipeline text (PipelineDesc) is the only
// way to choose passes. Passes report what they preserved
// (PreservedAnalyses) so cached analyses survive exactly as long as they
// remain true, and each pass leaves a PassStat row
// ("[pass inline] inst 42→40, time 3us") plus opt.pass.* obs counters.
//
// The inline pass splices DecisionProbe's walk of the method (the one
// decision procedure, decision_probe.hpp): the walk the caller passes, or
// one the manager takes under its own heuristic, oracle and limits.
//
// Soundness of the PreservedAnalyses claims is checked by
// AnalysisManager::set_verify(true), which recomputes every cached read:
// tests/opt/pass_manager_test.cpp sweeps workloads and the fuzz corpus with
// it on, and the fuzz oracle's O1/O2 tiers compile under it.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bytecode/program.hpp"
#include "heuristics/heuristic.hpp"
#include "obs/context.hpp"
#include "opt/analysis.hpp"
#include "opt/decision_probe.hpp"
#include "opt/inliner.hpp"

namespace ith::opt {

/// Aggregate rewrite counts for one method compilation.
struct OptStats {
  InlineStats inline_stats;
  std::size_t folds = 0;
  std::size_t copyprops = 0;
  std::size_t dead_stores = 0;
  std::size_t branch_simplifications = 0;
  std::size_t algebraic_simplifications = 0;
  std::size_t compare_fusions = 0;
  /// Always 0: no pass eliminates tail calls any more. Kept because the
  /// optimizer golden digests every OptStats field.
  std::size_t tail_calls_eliminated = 0;
  std::size_t unreachable_removed = 0;
  std::size_t instructions_compacted = 0;
  int iterations = 0;

  friend bool operator==(const OptStats&, const OptStats&) = default;
};

/// Structured per-pass statistics for one compilation.
struct PassStat {
  const char* pass = "";        ///< pass name ("inline", "fold", ...)
  std::size_t runs = 0;         ///< times the pass executed
  std::size_t changes = 0;      ///< total rewrites across runs
  std::size_t inst_before = 0;  ///< body length before the first run
  std::size_t inst_after = 0;   ///< body length after the last run
  std::uint64_t host_us = 0;    ///< summed host time (0 unless kOpt traced)
};

/// "[pass inline] inst 42→40, time 3us"
std::string format_pass_stat(const PassStat& s);

struct OptimizeResult {
  AnnotatedMethod body;  ///< optimized body with provenance preserved
  OptStats stats;
  /// One row per pass that appears in the pipeline, pipeline order.
  std::vector<PassStat> pass_stats;
};

/// Declarative pipeline: setup passes run once, fixpoint passes iterate
/// (with an unconditional nop-compaction per iteration) until no pass
/// reports changes or max_iterations is reached.
struct PipelineDesc {
  std::vector<std::string> setup;
  std::vector<std::string> fixpoint;
  int max_iterations = 6;

  friend bool operator==(const PipelineDesc&, const PipelineDesc&) = default;

  /// The full default pipeline, every registered pass; what a VM runs
  /// when VmConfig::pipeline is unset.
  static PipelineDesc standard();

  /// "inline,fixpoint(fold,...,unreachable):6". Stable
  /// textual identity: the evaluator hashes this into cache fingerprints.
  std::string to_string() const;

  /// Inverse of to_string(). Throws ith::Error on unknown pass names, a
  /// malformed shape, or anything but a positive integer after the ':'.
  static PipelineDesc parse(const std::string& text);

  bool has_pass(const std::string& name) const;

  /// This pipeline with every occurrence of pass `name` removed.
  PipelineDesc without(const std::string& name) const;
};

/// All registerable pass names.
const std::vector<std::string>& known_pass_names();

class PassManager;

/// Shared state every pass sees during one compilation.
struct PassContext {
  const bc::Program& prog;
  bc::MethodId root;
  PassManager& manager;
  obs::Context* obs;      ///< may be null
  OptStats& stats;
  InlineReport* report;   ///< may be null
  /// The decision walk of `root` the caller passed to PassManager::run, or
  /// null: the inline pass then takes manager.walk(root).
  const VerdictTrace* walk;
};

/// One registered transformation. run() rewrites `am`, records what it
/// provably preserved into `preserved` (consulted only when the return
/// value — the rewrite count — is non-zero), and may read cached facts
/// from `analyses`.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  virtual const char* span_name() const = 0;  ///< trace span name ("pass.fold")
  virtual std::size_t run(AnnotatedMethod& am, AnalysisManager& analyses, PassContext& ctx,
                          PreservedAnalyses& preserved) = 0;
};

/// Factory for a pass by registered name; throws ith::Error on unknown.
std::unique_ptr<Pass> make_pass(const std::string& name);

class PassManager {
 public:
  /// References are non-owning and must outlive the manager. The manager is
  /// designed to persist across compilations (the VM keeps one per session):
  /// program-scope analyses accumulate, which is where the O1→O2 ladder's
  /// avoided recomputations come from.
  PassManager(const bc::Program& prog, const heur::InlineHeuristic& heuristic,
              SiteOracle oracle = cold_site, PipelineDesc pipeline = PipelineDesc::standard(),
              InlineLimits limits = {}, obs::Context* obs = nullptr);

  /// Compiles method `id` through the pipeline. `report`, when non-null,
  /// receives the entries of the walk the inline pass spliced (appended).
  /// `walk`, when non-null, is DecisionProbe's walk of `id` under this
  /// manager's heuristic, oracle and limits, and the inline pass splices it;
  /// otherwise the pass splices walk(id). A walk that does not describe the
  /// body throws ith::Error (see Inliner::run).
  OptimizeResult run(bc::MethodId id, InlineReport* report = nullptr,
                     const VerdictTrace* walk = nullptr);

  /// DecisionProbe::probe_method of `id` under this manager's heuristic,
  /// oracle and limits. The ProbeFacts it reads are built by the first call
  /// and kept for the manager's lifetime; the walk is valid until the next
  /// call.
  const VerdictTrace& walk(bc::MethodId id);

  const PipelineDesc& pipeline() const { return pipeline_; }
  AnalysisManager& analyses() { return analyses_; }
  const AnalysisManager& analyses() const { return analyses_; }

 private:
  struct Registered {
    std::unique_ptr<Pass> pass;
    obs::Counter* runs_counter = nullptr;
    obs::Counter* changes_counter = nullptr;
    std::size_t stat_index = 0;  ///< slot in OptimizeResult::pass_stats
  };

  std::size_t run_one(Registered& reg, AnnotatedMethod& am, PassContext& ctx,
                      OptimizeResult& result, bool trace);

  const bc::Program& prog_;
  const heur::InlineHeuristic& heuristic_;
  SiteOracle oracle_;
  PipelineDesc pipeline_;
  InlineLimits limits_;
  obs::Context* obs_;
  AnalysisManager analyses_;
  std::unique_ptr<const ProbeFacts> facts_;  ///< built by the first walk()
  std::unique_ptr<const DecisionProbe> probe_;
  VerdictTrace walk_;
  std::vector<Registered> setup_;
  std::vector<Registered> fixpoint_;
  std::size_t num_stats_ = 0;
};

}  // namespace ith::opt
