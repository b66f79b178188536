// The inliner: a real program transformation, not a cost-model annotation.
//
// For every kCall the heuristic approves, the callee body is spliced into
// the caller: arguments become stores into fresh caller locals, callee
// locals are renumbered, internal branches are rebased, and each kRet turns
// into a jump to the landing pc (its return value simply stays on the
// operand stack, which is exactly where the caller expects it).
//
// Splicing is iterative and depth-aware: calls *inside* a spliced body are
// revisited at depth+1, so the MAX_INLINE_DEPTH parameter the paper tunes
// has its real meaning here.
// Partial inlining (the sixth tunable dimension) splices only the callee's
// pure guard head: hot early-exit checks run inline, while every cold exit
// funnels into a stub that reloads the (untouched) argument copies and
// re-issues the original call. The head's purity makes the re-execution
// invisible.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bytecode/program.hpp"
#include "heuristics/heuristic.hpp"
#include "obs/context.hpp"
#include "opt/analysis.hpp"
#include "opt/annotated.hpp"

namespace ith::opt {

/// Profile facts about one *original* call site, supplied by the VM when
/// recompiling under the adaptive scenario.
struct SiteProfile {
  bool is_hot = false;
  std::uint64_t count = 0;
};

/// Maps an original call site (origin method, origin pc) to its profile.
/// The default oracle reports cold/zero everywhere.
using SiteOracle = std::function<SiteProfile(bc::MethodId origin_method, std::int32_t origin_pc)>;

SiteProfile cold_site(bc::MethodId, std::int32_t);

/// Outcome statistics for one method's inlining session.
struct InlineStats {
  std::size_t sites_considered = 0;
  std::size_t sites_inlined = 0;
  std::size_t sites_partially_inlined = 0;   ///< guard head spliced, tail outlined
  std::size_t sites_refused_by_heuristic = 0;
  std::size_t sites_refused_structural = 0;  ///< recursion guard / non-inlinable shape
  int max_depth_reached = 0;
  int size_before_words = 0;   ///< estimated machine words before inlining
  int size_after_words = 0;    ///< and after

  friend bool operator==(const InlineStats&, const InlineStats&) = default;
};

/// One heuristic consultation as DecisionProbe predicts it, mirroring the
/// fields the Inliner attaches to its `inline.decision` trace events.
struct ProbeDecision {
  bc::MethodId root = -1;        ///< method being compiled
  bc::MethodId callee = -1;
  std::size_t call_pc = 0;       ///< pc of the kCall in the evolving body
  int depth = 0;
  int callee_size = 0;           ///< estimated words of the original callee
  int caller_size = 0;           ///< estimated words of the evolving body
  int head_size = -1;            ///< guard-head words offered to the heuristic
  bool is_hot = false;
  std::uint64_t site_count = 0;
  bool inlined = false;
  bool partial = false;          ///< verdict was "splice the guard head only"
  const char* rule = "opaque";
};

/// Every verdict of one root's inlining session, in consultation order,
/// plus the InlineStats that session reports. DecisionProbe::probe_method
/// fills it; Inliner::run can replay it instead of consulting the heuristic.
struct VerdictTrace {
  std::vector<ProbeDecision> decisions;
  InlineStats stats;
};

/// One row of the structured inline report: every call site the inliner
/// looked at, with the verdict and the exact rule (Figure 3/4 term or
/// structural guard) that produced it — LLVM's -Rpass=inline in miniature.
struct InlineReportEntry {
  enum class Outcome { kInlined, kPartial, kRefusedHeuristic, kRefusedStructural };

  bc::MethodId caller = -1;     ///< root method being compiled
  bc::MethodId callee = -1;
  std::size_t call_pc = 0;      ///< pc in the evolving caller body
  int depth = 0;
  int callee_size = 0;
  int caller_size = 0;
  int head_size = -1;           ///< guard-head words, -1 when the callee has none
  bool is_hot = false;
  std::uint64_t site_count = 0;
  Outcome outcome = Outcome::kRefusedStructural;
  /// "fig3:*" / "fig4:*" for heuristic verdicts, "structural:*" for guard
  /// refusals. Static string.
  const char* rule = "";
};

using InlineReport = std::vector<InlineReportEntry>;

/// Human-readable rendering, one line per decision.
std::string format_inline_report(const bc::Program& prog, const InlineReport& report);

/// Structural safety limits independent of the tuned heuristic. These mirror
/// the hard limits a real compiler keeps even when a heuristic says yes.
struct InlineLimits {
  int hard_depth_cap = 20;           ///< absolute depth bound
  int max_recursive_occurrences = 1; ///< times one method may appear on a chain
  int max_body_words = 200000;       ///< give up growing a single body past this

  friend bool operator==(const InlineLimits&, const InlineLimits&) = default;
};

class Inliner {
 public:
  /// `obs` is non-owning and may be null (no decision tracing); it must
  /// outlive the inliner. With the kInline category enabled it receives one
  /// instant event per heuristic consultation, carrying the Figure 3/4 rule
  /// that fired (InlineHeuristic::decide). `analyses` is an optional shared
  /// AnalysisManager (same program) whose cached structural facts replace
  /// per-site recomputation; when null the inliner computes privately.
  explicit Inliner(const bc::Program& prog, const heur::InlineHeuristic& heuristic,
                   SiteOracle oracle = cold_site, InlineLimits limits = {},
                   obs::Context* obs = nullptr, AnalysisManager* analyses = nullptr);

  /// Inlines into (a copy of) method `id` and returns the transformed body.
  /// `report`, when non-null, receives one InlineReportEntry per considered
  /// call site (appended; the caller owns clearing).
  ///
  /// `verdicts`, when non-null, is the probe's trace of this very session:
  /// each consultation takes the next entry's verdict instead of asking the
  /// heuristic, after checking that its (callee, call_pc, depth) matches.
  /// A mismatch, a missing or left-over entry, or final stats that differ
  /// from `verdicts->stats` throw ith::Error — a probe/inliner divergence
  /// fails loudly rather than producing a body the verdicts do not describe.
  AnnotatedMethod run(bc::MethodId id, InlineStats* stats = nullptr,
                      InlineReport* report = nullptr,
                      const VerdictTrace* verdicts = nullptr) const;

  /// True if `callee` can structurally be spliced: single-value returns
  /// (operand stack depth exactly 1 at every kRet) and no kHalt.
  static bool is_inlinable(const bc::Program& prog, bc::MethodId callee);

 private:
  bool splice(AnnotatedMethod& am, std::size_t call_pc, AnalysisManager& analyses) const;
  bool splice_partial(AnnotatedMethod& am, std::size_t call_pc, const PartialShape& shape) const;

  const bc::Program& prog_;
  const heur::InlineHeuristic& heuristic_;
  SiteOracle oracle_;
  InlineLimits limits_;
  obs::Context* obs_;
  AnalysisManager* analyses_;
};

}  // namespace ith::opt
