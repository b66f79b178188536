// The inliner: a real program transformation, not a cost-model annotation.
//
// DecisionProbe (decision_probe.hpp) walks a method and decides every call
// site: the structural guards, the size arithmetic and the heuristic call
// live there alone. The Inliner splices that walk. For every kCall the walk
// approves, the callee body is spliced into the caller: arguments become
// stores into fresh caller locals, callee locals are renumbered, internal
// branches are rebased, and each kRet turns into a jump to the landing pc
// (its return value simply stays on the operand stack, which is exactly
// where the caller expects it).
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

/// One call site the decision walk (DecisionProbe::probe_method) scanned:
/// the verdict Inliner::run splices there, and one row of the structured
/// inline report — LLVM's -Rpass=inline in miniature.
struct ProbeDecision {
  enum class Outcome : std::uint8_t { kRefusedStructural, kRefusedHeuristic, kInlined, kPartial };

  bc::MethodId root = -1;        ///< method being compiled
  bc::MethodId callee = -1;
  std::size_t call_pc = 0;       ///< pc of the kCall in the evolving body
  int depth = 0;
  int callee_size = 0;           ///< estimated words of the original callee
  int caller_size = 0;           ///< estimated words of the evolving body
  int head_size = -1;            ///< guard-head words offered to the heuristic, else -1
  bool is_hot = false;
  std::uint64_t site_count = 0;
  Outcome outcome = Outcome::kRefusedStructural;
  /// "fig3:*" / "fig4:*" for heuristic verdicts, "structural:*" for guard
  /// refusals. Static string.
  const char* rule = "";
};

/// One root's decision walk: every call site it scanned, in scan order,
/// plus the InlineStats the session reports. DecisionProbe::probe_method
/// fills it; Inliner::run splices it.
struct VerdictTrace {
  std::vector<ProbeDecision> decisions;
  InlineStats stats;
};

/// The structured inline report: the walks' entries, appended per compile.
using InlineReport = std::vector<ProbeDecision>;

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

/// Splices a decision walk into its root's body. Deciding is
/// DecisionProbe's job; the Inliner only applies the verdicts it is given.
class Inliner {
 public:
  /// `obs` is non-owning and may be null (no decision tracing); it must
  /// outlive the inliner. With the kInline category enabled it receives one
  /// instant event per heuristic verdict, carrying the Figure 3/4 rule that
  /// fired. `analyses` is an optional shared AnalysisManager (same program)
  /// whose cached splice facts replace per-run recomputation; when null the
  /// inliner computes privately.
  explicit Inliner(const bc::Program& prog, obs::Context* obs = nullptr,
                   AnalysisManager* analyses = nullptr);

  /// Splices `walk` (DecisionProbe::probe_method of `id`) into a copy of
  /// method `id` and returns the transformed body. Each kCall the scan
  /// reaches must match the walk's next entry (callee, call_pc, depth); a
  /// mismatch, a partial verdict for a callee without a guard head, a
  /// missing or left-over entry, or final stats (size_after_words measured
  /// from the real body) that differ from `walk.stats` throw ith::Error — a
  /// walk that does not describe this body fails loudly.
  AnnotatedMethod run(bc::MethodId id, const VerdictTrace& walk,
                      InlineStats* stats = nullptr) const;

  /// True if `callee` can structurally be spliced: single-value returns
  /// (operand stack depth exactly 1 at every kRet) and no kHalt.
  static bool is_inlinable(const bc::Program& prog, bc::MethodId callee);

 private:
  void splice(AnnotatedMethod& am, std::size_t call_pc, AnalysisManager& analyses) const;
  void splice_partial(AnnotatedMethod& am, std::size_t call_pc, const PartialShape& shape) const;

  const bc::Program& prog_;
  obs::Context* obs_;
  AnalysisManager* analyses_;
};

}  // namespace ith::opt
