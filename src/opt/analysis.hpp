// AnalysisManager + PreservedAnalyses: cached per-function analyses for the
// pass-manager redesign of opt/.
//
// Two scopes of facts, mirroring what the passes actually consume:
//
//   Program scope — pure functions of the immutable bc::Program (estimated
//   method sizes, splice-prologue need, partial-inline head shapes, the call
//   graph). Passes mutate only a *copy* of a body, so these
//   are computed once per manager lifetime and shared across compilations;
//   the VM keeps one manager for its whole session, which is what turns the
//   O1->O2 recompilation ladder's repeated structural queries into hits.
//
//   Body scope — facts about the single body currently under the pass
//   manager (branch-target set, local liveness, reachability). These are
//   dropped by begin_body() and selectively invalidated after each pass via
//   PreservedAnalyses, LLVM-style: a pass that changed the body reports
//   which analyses its rewrite provably preserved, and only the rest are
//   recomputed on next use.
//
// Soundness is testable: set_verify(true) recomputes every body-scope hit
// from scratch and throws ith::Error on any mismatch — the stale-analysis
// detector the invalidation property tests drive by deliberately
// under-reporting preservation. (A body fingerprint would false-positive:
// dead-store elimination changes the code while genuinely preserving
// liveness; only value equality defines staleness.)
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "bytecode/program.hpp"
#include "obs/context.hpp"
#include "opt/annotated.hpp"

namespace ith::opt {

/// Identity of one cached analysis. Program-scope entries are never
/// invalidated (the program is immutable); body-scope entries participate in
/// PreservedAnalyses bookkeeping.
enum class AnalysisId : unsigned {
  // Program scope.
  kMethodSize = 0,   ///< bc::estimated_method_size of the original method
  kPrologue,         ///< splice needs a zeroing prologue (!definitely_assigned)
  kPartialShape,     ///< partial-inline head shape (see partial_inline_shape)
  kCallGraph,        ///< distinct call targets of the original method
  // Body scope.
  kBranchTargets,    ///< pcs targeted by some branch of the current body
  kLiveness,         ///< per-local load counts of the current body
  kReachability,     ///< reachable-pc set of the current body
};

constexpr unsigned kNumAnalyses = 7;
constexpr unsigned kFirstBodyAnalysis = static_cast<unsigned>(AnalysisId::kBranchTargets);

const char* analysis_name(AnalysisId id);

/// What a pass's rewrite provably kept valid. Default-constructed = all
/// preserved (the right answer for a pass that made no changes).
class PreservedAnalyses {
 public:
  static PreservedAnalyses all() { return PreservedAnalyses{}; }
  static PreservedAnalyses none() {
    PreservedAnalyses pa;
    pa.bits_ = 0;
    return pa;
  }

  PreservedAnalyses& preserve(AnalysisId id) {
    bits_ |= bit(id);
    return *this;
  }
  PreservedAnalyses& abandon(AnalysisId id) {
    bits_ &= ~bit(id);
    return *this;
  }
  bool preserved(AnalysisId id) const { return (bits_ & bit(id)) != 0; }

  friend bool operator==(const PreservedAnalyses&, const PreservedAnalyses&) = default;

 private:
  static std::uint32_t bit(AnalysisId id) { return 1u << static_cast<unsigned>(id); }
  std::uint32_t bits_ = (1u << kNumAnalyses) - 1;
};

/// Per-local load counts of a body. A slot with count 0 is dead for the
/// dead-store pass; copy propagation consumes (and decrements a copy of)
/// the raw counts.
struct LocalLiveness {
  std::vector<std::size_t> load_count;
};

/// Shape of the partially-inlinable prefix of a method: the "guard head" a
/// too-big callee exposes before its cold tail. `head_len` instructions
/// form a pure prefix (no stores, calls, global writes or halts; loads
/// touch argument slots only) containing at least one reachable single-value
/// kRet, and every exit out of the prefix leaves the operand stack empty —
/// so the head can be spliced into a caller with the cold exits rerouted to
/// a stub that re-invokes the original callee from the (untouched) argument
/// copies. `head_words` is the estimated machine-word size of that prefix
/// as spliced (each kRet priced as the kJmp it becomes).
struct PartialShape {
  int head_len = 0;
  int head_words = 0;

  friend bool operator==(const PartialShape&, const PartialShape&) = default;
};

/// Finds the shortest valid guard head of `m` (the prefix ending just after
/// its first reachable kRet that satisfies the purity and stack-discipline
/// rules above), or nullopt if no prefix qualifies. Pure function of the
/// method body; memoized per callee by AnalysisManager and computed once per
/// program by ProbeFacts.
std::optional<PartialShape> partial_inline_shape(const bc::Method& m);

/// Aggregate cache statistics, exposed for the recomputation-waste tests
/// (and mirrored into the opt.analysis_{hits,misses,invalidations} obs
/// counters when a context is attached).
struct AnalysisStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
  std::array<std::uint64_t, kNumAnalyses> hits_by_kind{};
  std::array<std::uint64_t, kNumAnalyses> misses_by_kind{};
};

class AnalysisManager {
 public:
  /// `obs` is non-owning and may be null; with a context attached every
  /// hit/miss/invalidation also bumps the opt.analysis_* counters.
  explicit AnalysisManager(const bc::Program& prog, obs::Context* obs = nullptr);

  // --- Program scope (never invalidated; shared across compilations) ---
  int method_size(bc::MethodId m);
  bool needs_prologue(bc::MethodId m);
  const std::optional<PartialShape>& partial_shape(bc::MethodId m);
  /// Distinct call targets of the *original* body, ascending. Empty for
  /// call-free methods — the inline pass's fast path.
  const std::vector<bc::MethodId>& callees(bc::MethodId m);

  // --- Body scope (the single body currently under the pass manager) ---
  const std::vector<bool>& branch_targets(const AnnotatedMethod& am);
  const LocalLiveness& liveness(const AnnotatedMethod& am);
  const std::vector<bool>& reachable(const AnnotatedMethod& am);

  /// Starts a new compilation: drops all body-scope entries (not counted as
  /// invalidations — there is no stale value to protect against).
  void begin_body();

  /// Drops every body-scope entry `pa` does not claim preserved. Called by
  /// the pass manager after each pass that reported changes.
  void invalidate(const PreservedAnalyses& pa);

  /// Verify mode: every body-scope cache hit is recomputed from scratch and
  /// compared; a mismatch (a pass lied about preservation) throws
  /// ith::Error. Test/fuzz-only — hits stop being cheap.
  void set_verify(bool on) { verify_ = on; }

  const AnalysisStats& stats() const { return stats_; }

 private:
  void count_hit(AnalysisId id);
  void count_miss(AnalysisId id);

  const bc::Program& prog_;
  obs::Context* obs_;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* invalidations_counter_ = nullptr;
  bool verify_ = false;
  AnalysisStats stats_;

  // Program scope, lazily filled per method (-1 / unset = not yet computed).
  std::vector<int> method_size_;
  std::vector<signed char> prologue_;
  std::vector<signed char> partial_known_;
  std::vector<std::optional<PartialShape>> partial_;
  std::vector<signed char> callees_known_;
  std::vector<std::vector<bc::MethodId>> callees_;

  // Body scope.
  bool branch_targets_valid_ = false;
  std::vector<bool> branch_targets_;
  bool liveness_valid_ = false;
  LocalLiveness liveness_;
  bool reachable_valid_ = false;
  std::vector<bool> reachable_;
};

}  // namespace ith::opt
