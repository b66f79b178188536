// Decision probe: the inliner's decision procedure, walked without
// transforming or executing any code.
//
// DecisionProbe::probe_method is the one place that decides a call site:
// the structural guards (structural_rule), the size arithmetic after each
// simulated splice (bytecode/size_estimator) and the depth/chain
// bookkeeping live here alone, and the heuristic is asked here. The walk
// it returns lists every call site the scan reaches, in scan order, with
// its verdict and rule; Inliner::run splices that walk and throws if the
// real body ever disagrees with it, and the same entries are the
// structured inline report. Because a splice only rewrites operands (and
// kRet into kJmp) while per-instruction word estimates depend on the
// opcode alone, the walk's virtual size accounting is exact.
//
// On top of the walk sits the decision *signature*: a canonical FNV-1a
// hash of every decision the Figure 3/4 heuristic with a given parameter
// vector would make over the program, across every profile-consistent
// hot/cold labelling of call sites. Two parameter vectors with equal
// signatures drive the optimizer to identical code at every compilation the
// VM could ever perform, hence identical ExecStats — which is what lets the
// SuiteEvaluator collapse behaviourally-equivalent genomes onto one cache
// entry (see DESIGN.md "Decision-signature caching").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bytecode/program.hpp"
#include "heuristics/heuristic.hpp"
#include "opt/inliner.hpp"

namespace ith::opt {

/// One kCall in a method's original code, with everything the walk's size
/// arithmetic needs to consider splicing its callee there.
struct CallSite {
  std::int32_t pc = 0;      ///< position of the kCall in the original body
  bc::MethodId callee = -1;
  bool inlinable = false;   ///< Inliner::is_inlinable(callee)
  int callee_size = 0;      ///< estimated words of the original callee (every site)
  int head_size = -1;       ///< guard-head words, -1 for an unsplittable callee
  // Growth of the evolving body when this site, with its own argument
  // count, is spliced (inlinable callees only).
  int full_words = 0;       ///< marshal stores + zeroing prologue + body - call
  int full_insns = 0;       ///< instructions ahead of the spliced body
  int partial_words = 0;    ///< marshal stores + rerouted head + stub reloads
  int partial_insns = 0;    ///< instructions ahead of the residual call
};

/// Immutable per-program facts shared by the replay and the signature walk:
/// a per-method call-site index whose entries carry the callee's shape
/// (inlinability, estimated size, guard head) and the splice growth at that
/// site, plus each method's estimated size and instruction count. Built
/// once from the code; being read-only afterwards it is safe to share
/// across threads, which is how SuiteEvaluator amortizes it over every
/// probe of a tuning run.
class ProbeFacts {
 public:
  explicit ProbeFacts(const bc::Program& prog);

  std::size_t num_methods() const { return est_size_.size(); }
  /// Call sites of `m`'s original code, in pc order.
  std::span<const CallSite> call_sites(bc::MethodId m) const;
  /// estimated_method_size of the original method (the initial caller_size).
  int est_size(bc::MethodId m) const { return est_size_[static_cast<std::size_t>(m)]; }
  /// Instruction count of the original method.
  std::size_t num_insns(bc::MethodId m) const { return num_insns_[static_cast<std::size_t>(m)]; }

 private:
  std::vector<CallSite> sites_;             ///< all methods' sites, method-major
  std::vector<std::uint32_t> site_begin_;   ///< method m owns [begin[m], begin[m+1])
  std::vector<int> est_size_;
  std::vector<std::size_t> num_insns_;
};

/// The structural guard that refuses splicing `site` with the walk in the
/// given state, or null when none does. In order: depth cap, recursion
/// bound (only below the root level; `occurrences` counts the callee on the
/// chain of methods inlined through), evolving-body size, callee shape.
/// The walk names the rule in its entry; the signature only asks whether
/// one fired.
const char* structural_rule(const InlineLimits& limits, int depth, int occurrences,
                            int caller_words, const CallSite& site);

/// The decision procedure of the inline pass, under a concrete site oracle.
class DecisionProbe {
 public:
  /// `facts` (built from the program being compiled) and the heuristic are
  /// non-owning and must outlive the probe; the heuristic is consulted
  /// through decide().
  DecisionProbe(const ProbeFacts& facts, const heur::InlineHeuristic& heuristic,
                SiteOracle oracle = cold_site, InlineLimits limits = {});

  /// Walks `root`: one entry per call site the scan reaches, in scan order,
  /// into `out.decisions` (structural refusals included, each naming its
  /// guard), and the InlineStats of the session into `out.stats` — the walk
  /// Inliner::run splices. `out` is overwritten (its capacity is kept). No
  /// code is produced or mutated.
  void probe_method(bc::MethodId root, VerdictTrace& out) const;

 private:
  const ProbeFacts& facts_;
  const heur::InlineHeuristic& heuristic_;
  SiteOracle oracle_;
  InlineLimits limits_;
};

/// Version of the signature walk's output. Anything that persists
/// signatures across processes (the evaluation cache's params → keys table)
/// mixes it into its fingerprint, so bump it whenever a change to the walk
/// moves any signature value or exact flag — and re-record
/// tests/opt/signature_golden_test.cpp under the new number.
inline constexpr std::uint64_t kSignatureVersion = 1;

struct SignatureOptions {
  /// Explore every profile-consistent hot/cold labelling of origin call
  /// sites (the adaptive scenario, where recompilations can see any profile
  /// state). False = a single all-cold replay (the all-opt scenario, whose
  /// oracle is always cold_site).
  bool adaptive = true;
  /// Ceiling on consultations+forks across the whole program. Divergent
  /// labellings explore a decision *tree*, which is exponential in the
  /// worst case; past this budget the signature falls back to hashing the
  /// raw parameter vector (sound — no collapse — and flagged `exact=false`).
  std::size_t max_events = std::size_t{1} << 14;
};

struct SignatureResult {
  std::uint64_t value = 0;
  /// False when the event budget overflowed and `value` is merely the raw
  /// parameter hash (still a valid cache key, just collapse-free).
  bool exact = true;
  std::uint64_t consultations = 0;  ///< heuristic consultations explored
  std::uint64_t forks = 0;          ///< hot/cold divergences explored
};

/// Canonical decision signature of the Figure 3/4 heuristic with `params`
/// over `prog`: equal signatures (with exact=true) imply the optimizer
/// produces identical code at every compilation under either parameter
/// vector, for every reachable profile state. Valid for heuristics whose
/// verdict depends on the site profile only through `is_hot` (the Jikes
/// fig3/fig4 family — site_count is ignored by the decision rules).
/// Partial-inline verdicts hash as a third consultation byte and explore
/// the residual re-call the splice leaves behind, so the signature stays a
/// sound collapse key across the full six-parameter space; with
/// PARTIAL_MAX_HEAD_SIZE = 0 the byte stream is identical to the
/// five-parameter encoding.
///
/// `facts` must have been built from `prog`; callers probing one program
/// many times build it once and pass it here.
SignatureResult decision_signature(const bc::Program& prog, const ProbeFacts& facts,
                                   const heur::InlineParams& params, InlineLimits limits,
                                   const SignatureOptions& opts = {});

/// Convenience form that builds the ProbeFacts for a single probe.
SignatureResult decision_signature(const bc::Program& prog, const heur::InlineParams& params,
                                   InlineLimits limits, const SignatureOptions& opts = {});

}  // namespace ith::opt
