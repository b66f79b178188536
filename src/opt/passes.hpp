// Scalar optimization passes run after inlining. These are what make
// inlining profitable beyond call-overhead removal: once a callee body sits
// inside its caller, constants flow through argument slots and fold, copies
// disappear, and unreachable paths are deleted — the "increased
// opportunities for compiler optimization" of the paper's abstract.
//
// Every pass preserves verifiability: it rewrites instructions in place
// (using kNop/kPop placeholders so branch targets stay valid) and reports
// how many rewrites it made; compact_nops() then removes the placeholders
// and rebases branch targets. Pass correctness is defined by the verifier
// accepting the output and the interpreter computing identical results.
#pragma once

#include <cstddef>
#include <vector>

#include "opt/annotated.hpp"

namespace ith::opt {

// --- Analysis producers ------------------------------------------------
// The raw computations behind AnalysisManager's body-scope caches, exported
// so the cache and the passes share one definition (the stale-analysis
// detector compares against exactly these).

/// pcs that are the target of some branch. Rewrites may not change the
/// stack effect observed by a jump landing mid-pattern.
std::vector<bool> compute_branch_targets(const bc::Method& m);

/// Per-local kLoad counts (the liveness the store-elimination passes use:
/// a slot with count 0 is dead).
std::vector<std::size_t> compute_load_counts(const bc::Method& m);

/// Reachable-pc set from entry.
std::vector<bool> compute_reachable(const bc::Method& m);

// --- Passes ------------------------------------------------------------
// Each pass has two forms: a self-contained one that computes what it needs
// from scratch (the unit tests' entry point) and an analysis-fed overload
// taking the precomputed inputs from an AnalysisManager (the PassManager's).
// Both perform identical rewrites.

/// Folds constant arithmetic/comparisons, constant-condition branches,
/// constant negation, and value-discarding pairs (const/load ; pop).
/// Returns the number of rewrites performed.
std::size_t constant_fold(AnnotatedMethod& am);
std::size_t constant_fold(AnnotatedMethod& am, const std::vector<bool>& targeted);

/// Removes no-op local traffic: `load i ; store i` pairs and
/// `store i ; load i` pairs when slot i has no other readers.
/// The overload takes `load_count` by value: the pass consumes and
/// decrements its own working copy.
std::size_t copy_propagate(AnnotatedMethod& am);
std::size_t copy_propagate(AnnotatedMethod& am, const std::vector<bool>& targeted,
                           std::vector<std::size_t> load_count);

/// Rewrites stores to never-read locals into kPop.
std::size_t eliminate_dead_stores(AnnotatedMethod& am);
std::size_t eliminate_dead_stores(AnnotatedMethod& am,
                                  const std::vector<std::size_t>& load_count);

/// Branch cleanups: jump-to-next removal, conditional-branch-to-next
/// reduction, and jump-chain threading.
std::size_t simplify_branches(AnnotatedMethod& am);

/// Algebraic identities: x+0, x-0, x*1, x/1 drop the operation; x*0 drops
/// the value and pushes 0 (same for 0/x via the total-division rule it
/// cannot prove, so only the literal-zero-multiplier form is handled).
std::size_t simplify_algebraic(AnnotatedMethod& am);
std::size_t simplify_algebraic(AnnotatedMethod& am, const std::vector<bool>& targeted);

/// Compare/branch fusion at the bytecode level: `cmpXX ; jz/jnz` pairs are
/// rewritten to the inverse/direct comparison plus a branch, removing the
/// intermediate boolean when it feeds straight into a conditional
/// (`cmpeq ; jz t` == `cmpne ; jnz t`, which folds further when one operand
/// is constant). Also folds double negation of conditions.
std::size_t fuse_compare_branch(AnnotatedMethod& am);
std::size_t fuse_compare_branch(AnnotatedMethod& am, const std::vector<bool>& targeted);

/// True if every non-argument local of the method is definitely written
/// before any read on every path from entry.
bool non_arg_locals_definitely_assigned(const bc::Method& m);

/// Replaces unreachable instructions with kNop.
std::size_t eliminate_unreachable(AnnotatedMethod& am);
std::size_t eliminate_unreachable(AnnotatedMethod& am, const std::vector<bool>& reachable);

/// Deletes kNop instructions and rebases branch targets. Returns the number
/// of instructions removed.
std::size_t compact_nops(AnnotatedMethod& am);

}  // namespace ith::opt
