// DecisionTrie: run-level replay of one benchmark's recorded runs.
//
// Under one evaluator configuration with no armed fault plan, a benchmark
// run is deterministic, and the inlining parameters reach it only through
// the body installed at each optimizing compile — a pure function of
// (method, the probe walk's verdict bytes) (opt/body_memo.hpp). The trie
// stores recorded runs as paths of compile events (vm::CompileEvent): a
// node holds the next compile's method, tier and hot-site set, which the
// verdicts on the path to it fix; an edge is keyed by that compile's
// verdict bytes; a leaf holds the run's ok result and its run key.
//
// find() walks the trie for a candidate: at each node it asks for the
// candidate's verdicts at the node's method under the node's hot set and
// follows the matching edge. Reaching a leaf proves, by induction over the
// compile events, that the candidate's run installs the same code at the
// same points as the recorded run, so it returns the same result bit for
// bit. Falling off the trie proves nothing; the caller runs the benchmark
// and inserts its trace.
//
// The run key (run_key()) hashes a compile path's content, so a walk that
// reaches a leaf and a run that records the same path name the same key in
// any process. Under Adapt it is the evaluator's per-benchmark cache key
// (DESIGN.md §10).
//
// Thread-safe: insert() holds the lock throughout; find() holds it only
// between verdict checks, since a node never changes once published and
// edges only grow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "tuner/evaluator.hpp"
#include "vm/vm.hpp"

namespace ith::tuner {

/// Content hash of a compile path: per event the method, tier, hot sites
/// and verdict bytes.
std::uint64_t run_key(const CompileTrace& trace);

class DecisionTrie {
 public:
  /// The candidate's verdict bytes for compiling `method` while the sites
  /// in `hot_sites` (rt::ProfileData::site_key, ascending) are hot.
  using Verdicts = std::function<std::string(bc::MethodId method,
                                             const std::vector<std::uint64_t>& hot_sites)>;

  using Leaf = RecordedRun;

  /// The leaf of the recorded run whose every compile event `verdicts`
  /// agrees with, or null when the walk falls off the trie. Leaves live as
  /// long as the trie.
  const Leaf* find(const Verdicts& verdicts) const;

  struct Inserted {
    const Leaf* leaf = nullptr;  ///< the run's leaf, new or already there
    std::size_t bytes = 0;       ///< bytes the insert added (see bytes())
  };
  /// Records one ok run: its compile trace and its result. Throws
  /// ith::Error, having changed nothing, when the trace contradicts a
  /// recorded path: a different compile event where the path already has
  /// one, or a different result at its leaf (BenchmarkResult::trace aside).
  Inserted insert(const CompileTrace& trace, const BenchmarkResult& result);

  /// Approximate payload bytes held: nodes, hot sets and verdict keys.
  std::size_t bytes() const;

 private:
  /// An event node holds the next compile (method, tier, hot_sites); its
  /// children, one per verdict string seen there, form a sibling list. A
  /// leaf holds only a Leaf. `verdicts` keys the edge from the parent.
  struct Node {
    bc::MethodId method = -1;
    rt::Tier tier = rt::Tier::kOpt;
    std::vector<std::uint64_t> hot_sites;
    std::string verdicts;
    std::unique_ptr<Node> first_child;
    std::unique_ptr<Node> next_sibling;
    std::unique_ptr<const Leaf> leaf;  ///< non-null exactly in leaves
  };

  /// The node for position k of `trace`: its event, or the leaf past the
  /// end. Adds its size to bytes_.
  std::unique_ptr<Node> make_node(const CompileTrace& trace, std::size_t k,
                                  const BenchmarkResult& result);

  mutable std::mutex mu_;
  std::unique_ptr<Node> root_;  ///< null until the first insert
  std::size_t bytes_ = 0;
};

}  // namespace ith::tuner
