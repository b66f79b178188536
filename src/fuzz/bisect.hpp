// Pass bisection: name the guilty pass for a divergence.
//
// Given a program the oracle reports divergent, re-runs the differential
// check with each pass of the oracle's pipeline dropped individually. A
// pass whose removal makes the divergence disappear is recorded as guilty;
// several passes can be guilty at once when passes interact (one pass
// creating the shape another miscompiles).
#pragma once

#include <string>
#include <vector>

#include "bytecode/program.hpp"
#include "fuzz/oracle.hpp"

namespace ith::fuzz {

struct BisectResult {
  /// Divergence confirmed under the oracle's full pipeline before dropping.
  bool reproduced = false;
  /// Pass names (PipelineDesc entries) whose individual removal eliminates
  /// the divergence, in pipeline order.
  std::vector<std::string> guilty;
  /// Set when every single-pass removal still diverges (bug outside the
  /// passes, or only reproducible with a pass *combination*).
  bool unresolved = false;

  std::string to_string() const;
};

BisectResult bisect_passes(const bc::Program& prog, const DifferentialOracle& oracle);

}  // namespace ith::fuzz
