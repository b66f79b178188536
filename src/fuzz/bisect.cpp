#include "fuzz/bisect.hpp"

#include <sstream>

namespace ith::fuzz {

std::string BisectResult::to_string() const {
  if (!reproduced) return "not reproduced";
  if (unresolved) return "unresolved (no single pass explains the divergence)";
  std::ostringstream os;
  os << "guilty:";
  for (const std::string& g : guilty) os << " " << g;
  return os.str();
}

BisectResult bisect_passes(const bc::Program& prog, const DifferentialOracle& oracle) {
  BisectResult result;
  const opt::PipelineDesc& base = oracle.pipeline();

  const OracleVerdict full = oracle.check_with_pipeline(prog, base);
  if (full.reference_failed || !full.diverged) return result;
  result.reproduced = true;

  std::vector<std::string> names = base.setup;
  names.insert(names.end(), base.fixpoint.begin(), base.fixpoint.end());
  for (const std::string& name : names) {
    const OracleVerdict v = oracle.check_with_pipeline(prog, base.without(name));
    if (!v.reference_failed && !v.diverged) result.guilty.push_back(name);
  }
  result.unresolved = result.guilty.empty();
  return result;
}

}  // namespace ith::fuzz
