#include "opt/analysis.hpp"

#include <algorithm>
#include <deque>

#include "bytecode/size_estimator.hpp"
#include "opt/passes.hpp"
#include "support/error.hpp"

namespace ith::opt {

const char* analysis_name(AnalysisId id) {
  switch (id) {
    case AnalysisId::kMethodSize: return "method_size";
    case AnalysisId::kPrologue: return "prologue";
    case AnalysisId::kPartialShape: return "partial_shape";
    case AnalysisId::kCallGraph: return "call_graph";
    case AnalysisId::kBranchTargets: return "branch_targets";
    case AnalysisId::kLiveness: return "liveness";
    case AnalysisId::kReachability: return "reachability";
  }
  return "?";
}

namespace {

constexpr int kUnvisited = -1;

/// Abstract stack depth per pc (kUnvisited where unreachable). The method is
/// assumed verified, so joins are consistent.
std::vector<int> abstract_depths(const bc::Method& m) {
  std::vector<int> depth(m.size(), kUnvisited);
  std::deque<std::size_t> worklist{0};
  depth[0] = 0;
  while (!worklist.empty()) {
    const std::size_t pc = worklist.front();
    worklist.pop_front();
    const bc::Instruction& insn = m.code()[pc];
    const int out = depth[pc] + bc::stack_effect(insn);
    auto visit = [&](std::size_t to) {
      if (to < m.size() && depth[to] == kUnvisited) {
        depth[to] = out;
        worklist.push_back(to);
      }
    };
    switch (insn.op) {
      case bc::Op::kJmp:
        visit(static_cast<std::size_t>(insn.a));
        break;
      case bc::Op::kJz:
      case bc::Op::kJnz:
        visit(static_cast<std::size_t>(insn.a));
        visit(pc + 1);
        break;
      case bc::Op::kRet:
      case bc::Op::kHalt:
        break;
      default:
        visit(pc + 1);
        break;
    }
  }
  return depth;
}

/// Validity of the prefix [0, head_len) as a splice-able guard head. The
/// opcode whitelist applies to *every* prefix instruction (dead code is
/// spliced too and must still verify against the caller's local count);
/// stack-discipline rules apply to reachable instructions only.
bool valid_head(const bc::Method& m, const std::vector<int>& depth, std::size_t head_len) {
  const auto nargs = static_cast<std::int32_t>(m.num_args());
  bool has_ret = false;
  for (std::size_t pc = 0; pc < head_len; ++pc) {
    const bc::Instruction& insn = m.code()[pc];
    switch (insn.op) {
      case bc::Op::kCall:
      case bc::Op::kStore:
      case bc::Op::kGStore:
      case bc::Op::kHalt:
        return false;  // the head must be re-executable without side effects
      case bc::Op::kLoad:
        // Only argument slots: the splice materializes arguments alone, and
        // the cold stub re-reads them to rebuild the real call.
        if (insn.a >= nargs) return false;
        break;
      default:
        break;
    }
    if (depth[pc] == kUnvisited) continue;  // dead code: spliced but never run
    if (insn.op == bc::Op::kRet) {
      if (depth[pc] != 1) return false;  // single-value return, as in is_inlinable
      has_ret = true;
      continue;
    }
    const int after = depth[pc] + bc::stack_effect(insn);
    // Exits into the cold tail must leave the operand stack empty: the stub
    // reloads the arguments and re-issues the original call from depth 0.
    const bool is_branch = bc::op_info(insn.op).is_branch;
    if (is_branch && static_cast<std::size_t>(insn.a) >= head_len && after != 0) return false;
    if (pc + 1 == head_len && insn.op != bc::Op::kJmp && after != 0) return false;
  }
  return has_ret;
}

}  // namespace

std::optional<PartialShape> partial_inline_shape(const bc::Method& m) {
  const std::size_t n = m.size();
  if (n < 2) return std::nullopt;  // a strict prefix needs at least two insns
  const std::vector<int> depth = abstract_depths(m);
  for (std::size_t ret_pc = 0; ret_pc + 1 < n; ++ret_pc) {
    if (m.code()[ret_pc].op != bc::Op::kRet) continue;
    if (depth[ret_pc] == kUnvisited) continue;  // an unreachable ret proves nothing
    const std::size_t head_len = ret_pc + 1;
    if (!valid_head(m, depth, head_len)) continue;
    int words = 0;
    for (std::size_t pc = 0; pc < head_len; ++pc) {
      const bc::Instruction& insn = m.code()[pc];
      words += bc::estimated_words(insn.op == bc::Op::kRet ? bc::Instruction{bc::Op::kJmp, 0, 0}
                                                           : insn);
    }
    return PartialShape{static_cast<int>(head_len), words};
  }
  return std::nullopt;
}

AnalysisManager::AnalysisManager(const bc::Program& prog, obs::Context* obs)
    : prog_(prog),
      obs_(obs),
      method_size_(prog.num_methods(), -1),
      prologue_(prog.num_methods(), -1),
      partial_known_(prog.num_methods(), 0),
      partial_(prog.num_methods()),
      callees_known_(prog.num_methods(), 0),
      callees_(prog.num_methods()) {
  if (obs_ != nullptr) {
    hits_counter_ = &obs_->counter("opt.analysis_hits");
    misses_counter_ = &obs_->counter("opt.analysis_misses");
    invalidations_counter_ = &obs_->counter("opt.analysis_invalidations");
  }
}

void AnalysisManager::count_hit(AnalysisId id) {
  ++stats_.hits;
  ++stats_.hits_by_kind[static_cast<std::size_t>(id)];
  if (hits_counter_ != nullptr) hits_counter_->add(1);
}

void AnalysisManager::count_miss(AnalysisId id) {
  ++stats_.misses;
  ++stats_.misses_by_kind[static_cast<std::size_t>(id)];
  if (misses_counter_ != nullptr) misses_counter_->add(1);
}

int AnalysisManager::method_size(bc::MethodId m) {
  int& memo = method_size_[static_cast<std::size_t>(m)];
  if (memo >= 0) {
    count_hit(AnalysisId::kMethodSize);
    return memo;
  }
  count_miss(AnalysisId::kMethodSize);
  memo = bc::estimated_method_size(prog_.method(m));
  return memo;
}

bool AnalysisManager::needs_prologue(bc::MethodId m) {
  signed char& memo = prologue_[static_cast<std::size_t>(m)];
  if (memo >= 0) {
    count_hit(AnalysisId::kPrologue);
    return memo == 1;
  }
  count_miss(AnalysisId::kPrologue);
  memo = non_arg_locals_definitely_assigned(prog_.method(m)) ? 0 : 1;
  return memo == 1;
}

const std::optional<PartialShape>& AnalysisManager::partial_shape(bc::MethodId m) {
  const auto i = static_cast<std::size_t>(m);
  if (partial_known_[i] != 0) {
    count_hit(AnalysisId::kPartialShape);
    return partial_[i];
  }
  count_miss(AnalysisId::kPartialShape);
  partial_[i] = partial_inline_shape(prog_.method(m));
  partial_known_[i] = 1;
  return partial_[i];
}

const std::vector<bc::MethodId>& AnalysisManager::callees(bc::MethodId m) {
  const auto i = static_cast<std::size_t>(m);
  if (callees_known_[i] != 0) {
    count_hit(AnalysisId::kCallGraph);
    return callees_[i];
  }
  count_miss(AnalysisId::kCallGraph);
  std::vector<bc::MethodId> targets;
  for (const bc::Instruction& insn : prog_.method(m).code()) {
    if (insn.op == bc::Op::kCall) targets.push_back(insn.a);
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  callees_[i] = std::move(targets);
  callees_known_[i] = 1;
  return callees_[i];
}

const std::vector<bool>& AnalysisManager::branch_targets(const AnnotatedMethod& am) {
  if (branch_targets_valid_) {
    count_hit(AnalysisId::kBranchTargets);
    if (verify_) {
      ITH_CHECK(branch_targets_ == compute_branch_targets(am.method),
                "stale analysis 'branch_targets': a pass under-reported invalidation");
    }
    return branch_targets_;
  }
  count_miss(AnalysisId::kBranchTargets);
  branch_targets_ = compute_branch_targets(am.method);
  branch_targets_valid_ = true;
  return branch_targets_;
}

const LocalLiveness& AnalysisManager::liveness(const AnnotatedMethod& am) {
  if (liveness_valid_) {
    count_hit(AnalysisId::kLiveness);
    if (verify_) {
      ITH_CHECK(liveness_.load_count == compute_load_counts(am.method),
                "stale analysis 'liveness': a pass under-reported invalidation");
    }
    return liveness_;
  }
  count_miss(AnalysisId::kLiveness);
  liveness_.load_count = compute_load_counts(am.method);
  liveness_valid_ = true;
  return liveness_;
}

const std::vector<bool>& AnalysisManager::reachable(const AnnotatedMethod& am) {
  if (reachable_valid_) {
    count_hit(AnalysisId::kReachability);
    if (verify_) {
      ITH_CHECK(reachable_ == compute_reachable(am.method),
                "stale analysis 'reachability': a pass under-reported invalidation");
    }
    return reachable_;
  }
  count_miss(AnalysisId::kReachability);
  reachable_ = compute_reachable(am.method);
  reachable_valid_ = true;
  return reachable_;
}

void AnalysisManager::begin_body() {
  branch_targets_valid_ = false;
  liveness_valid_ = false;
  reachable_valid_ = false;
}

void AnalysisManager::invalidate(const PreservedAnalyses& pa) {
  const auto drop = [&](AnalysisId id, bool& valid) {
    if (valid && !pa.preserved(id)) {
      valid = false;
      ++stats_.invalidations;
      if (invalidations_counter_ != nullptr) invalidations_counter_->add(1);
    }
  };
  drop(AnalysisId::kBranchTargets, branch_targets_valid_);
  drop(AnalysisId::kLiveness, liveness_valid_);
  drop(AnalysisId::kReachability, reachable_valid_);
}

}  // namespace ith::opt
