#include "runtime/compiled.hpp"

#include <vector>

#include "bytecode/size_estimator.hpp"
#include "support/error.hpp"

namespace ith::rt {

void CompiledMethod::finalize() {
  const std::size_t n = body.size();
  ITH_CHECK(origin.empty() || origin.size() == n, "origin annotation length mismatch");
  word_offset.resize(n + 1);
  std::uint32_t words = bc::kFrameOverheadWords;  // prologue precedes the first instruction
  for (std::size_t pc = 0; pc < n; ++pc) {
    word_offset[pc] = words;
    words += static_cast<std::uint32_t>(bc::estimated_words(body.code()[pc]));
  }
  word_offset[n] = words;

  // Abstract stack depths. The body is verified, so joins are consistent
  // and the order the worklist visits pcs in cannot change a depth.
  stack_depth.assign(n, -1);
  std::vector<std::size_t> worklist{0};
  stack_depth[0] = 0;
  while (!worklist.empty()) {
    const std::size_t pc = worklist.back();
    worklist.pop_back();
    const bc::Instruction& insn = body.code()[pc];
    const int out = stack_depth[pc] + bc::stack_effect(insn);
    auto visit = [&](std::size_t to) {
      if (to < n && stack_depth[to] == -1) {
        stack_depth[to] = out;
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
}

std::int64_t CompiledMethod::find_origin(bc::MethodId method, std::int32_t pc) const {
  std::int64_t found = -1;
  for (std::size_t i = 0; i < origin.size(); ++i) {
    if (origin[i].first == method && origin[i].second == pc) {
      if (found != -1) return -1;  // ambiguous (duplicated by inlining)
      found = static_cast<std::int64_t>(i);
    }
  }
  return found;
}

std::uint32_t CompiledMethod::size_words() const {
  ITH_CHECK(!word_offset.empty(), "CompiledMethod not finalized");
  return word_offset.back();
}

}  // namespace ith::rt
