#include "runtime/predecode.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace ith::rt {

PredecodedBody predecode(const CompiledMethod& cm, const MachineModel& machine) {
  const std::size_t n = cm.body.size();
  ITH_ASSERT(cm.word_offset.size() == n + 1, "predecode: compiled method not finalized");

  const double cpi[3] = {machine.baseline_cpi, machine.mid_cpi, machine.opt_cpi};
  const double tier_cpi = cpi[static_cast<int>(cm.tier)];

  PredecodedBody pb;
  pb.cm = &cm;
  pb.code.resize(n);
  for (std::size_t pc = 0; pc < n; ++pc) {
    const bc::Instruction& insn = cm.body.code()[pc];
    PredecodedInsn& pi = pb.code[pc];
    pi.op = insn.op;
    // Jumps carry their pc-relative delta so the engine advances ip by
    // addition alone; everything else keeps the raw operand.
    const bool is_jump =
        insn.op == bc::Op::kJmp || insn.op == bc::Op::kJz || insn.op == bc::Op::kJnz;
    pi.a = is_jump ? insn.a - static_cast<std::int32_t>(pc) : insn.a;
    pi.b = insn.b;
    // Same product the reference engine computes per dynamic instruction;
    // folding it here cannot change the cycle stream (identical operands,
    // identical IEEE multiply, additions happen in the same order).
    pi.base_cost = static_cast<double>(bc::op_info(insn.op).machine_words) * tier_cpi;
    const std::uint64_t addr =
        cm.code_base + static_cast<std::uint64_t>(cm.word_offset[pc]) *
                           static_cast<std::uint64_t>(machine.bytes_per_word);
    pi.line = addr / machine.icache_line_bytes;
  }

  // Operand-stack headroom: the depth after executing the instruction at pc
  // is stack_depth[pc] + stack_effect, and no instruction's transient state
  // exceeds that. Unreachable pcs (-1) never execute.
  int max_depth = 1;  // a returning callee pushes one value above the floor
  for (std::size_t pc = 0; pc < n; ++pc) {
    const int d = cm.stack_depth[pc];
    if (d < 0) continue;
    max_depth = std::max(max_depth, d + std::max(0, bc::stack_effect(cm.body.code()[pc])));
  }
  pb.max_operand_depth = max_depth;
  return pb;
}

}  // namespace ith::rt
