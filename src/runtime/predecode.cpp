#include "runtime/predecode.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"

namespace ith::rt {

namespace {

bool is_jump(bc::Op op) { return bc::op_info(op).is_branch; }

/// Control may not fall through from `op` to the next pc in program order
/// (or leaves the frame and comes back): the next instruction starts a run.
bool ends_run(bc::Op op) {
  const bc::OpInfo& info = bc::op_info(op);
  return info.is_branch || info.is_terminator || op == bc::Op::kCall;
}

}  // namespace

PredecodedBody predecode(const CompiledMethod& cm, const MachineModel& machine) {
  const std::size_t n = cm.body.size();
  ITH_ASSERT(cm.word_offset.size() == n + 1, "predecode: compiled method not finalized");

  const std::uint32_t tier_cpi = machine.cpi_units()[static_cast<std::size_t>(cm.tier)];
  const std::vector<bc::Instruction>& code = cm.body.code();

  PredecodedBody pb;
  pb.cm = &cm;
  pb.code.resize(n);
  for (std::size_t pc = 0; pc < n; ++pc) {
    const bc::Instruction& insn = code[pc];
    PredecodedInsn& pi = pb.code[pc];
    pi.op = insn.op;
    // Jumps carry their pc-relative delta so the engine advances ip by
    // addition alone; everything else keeps the raw operand.
    pi.a = is_jump(insn.op) ? insn.a - static_cast<std::int32_t>(pc) : insn.a;
    pi.b = insn.b;
    const std::uint64_t addr =
        cm.code_base + static_cast<std::uint64_t>(cm.word_offset[pc]) *
                           static_cast<std::uint64_t>(machine.bytes_per_word);
    pi.line = addr / machine.icache_line_bytes;
    if (pc == 0 || ends_run(code[pc - 1].op) || pi.line != pb.code[pc - 1].line) pi.head = true;
    if (is_jump(insn.op) && insn.a >= 0 && static_cast<std::size_t>(insn.a) < n) {
      pb.code[static_cast<std::size_t>(insn.a)].head = true;
    }
  }

  // Suffix sums, back to front: an entry's run continues into pc + 1 unless
  // that entry starts the next run.
  for (std::size_t pc = n; pc-- > 0;) {
    PredecodedInsn& pi = pb.code[pc];
    std::uint64_t cost = static_cast<std::uint64_t>(bc::op_info(pi.op).machine_words) * tier_cpi;
    std::uint64_t len = 1;
    if (pc + 1 < n && !pb.code[pc + 1].head) {
      cost += pb.code[pc + 1].run_cost;
      len += pb.code[pc + 1].run_len;
    }
    ITH_CHECK(cost <= std::numeric_limits<std::uint32_t>::max(),
              "predecode: a straight-line run costs more than 2^32 cost units");
    pi.run_cost = static_cast<std::uint32_t>(cost);
    pi.run_len = static_cast<std::uint32_t>(len);
  }

  // Operand-stack headroom: the depth after executing the instruction at pc
  // is stack_depth[pc] + stack_effect, and no instruction's transient state
  // exceeds that. Unreachable pcs (-1) never execute.
  int max_depth = 1;  // a returning callee pushes one value above the floor
  for (std::size_t pc = 0; pc < n; ++pc) {
    const int d = cm.stack_depth[pc];
    if (d < 0) continue;
    max_depth = std::max(max_depth, d + std::max(0, bc::stack_effect(code[pc])));
  }
  pb.max_operand_depth = max_depth;
  return pb;
}

PredecodedBody single_step_twin(const PredecodedBody& pb) {
  PredecodedBody twin;
  twin.cm = pb.cm;
  twin.max_operand_depth = pb.max_operand_depth;
  twin.code = pb.code;
  const std::size_t n = pb.code.size();
  for (std::size_t pc = 0; pc < n; ++pc) {
    PredecodedInsn& pi = twin.code[pc];
    // Own cost = this entry's suffix minus the next entry's, when the next
    // entry continues the same run.
    if (pc + 1 < n && !pb.code[pc + 1].head) pi.run_cost -= pb.code[pc + 1].run_cost;
    pi.run_len = 1;
    pi.head = true;
    pi.target = nullptr;
  }
  return twin;
}

}  // namespace ith::rt
