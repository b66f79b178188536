#include "bytecode/instruction.hpp"

#include "support/error.hpp"

namespace ith::bc {

namespace detail {
void invalid_opcode() { ::ith::detail::raise(__FILE__, __LINE__, "invalid opcode byte"); }
}  // namespace detail

bool op_from_name(std::string_view name, Op& out) {
  for (std::size_t i = 0; i < detail::kOpTable.size(); ++i) {
    if (detail::kOpTable[i].name == name) {
      out = static_cast<Op>(i);
      return true;
    }
  }
  return false;
}

int stack_effect(const Instruction& insn) {
  if (insn.op == Op::kCall) {
    return 1 - insn.b;  // pop b args, push one result
  }
  return op_info(insn.op).stack_delta;
}

}  // namespace ith::bc
