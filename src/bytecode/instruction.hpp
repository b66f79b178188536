// The minijvm stack-machine instruction set.
//
// The IR is deliberately small but complete enough to express the workload
// programs (loops, arithmetic, branching, calls, global-array data access)
// and to make inlining a *real* transformation: calls are ordinary
// instructions whose removal changes both the dynamic instruction stream and
// the static code size.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ith::bc {

enum class Op : std::uint8_t {
  kConst,   // push a                       (a = immediate value)
  kLoad,    // push locals[a]
  kStore,   // locals[a] = pop
  kAdd,     // push(pop() + pop())  -- operands in program order: lhs pushed first
  kSub,
  kMul,
  kDiv,     // division by zero yields 0 (total semantics keep programs deterministic)
  kMod,
  kNeg,     // push(-pop())
  kCmpLt,   // push(lhs < rhs ? 1 : 0)
  kCmpLe,
  kCmpEq,
  kCmpNe,
  kJmp,     // pc = a                       (a = absolute index into method code)
  kJz,      // if (pop() == 0) pc = a
  kJnz,     // if (pop() != 0) pc = a
  kCall,    // invoke method a with b arguments; args popped, result pushed
  kRet,     // return pop() to caller
  kGLoad,   // idx = pop(); push(globals[idx mod |globals|])
  kGStore,  // v = pop(); idx = pop(); globals[idx mod |globals|] = v
  kPop,     // discard top of stack (emitted by dead-store elimination)
  kNop,
  kHalt,    // stop the whole program (entry method only)
};

/// Number of distinct opcodes (for iteration/validation).
inline constexpr int kNumOps = static_cast<int>(Op::kHalt) + 1;

/// One IR instruction. `a` is the immediate / local slot / branch target /
/// callee method index depending on the opcode; `b` is the argument count
/// for kCall and unused otherwise.
struct Instruction {
  Op op = Op::kNop;
  std::int32_t a = 0;
  std::int32_t b = 0;

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// Static per-opcode metadata.
struct OpInfo {
  std::string_view name;       // mnemonic used by the serializer
  int stack_delta;             // net operand-stack effect (kCall handled specially)
  bool is_branch;              // a is a branch target to rewrite when splicing
  bool is_terminator;          // control never falls through (kJmp/kRet/kHalt)
  int machine_words;           // estimated machine instructions when compiled
                               // (mirrors Jikes RVM's "estimated size of the
                               // generated machine code" used by the heuristic)
};

namespace detail {
// Machine-word estimates model a simple RISC-ish lowering: arithmetic is one
// instruction, division expands, branches need a compare+branch pair, and a
// call expands into argument marshalling + linkage (this is what makes call
// elimination by inlining shrink the *dynamic* footprint but inlined bodies
// grow the *static* one).
inline constexpr std::array<OpInfo, kNumOps> kOpTable = {{
    /*kConst*/ {"const", +1, false, false, 1},
    /*kLoad*/ {"load", +1, false, false, 1},
    /*kStore*/ {"store", -1, false, false, 1},
    /*kAdd*/ {"add", -1, false, false, 1},
    /*kSub*/ {"sub", -1, false, false, 1},
    /*kMul*/ {"mul", -1, false, false, 1},
    // Workload divisors are compile-time constants; real compilers lower
    // those to a multiply/shift pair, hence 2 words rather than a full
    // hardware divide.
    /*kDiv*/ {"div", -1, false, false, 2},
    /*kMod*/ {"mod", -1, false, false, 2},
    /*kNeg*/ {"neg", 0, false, false, 1},
    /*kCmpLt*/ {"cmplt", -1, false, false, 1},
    /*kCmpLe*/ {"cmple", -1, false, false, 1},
    /*kCmpEq*/ {"cmpeq", -1, false, false, 1},
    /*kCmpNe*/ {"cmpne", -1, false, false, 1},
    /*kJmp*/ {"jmp", 0, true, true, 1},
    /*kJz*/ {"jz", -1, true, false, 2},
    /*kJnz*/ {"jnz", -1, true, false, 2},
    /*kCall*/ {"call", 0 /*special*/, false, false, 4},
    /*kRet*/ {"ret", -1, false, true, 2},
    /*kGLoad*/ {"gload", 0, false, false, 3},
    /*kGStore*/ {"gstore", -2, false, false, 3},
    // kPop compiles to nothing: with register allocation a discarded stack
    // value simply never leaves its register.
    /*kPop*/ {"pop", -1, false, false, 0},
    /*kNop*/ {"nop", 0, false, false, 0},
    /*kHalt*/ {"halt", 0, false, true, 1},
}};

/// Throws ith::Error for an opcode byte outside the instruction set.
[[noreturn]] void invalid_opcode();
}  // namespace detail

/// Metadata for `op`; throws ith::Error on an out-of-range opcode byte. A
/// table read in the header, so the per-instruction callers (predecode,
/// the optimizer's scans, the reference engine) inline it.
constexpr const OpInfo& op_info(Op op) {
  const auto idx = static_cast<std::size_t>(op);
  if (idx >= detail::kOpTable.size()) [[unlikely]] detail::invalid_opcode();
  return detail::kOpTable[idx];
}

/// Mnemonic lookup for the parser; returns false if `name` is unknown.
bool op_from_name(std::string_view name, Op& out);

/// Net stack effect of `insn` (accounts for kCall's argument count).
int stack_effect(const Instruction& insn);

}  // namespace ith::bc
