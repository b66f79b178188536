#include "opt/passes.hpp"

#include <deque>
#include <limits>
#include <vector>

#include "support/error.hpp"

namespace ith::opt {

std::vector<bool> compute_branch_targets(const bc::Method& m) {
  std::vector<bool> targeted(m.size(), false);
  for (const bc::Instruction& insn : m.code()) {
    if (bc::op_info(insn.op).is_branch) {
      targeted[static_cast<std::size_t>(insn.a)] = true;
    }
  }
  return targeted;
}

std::vector<std::size_t> compute_load_counts(const bc::Method& m) {
  std::vector<std::size_t> load_count(static_cast<std::size_t>(m.num_locals()), 0);
  for (const bc::Instruction& insn : m.code()) {
    if (insn.op == bc::Op::kLoad) ++load_count[static_cast<std::size_t>(insn.a)];
  }
  return load_count;
}

std::vector<bool> compute_reachable(const bc::Method& m) {
  std::vector<bool> reachable(m.size(), false);
  std::deque<std::size_t> worklist{0};
  reachable[0] = true;
  while (!worklist.empty()) {
    const std::size_t pc = worklist.front();
    worklist.pop_front();
    const bc::Instruction& insn = m.code()[pc];
    auto visit = [&](std::size_t to) {
      if (to < m.size() && !reachable[to]) {
        reachable[to] = true;
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
  return reachable;
}

namespace {

using bc::Instruction;
using bc::Op;

bool is_binop(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kCmpLt:
    case Op::kCmpLe:
    case Op::kCmpEq:
    case Op::kCmpNe:
      return true;
    default:
      return false;
  }
}

/// Evaluates `lhs op rhs` with the interpreter's total semantics
/// (division/modulo by zero yield 0). Must stay in lock-step with
/// Interpreter::step.
std::int64_t eval_binop(Op op, std::int64_t lhs, std::int64_t rhs) {
  const auto ul = static_cast<std::uint64_t>(lhs);
  const auto ur = static_cast<std::uint64_t>(rhs);
  switch (op) {
    case Op::kAdd:
      return static_cast<std::int64_t>(ul + ur);
    case Op::kSub:
      return static_cast<std::int64_t>(ul - ur);
    case Op::kMul:
      return static_cast<std::int64_t>(ul * ur);
    case Op::kDiv:
      return rhs == 0 ? 0 : (rhs == -1) ? static_cast<std::int64_t>(0 - ul) : lhs / rhs;
    case Op::kMod:
      return (rhs == 0 || rhs == -1) ? 0 : lhs % rhs;
    case Op::kCmpLt:
      return lhs < rhs ? 1 : 0;
    case Op::kCmpLe:
      return lhs <= rhs ? 1 : 0;
    case Op::kCmpEq:
      return lhs == rhs ? 1 : 0;
    case Op::kCmpNe:
      return lhs != rhs ? 1 : 0;
    default:
      throw Error("eval_binop: not a binary op");
  }
}

/// True if the folded result still fits the 32-bit immediate field.
bool fits_imm(std::int64_t v) {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::int32_t>::max();
}

}  // namespace

std::size_t constant_fold(AnnotatedMethod& am) {
  return constant_fold(am, compute_branch_targets(am.method));
}

std::size_t constant_fold(AnnotatedMethod& am, const std::vector<bool>& targeted) {
  auto& code = am.method.mutable_code();
  std::size_t rewrites = 0;

  for (std::size_t pc = 0; pc + 1 < code.size(); ++pc) {
    Instruction& a = code[pc];
    Instruction& b = code[pc + 1];

    // const x ; const y ; binop  ->  nop ; nop ; const (x op y)
    if (pc + 2 < code.size() && a.op == Op::kConst && b.op == Op::kConst &&
        is_binop(code[pc + 2].op) && !targeted[pc + 1] && !targeted[pc + 2]) {
      const std::int64_t v = eval_binop(code[pc + 2].op, a.a, b.a);
      if (fits_imm(v)) {
        code[pc + 2] = Instruction{Op::kConst, static_cast<std::int32_t>(v), 0};
        a = Instruction{Op::kNop, 0, 0};
        b = Instruction{Op::kNop, 0, 0};
        ++rewrites;
        continue;
      }
    }

    if (targeted[pc + 1]) continue;  // every remaining pattern rewrites pc+1

    // const x ; neg  ->  nop ; const -x
    if (a.op == Op::kConst && b.op == Op::kNeg && fits_imm(-static_cast<std::int64_t>(a.a))) {
      b = Instruction{Op::kConst, -a.a, 0};
      a = Instruction{Op::kNop, 0, 0};
      ++rewrites;
      continue;
    }

    // const c ; jz/jnz t  ->  branch decided at compile time
    if (a.op == Op::kConst && (b.op == Op::kJz || b.op == Op::kJnz)) {
      const bool taken = (b.op == Op::kJz) ? (a.a == 0) : (a.a != 0);
      b = taken ? Instruction{Op::kJmp, b.a, 0} : Instruction{Op::kNop, 0, 0};
      a = Instruction{Op::kNop, 0, 0};
      ++rewrites;
      continue;
    }

    // Value computed then discarded.
    if (b.op == Op::kPop) {
      if (a.op == Op::kConst || a.op == Op::kLoad) {
        a = Instruction{Op::kNop, 0, 0};
        b = Instruction{Op::kNop, 0, 0};
        ++rewrites;
        continue;
      }
      if (is_binop(a.op)) {  // binop ; pop -> pop ; pop
        a = Instruction{Op::kPop, 0, 0};
        b = Instruction{Op::kPop, 0, 0};
        ++rewrites;
        continue;
      }
      if (a.op == Op::kGLoad || a.op == Op::kNeg) {  // unary: drop op, keep one pop
        a = Instruction{Op::kPop, 0, 0};
        b = Instruction{Op::kNop, 0, 0};
        ++rewrites;
        continue;
      }
    }
  }
  return rewrites;
}

std::size_t copy_propagate(AnnotatedMethod& am) {
  // Reader counts feed the store;load pattern.
  return copy_propagate(am, compute_branch_targets(am.method), compute_load_counts(am.method));
}

std::size_t copy_propagate(AnnotatedMethod& am, const std::vector<bool>& targeted,
                           std::vector<std::size_t> load_count) {
  auto& code = am.method.mutable_code();
  std::size_t rewrites = 0;

  for (std::size_t pc = 0; pc + 1 < code.size(); ++pc) {
    Instruction& a = code[pc];
    Instruction& b = code[pc + 1];
    if (targeted[pc + 1]) continue;

    // load i ; store i  -> nothing (reads a local and writes it back)
    if (a.op == Op::kLoad && b.op == Op::kStore && a.a == b.a) {
      --load_count[static_cast<std::size_t>(a.a)];
      a = Instruction{Op::kNop, 0, 0};
      b = Instruction{Op::kNop, 0, 0};
      ++rewrites;
      continue;
    }

    // store i ; load i, slot i otherwise unread -> the value just stays on
    // the stack; the (now unobservable) store is dropped.
    if (a.op == Op::kStore && b.op == Op::kLoad && a.a == b.a &&
        load_count[static_cast<std::size_t>(a.a)] == 1) {
      load_count[static_cast<std::size_t>(a.a)] = 0;
      a = Instruction{Op::kNop, 0, 0};
      b = Instruction{Op::kNop, 0, 0};
      ++rewrites;
      continue;
    }
  }
  return rewrites;
}

std::size_t eliminate_dead_stores(AnnotatedMethod& am) {
  return eliminate_dead_stores(am, compute_load_counts(am.method));
}

std::size_t eliminate_dead_stores(AnnotatedMethod& am,
                                  const std::vector<std::size_t>& load_count) {
  auto& code = am.method.mutable_code();
  std::size_t rewrites = 0;
  for (Instruction& insn : code) {
    if (insn.op == Op::kStore && load_count[static_cast<std::size_t>(insn.a)] == 0) {
      insn = Instruction{Op::kPop, 0, 0};  // same stack effect, no write
      ++rewrites;
    }
  }
  return rewrites;
}

std::size_t simplify_branches(AnnotatedMethod& am) {
  auto& code = am.method.mutable_code();
  std::size_t rewrites = 0;

  // Jump-chain threading: a branch whose target is an unconditional jmp (or
  // a nop sled ending in one) goes straight to the final destination.
  auto resolve = [&code](std::int32_t target) {
    std::size_t hops = 0;
    std::size_t t = static_cast<std::size_t>(target);
    while (hops < code.size()) {  // hop bound guards against jmp cycles
      if (code[t].op == Op::kNop && t + 1 < code.size()) {
        ++t;
        ++hops;
        continue;
      }
      if (code[t].op == Op::kJmp) {
        t = static_cast<std::size_t>(code[t].a);
        ++hops;
        continue;
      }
      break;
    }
    return static_cast<std::int32_t>(t);
  };

  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    Instruction& insn = code[pc];
    if (!bc::op_info(insn.op).is_branch) continue;

    const std::int32_t resolved = resolve(insn.a);
    if (resolved != insn.a) {
      insn.a = resolved;
      ++rewrites;
    }

    // Branch to the next instruction: control reaches the same place either
    // way. A conditional still has to discard its condition.
    if (static_cast<std::size_t>(insn.a) == pc + 1) {
      if (insn.op == Op::kJmp) {
        insn = Instruction{Op::kNop, 0, 0};
        ++rewrites;
      } else if (insn.op == Op::kJz || insn.op == Op::kJnz) {
        insn = Instruction{Op::kPop, 0, 0};
        ++rewrites;
      }
    }
  }
  return rewrites;
}

std::size_t simplify_algebraic(AnnotatedMethod& am) {
  return simplify_algebraic(am, compute_branch_targets(am.method));
}

std::size_t simplify_algebraic(AnnotatedMethod& am, const std::vector<bool>& targeted) {
  auto& code = am.method.mutable_code();
  std::size_t rewrites = 0;
  for (std::size_t pc = 0; pc + 1 < code.size(); ++pc) {
    Instruction& a = code[pc];
    Instruction& b = code[pc + 1];
    if (a.op != Op::kConst || targeted[pc + 1]) continue;

    // x + 0, x - 0, x * 1, x / 1: drop both instructions.
    if ((a.a == 0 && (b.op == Op::kAdd || b.op == Op::kSub)) ||
        (a.a == 1 && (b.op == Op::kMul || b.op == Op::kDiv))) {
      a = Instruction{Op::kNop, 0, 0};
      b = Instruction{Op::kNop, 0, 0};
      ++rewrites;
      continue;
    }
    // x * 0: discard x, push 0.
    if (a.a == 0 && b.op == Op::kMul) {
      a = Instruction{Op::kPop, 0, 0};
      b = Instruction{Op::kConst, 0, 0};
      ++rewrites;
      continue;
    }
    // x mod 1 == 0 (total semantics: 1 is never the zero divisor).
    if (a.a == 1 && b.op == Op::kMod) {
      a = Instruction{Op::kPop, 0, 0};
      b = Instruction{Op::kConst, 0, 0};
      ++rewrites;
      continue;
    }
  }
  return rewrites;
}

std::size_t fuse_compare_branch(AnnotatedMethod& am) {
  return fuse_compare_branch(am, compute_branch_targets(am.method));
}

std::size_t fuse_compare_branch(AnnotatedMethod& am, const std::vector<bool>& targeted) {
  auto& code = am.method.mutable_code();
  std::size_t rewrites = 0;
  for (std::size_t pc = 0; pc + 1 < code.size(); ++pc) {
    Instruction& a = code[pc];
    Instruction& b = code[pc + 1];

    // const 0 ; cmpeq/cmpne ; jz/jnz t  ->  branch on x directly.
    if (pc + 2 < code.size() && a.op == Op::kConst && a.a == 0 &&
        (b.op == Op::kCmpEq || b.op == Op::kCmpNe) && !targeted[pc + 1] && !targeted[pc + 2]) {
      Instruction& c = code[pc + 2];
      if (c.op == Op::kJz || c.op == Op::kJnz) {
        const bool cmp_is_eq = b.op == Op::kCmpEq;
        const bool branch_on_zero = c.op == Op::kJz;
        // (x==0) feeding jz  -> taken when x!=0 -> jnz x.
        // (x==0) feeding jnz -> taken when x==0 -> jz x.
        // (x!=0) feeding jz  -> taken when x==0 -> jz x.
        // (x!=0) feeding jnz -> taken when x!=0 -> jnz x.
        const bool take_on_zero = cmp_is_eq ? !branch_on_zero : branch_on_zero;
        c = Instruction{take_on_zero ? Op::kJz : Op::kJnz, c.a, 0};
        a = Instruction{Op::kNop, 0, 0};
        b = Instruction{Op::kNop, 0, 0};
        ++rewrites;
        continue;
      }
    }

    // neg ; jz/jnz  ->  jz/jnz  (-x == 0 iff x == 0).
    if (a.op == Op::kNeg && (b.op == Op::kJz || b.op == Op::kJnz) && !targeted[pc + 1]) {
      a = Instruction{Op::kNop, 0, 0};
      ++rewrites;
      continue;
    }
  }
  return rewrites;
}

bool non_arg_locals_definitely_assigned(const bc::Method& m) {
  const std::size_t n = m.size();
  const auto num_locals = static_cast<std::size_t>(m.num_locals());
  const auto num_args = static_cast<std::size_t>(m.num_args());
  if (num_locals == num_args) return true;  // nothing beyond the arguments

  // Forward must-analysis: assigned[pc] = set of locals definitely written
  // on every path reaching pc. Join is intersection; seed is "args only".
  std::vector<std::vector<bool>> assigned(n);
  auto seed = std::vector<bool>(num_locals, false);
  for (std::size_t i = 0; i < num_args; ++i) seed[i] = true;

  std::deque<std::size_t> worklist{0};
  assigned[0] = seed;
  bool ok = true;
  while (!worklist.empty() && ok) {
    const std::size_t pc = worklist.front();
    worklist.pop_front();
    const Instruction& insn = m.code()[pc];
    std::vector<bool> out = assigned[pc];
    switch (insn.op) {
      case Op::kLoad:
        if (!out[static_cast<std::size_t>(insn.a)]) ok = false;
        break;
      case Op::kStore:
        out[static_cast<std::size_t>(insn.a)] = true;
        break;
      default:
        break;
    }
    auto visit = [&](std::size_t to) {
      if (to >= n) return;
      if (assigned[to].empty()) {
        assigned[to] = out;
        worklist.push_back(to);
        return;
      }
      bool changed = false;
      for (std::size_t i = 0; i < num_locals; ++i) {
        if (assigned[to][i] && !out[i]) {
          assigned[to][i] = false;
          changed = true;
        }
      }
      if (changed) worklist.push_back(to);
    };
    switch (insn.op) {
      case Op::kJmp:
        visit(static_cast<std::size_t>(insn.a));
        break;
      case Op::kJz:
      case Op::kJnz:
        visit(static_cast<std::size_t>(insn.a));
        visit(pc + 1);
        break;
      case Op::kRet:
      case Op::kHalt:
        break;
      default:
        visit(pc + 1);
        break;
    }
  }
  return ok;
}

std::size_t eliminate_unreachable(AnnotatedMethod& am) {
  return eliminate_unreachable(am, compute_reachable(am.method));
}

std::size_t eliminate_unreachable(AnnotatedMethod& am, const std::vector<bool>& reachable) {
  auto& code = am.method.mutable_code();
  std::size_t rewrites = 0;
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    if (!reachable[pc] && code[pc].op != Op::kNop) {
      code[pc] = Instruction{Op::kNop, 0, 0};
      ++rewrites;
    }
  }
  return rewrites;
}

std::size_t compact_nops(AnnotatedMethod& am) {
  auto& code = am.method.mutable_code();
  const std::size_t n = code.size();

  // new_index[pc] = index of the first kept instruction at or after pc.
  std::vector<std::int32_t> new_index(n + 1);
  std::int32_t kept = 0;
  for (std::size_t pc = 0; pc < n; ++pc) {
    new_index[pc] = kept;
    if (code[pc].op != Op::kNop) ++kept;
  }
  new_index[n] = kept;

  const auto removed = static_cast<std::size_t>(static_cast<std::int32_t>(n) - kept);
  if (removed == 0) return 0;

  std::vector<Instruction> new_code;
  std::vector<InstrMeta> new_meta;
  new_code.reserve(static_cast<std::size_t>(kept));
  new_meta.reserve(static_cast<std::size_t>(kept));
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (code[pc].op == Op::kNop) continue;
    Instruction insn = code[pc];
    if (bc::op_info(insn.op).is_branch) {
      const std::int32_t t = new_index[static_cast<std::size_t>(insn.a)];
      ITH_ASSERT(t < kept, "branch target compacted past end of method");
      insn.a = t;
    }
    new_code.push_back(insn);
    new_meta.push_back(am.meta[pc]);
  }

  // A method must keep at least one instruction; an all-nop body would mean
  // the original fell through, which the verifier rejects.
  ITH_ASSERT(!new_code.empty(), "compaction removed every instruction");
  code = std::move(new_code);
  am.meta = std::move(new_meta);
  return removed;
}

}  // namespace ith::opt
