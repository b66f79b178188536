#include "runtime/fast_interpreter.hpp"

#include <algorithm>

#include "resilience/budget.hpp"
#include "support/error.hpp"

// Dispatch is direct threading by computed goto. Labels-as-values is a GNU
// extension that GCC and Clang (the toolchains of this POSIX-only build)
// both provide; the reference engine is the portable switch-dispatch oracle.
#ifndef __GNUC__
#error "the fast engine dispatches by computed goto: build with GCC or Clang"
#endif
#pragma GCC diagnostic ignored "-Wpedantic"

#define ITH_ALWAYS_INLINE __attribute__((always_inline))

namespace ith::rt {

FastInterpreter::FastInterpreter(const bc::Program& prog, const MachineModel& machine,
                                 CodeSource& source, ICache* icache, InterpreterOptions options)
    : Engine(prog, machine, source, icache, options), predecoded_(prog.num_methods()) {
  frames_.reserve(64);
  locals_.reserve(1024);
  stack_.resize(256);
}

PredecodedBody& FastInterpreter::body_for(const CompiledMethod& cm) {
  ITH_ASSERT(cm.method_id >= 0 && static_cast<std::size_t>(cm.method_id) < predecoded_.size(),
             "compiled method with out-of-program method id");
  Slot& slot = predecoded_[static_cast<std::size_t>(cm.method_id)];
  if (slot.cm == &cm) return *slot.pb;
  if (slot.pb != nullptr) {
    // Recompiled: frames deeper in the stack may still execute the old
    // predecode, so retire it instead of destroying it.
    retired_.push_back(std::move(slot.pb));
  }
  slot.cm = &cm;
  slot.pb = std::make_unique<PredecodedBody>(predecode(cm, machine_));
  return *slot.pb;
}

PredecodedBody& FastInterpreter::attach(const CompiledMethod& cm, const void* const* labels) {
  PredecodedBody& body = body_for(cm);
  if (!body.threaded) {
    for (PredecodedInsn& pi : body.code) pi.target = labels[static_cast<int>(pi.op)];
    body.threaded = true;
  }
  return body;
}

void FastInterpreter::ensure_stack(std::size_t need) {
  if (stack_.size() < need) stack_.resize(std::max(need, stack_.size() * 2));
}

FastInterpreter::EnterState FastInterpreter::call_into(bc::MethodId id, std::int32_t nargs,
                                                       std::size_t sp, ExecStats& stats,
                                                       const void* const* labels) {
  const CompiledMethod& cm = source_.invoke(id);
  ITH_ASSERT(cm.word_offset.size() == cm.body.size() + 1, "compiled method not finalized");
  const PredecodedBody& body = attach(cm, labels);
  const std::size_t locals_base = locals_.size();
  locals_.resize(locals_base + static_cast<std::size_t>(cm.body.num_locals()), 0);
  // Arguments: top of stack is the last argument.
  const auto n = static_cast<std::size_t>(nargs);
  ITH_CHECK(sp >= n, "argument stack underflow");
  sp -= n;
  std::int64_t* const args = locals_.data() + locals_base;
  const std::int64_t* const stk = stack_.data();
  for (std::size_t i = 0; i < n; ++i) args[i] = stk[sp + i];
  ensure_stack(sp + static_cast<std::size_t>(body.max_operand_depth) + 1);
  frames_.push_back(FastFrame{&body, nullptr, locals_base, sp});
  stats.max_frame_depth = std::max(stats.max_frame_depth, frames_.size());
  if (frames_.size() > options_.max_frames) {
    throw resilience::BudgetExceededError(resilience::BudgetKind::kFrameDepth,
                                          "simulated stack overflow (recursion too deep)");
  }
  if (locals_.size() + stack_.size() > options_.max_arena_words) {
    throw resilience::BudgetExceededError(
        resilience::BudgetKind::kArena,
        "interpreter: arena budget exceeded (locals + operand stack)");
  }
  return {body.code.data(), locals_.data() + locals_base, stack_.data(), sp};
}

bool FastInterpreter::try_osr(std::size_t target, std::size_t sp, ExecStats& stats,
                              const void* const* labels, EnterState& out) {
  FastFrame& fr = frames_.back();
  const CompiledMethod* cur = fr.pb->cm;
  const CompiledMethod* repl = source_.osr_replacement(*cur, target);
  if (repl == nullptr || repl == cur) return false;
  if (cur->tier != Tier::kBaseline) return false;
  if (cur == osr_failed_from_ && repl == osr_failed_to_) return false;

  const auto om = cur->origin.empty() ? cur->method_id : cur->origin[target].first;
  const auto opc =
      cur->origin.empty() ? static_cast<std::int32_t>(target) : cur->origin[target].second;
  const std::int64_t j = om < 0 ? -1 : repl->find_origin(om, opc);
  const auto runtime_depth = static_cast<int>(sp - fr.stack_floor);
  if (j < 0 || repl->stack_depth[static_cast<std::size_t>(j)] != runtime_depth) {
    osr_failed_from_ = cur;  // don't rescan this pair on every iteration
    osr_failed_to_ = repl;
    return false;
  }

  const auto old_locals = static_cast<std::size_t>(cur->body.num_locals());
  const auto new_locals = static_cast<std::size_t>(repl->body.num_locals());
  ITH_ASSERT(fr.locals_base + old_locals == locals_.size(), "OSR on a non-top frame");
  if (new_locals > old_locals) locals_.resize(fr.locals_base + new_locals, 0);
  const PredecodedBody& body = attach(*repl, labels);
  ensure_stack(fr.stack_floor + static_cast<std::size_t>(body.max_operand_depth) + 1);
  fr.pb = &body;
  ++stats.osr_transitions;
  out = {body.code.data() + j, locals_.data() + fr.locals_base, stack_.data(), sp};
  return true;
}

ExecStats FastInterpreter::run() {
  ExecStats stats;
  double cycles = 0.0;

  frames_.clear();
  locals_.clear();

  const std::size_t gsize = globals_.size();
  std::int64_t* const gbl = globals_.data();
  const double call_cost = static_cast<double>(machine_.call_overhead_cycles);
  ICache* const ic = icache_;
  std::uint64_t current_line = ~0ULL;
  // Budget as a countdown so the hot loop decrements a register instead of
  // incrementing stats and reloading the limit; `instructions` is recovered
  // on exit. +1 because the reference throws on the (budget+1)-th step.
  const std::uint64_t budget_steps =
      options_.max_instructions == ~0ULL ? ~0ULL : options_.max_instructions + 1;
  std::uint64_t remaining = budget_steps;

  static_assert(bc::kNumOps == 23, "update kLabels when the instruction set changes");
  static const void* const kLabels[bc::kNumOps] = {
      &&lbl_kConst, &&lbl_kLoad,  &&lbl_kStore, &&lbl_kAdd,    &&lbl_kSub,  &&lbl_kMul,
      &&lbl_kDiv,   &&lbl_kMod,   &&lbl_kNeg,   &&lbl_kCmpLt,  &&lbl_kCmpLe, &&lbl_kCmpEq,
      &&lbl_kCmpNe, &&lbl_kJmp,   &&lbl_kJz,    &&lbl_kJnz,    &&lbl_kCall, &&lbl_kRet,
      &&lbl_kGLoad, &&lbl_kGStore, &&lbl_kPop,  &&lbl_kNop,    &&lbl_kHalt};

  // Current-frame state, mirrored from frames_.back() into locals so the
  // dispatch loop touches no vector bookkeeping. Kept deliberately small —
  // one pointer shy of x86-64's register budget — so the hot tail spills
  // nothing: frame-rare state (the predecoded body, the stack floor, the
  // code base) lives in frames_.back() and is reloaded only on call, return,
  // back edge, and OSR.
  const PredecodedInsn* ip = nullptr;
  std::int64_t* loc = nullptr;
  std::int64_t* stk = stack_.data();
  std::size_t sp = 0;

  osr_failed_from_ = nullptr;
  osr_failed_to_ = nullptr;

  // Per-instruction accounting, identical (in both arithmetic and order of
  // double additions) to the reference engine's touch + cost + budget. The
  // cache is probed by the predecoded line index: the reference engine's
  // probe(addr) looks up addr / line_bytes, the same line. Must inline into
  // every handler tail: called once per dynamic instruction, and GCC's
  // many-call-sites heuristic otherwise outlines it into a real call.
  auto account = [&](const PredecodedInsn& pi) ITH_ALWAYS_INLINE {
    if (ic != nullptr && pi.line != current_line) {
      current_line = pi.line;
      ++stats.icache_probes;
      if (!ic->probe_line(pi.line)) {
        ++stats.icache_misses;
        cycles += static_cast<double>(machine_.icache_miss_cycles);
      }
    }
    cycles += pi.base_cost;
    if (--remaining == 0) {
      throw resilience::BudgetExceededError(
          resilience::BudgetKind::kInstructions,
          "interpreter: instruction budget exceeded (runaway program?)");
    }
  };

  {
    const EnterState st = call_into(prog_.entry(), 0, sp, stats, kLabels);
    ip = st.ip;
    loc = st.loc;
    stk = st.stk;
    sp = st.sp;
  }

#define ITH_CASE(op) lbl_##op:
#define ITH_DISPATCH()                     \
  do {                                     \
    account(*ip);                          \
    goto* const_cast<void*>(ip->target);   \
  } while (0)
#define ITH_NEXT() \
  do {             \
    ++ip;          \
    ITH_DISPATCH(); \
  } while (0)

  ITH_DISPATCH();

// Taken-branch tail shared by the jump handlers: ip->a is the pc-relative
// jump delta, so the target is computed by pointer arithmetic alone. A
// non-positive delta is a back edge — profile tick plus OSR window —
// exactly as in the reference engine.
#define ITH_TAKEN_BRANCH()                                                     \
  {                                                                            \
    const std::int32_t d = ip->a;                                              \
    if (d <= 0) {                                                              \
      const PredecodedBody& body = *frames_.back().pb;                         \
      source_.on_back_edge(body.cm->method_id);                                \
      const auto target =                                                      \
          static_cast<std::size_t>((ip - body.code.data()) + d);               \
      EnterState st;                                                           \
      if (try_osr(target, sp, stats, kLabels, st)) {                           \
        ip = st.ip;                                                            \
        loc = st.loc;                                                          \
        stk = st.stk;                                                          \
        sp = st.sp;                                                            \
        current_line = ~0ULL;                                                  \
        ITH_DISPATCH();                                                        \
      }                                                                        \
    }                                                                          \
    ip += d;                                                                   \
    ITH_DISPATCH();                                                            \
  }

      ITH_CASE(kConst) {
        stk[sp++] = ip->a;
        ITH_NEXT();
      }
      ITH_CASE(kLoad) {
        stk[sp++] = loc[ip->a];
        ITH_NEXT();
      }
      ITH_CASE(kStore) {
        loc[ip->a] = stk[--sp];
        ITH_NEXT();
      }
      // Add/sub/mul wrap modulo 2^64 (computed in unsigned space: signed
      // overflow would be UB, and workload arithmetic may overflow).
      ITH_CASE(kAdd) {
        --sp;
        stk[sp - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(stk[sp - 1]) +
                                                static_cast<std::uint64_t>(stk[sp]));
        ITH_NEXT();
      }
      ITH_CASE(kSub) {
        --sp;
        stk[sp - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(stk[sp - 1]) -
                                                static_cast<std::uint64_t>(stk[sp]));
        ITH_NEXT();
      }
      ITH_CASE(kMul) {
        --sp;
        stk[sp - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(stk[sp - 1]) *
                                                static_cast<std::uint64_t>(stk[sp]));
        ITH_NEXT();
      }
      // Division is total: by-zero yields 0, and INT64_MIN / -1 (which
      // would trap) is defined via the same wrap rule as negation.
      ITH_CASE(kDiv) {
        const std::int64_t rhs = stk[--sp];
        const std::int64_t lhs = stk[sp - 1];
        stk[sp - 1] = rhs == 0 ? 0
                      : (rhs == -1)
                          ? static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(lhs))
                          : lhs / rhs;
        ITH_NEXT();
      }
      ITH_CASE(kMod) {
        const std::int64_t rhs = stk[--sp];
        const std::int64_t lhs = stk[sp - 1];
        stk[sp - 1] = (rhs == 0 || rhs == -1) ? 0 : lhs % rhs;
        ITH_NEXT();
      }
      ITH_CASE(kNeg) {
        stk[sp - 1] = static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(stk[sp - 1]));
        ITH_NEXT();
      }
      ITH_CASE(kCmpLt) {
        --sp;
        stk[sp - 1] = stk[sp - 1] < stk[sp] ? 1 : 0;
        ITH_NEXT();
      }
      ITH_CASE(kCmpLe) {
        --sp;
        stk[sp - 1] = stk[sp - 1] <= stk[sp] ? 1 : 0;
        ITH_NEXT();
      }
      ITH_CASE(kCmpEq) {
        --sp;
        stk[sp - 1] = stk[sp - 1] == stk[sp] ? 1 : 0;
        ITH_NEXT();
      }
      ITH_CASE(kCmpNe) {
        --sp;
        stk[sp - 1] = stk[sp - 1] != stk[sp] ? 1 : 0;
        ITH_NEXT();
      }
      // Jumps advance ip by the predecoded pc-relative delta; a non-positive
      // delta is a back edge (profile tick + OSR window), handled off the
      // straight-line path with the frame's code base reloaded on demand.
      ITH_CASE(kJmp) { ITH_TAKEN_BRANCH(); }
      ITH_CASE(kJz) {
        if (stk[--sp] == 0) ITH_TAKEN_BRANCH();
        ITH_NEXT();
      }
      ITH_CASE(kJnz) {
        if (stk[--sp] != 0) ITH_TAKEN_BRANCH();
        ITH_NEXT();
      }
      ITH_CASE(kCall) {
        cycles += call_cost;
        ++stats.calls;
        FastFrame& fr = frames_.back();
        const CompiledMethod& cur = *fr.pb->cm;
        if (!cur.origin.empty()) {
          const auto& [om, opc] = cur.origin[static_cast<std::size_t>(ip - fr.pb->code.data())];
          source_.on_call_site(om, opc);
        }
        fr.resume = ip + 1;  // return address
        const EnterState st = call_into(ip->a, ip->b, sp, stats, kLabels);
        ip = st.ip;
        loc = st.loc;
        stk = st.stk;
        sp = st.sp;
        current_line = ~0ULL;  // control transferred: next account probes callee
        ITH_DISPATCH();
      }
      ITH_CASE(kRet) {
        const std::int64_t value = stk[--sp];
        const FastFrame& leaving = frames_.back();
        ITH_ASSERT(sp == leaving.stack_floor, "operand stack unbalanced at return");
        locals_.resize(leaving.locals_base);
        frames_.pop_back();
        stk[sp++] = value;
        current_line = ~0ULL;
        if (frames_.empty()) {
          stats.exit_value = value;  // entry method returned
          goto done;
        }
        const FastFrame& fr = frames_.back();
        ip = fr.resume;
        loc = locals_.data() + fr.locals_base;  // shrink never reallocates
        ITH_DISPATCH();
      }
      ITH_CASE(kGLoad) {
        const std::int64_t idx = stk[sp - 1];
        if (gsize == 0) {
          stk[sp - 1] = 0;
        } else {
          const auto g = static_cast<std::int64_t>(gsize);
          stk[sp - 1] = gbl[static_cast<std::size_t>(((idx % g) + g) % g)];
        }
        ITH_NEXT();
      }
      ITH_CASE(kGStore) {
        const std::int64_t value = stk[--sp];
        const std::int64_t idx = stk[--sp];
        if (gsize != 0) {
          const auto g = static_cast<std::int64_t>(gsize);
          gbl[static_cast<std::size_t>(((idx % g) + g) % g)] = value;
        }
        ITH_NEXT();
      }
      ITH_CASE(kPop) {
        --sp;
        ITH_NEXT();
      }
      ITH_CASE(kNop) { ITH_NEXT(); }
      ITH_CASE(kHalt) {
        stats.exit_value = sp == 0 ? 0 : stk[sp - 1];
        goto done;
      }

done:
  stats.instructions = budget_steps - remaining;
  stats.cycles = static_cast<std::uint64_t>(cycles);
  return stats;
}

#undef ITH_CASE
#undef ITH_DISPATCH
#undef ITH_NEXT
#undef ITH_TAKEN_BRANCH

}  // namespace ith::rt
