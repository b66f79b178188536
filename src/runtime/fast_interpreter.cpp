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

PredecodedBody& FastInterpreter::thread(PredecodedBody& body, const void* const* labels) {
  if (!body.threaded) {
    for (PredecodedInsn& pi : body.code) {
      const int op = static_cast<int>(pi.op);
      pi.target = pi.head ? labels[op] : labels[bc::kNumOps + op];
    }
    body.threaded = true;
  }
  return body;
}

PredecodedBody& FastInterpreter::attach(const CompiledMethod& cm, const void* const* labels) {
  return thread(body_for(cm), labels);
}

PredecodedBody& FastInterpreter::single_step(PredecodedBody& body, const void* const* labels) {
  if (body.single_step == nullptr) {
    body.single_step = std::make_unique<PredecodedBody>(single_step_twin(body));
  }
  return thread(*body.single_step, labels);
}

void FastInterpreter::ensure_stack(std::size_t need) {
  if (stack_.size() < need) stack_.resize(std::max(need, stack_.size() * 2));
}

FastInterpreter::EnterState FastInterpreter::call_into(bc::MethodId id, std::int32_t nargs,
                                                       std::size_t sp, ExecStats& stats,
                                                       const void* const* labels) {
  const CompiledMethod& cm = source_.invoke(id);
  ITH_ASSERT(cm.word_offset.size() == cm.body.size() + 1, "compiled method not finalized");
  PredecodedBody& body = attach(cm, labels);
  const std::size_t locals_base = locals_.size();
  locals_.resize(locals_base + static_cast<std::size_t>(cm.body.num_locals()), 0);
  // Arguments: top of stack is the last argument.
  const auto n = static_cast<std::size_t>(nargs);
  ITH_CHECK(sp > n, "argument stack underflow");  // slot 0 is the dummy
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
  return {body.code.data(), locals_.data() + locals_base, stack_.data() + sp - 1};
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
  PredecodedBody& body = attach(*repl, labels);
  ensure_stack(fr.stack_floor + static_cast<std::size_t>(body.max_operand_depth) + 1);
  fr.pb = &body;
  ++stats.osr_transitions;
  out = {body.code.data() + j, locals_.data() + fr.locals_base, stack_.data() + sp - 1};
  return true;
}

ExecStats FastInterpreter::run() {
  ExecStats stats;
  // Hot counters live in locals, not in `stats`: its address escapes into
  // the frame-entry helpers, which would keep a register pinned to it.
  std::uint64_t units = 0;  // cost units; kCostUnitsPerCycle per cycle
  std::uint64_t probes = 0;
  std::uint64_t misses = 0;
  std::uint64_t calls = 0;

  frames_.clear();
  locals_.clear();

  const std::size_t gsize = globals_.size();
  std::int64_t* const gbl = globals_.data();
  const std::uint64_t call_units = machine_.call_overhead_cycles * kCostUnitsPerCycle;
  const std::uint64_t miss_units = machine_.icache_miss_cycles * kCostUnitsPerCycle;
  current_line_ = ~0ULL;
  // Budget as a countdown so a run head subtracts its length from a
  // register instead of incrementing stats and reloading the limit;
  // `instructions` is recovered on exit. +1 because the reference throws on
  // the (budget+1)-th step, so `remaining` never reaches 0.
  const std::uint64_t budget_steps =
      options_.max_instructions == ~0ULL ? ~0ULL : options_.max_instructions + 1;
  std::uint64_t remaining = budget_steps;

  // Run-head entries (accounting, then the handler) for every op, then the
  // handlers themselves, both in bc::Op order.
  static_assert(bc::kNumOps == 23, "update kLabels when the instruction set changes");
  static const void* const kLabels[2 * bc::kNumOps] = {
      &&acc_kConst, &&acc_kLoad,  &&acc_kStore,  &&acc_kAdd,   &&acc_kSub,   &&acc_kMul,
      &&acc_kDiv,   &&acc_kMod,   &&acc_kNeg,    &&acc_kCmpLt, &&acc_kCmpLe, &&acc_kCmpEq,
      &&acc_kCmpNe, &&acc_kJmp,   &&acc_kJz,     &&acc_kJnz,   &&acc_kCall,  &&acc_kRet,
      &&acc_kGLoad, &&acc_kGStore, &&acc_kPop,   &&acc_kNop,   &&acc_kHalt,
      &&lbl_kConst, &&lbl_kLoad,  &&lbl_kStore,  &&lbl_kAdd,   &&lbl_kSub,   &&lbl_kMul,
      &&lbl_kDiv,   &&lbl_kMod,   &&lbl_kNeg,    &&lbl_kCmpLt, &&lbl_kCmpLe, &&lbl_kCmpEq,
      &&lbl_kCmpNe, &&lbl_kJmp,   &&lbl_kJz,     &&lbl_kJnz,   &&lbl_kCall,  &&lbl_kRet,
      &&lbl_kGLoad, &&lbl_kGStore, &&lbl_kPop,   &&lbl_kNop,   &&lbl_kHalt};

  // Current-frame state, mirrored from frames_.back() into locals so the
  // dispatch loop touches no vector bookkeeping. Frame-rare state (the
  // predecoded body, the stack floor) lives in frames_.back() and is
  // reloaded only on call, return, back edge, OSR and budget exhaustion.
  //
  // The operand stack's top value lives in `tos`; the arena stk = stack_
  // holds the rest at stk[1, sp - 1), and `top` = &stk[sp - 1] is where
  // `tos` is spilled. Slot 0 is a dummy, so a push onto an empty stack
  // spills into it instead of below the arena. One pointer instead of an
  // arena base plus an index keeps a register free for the hot loop.
  const PredecodedInsn* ip = nullptr;
  std::int64_t* loc = nullptr;
  std::int64_t* top = nullptr;
  std::int64_t tos = 0;
  // The arena index one past `top`, as the frame-entry helpers count.
  auto sp_of = [this](const std::int64_t* t) {
    return static_cast<std::size_t>(t - stack_.data()) + 1;
  };

  osr_failed_from_ = nullptr;
  osr_failed_to_ = nullptr;

  {
    const EnterState st = call_into(prog_.entry(), 0, 1, stats, kLabels);
    ip = st.ip;
    loc = st.loc;
    top = st.top;
    tos = *top;
  }

// Charges the run (or, after a mid-run OSR entry, the rest of the run) that
// starts at ip: one line probe, one budget check and subtraction, one add.
// Every instruction of a run shares its line, so the reference engine's
// per-instruction probes reduce to this one.
#define ITH_CHARGE_RUN()                                   \
  do {                                                     \
    if (ip->line != current_line_) {                       \
      current_line_ = ip->line;                            \
      if (icache_ != nullptr) {                            \
        ++probes;                                          \
        if (!icache_->probe_line(ip->line)) {              \
          ++misses;                                        \
          units += miss_units;                             \
        }                                                  \
      }                                                    \
    }                                                      \
    if (remaining <= ip->run_len) goto budget_ends_in_run; \
    remaining -= ip->run_len;                              \
    units += ip->run_cost;                                 \
  } while (0)
#define ITH_CASE(op) \
  acc_##op:          \
  ITH_CHARGE_RUN();  \
  lbl_##op:
#define ITH_DISPATCH() goto* const_cast<void*>(ip->target)
#define ITH_NEXT()  \
  do {              \
    ++ip;           \
    ITH_DISPATCH(); \
  } while (0)
// Pops the top of stack; the value below it moves into `tos`.
#define ITH_POP() tos = *--top
#define ITH_PUSH(v) \
  do {              \
    *top++ = tos;   \
    tos = (v);      \
  } while (0)

  ITH_DISPATCH();

// Taken-branch tail shared by the jump handlers: ip->a is the pc-relative
// jump delta, so the target is computed by pointer arithmetic alone. A
// non-positive delta is a back edge — profile tick plus OSR window —
// exactly as in the reference engine. A jump target starts a run; an OSR
// entry may land inside one and is charged from there.
#define ITH_TAKEN_BRANCH()                                       \
  {                                                              \
    const std::int32_t d = ip->a;                                \
    if (d <= 0) {                                                \
      const PredecodedBody& body = *frames_.back().pb;           \
      source_.on_back_edge(body.cm->method_id);                  \
      const auto target =                                        \
          static_cast<std::size_t>((ip - body.code.data()) + d); \
      EnterState st;                                             \
      if (try_osr(target, sp_of(top), stats, kLabels, st)) {     \
        ip = st.ip;                                              \
        loc = st.loc;                                            \
        top = st.top;                                            \
        current_line_ = ~0ULL;                                   \
        if (!ip->head) goto enter_mid_run;                       \
        ITH_DISPATCH();                                          \
      }                                                          \
    }                                                            \
    ip += d;                                                     \
    ITH_DISPATCH();                                              \
  }

      ITH_CASE(kConst) {
        ITH_PUSH(ip->a);
        ITH_NEXT();
      }
      ITH_CASE(kLoad) {
        ITH_PUSH(loc[ip->a]);
        ITH_NEXT();
      }
      ITH_CASE(kStore) {
        loc[ip->a] = tos;
        ITH_POP();
        ITH_NEXT();
      }
      // Add/sub/mul wrap modulo 2^64 (computed in unsigned space: signed
      // overflow would be UB, and workload arithmetic may overflow).
      ITH_CASE(kAdd) {
        --top;
        tos = static_cast<std::int64_t>(static_cast<std::uint64_t>(*top) +
                                        static_cast<std::uint64_t>(tos));
        ITH_NEXT();
      }
      ITH_CASE(kSub) {
        --top;
        tos = static_cast<std::int64_t>(static_cast<std::uint64_t>(*top) -
                                        static_cast<std::uint64_t>(tos));
        ITH_NEXT();
      }
      ITH_CASE(kMul) {
        --top;
        tos = static_cast<std::int64_t>(static_cast<std::uint64_t>(*top) *
                                        static_cast<std::uint64_t>(tos));
        ITH_NEXT();
      }
      // Division is total: by-zero yields 0, and INT64_MIN / -1 (which
      // would trap) is defined via the same wrap rule as negation.
      ITH_CASE(kDiv) {
        const std::int64_t rhs = tos;
        const std::int64_t lhs = *--top;
        tos = rhs == 0 ? 0
              : (rhs == -1) ? static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(lhs))
                            : lhs / rhs;
        ITH_NEXT();
      }
      ITH_CASE(kMod) {
        const std::int64_t rhs = tos;
        const std::int64_t lhs = *--top;
        tos = (rhs == 0 || rhs == -1) ? 0 : lhs % rhs;
        ITH_NEXT();
      }
      ITH_CASE(kNeg) {
        tos = static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(tos));
        ITH_NEXT();
      }
      ITH_CASE(kCmpLt) {
        --top;
        tos = *top < tos ? 1 : 0;
        ITH_NEXT();
      }
      ITH_CASE(kCmpLe) {
        --top;
        tos = *top <= tos ? 1 : 0;
        ITH_NEXT();
      }
      ITH_CASE(kCmpEq) {
        --top;
        tos = *top == tos ? 1 : 0;
        ITH_NEXT();
      }
      ITH_CASE(kCmpNe) {
        --top;
        tos = *top != tos ? 1 : 0;
        ITH_NEXT();
      }
      // Jumps advance ip by the predecoded pc-relative delta; a non-positive
      // delta is a back edge (profile tick + OSR window), handled off the
      // straight-line path with the frame's code base reloaded on demand.
      ITH_CASE(kJmp) { ITH_TAKEN_BRANCH(); }
      ITH_CASE(kJz) {
        const std::int64_t v = tos;
        ITH_POP();
        if (v == 0) ITH_TAKEN_BRANCH();
        ITH_NEXT();
      }
      ITH_CASE(kJnz) {
        const std::int64_t v = tos;
        ITH_POP();
        if (v != 0) ITH_TAKEN_BRANCH();
        ITH_NEXT();
      }
      ITH_CASE(kCall) {
        units += call_units;
        ++calls;
        FastFrame& fr = frames_.back();
        const CompiledMethod& cur = *fr.pb->cm;
        if (!cur.origin.empty()) {
          const auto& [om, opc] = cur.origin[static_cast<std::size_t>(ip - fr.pb->code.data())];
          source_.on_call_site(om, opc);
        }
        fr.resume = ip + 1;  // return address
        *top = tos;  // the callee reads its arguments from the arena
        const EnterState st = call_into(ip->a, ip->b, sp_of(top), stats, kLabels);
        ip = st.ip;
        loc = st.loc;
        top = st.top;
        tos = *top;
        current_line_ = ~0ULL;  // control transferred: next run head probes callee
        ITH_DISPATCH();
      }
      // The return value is the callee's top of stack and becomes the
      // caller's: popping it and pushing it back leaves `tos` and `top` as
      // they are.
      ITH_CASE(kRet) {
        const FastFrame& leaving = frames_.back();
        ITH_ASSERT(sp_of(top) == leaving.stack_floor + 1, "operand stack unbalanced at return");
        locals_.resize(leaving.locals_base);
        frames_.pop_back();
        current_line_ = ~0ULL;
        if (frames_.empty()) {
          stats.exit_value = tos;  // entry method returned
          goto done;
        }
        const FastFrame& fr = frames_.back();
        ip = fr.resume;
        loc = locals_.data() + fr.locals_base;  // shrink never reallocates
        ITH_DISPATCH();
      }
      ITH_CASE(kGLoad) {
        if (gsize == 0) {
          tos = 0;
        } else {
          const auto g = static_cast<std::int64_t>(gsize);
          tos = gbl[static_cast<std::size_t>(((tos % g) + g) % g)];
        }
        ITH_NEXT();
      }
      ITH_CASE(kGStore) {
        const std::int64_t value = tos;
        const std::int64_t idx = top[-1];
        top -= 2;
        tos = *top;
        if (gsize != 0) {
          const auto g = static_cast<std::int64_t>(gsize);
          gbl[static_cast<std::size_t>(((idx % g) + g) % g)] = value;
        }
        ITH_NEXT();
      }
      ITH_CASE(kPop) {
        ITH_POP();
        ITH_NEXT();
      }
      ITH_CASE(kNop) { ITH_NEXT(); }
      ITH_CASE(kHalt) {
        stats.exit_value = top == stack_.data() ? 0 : tos;
        goto done;
      }

// An OSR entry that is not a run head: charge the rest of its run here,
// then run the handler.
enter_mid_run:
  ITH_CHARGE_RUN();
  goto* kLabels[bc::kNumOps + static_cast<int>(ip->op)];

// The budget runs out inside the run starting at ip. If ip itself is the
// instruction past the budget, trap now; otherwise the instructions before
// the trap must still execute, so continue at the same index of the body's
// single-step twin, where every entry is its own run and is charged alone.
// Nothing has been charged for ip yet, and the operand stack is untouched.
budget_ends_in_run: {
  if (remaining == 1) {
    throw resilience::BudgetExceededError(
        resilience::BudgetKind::kInstructions,
        "interpreter: instruction budget exceeded (runaway program?)");
  }
  FastFrame& fr = frames_.back();
  PredecodedBody& twin = single_step(*fr.pb, kLabels);
  ip = twin.code.data() + (ip - fr.pb->code.data());
  fr.pb = &twin;
  ITH_DISPATCH();
}

done:
  stats.instructions = budget_steps - remaining;
  stats.cycles = units / kCostUnitsPerCycle;
  stats.calls = calls;
  stats.icache_probes = probes;
  stats.icache_misses = misses;
  return stats;
}

#undef ITH_CHARGE_RUN
#undef ITH_CASE
#undef ITH_DISPATCH
#undef ITH_NEXT
#undef ITH_POP
#undef ITH_PUSH
#undef ITH_TAKEN_BRANCH

}  // namespace ith::rt
