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
#define ITH_LIKELY(x) __builtin_expect(!!(x), 1)

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
  slot.pb = std::make_unique<PredecodedBody>(predecode(cm, machine_, options_.fusion, &fusion_stats_));
  return *slot.pb;
}

PredecodedBody& FastInterpreter::attach(const CompiledMethod& cm, const void* const* labels) {
  PredecodedBody& body = body_for(cm);
  if (!body.threaded) {
    for (PredecodedInsn& pi : body.code) pi.target = labels[static_cast<int>(pi.xop)];
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
  return {body.code.data(), locals_.data() + locals_base, stack_.data(), sp, body.pool.data()};
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
  out = {body.code.data() + j, locals_.data() + fr.locals_base, stack_.data(), sp,
         body.pool.data()};
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

  static_assert(kNumXOps == 64, "update kLabels when the extended instruction set changes");
  static const void* const kLabels[kNumXOps] = {
      // bc::Op mirror region (unfused dispatch)
      &&lbl_kConst, &&lbl_kLoad,  &&lbl_kStore, &&lbl_kAdd,    &&lbl_kSub,  &&lbl_kMul,
      &&lbl_kDiv,   &&lbl_kMod,   &&lbl_kNeg,   &&lbl_kCmpLt,  &&lbl_kCmpLe, &&lbl_kCmpEq,
      &&lbl_kCmpNe, &&lbl_kJmp,   &&lbl_kJz,    &&lbl_kJnz,    &&lbl_kCall, &&lbl_kRet,
      &&lbl_kGLoad, &&lbl_kGStore, &&lbl_kPop,  &&lbl_kNop,    &&lbl_kHalt,
      // fused superinstructions
      &&lbl_kFRetChained,
      &&lbl_kFAddImm, &&lbl_kFSubImm, &&lbl_kFMulImm,
      &&lbl_kFLoadLoadAddImm, &&lbl_kFLoadLoadSubImm, &&lbl_kFLoadLoadMulImm,
      &&lbl_kFCmpLtJzImm, &&lbl_kFCmpLeJzImm, &&lbl_kFCmpNeJzImm,
      &&lbl_kFLoadConstCmpLtJzImm, &&lbl_kFLoadConstCmpLeJzImm, &&lbl_kFLoadConstCmpLeJnzImm,
      &&lbl_kFLoadConstCmpEqJzImm, &&lbl_kFLoadConstCmpNeJzImm,
      &&lbl_kFIncLocal, &&lbl_kFDecLocal,
      // statement forms
      &&lbl_kFLoadAddK, &&lbl_kFLoadSubK, &&lbl_kFLoadMulK, &&lbl_kFLoadDivK,
      &&lbl_kFLoadModK,
      &&lbl_kFLocAddK, &&lbl_kFLocSubK, &&lbl_kFLocMulK, &&lbl_kFLocDivK,
      &&lbl_kFLocModK,
      &&lbl_kFLocAddLoc, &&lbl_kFLocSubLoc, &&lbl_kFLocMulLoc,
      &&lbl_kFAddStore, &&lbl_kFSubStore, &&lbl_kFMulStore, &&lbl_kFDivStore,
      &&lbl_kFModStore,
      &&lbl_kFCopyLocal, &&lbl_kFConstStore, &&lbl_kFGLoadK,
      &&lbl_kFDivImm, &&lbl_kFModImm,
      &&lbl_kFKCmpEqJz};

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
  // The current body's operand side-pool base: fused heads index it by
  // their 16-bit handle, so their handlers read nothing but the head
  // entry and one pool record. Reloaded wherever ip changes bodies (call,
  // return, OSR) — same discipline as loc.
  const FusedWindow* pool = nullptr;

  osr_failed_from_ = nullptr;
  osr_failed_to_ = nullptr;

  // Per-instruction accounting, identical (in both arithmetic and order of
  // double additions) to the reference engine's touch + cost + budget. The
  // cache is probed by the predecoded line index: the reference engine's
  // probe(addr) looks up addr / line_bytes, the same line. Must inline into
  // every handler tail: called once per dynamic instruction, and GCC's
  // many-call-sites heuristic otherwise outlines it into a real call.
  // `account_at` is the raw (cost, line) form so fused handlers can feed it
  // from their side-pool record — same probe, same IEEE addition, same
  // budget decrement as accounting the interior entry would have been,
  // without the interior cache-line touch.
  auto account_at = [&](double cost, std::uint64_t line) ITH_ALWAYS_INLINE {
    if (ic != nullptr && line != current_line) {
      current_line = line;
      ++stats.icache_probes;
      if (!ic->probe_line(line)) {
        ++stats.icache_misses;
        cycles += static_cast<double>(machine_.icache_miss_cycles);
      }
    }
    cycles += cost;
    if (--remaining == 0) {
      throw resilience::BudgetExceededError(
          resilience::BudgetKind::kInstructions,
          "interpreter: instruction budget exceeded (runaway program?)");
    }
  };
  auto account = [&](const PredecodedInsn& pi)
                     ITH_ALWAYS_INLINE { account_at(pi.base_cost, pi.line); };

  {
    const EnterState st = call_into(prog_.entry(), 0, sp, stats, kLabels);
    ip = st.ip;
    loc = st.loc;
    stk = st.stk;
    sp = st.sp;
    pool = st.pool;
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

// Taken-branch tail shared by the jump handlers and every fused cmp+branch
// form. The branch component's pc is ip[OFF] (OFF > 0 when a fused head
// carries a trailing branch component) and DELTA is its pc-relative jump
// delta — read from the entry itself by the jump handlers, passed as a
// captured value (head `b` slot or side-pool `extra`) by the fused forms,
// which is why the delta is a macro parameter and the target is computed
// by pointer arithmetic alone. A non-positive delta is a back edge —
// profile tick plus OSR window — exactly as in the reference engine.
#define ITH_TAKEN_BRANCH_D(OFF, DELTA)                                         \
  {                                                                            \
    const std::int32_t d = (DELTA);                                            \
    if (d <= 0) {                                                              \
      const PredecodedBody& body = *frames_.back().pb;                         \
      source_.on_back_edge(body.cm->method_id);                                \
      const auto target =                                                      \
          static_cast<std::size_t>(((ip + (OFF)) - body.code.data()) + d);     \
      EnterState st;                                                           \
      if (try_osr(target, sp, stats, kLabels, st)) {                           \
        ip = st.ip;                                                            \
        loc = st.loc;                                                          \
        stk = st.stk;                                                          \
        sp = st.sp;                                                            \
        pool = st.pool;                                                        \
        current_line = ~0ULL;                                                  \
        ITH_DISPATCH();                                                        \
      }                                                                        \
    }                                                                          \
    ip += (OFF) + d;                                                           \
    ITH_DISPATCH();                                                            \
  }
#define ITH_TAKEN_BRANCH(OFF) ITH_TAKEN_BRANCH_D(OFF, (ip + (OFF))->a)

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
      ITH_CASE(kJmp) { ITH_TAKEN_BRANCH(0); }
      ITH_CASE(kJz) {
        if (stk[--sp] == 0) ITH_TAKEN_BRANCH(0);
        ITH_NEXT();
      }
      ITH_CASE(kJnz) {
        if (stk[--sp] != 0) ITH_TAKEN_BRANCH(0);
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
        pool = st.pool;
        current_line = ~0ULL;  // control transferred: next account probes callee
        ITH_DISPATCH();
      }
      // kFRetChained is the fused {kCall, kRet} mark on a caller's return:
      // same handler, entered either by normal dispatch (a jump can land on
      // the kRet directly) or by the chain loop below.
      ITH_CASE(kFRetChained)
      ITH_CASE(kRet) {
      ret_chain:
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
        pool = fr.pb->pool.data();
        if (ip->xop == XOp::kFRetChained) {
          // The caller immediately returns our value: account the chained
          // kRet exactly as a dispatch would (probe + cost + budget), then
          // pop the next frame with a direct branch instead of an indirect
          // dispatch.
          account(*ip);
          goto ret_chain;
        }
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

      // ---- fused superinstructions (predecode.cpp's pattern table) ----
      //
      // Cost-conservation rule: the dispatch that reached a fused head has
      // already accounted the head; the handler accounts every remaining
      // component, in original program order, before using its operands.
      // The per-component accounting data comes from the window's side-pool
      // record and the operands from the head's own slots: a fused dispatch
      // touches the 40-byte head entry plus one pool record, never the
      // interiors. Cycles therefore accumulate in the exact IEEE addition
      // order of the unfused stream, icache lines are probed per component,
      // and the budget countdown throws at the identical instruction — the
      // fused win is eliminated dispatch and operand-stack traffic, never
      // skipped accounting. The interiors still exist with their mirror xops
      // for control transfers landing mid-window: they are retired from the
      // hot path, not from the body.

// Batched window accounting. Within a captured window every icache-probe
// decision is static: after component k-1's account the running line IS
// component k-1's line, so probe_mask == 0 proves no interior component can
// probe (and with no ICache attached nothing probes at all). When the budget
// also cannot trip inside the window (remaining > N), accounting reduces to
// N bare cost additions — applied to `cycles` one at a time, in the same
// IEEE order account_at would — plus ONE budget decrement. This batch is
// where the fused forms beat the serial probe/trap-checked chain. Any
// other case takes the exact per-component path, so probes, cycle streams,
// and the budget trip point stay bit-identical to unfused execution.
#define ITH_ACCOUNT_WINDOW_1(W)                                                \
  if (ITH_LIKELY((ic == nullptr || (W).probe_mask == 0) && remaining > 1)) {   \
    cycles += (W).cost[0];                                                     \
    remaining -= 1;                                                            \
  } else {                                                                     \
    account_at((W).cost[0], (W).line[0]);                                      \
  }
#define ITH_ACCOUNT_WINDOW_2(W)                                                \
  if (ITH_LIKELY((ic == nullptr || (W).probe_mask == 0) && remaining > 2)) {   \
    cycles += (W).cost[0];                                                     \
    cycles += (W).cost[1];                                                     \
    remaining -= 2;                                                            \
  } else {                                                                     \
    account_at((W).cost[0], (W).line[0]);                                      \
    account_at((W).cost[1], (W).line[1]);                                      \
  }
#define ITH_ACCOUNT_WINDOW_3(W)                                                \
  if (ITH_LIKELY((ic == nullptr || (W).probe_mask == 0) && remaining > 3)) {   \
    cycles += (W).cost[0];                                                     \
    cycles += (W).cost[1];                                                     \
    cycles += (W).cost[2];                                                     \
    remaining -= 3;                                                            \
  } else {                                                                     \
    account_at((W).cost[0], (W).line[0]);                                      \
    account_at((W).cost[1], (W).line[1]);                                      \
    account_at((W).cost[2], (W).line[2]);                                      \
  }

// The mirror handlers' arithmetic, as expression macros so the statement
// forms below can't drift from them. Wrapping math runs in unsigned space
// (signed overflow would be UB); division is total. Operands must be
// side-effect-free lvalues — several expand more than once.
#define ITH_WRAP_ADD(L, R)                                                   \
  static_cast<std::int64_t>(static_cast<std::uint64_t>(L) +                  \
                            static_cast<std::uint64_t>(R))
#define ITH_WRAP_SUB(L, R)                                                   \
  static_cast<std::int64_t>(static_cast<std::uint64_t>(L) -                  \
                            static_cast<std::uint64_t>(R))
#define ITH_WRAP_MUL(L, R)                                                   \
  static_cast<std::int64_t>(static_cast<std::uint64_t>(L) *                  \
                            static_cast<std::uint64_t>(R))
#define ITH_TOTAL_DIV(L, R)                                                  \
  ((R) == 0 ? 0                                                              \
   : (R) == -1                                                               \
       ? static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(L))        \
       : (L) / (R))
#define ITH_TOTAL_MOD(L, R) (((R) == 0 || (R) == -1) ? 0 : (L) % (R))

#define ITH_FUSED_CMP_BRANCH(CMP, TAKEN_ON)                                 \
  {                                                                         \
    const FusedWindow& w = pool[ip->imm];                                   \
    ITH_ACCOUNT_WINDOW_1(w);                                                \
    sp -= 2;                                                                \
    if ((stk[sp] CMP stk[sp + 1]) == (TAKEN_ON)) ITH_TAKEN_BRANCH_D(1, ip->b); \
    ip += 2;                                                                \
    ITH_DISPATCH();                                                         \
  }

#define ITH_FUSED_GUARD(CMP, TAKEN_ON)                                      \
  {                                                                         \
    const FusedWindow& w = pool[ip->imm];                                   \
    ITH_ACCOUNT_WINDOW_3(w);                                                \
    if ((loc[ip->a] CMP static_cast<std::int64_t>(ip->b)) == (TAKEN_ON))    \
      ITH_TAKEN_BRANCH_D(3, w.extra);                                       \
    ip += 4;                                                                \
    ITH_DISPATCH();                                                         \
  }

      ITH_CASE(kFAddImm) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        stk[sp - 1] = ITH_WRAP_ADD(stk[sp - 1], ip->a);
        ip += 2;
        ITH_DISPATCH();
      }
      ITH_CASE(kFSubImm) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        stk[sp - 1] = ITH_WRAP_SUB(stk[sp - 1], ip->a);
        ip += 2;
        ITH_DISPATCH();
      }
      ITH_CASE(kFMulImm) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        stk[sp - 1] = ITH_WRAP_MUL(stk[sp - 1], ip->a);
        ip += 2;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLoadLoadAddImm) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_2(w);
        stk[sp++] = ITH_WRAP_ADD(loc[ip->a], loc[ip->b]);
        ip += 3;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLoadLoadSubImm) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_2(w);
        stk[sp++] = ITH_WRAP_SUB(loc[ip->a], loc[ip->b]);
        ip += 3;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLoadLoadMulImm) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_2(w);
        stk[sp++] = ITH_WRAP_MUL(loc[ip->a], loc[ip->b]);
        ip += 3;
        ITH_DISPATCH();
      }
      // A kJz takes when the comparison was false, a kJnz when it was true.
      ITH_CASE(kFCmpLtJzImm) { ITH_FUSED_CMP_BRANCH(<, false); }
      ITH_CASE(kFCmpLeJzImm) { ITH_FUSED_CMP_BRANCH(<=, false); }
      ITH_CASE(kFCmpNeJzImm) { ITH_FUSED_CMP_BRANCH(!=, false); }
      // The 4-long while-guard form never touches the operand stack: the
      // comparison reads the local and the captured bound directly, and the
      // two transient pushes of the unfused form were dead on both paths.
      ITH_CASE(kFLoadConstCmpLtJzImm) { ITH_FUSED_GUARD(<, false); }
      ITH_CASE(kFLoadConstCmpLeJzImm) { ITH_FUSED_GUARD(<=, false); }
      ITH_CASE(kFLoadConstCmpLeJnzImm) { ITH_FUSED_GUARD(<=, true); }
      ITH_CASE(kFLoadConstCmpEqJzImm) { ITH_FUSED_GUARD(==, false); }
      ITH_CASE(kFLoadConstCmpNeJzImm) { ITH_FUSED_GUARD(!=, false); }
      // The counted-loop increment/decrement: loc[a] op= b with zero
      // operand-stack traffic. Accounting order (load, const, arith) runs
      // before the store's account, and the local is only written after all
      // four components are accounted — so a budget trap mid-window leaves
      // loc untouched, exactly like the unfused stream whose kStore is the
      // last component.
      ITH_CASE(kFIncLocal) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_3(w);
        loc[ip->a] = ITH_WRAP_ADD(loc[ip->a], ip->b);
        ip += 4;
        ITH_DISPATCH();
      }
      ITH_CASE(kFDecLocal) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_3(w);
        loc[ip->a] = ITH_WRAP_SUB(loc[ip->a], ip->b);
        ip += 4;
        ITH_DISPATCH();
      }
      // ---- statement forms ----
      //
      // Same discipline throughout: account the whole window first (batched
      // when legal, exact otherwise), then compute with the mirror handlers'
      // expressions, then write. Locals and globals are only mutated after
      // every component is accounted, so a budget trap mid-window observes
      // the same heap/locals state as the unfused stream whose writing
      // component is last.
      ITH_CASE(kFLoadAddK) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_2(w);
        stk[sp++] = ITH_WRAP_ADD(loc[ip->a], ip->b);
        ip += 3;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLoadSubK) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_2(w);
        stk[sp++] = ITH_WRAP_SUB(loc[ip->a], ip->b);
        ip += 3;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLoadMulK) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_2(w);
        stk[sp++] = ITH_WRAP_MUL(loc[ip->a], ip->b);
        ip += 3;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLoadDivK) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_2(w);
        const std::int64_t lhs = loc[ip->a];
        const std::int64_t rhs = ip->b;
        stk[sp++] = ITH_TOTAL_DIV(lhs, rhs);
        ip += 3;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLoadModK) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_2(w);
        const std::int64_t lhs = loc[ip->a];
        const std::int64_t rhs = ip->b;
        stk[sp++] = ITH_TOTAL_MOD(lhs, rhs);
        ip += 3;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLocAddK) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_3(w);
        loc[w.extra] = ITH_WRAP_ADD(loc[ip->a], ip->b);
        ip += 4;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLocSubK) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_3(w);
        loc[w.extra] = ITH_WRAP_SUB(loc[ip->a], ip->b);
        ip += 4;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLocMulK) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_3(w);
        loc[w.extra] = ITH_WRAP_MUL(loc[ip->a], ip->b);
        ip += 4;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLocDivK) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_3(w);
        const std::int64_t lhs = loc[ip->a];
        const std::int64_t rhs = ip->b;
        loc[w.extra] = ITH_TOTAL_DIV(lhs, rhs);
        ip += 4;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLocModK) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_3(w);
        const std::int64_t lhs = loc[ip->a];
        const std::int64_t rhs = ip->b;
        loc[w.extra] = ITH_TOTAL_MOD(lhs, rhs);
        ip += 4;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLocAddLoc) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_3(w);
        loc[w.extra] = ITH_WRAP_ADD(loc[ip->a], loc[ip->b]);
        ip += 4;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLocSubLoc) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_3(w);
        loc[w.extra] = ITH_WRAP_SUB(loc[ip->a], loc[ip->b]);
        ip += 4;
        ITH_DISPATCH();
      }
      ITH_CASE(kFLocMulLoc) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_3(w);
        loc[w.extra] = ITH_WRAP_MUL(loc[ip->a], loc[ip->b]);
        ip += 4;
        ITH_DISPATCH();
      }
      ITH_CASE(kFAddStore) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        sp -= 2;
        loc[ip->b] = ITH_WRAP_ADD(stk[sp], stk[sp + 1]);
        ip += 2;
        ITH_DISPATCH();
      }
      ITH_CASE(kFSubStore) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        sp -= 2;
        loc[ip->b] = ITH_WRAP_SUB(stk[sp], stk[sp + 1]);
        ip += 2;
        ITH_DISPATCH();
      }
      ITH_CASE(kFMulStore) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        sp -= 2;
        loc[ip->b] = ITH_WRAP_MUL(stk[sp], stk[sp + 1]);
        ip += 2;
        ITH_DISPATCH();
      }
      ITH_CASE(kFDivStore) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        sp -= 2;
        const std::int64_t lhs = stk[sp];
        const std::int64_t rhs = stk[sp + 1];
        loc[ip->b] = ITH_TOTAL_DIV(lhs, rhs);
        ip += 2;
        ITH_DISPATCH();
      }
      ITH_CASE(kFModStore) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        sp -= 2;
        const std::int64_t lhs = stk[sp];
        const std::int64_t rhs = stk[sp + 1];
        loc[ip->b] = ITH_TOTAL_MOD(lhs, rhs);
        ip += 2;
        ITH_DISPATCH();
      }
      ITH_CASE(kFCopyLocal) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        loc[ip->b] = loc[ip->a];
        ip += 2;
        ITH_DISPATCH();
      }
      ITH_CASE(kFConstStore) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        loc[ip->b] = ip->a;
        ip += 2;
        ITH_DISPATCH();
      }
      ITH_CASE(kFGLoadK) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        if (gsize == 0) {
          stk[sp++] = 0;
        } else {
          const auto g = static_cast<std::int64_t>(gsize);
          const std::int64_t idx = ip->a;
          stk[sp++] = gbl[static_cast<std::size_t>(((idx % g) + g) % g)];
        }
        ip += 2;
        ITH_DISPATCH();
      }
      ITH_CASE(kFDivImm) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        const std::int64_t lhs = stk[sp - 1];
        const std::int64_t rhs = ip->a;
        stk[sp - 1] = ITH_TOTAL_DIV(lhs, rhs);
        ip += 2;
        ITH_DISPATCH();
      }
      ITH_CASE(kFModImm) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_1(w);
        const std::int64_t lhs = stk[sp - 1];
        const std::int64_t rhs = ip->a;
        stk[sp - 1] = ITH_TOTAL_MOD(lhs, rhs);
        ip += 2;
        ITH_DISPATCH();
      }
      // `const k; cmpeq; jz` with the selector already on the stack: pop it,
      // compare against the head's own operand, branch by the captured delta.
      ITH_CASE(kFKCmpEqJz) {
        const FusedWindow& w = pool[ip->imm];
        ITH_ACCOUNT_WINDOW_2(w);
        --sp;
        if (stk[sp] != static_cast<std::int64_t>(ip->a)) ITH_TAKEN_BRANCH_D(2, ip->b);
        ip += 3;
        ITH_DISPATCH();
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
#undef ITH_TAKEN_BRANCH_D
#undef ITH_FUSED_CMP_BRANCH
#undef ITH_FUSED_GUARD
#undef ITH_ACCOUNT_WINDOW_1
#undef ITH_ACCOUNT_WINDOW_2
#undef ITH_ACCOUNT_WINDOW_3
#undef ITH_WRAP_ADD
#undef ITH_WRAP_SUB
#undef ITH_WRAP_MUL
#undef ITH_TOTAL_DIV
#undef ITH_TOTAL_MOD

}  // namespace ith::rt
