// FastInterpreter: the predecoded direct-threaded execution engine.
//
// Semantics and cost accounting are bit-identical to ReferenceInterpreter
// (enforced by tests/runtime/engine_equivalence_test.cpp and the fuzz
// oracle's engine-differential tier); only the mechanics differ:
//
//   * each CompiledMethod is predecoded once (predecode.hpp) into a dense
//     stream of {dispatch target, run cost, run length, icache line,
//     operands} — the hot loop does no op_info() lookup and no divisions;
//   * dispatch is direct-threaded via computed goto (labels-as-values, a
//     GCC/Clang extension): one predecoded entry per bytecode instruction,
//     its handler selected by the instruction's bc::Op;
//   * accounting happens once per straight-line run, not per instruction:
//     a run head threads to its op's accounting entry, which probes the
//     I-cache line, takes the whole run from the instruction budget and
//     adds the run's cost in exact integer cost units, then falls into the
//     handler; interior entries thread straight to the handler. Because
//     the costs are integers, the sum equals the reference engine's
//     per-instruction sum. When the budget ends inside a run, execution
//     continues at the same index of the body's single-step twin, so the
//     instructions before the trap still run and leave the same globals;
//   * the top of the operand stack lives in a local (`tos`); the arena
//     holds the rest, above a dummy slot 0;
//   * the frame / locals / operand-stack arenas are members reused across
//     run() calls, so repeated VirtualMachine::run iterations allocate
//     nothing on the hot path.
//
// Predecoded bodies are cached per method id, keyed by the CompiledMethod's
// address; recompilation (a new address in the slot) retires the old
// predecode, which stays alive because deeper frames may still execute it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/interpreter.hpp"
#include "runtime/predecode.hpp"

namespace ith::rt {

class FastInterpreter final : public Engine {
 public:
  FastInterpreter(const bc::Program& prog, const MachineModel& machine, CodeSource& source,
                  ICache* icache, InterpreterOptions options);

  ExecStats run() override;

 private:
  /// An active frame. `resume` is only meaningful for suspended frames
  /// (callers): the instruction after their kCall.
  struct FastFrame {
    PredecodedBody* pb;
    const PredecodedInsn* resume;
    std::size_t locals_base;  // into locals_
    std::size_t stack_floor;  // operand-stack watermark at entry (minus args)
  };

  /// Returns the predecode of `cm`, translating on first sight. Replacing a
  /// recompiled method's predecode moves the old one to retired_.
  PredecodedBody& body_for(const CompiledMethod& cm);

  /// The dispatch loop's register state after entering a frame. Slow paths
  /// (call, OSR) are out-of-line member functions that RETURN this instead
  /// of mutating the loop's locals through reference captures — a local
  /// whose address escapes into a non-inlined closure is memory-homed by
  /// the compiler, which would put a stack reload in every handler tail.
  struct EnterState {
    const PredecodedInsn* ip;
    std::int64_t* loc;
    std::int64_t* top;  ///< the operand-stack arena slot the top value spills to
  };

  /// Fills `body`'s dispatch targets from `labels` (the run() loop's label
  /// table: run-head entries for each op, then handler entries) unless done.
  static PredecodedBody& thread(PredecodedBody& body, const void* const* labels);

  /// body_for + lazy threading.
  PredecodedBody& attach(const CompiledMethod& cm, const void* const* labels);

  /// The threaded single-step twin of `body`, built on first use.
  static PredecodedBody& single_step(PredecodedBody& body, const void* const* labels);

  /// Invokes `id`, pops `nargs` arguments into the callee's locals, pushes
  /// the callee frame, and returns the state to resume dispatch at its
  /// first instruction. `sp` counts the arena's dummy slot 0, and the caller
  /// has spilled its top of stack into the arena.
  EnterState call_into(bc::MethodId id, std::int32_t nargs, std::size_t sp, ExecStats& stats,
                       const void* const* labels);

  /// On-stack replacement attempt at the top frame's bytecode index
  /// `target` (same guards and transfer rules as the reference engine).
  /// On success fills `out` with the state to resume in the replacement.
  bool try_osr(std::size_t target, std::size_t sp, ExecStats& stats, const void* const* labels,
               EnterState& out);

  /// Grows the operand stack to at least `need` slots.
  void ensure_stack(std::size_t need);

  struct Slot {
    const CompiledMethod* cm = nullptr;
    std::unique_ptr<PredecodedBody> pb;
  };
  std::vector<Slot> predecoded_;  // indexed by method id
  std::vector<std::unique_ptr<PredecodedBody>> retired_;

  // Execution arenas, reused across run() calls.
  std::vector<FastFrame> frames_;
  std::vector<std::int64_t> locals_;
  std::vector<std::int64_t> stack_;  // capacity managed explicitly; `top` is in run()

  // The I-cache line of the last probe (~0 after a control transfer). A
  // member, not a local of run(): it is read once per run, and as a local it
  // would take one of the callee-saved registers the per-instruction state
  // needs.
  std::uint64_t current_line_ = ~0ULL;

  // Failed OSR pair memo (reset per run): don't rescan a rejected
  // replacement on every loop iteration.
  const CompiledMethod* osr_failed_from_ = nullptr;
  const CompiledMethod* osr_failed_to_ = nullptr;
};

}  // namespace ith::rt
