// Predecoding: translate a finalized CompiledMethod into the dense
// execution stream the fast engine dispatches over.
//
// Everything the reference engine recomputes per dynamic instruction is
// folded here, once per installed body:
//
//   * the body is cut into runs: straight-line stretches that execute whole
//     once entered at their head, on one I-cache line. A run starts at pc 0,
//     at every jump target, after every kJmp/kJz/kJnz/kCall/kRet/kHalt, and
//     wherever the I-cache line changes. Each entry carries the cost (in
//     integer cost units, machine.hpp) and the instruction count from itself
//     to the end of its run, so the engine charges cycles, budget and the
//     line probe once per run, at its head (or at an OSR entry inside one);
//   * the simulated I-cache line index of each pc (the two integer
//     divisions of the reference engine's hot path);
//   * the direct-threaded dispatch target slot, filled in by the engine the
//     first time a body is entered (computed-goto labels are local to the
//     dispatch loop, so predecoding can only reserve the slot): a head
//     threads to its op's accounting entry, an interior entry straight to
//     the op's handler;
//   * jump operands rewritten to pc-relative deltas, so the engine advances
//     its instruction pointer by addition alone.
//
// The translation is 1:1: one PredecodedInsn per bytecode instruction, in
// program order, dispatched by its bc::Op. There is no superinstruction
// fusion (DESIGN.md §7 gives the measured reason).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/compiled.hpp"
#include "runtime/machine.hpp"

namespace ith::rt {

/// One predecoded instruction, 40 bytes: the dispatch-critical fields
/// (target, run_cost, run_len, line) lead so a straight-line run touches a
/// compact prefix of each entry. The simulated byte address is deliberately
/// NOT stored — any address inside the line identifies the same line to the
/// I-cache, so the engine probes with `ICache::probe_line(line)`.
struct PredecodedInsn {
  const void* target = nullptr;  ///< computed-goto label (engine fills lazily)
  std::uint32_t run_cost = 0;    ///< cost units from this entry to its run's end
  std::uint32_t run_len = 0;     ///< instructions from this entry to its run's end
  std::uint64_t line = 0;        ///< icache line index of this pc
  std::int32_t a = 0;            ///< immediate / slot / callee; for kJmp/kJz/kJnz
                                 ///< the pc-RELATIVE jump delta (target - pc), so
                                 ///< the dispatch loop never needs the code base
                                 ///< (back edge iff delta <= 0)
  std::int32_t b = 0;            ///< kCall argument count
  bc::Op op = bc::Op::kNop;      ///< dispatch key (labels are indexed by bc::Op)
  bool head = false;             ///< first entry of its run
};

// The doc comment above promises 40 bytes and a stable dispatch-critical
// prefix; nothing may bloat the entry or reorder the hot fields.
static_assert(sizeof(PredecodedInsn) == 40, "PredecodedInsn grew past its 40-byte budget");
static_assert(offsetof(PredecodedInsn, target) == 0 && offsetof(PredecodedInsn, run_cost) == 8 &&
                  offsetof(PredecodedInsn, run_len) == 12 &&
                  offsetof(PredecodedInsn, line) == 16,
              "dispatch-critical prefix (target, run_cost, run_len, line) reordered");
static_assert(offsetof(PredecodedInsn, a) == 24 && offsetof(PredecodedInsn, b) == 28 &&
                  offsetof(PredecodedInsn, op) == 32 && offsetof(PredecodedInsn, head) == 33,
              "operand fields moved");

/// A predecoded body plus everything the engine needs to enter a frame in
/// O(1): the source CompiledMethod (for OSR / provenance lookups) and the
/// operand-stack headroom a frame of this body can ever need.
struct PredecodedBody {
  const CompiledMethod* cm = nullptr;
  std::vector<PredecodedInsn> code;
  /// Upper bound on the operand-stack depth (relative to the frame's stack
  /// floor) reachable while this body's frame is on top. Lets the engine
  /// reserve stack capacity once per call instead of checking per push.
  int max_operand_depth = 0;
  /// Dispatch-target slots are valid for the engine's label table.
  bool threaded = false;
  /// The single-step twin (see single_step_twin), built by the engine the
  /// first time the instruction budget runs out inside one of this body's
  /// runs.
  std::unique_ptr<PredecodedBody> single_step;
};

/// Predecodes `cm` (which must be finalized and have code_base assigned,
/// i.e. installed) under `machine`'s cost model. Throws ith::Error when the
/// model's CPIs are not whole cost units (MachineModel::cpi_units).
PredecodedBody predecode(const CompiledMethod& cm, const MachineModel& machine);

/// A copy of `pb` (unthreaded) in which every entry is its own run: same
/// ops, operands and lines, each entry's run_cost its own cost and its
/// run_len 1. Executing it charges per instruction, which is how the engine
/// finishes a run the instruction budget ends part-way through.
PredecodedBody single_step_twin(const PredecodedBody& pb);

}  // namespace ith::rt
