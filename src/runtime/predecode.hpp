// Predecoding: translate a finalized CompiledMethod into the dense
// execution stream the fast engine dispatches over.
//
// Everything the reference engine recomputes per dynamic instruction is
// folded here, once per installed body:
//
//   * the per-instruction cycle cost `machine_words * cpi[tier]`, pre-folded
//     into one double (the product of the same two operands the reference
//     engine multiplies, so the addition stream is bit-identical);
//   * the simulated byte address and I-cache line index of each pc (the two
//     integer divisions of the reference engine's hot path);
//   * the direct-threaded dispatch target slot, filled in by the engine the
//     first time a body is entered (computed-goto labels are local to the
//     dispatch loop, so predecoding can only reserve the slot);
//   * jump operands rewritten to pc-relative deltas, so the engine advances
//     its instruction pointer by addition alone.
//
// The translation is 1:1: one PredecodedInsn per bytecode instruction, in
// program order, dispatched by its bc::Op. There is no superinstruction
// fusion (DESIGN.md §7 gives the measured reason).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/compiled.hpp"
#include "runtime/machine.hpp"

namespace ith::rt {

/// One predecoded instruction, 40 bytes: the dispatch-critical fields
/// (target, base_cost, line) lead so a straight-line run touches a compact
/// prefix of each entry. The simulated byte address is deliberately NOT
/// stored — any address inside the line identifies the same line to the
/// I-cache, so the engine probes with `ICache::probe_line(line)`.
struct PredecodedInsn {
  const void* target = nullptr;  ///< computed-goto label (engine fills lazily)
  double base_cost = 0.0;        ///< machine_words * cpi[tier], pre-folded
  std::uint64_t line = 0;        ///< icache line index of this pc
  std::int32_t a = 0;            ///< immediate / slot / callee; for kJmp/kJz/kJnz
                                 ///< the pc-RELATIVE jump delta (target - pc), so
                                 ///< the dispatch loop never needs the code base
                                 ///< (back edge iff delta <= 0)
  std::int32_t b = 0;            ///< kCall argument count
  bc::Op op = bc::Op::kNop;      ///< dispatch key (labels are indexed by bc::Op)
};

// The doc comment above promises 40 bytes and a stable dispatch-critical
// prefix; nothing may bloat the entry or reorder the hot fields.
static_assert(sizeof(PredecodedInsn) == 40, "PredecodedInsn grew past its 40-byte budget");
static_assert(offsetof(PredecodedInsn, target) == 0 && offsetof(PredecodedInsn, base_cost) == 8 &&
                  offsetof(PredecodedInsn, line) == 16,
              "dispatch-critical prefix (target, base_cost, line) reordered");
static_assert(offsetof(PredecodedInsn, a) == 24 && offsetof(PredecodedInsn, b) == 28 &&
                  offsetof(PredecodedInsn, op) == 32,
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
};

/// Predecodes `cm` (which must be finalized and have code_base assigned,
/// i.e. installed) under `machine`'s cost model.
PredecodedBody predecode(const CompiledMethod& cm, const MachineModel& machine);

}  // namespace ith::rt
