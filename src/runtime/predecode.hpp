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
//     dispatch loop, so predecoding can only reserve the slot).
//
// On top of the 1:1 translation sits the superinstruction fusion pass
// (DESIGN.md §14): a table-driven scan that rewrites the HEAD of an adjacent
// bytecode pattern (const+arith, load+load+op, whole assignment statements,
// cmp+branch, the 4-long loop-guard form, call+return chains) to the rule's
// one fused extended opcode, whose operands ride in the head and a side-pool
// record. Interior entries of a fused window keep their original opcode, so
// a jump, OSR entry, or back edge landing mid-window simply executes the
// components unfused — fusion never moves, deletes, or re-costs an entry,
// which is how the sim-cycle model and ExecStats stay bit-identical to the
// reference engine (the fused handlers account each component separately,
// in original order; see the cost-conservation rule in DESIGN.md).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/compiled.hpp"
#include "runtime/machine.hpp"

namespace ith::rt {

/// Extended opcode space the fast engine dispatches over: the first
/// bc::kNumOps values mirror bc::Op one-to-one (same numeric values —
/// predecode static_asserts this), followed by one fused superinstruction
/// per fusion rule. Fused values only ever appear on the head entry of a
/// pattern window (kFRetChained excepted: it marks the kRet of a caller-side
/// call+return pair, and its handler IS the kRet handler).
///
/// Every fused form but kFRetChained is operand-captured (DESIGN.md §14):
/// the component operands AND the per-component accounting data
/// (pre-folded cost, icache line) are copied into the head's free slots and
/// the body's operand side-pool at predecode time, so a fused dispatch never
/// touches the interior PredecodedInsn entries. The interiors keep their
/// mirror xops, so a control transfer landing mid-window executes the
/// components unfused.
enum class XOp : std::uint8_t {
  // --- bc::Op mirrors (dispatch identity for unfused entries) ---
  kConst,
  kLoad,
  kStore,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kNeg,
  kCmpLt,
  kCmpLe,
  kCmpEq,
  kCmpNe,
  kJmp,
  kJz,
  kJnz,
  kCall,
  kRet,
  kGLoad,
  kGStore,
  kPop,
  kNop,
  kHalt,
  // --- fused superinstructions ---
  kFRetChained,  ///< the kRet of a caller-side {kCall, kRet} pair: the
                 ///< callee's return chains straight into this return
                 ///< without an indirect dispatch in between
  kFAddImm,             ///< kConst kAdd : top += imm (imm in head `a`)
  kFSubImm,             ///< kConst kSub : top -= imm
  kFMulImm,             ///< kConst kMul : top *= imm
  kFLoadLoadAddImm,     ///< push(loc[a] + loc[b]) — both slots in the head
  kFLoadLoadSubImm,
  kFLoadLoadMulImm,
  kFCmpLtJzImm,         ///< pop 2, compare, branch by the delta in head `b`
  kFCmpLeJzImm,         ///< (a kJz takes when the comparison is false)
  kFCmpNeJzImm,
  kFLoadConstCmpLtJzImm,   ///< loop guard: slot in `a`, bound in `b`, the
  kFLoadConstCmpLeJzImm,   ///< branch delta in the side-pool record; zero
  kFLoadConstCmpLeJnzImm,  ///< operand-stack traffic
  kFLoadConstCmpEqJzImm,
  kFLoadConstCmpNeJzImm,
  kFIncLocal,  ///< kLoad kConst kAdd kStore on ONE local: loc[a] += b, zero
               ///< stack traffic — the counted-loop increment idiom
  kFDecLocal,  ///< kLoad kConst kSub kStore on one local: loc[a] -= b
  // --- statement forms: whole `push loc op k` / `x = y op z` shapes as one
  // dispatch. The generated workloads compile every assignment statement to
  // load/const/arith/store runs, so these retire most of a hot method's
  // dispatches and ALL of its transient operand-stack traffic. Arithmetic
  // uses the same wrap-mod-2^64 (and total div/mod) expressions as the
  // mirror handlers, so values are bit-identical to unfused execution. ---
  kFLoadAddK,   ///< kLoad kConst kAdd : push(loc[a] + b)
  kFLoadSubK,   ///< kLoad kConst kSub : push(loc[a] - b)
  kFLoadMulK,   ///< kLoad kConst kMul : push(loc[a] * b)
  kFLoadDivK,   ///< kLoad kConst kDiv : push(loc[a] / b), total division
  kFLoadModK,   ///< kLoad kConst kMod : push(loc[a] % b), total remainder
  kFLocAddK,    ///< kLoad kConst kAdd kStore : loc[extra] = loc[a] + b
  kFLocSubK,    ///< kLoad kConst kSub kStore : loc[extra] = loc[a] - b
  kFLocMulK,    ///< kLoad kConst kMul kStore : loc[extra] = loc[a] * b
  kFLocDivK,    ///< kLoad kConst kDiv kStore : loc[extra] = loc[a] / b
  kFLocModK,    ///< kLoad kConst kMod kStore : loc[extra] = loc[a] % b
  kFLocAddLoc,  ///< kLoad kLoad kAdd kStore : loc[extra] = loc[a] + loc[b]
  kFLocSubLoc,  ///< kLoad kLoad kSub kStore : loc[extra] = loc[a] - loc[b]
  kFLocMulLoc,  ///< kLoad kLoad kMul kStore : loc[extra] = loc[a] * loc[b]
  kFAddStore,   ///< kAdd kStore : loc[b] = pop + pop — expression tails
  kFSubStore,   ///< kSub kStore : loc[b] = pop - pop
  kFMulStore,   ///< kMul kStore : loc[b] = pop * pop
  kFDivStore,   ///< kDiv kStore : loc[b] = pop / pop, total division
  kFModStore,   ///< kMod kStore : loc[b] = pop % pop, total remainder
  kFCopyLocal,  ///< kLoad kStore : loc[b] = loc[a]
  kFConstStore, ///< kConst kStore : loc[b] = a
  kFGLoadK,     ///< kConst kGLoad : push(globals[a mod |globals|])
  kFDivImm,     ///< kConst kDiv : top = top / a, total division
  kFModImm,     ///< kConst kMod : top = top % a, total remainder
  kFKCmpEqJz,   ///< kConst kCmpEq kJz : pop, compare against a, branch by b
                ///< (the dispatcher idiom `... const k; cmpeq; jz`)
};

/// Number of extended opcodes (label-table size for the fast engine).
inline constexpr int kNumXOps = static_cast<int>(XOp::kFKCmpEqJz) + 1;
static_assert(kNumXOps == bc::kNumOps + 41, "fused opcode count drifted");

/// When the predecoder may fuse. The default comes from the ITH_FUSION
/// environment variable (see default_fusion_policy): setting ITH_FUSION=0
/// runs every body unfused without a rebuild.
enum class FusionPolicy : std::uint8_t {
  kOff,           ///< never fuse (escape hatch; also the reference behavior)
  kPromotedOnly,  ///< fuse bodies above baseline tier — dispatch speed is
                  ///< tier-dependent, so adaptive promotion pays twice
  kAll,           ///< fuse every tier (stress / micro-bench configuration)
};

/// Policy selected by the ITH_FUSION environment variable:
///   "0" / "off"            -> kOff
///   "all"                  -> kAll
///   "1" / "promoted" / unset -> kPromotedOnly (the default)
/// Throws ith::Error on any other value (a typo silently disabling the
/// fusion tier would be invisible).
FusionPolicy default_fusion_policy();

const char* fusion_policy_name(FusionPolicy policy);

/// One fusion rule: an adjacent bc::Op pattern, the fused opcode that
/// replaces the dispatch of the entry at `rewrite_at`, and the rule's
/// operand-capture descriptor. Rules are DATA — the scan in predecode()
/// interprets this table; adding a pattern means adding a row here plus its
/// XOp and handler in fast_interpreter.cpp, nothing else.
struct FusionRule {
  const char* name;                  ///< stable id for stats/obs counters
  std::uint8_t len;                  ///< pattern length (2..kMaxFusionPatternLen)
  /// Which component gets the fused xop. 0 (the head, which then takes a
  /// side-pool record) for every rule except call_ret, which marks its kRet.
  std::uint8_t rewrite_at;
  XOp fused;                         ///< the rule's one fused opcode
  /// Operand capture, as data: the component index whose `a` operand is
  /// folded into the head's `b` slot / the side-pool record's `extra` slot
  /// (-1 = nothing to capture there). The head's own `a` operand always
  /// stays in place.
  std::int8_t capture_b;
  std::int8_t capture_extra;
  /// Operand-equality constraint: component whose `a` must equal component
  /// 0's `a` for the rule to match at all (-1 = unconstrained). This is how
  /// kFIncLocal requires the kLoad and the kStore to hit the same local.
  std::int8_t require_same_a;
  std::array<bc::Op, 4> pattern;     ///< adjacent ops; only [0, len) matter
};

inline constexpr int kMaxFusionPatternLen = 4;

/// Side-pool records one body can address: the handle riding in
/// PredecodedInsn's padding is 16 bits wide, so windows past this many stay
/// unfused (counted as FusionStats::pool_overflows).
inline constexpr std::size_t kMaxFusedWindowsPerBody = std::size_t{1} << 16;

/// Side-pool record for one fused window: everything a fused handler needs
/// about its non-head components, so dispatch retires the interior
/// PredecodedInsn entries from the hot path entirely. `cost` and `line` are
/// verbatim copies of components [1, len)'s pre-folded accounting fields, in
/// original program order — the handler feeds them to the same per-component
/// accounting an unfused dispatch of each component does, which is what
/// keeps cycles (IEEE addition order), icache probes, and the budget trip
/// point bit-identical to unfused execution. `extra` holds the one operand
/// that fits in neither head slot: the branch component's pc-relative delta
/// in the 4-long guard forms.
/// Field order is hot-path layout: the batched accounting fast path reads
/// cost[], extra, and probe_mask — all inside the record's first 32 bytes —
/// while line[] is only touched on the exact per-component slow path.
struct FusedWindow {
  std::array<double, kMaxFusionPatternLen - 1> cost{};
  std::int32_t extra = 0;
  /// Bit k-1 set iff component k sits on a different icache line than
  /// component k-1. Within a captured window every probe decision is
  /// static (the running line after component k-1's account IS component
  /// k-1's line), so probe_mask == 0 proves no interior component can probe
  /// and the handler may take a batched accounting fast path: bare cost
  /// additions plus one budget decrement, no per-component branches.
  std::uint8_t probe_mask = 0;
  std::array<std::uint64_t, kMaxFusionPatternLen - 1> line{};
};

/// The fusion pattern table, ordered longest-first so the scan's first
/// match at a pc is the longest one.
const std::vector<FusionRule>& fusion_rules();

/// Fusion activity accumulated across predecodes (the fast engine keeps one
/// per engine instance; the VM publishes deltas as rt.fused_* counters).
struct FusionStats {
  FusionStats();  ///< sizes rule_hits to fusion_rules().size()

  std::uint64_t bodies_considered = 0;  ///< predecodes with fusion enabled
  std::uint64_t bodies_fused = 0;       ///< bodies where >= 1 rule fired
  std::uint64_t rules_fired = 0;        ///< total pattern matches rewritten
  std::uint64_t insns_fused = 0;        ///< dispatches eliminated: sum(len-1)
  std::uint64_t windows_imm = 0;        ///< windows that took a side-pool record
  std::uint64_t pool_overflows = 0;     ///< matches left unfused: handle space full
  std::vector<std::uint64_t> rule_hits;  ///< indexed like fusion_rules()
};

/// One predecoded instruction, 40 bytes: the dispatch-critical fields
/// (target, base_cost, line) lead so a straight-line run touches a compact
/// prefix of each entry. The simulated byte address is deliberately NOT
/// stored — any address inside the line identifies the same line to the
/// I-cache, so the engine probes with `ICache::probe_line(line)`.
/// Fusion lives entirely in the former tail padding (xop + fuse_len + imm):
/// a fused head reads nothing but itself and its FusedWindow side-pool
/// record — captured operands ride in `b` (the slot only kCall used, and no
/// rule's head is a kCall) and the 16-bit pool handle in `imm`.
struct PredecodedInsn {
  const void* target = nullptr;  ///< computed-goto label (engine fills lazily)
  double base_cost = 0.0;        ///< machine_words * cpi[tier], pre-folded
  std::uint64_t line = 0;        ///< icache line index of this pc
  std::int32_t a = 0;            ///< immediate / slot / callee; for kJmp/kJz/kJnz
                                 ///< the pc-RELATIVE jump delta (target - pc), so
                                 ///< the dispatch loop never needs the code base
                                 ///< (back edge iff delta <= 0)
  std::int32_t b = 0;            ///< kCall argument count; captured component
                                 ///< operand on a fused head
  bc::Op op = bc::Op::kNop;      ///< original opcode (pre-fusion identity)
  XOp xop = XOp::kNop;           ///< dispatch key: mirrors `op` unless fused
  std::uint8_t fuse_len = 1;     ///< entries this dispatch retires (1 unfused)
  std::uint16_t imm = 0;         ///< side-pool handle (fused heads only)
};

// The doc comment above promises 40 bytes and a stable dispatch-critical
// prefix; fusion rides in the padding and must never bloat the entry or
// reorder the hot fields.
static_assert(sizeof(PredecodedInsn) == 40, "PredecodedInsn grew past its 40-byte budget");
static_assert(offsetof(PredecodedInsn, target) == 0 && offsetof(PredecodedInsn, base_cost) == 8 &&
                  offsetof(PredecodedInsn, line) == 16,
              "dispatch-critical prefix (target, base_cost, line) reordered");
static_assert(offsetof(PredecodedInsn, a) == 24 && offsetof(PredecodedInsn, b) == 28,
              "operand fields moved out of the fused handlers' expected slots");
static_assert(offsetof(PredecodedInsn, imm) == 36,
              "side-pool handle must ride in the former tail padding");

/// A predecoded body plus everything the engine needs to enter a frame in
/// O(1): the source CompiledMethod (for OSR / provenance lookups) and the
/// operand-stack headroom a frame of this body can ever need.
struct PredecodedBody {
  const CompiledMethod* cm = nullptr;
  std::vector<PredecodedInsn> code;
  /// Upper bound on the operand-stack depth (relative to the frame's stack
  /// floor) reachable while this body's frame is on top. Lets the engine
  /// reserve stack capacity once per call instead of checking per push.
  /// Computed pre-fusion; fused handlers only ever use less transient stack
  /// than their components, so it stays an upper bound.
  int max_operand_depth = 0;
  /// Dispatch-target slots are valid for the engine's label table.
  bool threaded = false;
  /// At least one fusion rule fired on this body.
  bool fused = false;
  /// Operand side-pool for fused heads: one FusedWindow per fused window,
  /// indexed by the head's 16-bit `imm` handle. Holds verbatim copies of the
  /// interior components' (base_cost, line) pairs — so fused handlers
  /// account per component without touching interior entries — plus the
  /// captured branch delta for guard windows.
  std::vector<FusedWindow> pool;
};

/// Predecodes `cm` (which must be finalized and have code_base assigned,
/// i.e. installed) under `machine`'s cost model. With a fusion policy that
/// admits `cm` (kAll, or kPromotedOnly and the body is above baseline
/// tier), runs the pattern-table fusion scan; `stats`, when non-null,
/// accumulates what fired.
PredecodedBody predecode(const CompiledMethod& cm, const MachineModel& machine,
                         FusionPolicy fusion = FusionPolicy::kOff, FusionStats* stats = nullptr);

}  // namespace ith::rt
