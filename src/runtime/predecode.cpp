#include "runtime/predecode.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>

#include "support/error.hpp"

namespace ith::rt {

// The XOp mirror region must stay numerically identical to bc::Op: unfused
// entries are threaded through labels[int(xop)].
static_assert(static_cast<int>(XOp::kConst) == static_cast<int>(bc::Op::kConst) &&
                  static_cast<int>(XOp::kJmp) == static_cast<int>(bc::Op::kJmp) &&
                  static_cast<int>(XOp::kRet) == static_cast<int>(bc::Op::kRet) &&
                  static_cast<int>(XOp::kHalt) == static_cast<int>(bc::Op::kHalt),
              "XOp's mirror region drifted from bc::Op");

FusionPolicy default_fusion_policy() {
  const char* raw = std::getenv("ITH_FUSION");
  const std::string v = raw == nullptr ? std::string() : std::string(raw);
  if (v.empty() || v == "1" || v == "promoted") return FusionPolicy::kPromotedOnly;
  if (v == "0" || v == "off") return FusionPolicy::kOff;
  if (v == "all") return FusionPolicy::kAll;
  throw Error("ITH_FUSION=" + v + " is not a fusion policy (use 0/off, 1/promoted, or all)");
}

const char* fusion_policy_name(FusionPolicy policy) {
  switch (policy) {
    case FusionPolicy::kOff: return "off";
    case FusionPolicy::kPromotedOnly: return "promoted";
    case FusionPolicy::kAll: return "all";
  }
  return "?";
}

const std::vector<FusionRule>& fusion_rules() {
  using bc::Op;
  // Longest patterns first: the scan takes the first rule that matches at a
  // pc, so a 4-long guard wins over its embedded cmp+branch pair. Every
  // rule's interior components are straight-line (no jump/call/ret heads
  // except as the designated final component), which is what makes the
  // head-executes-all rewrite safe.
  //
  // Row shape: {name, len, rewrite_at, fused, capture_b, capture_extra,
  // require_same_a, pattern}. The capture descriptors are what "operand
  // capture as data" means: the scan copies component[capture_b].a into the
  // head's b slot and component[capture_extra].a into the window's extra
  // slot; -1 captures nothing. Branch deltas are already pc-relative to the
  // branch's own pc, so a captured delta plus the head-relative component
  // offset is enough for the handler to compute the taken target without
  // any interior read.
  //
  // Only patterns that some benchmarked body contains have a row (DESIGN.md
  // §14 names the runs counted): a rule that never matches only costs scan
  // time, an XOp and a handler.
  static const std::vector<FusionRule> kRules = {
      {"load_const_cmplt_jz", 4, 0, XOp::kFLoadConstCmpLtJzImm, 1, 3, -1,
       {Op::kLoad, Op::kConst, Op::kCmpLt, Op::kJz}},
      {"load_const_cmple_jz", 4, 0, XOp::kFLoadConstCmpLeJzImm, 1, 3, -1,
       {Op::kLoad, Op::kConst, Op::kCmpLe, Op::kJz}},
      {"load_const_cmple_jnz", 4, 0, XOp::kFLoadConstCmpLeJnzImm, 1, 3, -1,
       {Op::kLoad, Op::kConst, Op::kCmpLe, Op::kJnz}},
      {"load_const_cmpeq_jz", 4, 0, XOp::kFLoadConstCmpEqJzImm, 1, 3, -1,
       {Op::kLoad, Op::kConst, Op::kCmpEq, Op::kJz}},
      {"load_const_cmpne_jz", 4, 0, XOp::kFLoadConstCmpNeJzImm, 1, 3, -1,
       {Op::kLoad, Op::kConst, Op::kCmpNe, Op::kJz}},
      // The counted-loop increment idiom: load/store must hit the same
      // local (require_same_a = component 3), collapsing three dispatches
      // and two stack round-trips into `loc[a] += b`. A same-slot miss falls
      // through to the general assignment rules below.
      {"inc_local", 4, 0, XOp::kFIncLocal, 1, -1, 3, {Op::kLoad, Op::kConst, Op::kAdd, Op::kStore}},
      {"dec_local", 4, 0, XOp::kFDecLocal, 1, -1, 3, {Op::kLoad, Op::kConst, Op::kSub, Op::kStore}},
      // Whole assignment statements, `loc[extra] = loc[a] op k` and
      // `loc[extra] = loc[a] op loc[b]`. These are what the workload
      // generator emits for every scalar statement, so they carry most of
      // the dynamic dispatch count in the serving/spec bodies: two head
      // slots plus the window's extra cover the three operands.
      {"loc_add_k", 4, 0, XOp::kFLocAddK, 1, 3, -1, {Op::kLoad, Op::kConst, Op::kAdd, Op::kStore}},
      {"loc_sub_k", 4, 0, XOp::kFLocSubK, 1, 3, -1, {Op::kLoad, Op::kConst, Op::kSub, Op::kStore}},
      {"loc_mul_k", 4, 0, XOp::kFLocMulK, 1, 3, -1, {Op::kLoad, Op::kConst, Op::kMul, Op::kStore}},
      {"loc_div_k", 4, 0, XOp::kFLocDivK, 1, 3, -1, {Op::kLoad, Op::kConst, Op::kDiv, Op::kStore}},
      {"loc_mod_k", 4, 0, XOp::kFLocModK, 1, 3, -1, {Op::kLoad, Op::kConst, Op::kMod, Op::kStore}},
      {"loc_add_loc", 4, 0, XOp::kFLocAddLoc, 1, 3, -1,
       {Op::kLoad, Op::kLoad, Op::kAdd, Op::kStore}},
      {"loc_sub_loc", 4, 0, XOp::kFLocSubLoc, 1, 3, -1,
       {Op::kLoad, Op::kLoad, Op::kSub, Op::kStore}},
      {"loc_mul_loc", 4, 0, XOp::kFLocMulLoc, 1, 3, -1,
       {Op::kLoad, Op::kLoad, Op::kMul, Op::kStore}},
      {"load_load_add", 3, 0, XOp::kFLoadLoadAddImm, 1, -1, -1,
       {Op::kLoad, Op::kLoad, Op::kAdd, Op::kNop}},
      {"load_load_sub", 3, 0, XOp::kFLoadLoadSubImm, 1, -1, -1,
       {Op::kLoad, Op::kLoad, Op::kSub, Op::kNop}},
      {"load_load_mul", 3, 0, XOp::kFLoadLoadMulImm, 1, -1, -1,
       {Op::kLoad, Op::kLoad, Op::kMul, Op::kNop}},
      // Expression prefixes `push loc[a] op k` (the assignment forms above
      // win when a store follows; these catch the value-producing uses).
      {"load_add_k", 3, 0, XOp::kFLoadAddK, 1, -1, -1, {Op::kLoad, Op::kConst, Op::kAdd, Op::kNop}},
      {"load_sub_k", 3, 0, XOp::kFLoadSubK, 1, -1, -1, {Op::kLoad, Op::kConst, Op::kSub, Op::kNop}},
      {"load_mul_k", 3, 0, XOp::kFLoadMulK, 1, -1, -1, {Op::kLoad, Op::kConst, Op::kMul, Op::kNop}},
      {"load_div_k", 3, 0, XOp::kFLoadDivK, 1, -1, -1, {Op::kLoad, Op::kConst, Op::kDiv, Op::kNop}},
      {"load_mod_k", 3, 0, XOp::kFLoadModK, 1, -1, -1, {Op::kLoad, Op::kConst, Op::kMod, Op::kNop}},
      // The dispatcher idiom `const k; cmpeq; jz`: compare an
      // already-pushed selector against an immediate and branch, one
      // dispatch, no stack traffic beyond the selector pop.
      {"k_cmpeq_jz", 3, 0, XOp::kFKCmpEqJz, 2, -1, -1, {Op::kConst, Op::kCmpEq, Op::kJz, Op::kNop}},
      {"const_add", 2, 0, XOp::kFAddImm, -1, -1, -1, {Op::kConst, Op::kAdd, Op::kNop, Op::kNop}},
      {"const_sub", 2, 0, XOp::kFSubImm, -1, -1, -1, {Op::kConst, Op::kSub, Op::kNop, Op::kNop}},
      {"const_mul", 2, 0, XOp::kFMulImm, -1, -1, -1, {Op::kConst, Op::kMul, Op::kNop, Op::kNop}},
      // Total-arithmetic division never traps (rhs 0 and -1 have defined
      // results), so div/mod fuse exactly like add/sub/mul.
      {"const_div", 2, 0, XOp::kFDivImm, -1, -1, -1, {Op::kConst, Op::kDiv, Op::kNop, Op::kNop}},
      {"const_mod", 2, 0, XOp::kFModImm, -1, -1, -1, {Op::kConst, Op::kMod, Op::kNop, Op::kNop}},
      // Expression tails `loc[b] = pop op pop`, plus local-to-local copies,
      // constant stores, and the `const k; gload` global-read idiom.
      {"add_store", 2, 0, XOp::kFAddStore, 1, -1, -1, {Op::kAdd, Op::kStore, Op::kNop, Op::kNop}},
      {"sub_store", 2, 0, XOp::kFSubStore, 1, -1, -1, {Op::kSub, Op::kStore, Op::kNop, Op::kNop}},
      {"mul_store", 2, 0, XOp::kFMulStore, 1, -1, -1, {Op::kMul, Op::kStore, Op::kNop, Op::kNop}},
      {"div_store", 2, 0, XOp::kFDivStore, 1, -1, -1, {Op::kDiv, Op::kStore, Op::kNop, Op::kNop}},
      {"mod_store", 2, 0, XOp::kFModStore, 1, -1, -1, {Op::kMod, Op::kStore, Op::kNop, Op::kNop}},
      {"copy_local", 2, 0, XOp::kFCopyLocal, 1, -1, -1,
       {Op::kLoad, Op::kStore, Op::kNop, Op::kNop}},
      {"const_store", 2, 0, XOp::kFConstStore, 1, -1, -1,
       {Op::kConst, Op::kStore, Op::kNop, Op::kNop}},
      {"gload_k", 2, 0, XOp::kFGLoadK, -1, -1, -1, {Op::kConst, Op::kGLoad, Op::kNop, Op::kNop}},
      {"cmplt_jz", 2, 0, XOp::kFCmpLtJzImm, 1, -1, -1, {Op::kCmpLt, Op::kJz, Op::kNop, Op::kNop}},
      {"cmple_jz", 2, 0, XOp::kFCmpLeJzImm, 1, -1, -1, {Op::kCmpLe, Op::kJz, Op::kNop, Op::kNop}},
      {"cmpne_jz", 2, 0, XOp::kFCmpNeJzImm, 1, -1, -1, {Op::kCmpNe, Op::kJz, Op::kNop, Op::kNop}},
      // The return of a caller-side call+return pair is rewritten (not the
      // call): the callee's kRet reloads the caller's resume ip, sees the
      // kFRetChained mark, and chains into the next return without an
      // indirect dispatch. Correct for any callee — "leaf" is simply the
      // depth-1 case where exactly one chain step fires. No side-pool
      // record: the chain never reads interior entries to begin with.
      {"call_ret", 2, 1, XOp::kFRetChained, -1, -1, -1, {Op::kCall, Op::kRet, Op::kNop, Op::kNop}},
  };
  return kRules;
}

FusionStats::FusionStats() : rule_hits(fusion_rules().size(), 0) {}

namespace {

/// fusion_rules() as a trie keyed by successive opcodes. Walking it along
/// code[pc], code[pc+1], ... as far as the ops allow ends at a node whose
/// `matches` lists every rule whose whole pattern matches at pc, lowest
/// index first: the rules ending at that node and at each node above it.
class FusionTrie {
 public:
  FusionTrie() : nodes_(1) {
    const std::vector<FusionRule>& rules = fusion_rules();
    ITH_CHECK(rules.size() <= 0xff, "fusion rule indices must fit a byte");
    for (std::size_t r = 0; r < rules.size(); ++r) {
      std::size_t at = 0;
      for (std::size_t k = 0; k < rules[r].len; ++k) {
        const auto op = static_cast<std::size_t>(rules[r].pattern[k]);
        if (nodes_[at].child[op] == 0) {
          ITH_CHECK(nodes_.size() <= 0xff, "fusion trie node ids must fit a byte");
          nodes_[at].child[op] = static_cast<std::uint8_t>(nodes_.size());
          nodes_.push_back(Node{{}, nodes_[at].matches});
        }
        at = nodes_[at].child[op];
      }
      add_match(at, static_cast<std::uint8_t>(r));
    }
  }

  /// The rules matching at code[pc], lowest index first.
  const std::vector<std::uint8_t>& matches_at(const std::vector<PredecodedInsn>& code,
                                              std::size_t pc) const {
    std::size_t at = 0;
    const std::size_t end = std::min(code.size(), pc + kMaxFusionPatternLen);
    for (std::size_t i = pc; i < end; ++i) {
      const std::uint8_t next = nodes_[at].child[static_cast<std::size_t>(code[i].op)];
      if (next == 0) break;
      at = next;
    }
    return nodes_[at].matches;
  }

 private:
  struct Node {
    std::array<std::uint8_t, bc::kNumOps> child{};  ///< 0 = none (the root is no child)
    std::vector<std::uint8_t> matches;
  };

  /// Adds rule `r` to node `at` and to every node below it. Rules arrive in
  /// index order, so every `matches` list stays sorted.
  void add_match(std::size_t at, std::uint8_t r) {
    nodes_[at].matches.push_back(r);
    for (const std::uint8_t c : nodes_[at].child) {
      if (c != 0) add_match(c, r);
    }
  }

  std::vector<Node> nodes_;
};

/// The table-driven fusion scan. Rewrites only the xop/fuse_len (and, for a
/// head, the captured operand slots) of the designated entry per match —
/// operands, costs, lines, and jump deltas in the INTERIOR entries are
/// untouched, and interiors keep their mirror xop so any control transfer
/// landing mid-window executes the components unfused. A rewritten head
/// also gets a side-pool record carrying the interiors' accounting data, so
/// the fused dispatch never touches the interior entries at all.
void apply_fusion(PredecodedBody& pb, FusionStats* stats) {
  static const FusionTrie trie;
  const std::vector<FusionRule>& rules = fusion_rules();
  std::vector<PredecodedInsn>& code = pb.code;
  bool any = false;
  std::size_t pc = 0;
  while (pc < code.size()) {
    std::size_t advance = 1;
    // The first rule, by index, whose pattern matches and whose constraint
    // and pool space allow it fires.
    for (const std::uint8_t r : trie.matches_at(code, pc)) {
      const FusionRule& rule = rules[r];
      if (rule.require_same_a >= 0 &&
          code[pc + static_cast<std::size_t>(rule.require_same_a)].a != code[pc].a) {
        continue;  // constraint miss: not a match, the next rule may still fire
      }
      PredecodedInsn& head = code[pc + rule.rewrite_at];
      if (rule.rewrite_at == 0) {
        if (pb.pool.size() == kMaxFusedWindowsPerBody) {
          // Handle space exhausted: leave the window unfused.
          if (stats != nullptr) ++stats->pool_overflows;
          continue;
        }
        FusedWindow w;
        for (int k = 1; k < rule.len; ++k) {
          w.cost[static_cast<std::size_t>(k) - 1] = code[pc + static_cast<std::size_t>(k)].base_cost;
          w.line[static_cast<std::size_t>(k) - 1] = code[pc + static_cast<std::size_t>(k)].line;
          // The probe decision for component k depends only on whether it
          // crossed a line relative to component k-1 — static per window.
          if (code[pc + static_cast<std::size_t>(k)].line !=
              code[pc + static_cast<std::size_t>(k) - 1].line) {
            w.probe_mask |= static_cast<std::uint8_t>(1u << (k - 1));
          }
        }
        if (rule.capture_b >= 0) head.b = code[pc + static_cast<std::size_t>(rule.capture_b)].a;
        if (rule.capture_extra >= 0) {
          w.extra = code[pc + static_cast<std::size_t>(rule.capture_extra)].a;
        }
        head.imm = static_cast<std::uint16_t>(pb.pool.size());
        pb.pool.push_back(w);
        if (stats != nullptr) ++stats->windows_imm;
      }
      head.xop = rule.fused;
      // Entries this fused dispatch retires. kFRetChained rewrites a single
      // kRet (the eliminated dispatch is the chain into it), so it stays 1.
      head.fuse_len = rule.rewrite_at == 0 ? rule.len : 1;
      any = true;
      if (stats != nullptr) {
        ++stats->rules_fired;
        stats->insns_fused += static_cast<std::uint64_t>(rule.len) - 1;
        ++stats->rule_hits[r];
      }
      advance = rule.len;  // windows from one scan never overlap
      break;
    }
    pc += advance;
  }
  pb.fused = any;
  if (stats != nullptr) {
    ++stats->bodies_considered;
    if (any) ++stats->bodies_fused;
  }
}

}  // namespace

PredecodedBody predecode(const CompiledMethod& cm, const MachineModel& machine,
                         FusionPolicy fusion, FusionStats* stats) {
  const std::size_t n = cm.body.size();
  ITH_ASSERT(cm.word_offset.size() == n + 1, "predecode: compiled method not finalized");

  const double cpi[3] = {machine.baseline_cpi, machine.mid_cpi, machine.opt_cpi};
  const double tier_cpi = cpi[static_cast<int>(cm.tier)];

  PredecodedBody pb;
  pb.cm = &cm;
  pb.code.resize(n);
  for (std::size_t pc = 0; pc < n; ++pc) {
    const bc::Instruction& insn = cm.body.code()[pc];
    PredecodedInsn& pi = pb.code[pc];
    pi.op = insn.op;
    pi.xop = static_cast<XOp>(insn.op);
    // Jumps carry their pc-relative delta so the engine advances ip by
    // addition alone; everything else keeps the raw operand.
    const bool is_jump =
        insn.op == bc::Op::kJmp || insn.op == bc::Op::kJz || insn.op == bc::Op::kJnz;
    pi.a = is_jump ? insn.a - static_cast<std::int32_t>(pc) : insn.a;
    pi.b = insn.b;
    // Same product the reference engine computes per dynamic instruction;
    // folding it here cannot change the cycle stream (identical operands,
    // identical IEEE multiply, additions happen in the same order).
    pi.base_cost = static_cast<double>(bc::op_info(insn.op).machine_words) * tier_cpi;
    const std::uint64_t addr =
        cm.code_base + static_cast<std::uint64_t>(cm.word_offset[pc]) *
                           static_cast<std::uint64_t>(machine.bytes_per_word);
    pi.line = addr / machine.icache_line_bytes;
  }

  if (fusion == FusionPolicy::kAll ||
      (fusion == FusionPolicy::kPromotedOnly && cm.tier != Tier::kBaseline)) {
    apply_fusion(pb, stats);
  }

  // Operand-stack headroom: the depth after executing the instruction at pc
  // is stack_depth[pc] + stack_effect, and no instruction's transient state
  // exceeds that. Unreachable pcs (-1) never execute.
  int max_depth = 1;  // a returning callee pushes one value above the floor
  for (std::size_t pc = 0; pc < n; ++pc) {
    const int d = cm.stack_depth[pc];
    if (d < 0) continue;
    max_depth = std::max(max_depth, d + std::max(0, bc::stack_effect(cm.body.code()[pc])));
  }
  pb.max_operand_depth = max_depth;
  return pb;
}

}  // namespace ith::rt
