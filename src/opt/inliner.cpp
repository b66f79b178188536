#include "opt/inliner.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <string>

#include "bytecode/size_estimator.hpp"
#include "opt/passes.hpp"
#include "support/error.hpp"

namespace ith::opt {

SiteProfile cold_site(bc::MethodId, std::int32_t) { return SiteProfile{}; }

std::string format_inline_report(const bc::Program& prog, const InlineReport& report) {
  std::ostringstream os;
  for (const ProbeDecision& e : report) {
    os << "inline: '" << prog.method(e.root).name() << "' <- '" << prog.method(e.callee).name()
       << "' @" << e.call_pc << " depth=" << e.depth << " callee=" << e.callee_size
       << "w caller=" << e.caller_size << "w";
    if (e.is_hot) os << " hot(" << e.site_count << ")";
    switch (e.outcome) {
      case ProbeDecision::Outcome::kInlined:
        os << ": inlined";
        break;
      case ProbeDecision::Outcome::kPartial:
        os << ": partially inlined, head=" << e.head_size << "w";
        break;
      case ProbeDecision::Outcome::kRefusedHeuristic:
      case ProbeDecision::Outcome::kRefusedStructural:
        os << ": rejected";
        break;
    }
    os << " (" << e.rule << ")\n";
  }
  return os.str();
}

Inliner::Inliner(const bc::Program& prog, obs::Context* obs, AnalysisManager* analyses)
    : prog_(prog), obs_(obs), analyses_(analyses) {}

bool Inliner::is_inlinable(const bc::Program& prog, bc::MethodId callee) {
  const bc::Method& m = prog.method(callee);
  if (m.empty()) return false;

  // Abstract stack-depth interpretation (the method is assumed verified, so
  // joins are consistent and the stack never underflows). We need two extra
  // facts the verifier does not expose: no kHalt anywhere reachable, and
  // operand-stack depth exactly 1 at every kRet — the splice turns kRet into
  // a jump that leaves the stack as-is, so anything but "just the return
  // value" would leak values into the caller's frame.
  const std::size_t n = m.size();
  constexpr int kUnvisited = -1;
  std::vector<int> depth_at(n, kUnvisited);
  std::deque<std::size_t> worklist;
  depth_at[0] = 0;
  worklist.push_back(0);
  while (!worklist.empty()) {
    const std::size_t pc = worklist.front();
    worklist.pop_front();
    const bc::Instruction& insn = m.code()[pc];
    if (insn.op == bc::Op::kHalt) return false;
    const int out = depth_at[pc] + bc::stack_effect(insn);
    if (insn.op == bc::Op::kRet) {
      if (depth_at[pc] != 1) return false;
      continue;
    }
    auto visit = [&](std::size_t to) {
      if (to >= n) return;  // verifier guarantees this cannot actually happen
      if (depth_at[to] == kUnvisited) {
        depth_at[to] = out;
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
      default:
        visit(pc + 1);
        break;
    }
  }
  return true;
}

void Inliner::splice(AnnotatedMethod& am, std::size_t call_pc, AnalysisManager& analyses) const {
  auto& code = am.method.mutable_code();
  const bc::Instruction call = code[call_pc];
  ITH_ASSERT(call.op == bc::Op::kCall, "splice target is not a call");
  const bc::Method& callee = prog_.method(call.a);
  const int nargs = call.b;

  // Fresh caller locals for the callee's frame.
  const int base = am.method.num_locals();
  am.method.set_num_locals(base + callee.num_locals());

  // Provenance shared by the whole spliced region.
  auto chain = std::make_shared<std::vector<bc::MethodId>>();
  if (am.meta[call_pc].chain) *chain = *am.meta[call_pc].chain;
  chain->push_back(call.a);
  const int depth = am.meta[call_pc].depth + 1;

  std::vector<bc::Instruction> region;
  std::vector<InstrMeta> region_meta;
  region.reserve(static_cast<std::size_t>(nargs) + callee.size());
  region_meta.reserve(region.capacity());

  // Argument marshalling: the top of the caller's stack holds the last
  // argument, so pop into the highest slot first.
  for (int i = nargs - 1; i >= 0; --i) {
    region.push_back(bc::Instruction{bc::Op::kStore, base + i, 0});
    region_meta.push_back(InstrMeta{depth, call.a, -1, chain});
  }

  // A real call starts from a zeroed frame every time, but the spliced
  // region can re-execute (call site inside a loop) with whatever the
  // previous trip left in these slots. Clear every non-argument local the
  // callee might read before writing; skip the prologue entirely when the
  // definite-assignment analysis proves no such read exists.
  if (analyses.needs_prologue(call.a)) {
    for (int i = nargs; i < callee.num_locals(); ++i) {
      region.push_back(bc::Instruction{bc::Op::kConst, 0, 0});
      region_meta.push_back(InstrMeta{depth, call.a, -1, chain});
      region.push_back(bc::Instruction{bc::Op::kStore, base + i, 0});
      region_meta.push_back(InstrMeta{depth, call.a, -1, chain});
    }
  }

  const std::size_t body_offset = call_pc + region.size();
  const std::size_t landing = body_offset + callee.size();

  for (std::size_t j = 0; j < callee.size(); ++j) {
    bc::Instruction insn = callee.code()[j];
    switch (insn.op) {
      case bc::Op::kLoad:
      case bc::Op::kStore:
        insn.a += base;
        break;
      case bc::Op::kJmp:
      case bc::Op::kJz:
      case bc::Op::kJnz:
        insn.a = static_cast<std::int32_t>(body_offset) + insn.a;
        break;
      case bc::Op::kRet:
        // The return value is already on top of the stack; just leave the
        // inlined region.
        insn = bc::Instruction{bc::Op::kJmp, static_cast<std::int32_t>(landing), 0};
        break;
      default:
        break;  // kCall keeps its program-global target; the scan revisits it
    }
    region.push_back(insn);
    region_meta.push_back(InstrMeta{depth, call.a, static_cast<std::int32_t>(j), chain});
  }

  // Rebase caller branches around the growth: one call instruction becomes
  // region.size() instructions.
  const auto delta = static_cast<std::int32_t>(region.size()) - 1;
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    bc::Instruction& insn = code[pc];
    if (bc::op_info(insn.op).is_branch && insn.a > static_cast<std::int32_t>(call_pc)) {
      insn.a += delta;
    }
  }

  code.erase(code.begin() + static_cast<std::ptrdiff_t>(call_pc));
  code.insert(code.begin() + static_cast<std::ptrdiff_t>(call_pc), region.begin(), region.end());
  am.meta.erase(am.meta.begin() + static_cast<std::ptrdiff_t>(call_pc));
  am.meta.insert(am.meta.begin() + static_cast<std::ptrdiff_t>(call_pc), region_meta.begin(),
                 region_meta.end());
  ITH_ASSERT(am.consistent(), "annotation length diverged from code length");
}

void Inliner::splice_partial(AnnotatedMethod& am, std::size_t call_pc,
                             const PartialShape& shape) const {
  auto& code = am.method.mutable_code();
  const bc::Instruction call = code[call_pc];
  ITH_ASSERT(call.op == bc::Op::kCall, "partial splice target is not a call");
  const bc::Method& callee = prog_.method(call.a);
  const int nargs = call.b;
  const auto head_len = static_cast<std::size_t>(shape.head_len);
  ITH_ASSERT(head_len < callee.size(), "partial head must be a strict prefix");

  // Only the arguments get caller slots: the head reads nothing else, and
  // the cold stub rebuilds the real call from these copies.
  const int base = am.method.num_locals();
  am.method.set_num_locals(base + nargs);

  auto chain = std::make_shared<std::vector<bc::MethodId>>();
  if (am.meta[call_pc].chain) *chain = *am.meta[call_pc].chain;
  chain->push_back(call.a);
  const int depth = am.meta[call_pc].depth + 1;
  const InstrMeta orig = am.meta[call_pc];

  std::vector<bc::Instruction> region;
  std::vector<InstrMeta> region_meta;
  region.reserve(static_cast<std::size_t>(2 * nargs) + head_len + 1);
  region_meta.reserve(region.capacity());

  // Argument marshalling, exactly as in a full splice.
  for (int i = nargs - 1; i >= 0; --i) {
    region.push_back(bc::Instruction{bc::Op::kStore, base + i, 0});
    region_meta.push_back(InstrMeta{depth, call.a, -1, chain});
  }

  // Layout: [marshal][head][stub: reload args + call][landing...]. Head
  // kRets jump over the stub; every exit into the cold tail lands on it.
  const std::size_t body_offset = call_pc + region.size();
  const std::size_t stub = body_offset + head_len;
  const std::size_t landing = stub + static_cast<std::size_t>(nargs) + 1;

  for (std::size_t j = 0; j < head_len; ++j) {
    bc::Instruction insn = callee.code()[j];
    switch (insn.op) {
      case bc::Op::kLoad:
        insn.a += base;  // argument slot by the head-purity whitelist
        break;
      case bc::Op::kJmp:
      case bc::Op::kJz:
      case bc::Op::kJnz:
        // In-head targets rebase; cold exits reroute to the re-call stub
        // (the head left the operand stack empty on those edges).
        insn.a = static_cast<std::size_t>(insn.a) < head_len
                     ? static_cast<std::int32_t>(body_offset) + insn.a
                     : static_cast<std::int32_t>(stub);
        break;
      case bc::Op::kRet:
        insn = bc::Instruction{bc::Op::kJmp, static_cast<std::int32_t>(landing), 0};
        break;
      default:
        break;
    }
    region.push_back(insn);
    region_meta.push_back(InstrMeta{depth, call.a, static_cast<std::int32_t>(j), chain});
  }

  // Cold stub: rebuild the argument stack and issue the original call. The
  // head is pure, so re-executing it inside the callee is unobservable. The
  // residual call keeps the original site's provenance: the profiler keeps
  // counting it, and a later recompile may still inline it fully.
  for (int i = 0; i < nargs; ++i) {
    region.push_back(bc::Instruction{bc::Op::kLoad, base + i, 0});
    region_meta.push_back(InstrMeta{depth, call.a, -1, chain});
  }
  region.push_back(call);
  region_meta.push_back(InstrMeta{depth, orig.origin_method, orig.origin_pc, chain});

  const auto delta = static_cast<std::int32_t>(region.size()) - 1;
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    bc::Instruction& insn = code[pc];
    if (bc::op_info(insn.op).is_branch && insn.a > static_cast<std::int32_t>(call_pc)) {
      insn.a += delta;
    }
  }

  code.erase(code.begin() + static_cast<std::ptrdiff_t>(call_pc));
  code.insert(code.begin() + static_cast<std::ptrdiff_t>(call_pc), region.begin(), region.end());
  am.meta.erase(am.meta.begin() + static_cast<std::ptrdiff_t>(call_pc));
  am.meta.insert(am.meta.begin() + static_cast<std::ptrdiff_t>(call_pc), region_meta.begin(),
                 region_meta.end());
  ITH_ASSERT(am.consistent(), "annotation length diverged from code length");
}

AnnotatedMethod Inliner::run(bc::MethodId id, const VerdictTrace& walk,
                             InlineStats* stats) const {
  AnnotatedMethod am = AnnotatedMethod::from_method(prog_.method(id), id);
  InlineStats local;
  local.size_before_words = bc::estimated_method_size(am.method);

  // Splice facts come from the shared AnalysisManager when the caller
  // provided one (the pass-manager path); otherwise a private one serves
  // this run only.
  AnalysisManager private_analyses(prog_);
  AnalysisManager& analyses = analyses_ != nullptr ? *analyses_ : private_analyses;

  const std::vector<ProbeDecision>& entries = walk.decisions;
  std::size_t next = 0;  // cursor into entries
  const auto diverged = [&](const std::string& what) {
    return Error("inline walk diverged in '" + prog_.method(id).name() + "': " + what);
  };

  std::size_t pc = 0;
  while (pc < am.method.size()) {
    const bc::Instruction& insn = am.method.code()[pc];
    if (insn.op != bc::Op::kCall) {
      ++pc;
      continue;
    }
    ++local.sites_considered;
    const bc::MethodId callee = insn.a;
    // Copy: splice() below invalidates references into am.meta.
    const InstrMeta meta = am.meta[pc];
    if (next == entries.size()) {
      throw diverged("no entry left for the call to '" + prog_.method(callee).name() +
                     "' at pc " + std::to_string(pc));
    }
    const ProbeDecision& e = entries[next++];
    if (e.callee != callee || e.call_pc != pc || e.depth != meta.depth) {
      throw diverged("entry #" + std::to_string(next - 1) + " is for callee " +
                     std::to_string(e.callee) + " at pc " + std::to_string(e.call_pc) +
                     " depth " + std::to_string(e.depth) + ", the scan is at callee " +
                     std::to_string(callee) + " pc " + std::to_string(pc) + " depth " +
                     std::to_string(meta.depth));
    }
    if (e.outcome == ProbeDecision::Outcome::kRefusedStructural) {
      ++local.sites_refused_structural;
      ++pc;
      continue;
    }

    const bool partial = e.outcome == ProbeDecision::Outcome::kPartial;
    const bool inlined = partial || e.outcome == ProbeDecision::Outcome::kInlined;
    if (obs_ != nullptr && obs_->enabled(obs::Category::kInline)) {
      obs_->instant(obs::Category::kInline, "inline.decision", obs::Domain::kHost,
                    obs_->host_now_us(),
                    {{"caller", prog_.method(id).name()},
                     {"callee", prog_.method(callee).name()},
                     {"rule", e.rule},
                     {"inlined", inlined},
                     {"partial", partial},
                     {"depth", e.depth},
                     {"callee_size", e.callee_size},
                     {"caller_size", e.caller_size},
                     {"hot", e.is_hot},
                     {"site_count", e.site_count}});
    }
    if (!inlined) {
      ++local.sites_refused_by_heuristic;
      ++pc;
      continue;
    }

    if (partial) {
      const std::optional<PartialShape>& shape = analyses.partial_shape(callee);
      if (!shape) {
        throw diverged("partial verdict for '" + prog_.method(callee).name() +
                       "', which has no guard head");
      }
      splice_partial(am, pc, *shape);
      ++local.sites_partially_inlined;
    } else {
      splice(am, pc, analyses);
      ++local.sites_inlined;
    }
    local.max_depth_reached = std::max(local.max_depth_reached, meta.depth + 1);
    // Do not advance pc: the spliced region starts here and may itself begin
    // with further call sites to consider.
  }

  local.size_after_words = bc::estimated_method_size(am.method);
  if (next != entries.size()) {
    throw diverged(std::to_string(entries.size() - next) + " entry(ies) left over");
  }
  if (!(local == walk.stats)) throw diverged("inline stats differ from the walk's");
  if (stats != nullptr) *stats = local;
  return am;
}

}  // namespace ith::opt
