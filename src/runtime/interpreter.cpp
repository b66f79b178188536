#include "runtime/interpreter.hpp"

#include <algorithm>

#include "resilience/budget.hpp"
#include "runtime/fast_interpreter.hpp"
#include "support/error.hpp"

namespace ith::rt {

void CodeSource::on_back_edge(bc::MethodId) {}
const CompiledMethod* CodeSource::osr_replacement(const CompiledMethod&, std::size_t) {
  return nullptr;
}
void CodeSource::on_call_site(bc::MethodId, std::int32_t) {}

const char* engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kFast: return "fast";
    case EngineKind::kReference: return "reference";
  }
  return "?";
}

Engine::Engine(const bc::Program& prog, const MachineModel& machine, CodeSource& source,
               ICache* icache, InterpreterOptions options)
    : prog_(prog),
      machine_(machine),
      cpi_units_(machine.cpi_units()),
      source_(source),
      icache_(icache),
      options_(options) {
  ITH_CHECK(icache == nullptr || icache->line_bytes() == machine.icache_line_bytes,
            "I-cache line size differs from the machine model's");
  globals_.assign(prog.globals_size(), 0);
}

void Engine::reset_globals() { globals_.assign(prog_.globals_size(), 0); }

std::unique_ptr<Engine> make_engine(const bc::Program& prog, const MachineModel& machine,
                                    CodeSource& source, ICache* icache,
                                    InterpreterOptions options) {
  switch (options.engine) {
    case EngineKind::kReference:
      return std::make_unique<ReferenceInterpreter>(prog, machine, source, icache, options);
    case EngineKind::kFast:
      break;
  }
  return std::make_unique<FastInterpreter>(prog, machine, source, icache, options);
}

Interpreter::Interpreter(const bc::Program& prog, const MachineModel& machine, CodeSource& source,
                         ICache* icache, InterpreterOptions options)
    : engine_(make_engine(prog, machine, source, icache, options)), kind_(options.engine) {}

namespace {

struct Frame {
  const CompiledMethod* cm;
  std::size_t pc;
  std::size_t locals_base;  // into the shared locals arena
  std::size_t stack_floor;  // operand-stack watermark at entry (minus args)
};

}  // namespace

ExecStats ReferenceInterpreter::run() {
  ExecStats stats;
  std::uint64_t units = 0;  // cost units; kCostUnitsPerCycle per cycle

  std::vector<Frame> frames;
  std::vector<std::int64_t> locals;
  std::vector<std::int64_t> stack;
  frames.reserve(64);
  locals.reserve(1024);
  stack.reserve(256);

  const std::size_t gsize = globals_.size();
  std::uint64_t current_line = ~0ULL;

  auto touch = [&](const CompiledMethod& cm, std::size_t pc) {
    if (icache_ == nullptr) return;
    const std::uint64_t addr =
        cm.code_base + static_cast<std::uint64_t>(cm.word_offset[pc]) *
                           static_cast<std::uint64_t>(machine_.bytes_per_word);
    const std::uint64_t line = addr / machine_.icache_line_bytes;
    if (line == current_line) return;
    current_line = line;
    ++stats.icache_probes;
    if (!icache_->probe(addr)) {
      ++stats.icache_misses;
      units += machine_.icache_miss_cycles * kCostUnitsPerCycle;
    }
  };

  auto push_frame = [&](bc::MethodId id, int nargs) {
    const CompiledMethod& cm = source_.invoke(id);
    ITH_ASSERT(cm.word_offset.size() == cm.body.size() + 1, "compiled method not finalized");
    const std::size_t locals_base = locals.size();
    locals.resize(locals_base + static_cast<std::size_t>(cm.body.num_locals()), 0);
    // Arguments: top of stack is the last argument.
    ITH_CHECK(stack.size() >= static_cast<std::size_t>(nargs), "argument stack underflow");
    for (int i = nargs - 1; i >= 0; --i) {
      locals[locals_base + static_cast<std::size_t>(i)] = stack.back();
      stack.pop_back();
    }
    frames.push_back(Frame{&cm, 0, locals_base, stack.size()});
    stats.max_frame_depth = std::max(stats.max_frame_depth, frames.size());
    if (frames.size() > options_.max_frames) {
      throw resilience::BudgetExceededError(resilience::BudgetKind::kFrameDepth,
                                            "simulated stack overflow (recursion too deep)");
    }
    if (locals.size() + stack.size() > options_.max_arena_words) {
      throw resilience::BudgetExceededError(
          resilience::BudgetKind::kArena,
          "interpreter: arena budget exceeded (locals + operand stack)");
    }
  };


  // On-stack replacement: transfer the live top frame into a better
  // compilation at a loop header. Only from baseline frames (their locals
  // are exactly the original method locals, so slot meanings line up; the
  // replacement's extra inlinee slots start zeroed like a fresh frame).
  const CompiledMethod* osr_failed_from = nullptr;
  const CompiledMethod* osr_failed_to = nullptr;
  auto attempt_osr = [&](Frame& fr2, std::size_t target) -> bool {
    if (fr2.cm->tier != Tier::kBaseline) return false;  // offered only from baseline frames
    const CompiledMethod* repl = source_.osr_replacement(*fr2.cm, target);
    if (repl == nullptr || repl == fr2.cm) return false;
    if (fr2.cm == osr_failed_from && repl == osr_failed_to) return false;

    const auto om = fr2.cm->origin.empty() ? fr2.cm->method_id : fr2.cm->origin[target].first;
    const auto opc = fr2.cm->origin.empty() ? static_cast<std::int32_t>(target)
                                            : fr2.cm->origin[target].second;
    const std::int64_t j = om < 0 ? -1 : repl->find_origin(om, opc);
    const auto runtime_depth = static_cast<int>(stack.size() - fr2.stack_floor);
    if (j < 0 || repl->stack_depth[static_cast<std::size_t>(j)] != runtime_depth) {
      osr_failed_from = fr2.cm;  // don't rescan this pair on every iteration
      osr_failed_to = repl;
      return false;
    }

    const auto old_locals = static_cast<std::size_t>(fr2.cm->body.num_locals());
    const auto new_locals = static_cast<std::size_t>(repl->body.num_locals());
    ITH_ASSERT(fr2.locals_base + old_locals == locals.size(), "OSR on a non-top frame");
    if (new_locals > old_locals) locals.resize(fr2.locals_base + new_locals, 0);
    fr2.cm = repl;
    fr2.pc = static_cast<std::size_t>(j);
    current_line = ~0ULL;
    ++stats.osr_transitions;
    return true;
  };

  push_frame(prog_.entry(), 0);

  bool halted = false;
  while (!frames.empty() && !halted) {
    Frame& fr = frames.back();
    const CompiledMethod& cm = *fr.cm;
    ITH_ASSERT(fr.pc < cm.body.size(), "pc fell off the end of a compiled body");

    touch(cm, fr.pc);
    const bc::Instruction insn = cm.body.code()[fr.pc];
    const bc::OpInfo& info = bc::op_info(insn.op);
    units += static_cast<std::uint64_t>(info.machine_words) *
             cpi_units_[static_cast<std::size_t>(cm.tier)];
    ++stats.instructions;
    if (stats.instructions > options_.max_instructions) {
      throw resilience::BudgetExceededError(
          resilience::BudgetKind::kInstructions,
          "interpreter: instruction budget exceeded (runaway program?)");
    }

    const std::size_t l = fr.locals_base;
    switch (insn.op) {
      case bc::Op::kConst:
        stack.push_back(insn.a);
        ++fr.pc;
        break;
      case bc::Op::kLoad:
        stack.push_back(locals[l + static_cast<std::size_t>(insn.a)]);
        ++fr.pc;
        break;
      case bc::Op::kStore:
        locals[l + static_cast<std::size_t>(insn.a)] = stack.back();
        stack.pop_back();
        ++fr.pc;
        break;
      case bc::Op::kAdd:
      case bc::Op::kSub:
      case bc::Op::kMul:
      case bc::Op::kDiv:
      case bc::Op::kMod:
      case bc::Op::kCmpLt:
      case bc::Op::kCmpLe:
      case bc::Op::kCmpEq:
      case bc::Op::kCmpNe: {
        const std::int64_t rhs = stack.back();
        stack.pop_back();
        const std::int64_t lhs = stack.back();
        // Add/sub/mul wrap modulo 2^64 (computed in unsigned space: signed
        // overflow would be UB, and workload arithmetic may overflow).
        const auto ul = static_cast<std::uint64_t>(lhs);
        const auto ur = static_cast<std::uint64_t>(rhs);
        std::int64_t r = 0;
        switch (insn.op) {
          case bc::Op::kAdd: r = static_cast<std::int64_t>(ul + ur); break;
          case bc::Op::kSub: r = static_cast<std::int64_t>(ul - ur); break;
          case bc::Op::kMul: r = static_cast<std::int64_t>(ul * ur); break;
          // Division is total: by-zero yields 0, and INT64_MIN / -1 (which
          // would trap) is defined via the same wrap rule as negation.
          case bc::Op::kDiv:
            r = rhs == 0 ? 0
                : (rhs == -1) ? static_cast<std::int64_t>(0 - ul)
                              : lhs / rhs;
            break;
          case bc::Op::kMod: r = (rhs == 0 || rhs == -1) ? 0 : lhs % rhs; break;
          case bc::Op::kCmpLt: r = lhs < rhs ? 1 : 0; break;
          case bc::Op::kCmpLe: r = lhs <= rhs ? 1 : 0; break;
          case bc::Op::kCmpEq: r = lhs == rhs ? 1 : 0; break;
          case bc::Op::kCmpNe: r = lhs != rhs ? 1 : 0; break;
          default: break;
        }
        stack.back() = r;
        ++fr.pc;
        break;
      }
      case bc::Op::kNeg:
        stack.back() = static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(stack.back()));
        ++fr.pc;
        break;
      case bc::Op::kJmp: {
        const auto target = static_cast<std::size_t>(insn.a);
        if (target <= fr.pc) {
          source_.on_back_edge(cm.method_id);
          if (attempt_osr(fr, target)) break;
        }
        fr.pc = target;
        break;
      }
      case bc::Op::kJz:
      case bc::Op::kJnz: {
        const std::int64_t v = stack.back();
        stack.pop_back();
        const bool taken = (insn.op == bc::Op::kJz) ? (v == 0) : (v != 0);
        if (taken) {
          const auto target = static_cast<std::size_t>(insn.a);
          if (target <= fr.pc) {
            source_.on_back_edge(cm.method_id);
            if (attempt_osr(fr, target)) break;
          }
          fr.pc = target;
        } else {
          ++fr.pc;
        }
        break;
      }
      case bc::Op::kCall: {
        units += machine_.call_overhead_cycles * kCostUnitsPerCycle;
        ++stats.calls;
        if (!cm.origin.empty()) {
          const auto& [om, opc] = cm.origin[fr.pc];
          source_.on_call_site(om, opc);
        }
        ++fr.pc;  // return address
        push_frame(insn.a, insn.b);
        current_line = ~0ULL;  // control transferred: next touch probes callee
        break;
      }
      case bc::Op::kRet: {
        const std::int64_t value = stack.back();
        stack.pop_back();
        ITH_ASSERT(stack.size() == fr.stack_floor, "operand stack unbalanced at return");
        locals.resize(fr.locals_base);
        frames.pop_back();
        stack.push_back(value);
        current_line = ~0ULL;
        if (frames.empty()) {
          stats.exit_value = value;  // entry method returned
        }
        break;
      }
      case bc::Op::kGLoad: {
        const std::int64_t idx = stack.back();
        const std::size_t slot =
            gsize == 0 ? 0
                       : static_cast<std::size_t>(((idx % static_cast<std::int64_t>(gsize)) +
                                                   static_cast<std::int64_t>(gsize)) %
                                                  static_cast<std::int64_t>(gsize));
        stack.back() = gsize == 0 ? 0 : globals_[slot];
        ++fr.pc;
        break;
      }
      case bc::Op::kGStore: {
        const std::int64_t value = stack.back();
        stack.pop_back();
        const std::int64_t idx = stack.back();
        stack.pop_back();
        if (gsize != 0) {
          const std::size_t slot =
              static_cast<std::size_t>(((idx % static_cast<std::int64_t>(gsize)) +
                                        static_cast<std::int64_t>(gsize)) %
                                       static_cast<std::int64_t>(gsize));
          globals_[slot] = value;
        }
        ++fr.pc;
        break;
      }
      case bc::Op::kPop:
        stack.pop_back();
        ++fr.pc;
        break;
      case bc::Op::kNop:
        ++fr.pc;
        break;
      case bc::Op::kHalt:
        stats.exit_value = stack.empty() ? 0 : stack.back();
        halted = true;
        break;
    }
  }

  stats.cycles = units / kCostUnitsPerCycle;
  return stats;
}

}  // namespace ith::rt
