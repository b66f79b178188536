// The execution engines.
//
// Execute *compiled* method bodies (whatever tier the VM hands back from
// CodeSource::invoke) under the machine model's cost accounting, in exact
// integer cost units (kCostUnitsPerCycle = 20 per cycle, machine.hpp):
//
//   units += machine_words(insn) * cpi_units[tier]      every instruction
//   units += call_overhead * 20                          every dynamic kCall
//   units += miss_penalty * 20                           every I-cache line miss
//   cycles = units / 20                                  once, at the end
//
// Because optimized bodies are genuinely transformed (inlined, folded),
// better heuristics show up as fewer dynamic instructions and fewer calls —
// the engine measures, it does not model.
//
// Two engines implement this contract and must produce bit-identical
// ExecStats (and globals, also when the instruction budget traps) on every
// program:
//
//   kReference — the original switch-dispatch loop. One op_info() lookup and
//                two integer divisions (icache address arithmetic) per
//                dynamic instruction, charged one instruction at a time;
//                frames/locals/stack are allocated per run(). Kept as the
//                semantic baseline for differential testing and as the
//                fallback when debugging the fast engine.
//   kFast      — predecoded direct-threaded engine (fast_interpreter.hpp).
//                Each CompiledMethod is predecoded once into a dense stream
//                cut into straight-line runs; cost, budget and the I-cache
//                probe are charged once per run, which the integer units
//                make equal to the per-instruction sum. Execution arenas are
//                reused across run() calls. The default.
//
// The equality is enforced by tests/runtime/engine_equivalence_test.cpp and
// by the fuzz oracle's engine-differential tier (src/fuzz/oracle.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "bytecode/program.hpp"
#include "runtime/compiled.hpp"
#include "runtime/icache.hpp"
#include "runtime/machine.hpp"

namespace ith::rt {

/// The interpreter's view of the VM: code lookup plus profile hooks.
class CodeSource {
 public:
  virtual ~CodeSource() = default;

  /// Called on every method invocation, before execution. May compile or
  /// swap in a recompiled version. The returned reference must stay valid
  /// for the lifetime of the executing engine (not just the current run):
  /// the fast engine caches predecoded bodies keyed by CompiledMethod
  /// address across run() calls, and old versions may still be on the call
  /// stack. Every in-tree source (VirtualMachine, test IdentitySource, the
  /// oracle's PlainSource) retires old bodies instead of freeing them.
  virtual const CompiledMethod& invoke(bc::MethodId id) = 0;

  /// A backward branch was taken inside `id`.
  virtual void on_back_edge(bc::MethodId id);

  /// Offered after every taken back edge: if a better compilation of the
  /// executing method exists, return it and the interpreter attempts an
  /// on-stack replacement (transfer of the live frame). Return nullptr to
  /// decline (the default). The returned body must stay valid as long as
  /// invoke()'s results. Transfers only succeed from baseline-tier frames
  /// whose loop-header state provably maps into the replacement (unique
  /// origin match + equal operand-stack depth); otherwise execution
  /// continues in the old code.
  virtual const CompiledMethod* osr_replacement(const CompiledMethod& current,
                                                std::size_t target_pc);

  /// A call instruction originating from (origin_method, origin_pc) executed.
  virtual void on_call_site(bc::MethodId origin_method, std::int32_t origin_pc);
};

struct ExecStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t calls = 0;
  std::uint64_t osr_transitions = 0;
  std::uint64_t icache_probes = 0;
  std::uint64_t icache_misses = 0;
  std::size_t max_frame_depth = 0;
  std::int64_t exit_value = 0;

  friend bool operator==(const ExecStats&, const ExecStats&) = default;
};

/// Which execution engine an Interpreter runs.
enum class EngineKind : std::uint8_t {
  kFast,       ///< predecoded direct-threaded engine (default)
  kReference,  ///< original switch-dispatch loop
};

const char* engine_name(EngineKind kind);

struct InterpreterOptions {
  std::uint64_t max_instructions = 2'000'000'000ULL;  ///< runaway-program guard
  std::size_t max_frames = 4096;                      ///< simulated stack-overflow bound
  /// Resident locals + operand-stack words before the run is aborted with a
  /// resilience::BudgetExceededError(kArena). Checked at frame pushes (the
  /// only points the arenas grow), so the dispatch hot path is untouched.
  /// The accounting is engine-specific (the fast engine's operand arena is
  /// sized geometrically) — treat it as a coarse memory guard, not an exact
  /// high-water mark.
  std::size_t max_arena_words = std::numeric_limits<std::size_t>::max();
  EngineKind engine = EngineKind::kFast;
};

/// Abstract execution engine. Owns the global data segment (which persists
/// across run() calls) and the cost-model inputs shared by all engines.
class Engine {
 public:
  /// `icache` may be null to run without cache simulation. The machine
  /// model is copied; program/source/icache must outlive the engine. Throws
  /// ith::Error for a model whose CPIs are not whole cost units.
  Engine(const bc::Program& prog, const MachineModel& machine, CodeSource& source,
         ICache* icache, InterpreterOptions options);
  virtual ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the program's entry method to completion (kHalt or entry return).
  virtual ExecStats run() = 0;

  /// Global data segment; persists across run() calls on the same instance.
  std::vector<std::int64_t>& globals() { return globals_; }
  void reset_globals();

  /// Rebinds the per-run() instruction budget. The VM uses this to shrink
  /// the cap before each iteration when a RunBudget's sim-cycle envelope is
  /// in force (every engine charges >= 1 cycle per instruction, so the
  /// remaining-cycle count is a sound instruction bound).
  void set_instruction_limit(std::uint64_t n) { options_.max_instructions = n; }

 protected:
  const bc::Program& prog_;
  const MachineModel machine_;  // by value: callers may pass temporaries
  const std::array<std::uint32_t, 3> cpi_units_;  // machine_.cpi_units()
  CodeSource& source_;
  ICache* icache_;
  InterpreterOptions options_;
  std::vector<std::int64_t> globals_;
};

/// The reference switch-dispatch engine: deliberately straightforward, the
/// ground truth the fast engine is differentially tested against.
class ReferenceInterpreter final : public Engine {
 public:
  using Engine::Engine;
  ExecStats run() override;
};

/// Engine selector: constructs the engine named by `options.engine`.
std::unique_ptr<Engine> make_engine(const bc::Program& prog, const MachineModel& machine,
                                    CodeSource& source, ICache* icache,
                                    InterpreterOptions options = {});

/// Facade every call site uses: constructs the engine selected by
/// InterpreterOptions::engine (fast unless asked otherwise) and forwards.
class Interpreter {
 public:
  Interpreter(const bc::Program& prog, const MachineModel& machine, CodeSource& source,
              ICache* icache, InterpreterOptions options = {});

  ExecStats run() { return engine_->run(); }

  std::vector<std::int64_t>& globals() { return engine_->globals(); }
  void reset_globals() { engine_->reset_globals(); }
  void set_instruction_limit(std::uint64_t n) { engine_->set_instruction_limit(n); }

  EngineKind engine_kind() const { return kind_; }

 private:
  std::unique_ptr<Engine> engine_;
  EngineKind kind_;
};

}  // namespace ith::rt
