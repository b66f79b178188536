// VirtualMachine: the dynamic-compilation system under study.
//
// Two compilation scenarios, exactly as in the paper (section 3.3):
//
//   Opt    — every method is compiled by the optimizing compiler (inlining
//            under the tuned heuristic + scalar opts) at first invocation.
//   Adapt  — every method is first compiled by the fast baseline compiler
//            (no inlining, poor code). Online profiling counts invocations
//            and loop back edges; when a method's hot score crosses the
//            threshold it is recompiled by the optimizing compiler, and
//            *hot call sites* inside it are judged by the Figure 4 test
//            (HOT_CALLEE_MAX_SIZE) instead of the Figure 3 chain.
//
// Methodology (section 5): the benchmark runs `iterations` times inside one
// VM. Iteration 1 gives *total time* (execution + all compilation during
// it); the best later iteration gives *running time*. Compilation performed
// during later iterations is accounted separately, mirroring wall-clock
// methodology where only iteration 1 is reported with compile time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <chrono>

#include "bytecode/program.hpp"
#include "heuristics/heuristic.hpp"
#include "obs/context.hpp"
#include "opt/body_memo.hpp"
#include "opt/decision_probe.hpp"
#include "opt/optimizer.hpp"
#include "resilience/budget.hpp"
#include "resilience/fault.hpp"
#include "runtime/icache.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/machine.hpp"
#include "runtime/profile.hpp"

namespace ith::vm {

enum class Scenario : std::uint8_t { kAdapt, kOpt };

const char* scenario_name(Scenario s);

struct VmConfig {
  Scenario scenario = Scenario::kAdapt;
  /// Adaptive controller: recompile a baseline method once
  /// invocations + back_edges reaches this.
  std::uint64_t hot_method_threshold = 400;
  /// A profiled call site counts as hot once executed this many times.
  std::uint64_t hot_site_threshold = 300;
  /// Multi-level recompilation (Jikes' O0->O1->O2 ladder): the first hot
  /// promotion compiles at the cheaper O1 level (Tier::kMidOpt); when the
  /// hot score reaches hot_method_threshold * rehot_multiplier the method
  /// is recompiled at full O2. 0 collapses the ladder (straight to O2).
  std::uint64_t rehot_multiplier = 12;
  /// Empty; read only by perfbench. Choose passes through `pipeline`.
  opt::OptimizerOptions opt_options{};
  /// The optimization pipeline; unset runs opt::PipelineDesc::standard()
  /// (effective_pipeline()). Parse with opt::PipelineDesc::parse or build
  /// programmatically. The VM runs one persistent PassManager for the whole
  /// session, so program-scope analyses (call graph, method sizes, partial
  /// shapes) are computed once and shared across every compilation.
  std::optional<opt::PipelineDesc> pipeline;
  opt::InlineLimits inline_limits{.hard_depth_cap = 20,
                                  .max_recursive_occurrences = 1,
                                  .max_body_words = 20000};
  rt::InterpreterOptions interp_options{};
  bool simulate_icache = true;
  /// On-stack replacement: transfer live baseline frames into freshly
  /// recompiled code at loop headers. Off by default — Jikes RVM 2.3.3 (the
  /// paper's system) had no OSR, so hot loops finished their current
  /// activation in old code; enabling this is the "future work" variant
  /// measured by bench/ablation_osr.
  bool enable_osr = false;
  /// Observability context. Non-owning, may be null (= tracing off; every
  /// emit site is one predictable branch, so the interpreter's dispatch
  /// throughput is untouched); must outlive the VM. The VM forwards it to
  /// its PassManager.
  /// Categories: kCompile (per-compilation spans in *simulated cycles* —
  /// their durations sum exactly to RunResult::compile_cycles_all), kVm
  /// (promotions, hot-site trips, OSR, code installs, iteration spans).
  obs::Context* obs = nullptr;
  /// Per-run() resource envelope. The VM enforces the sim-cycle cap (by
  /// shrinking the engine's instruction budget each iteration — every engine
  /// charges >= 1 cycle per instruction), the compile-cycle cap, and the
  /// host wall-clock deadline; the instruction/frame/arena caps belong to
  /// interp_options (resilience::guarded_run maps them there). All-zero
  /// (the default) means unlimited, at the cost of one branch per iteration
  /// and per compilation.
  resilience::RunBudget budget{};
  /// Deterministic fault plan consulted at VM-trap and compile-inflation
  /// sites. Non-owning, may be null (= no injection, one branch per site);
  /// must outlive the VM.
  const resilience::FaultPlan* faults = nullptr;
  /// Memo of optimized bodies shared by every VM of one
  /// tuner::SuiteEvaluator, which sets it. Non-owning, may be null (= every
  /// optimizing compile runs the passes); must outlive the VM. When set, and
  /// the pipeline runs the inline pass at most once as a setup pass, each
  /// optimizing compile first walks the method with DecisionProbe under
  /// this VM's oracle and heuristic, then installs the memo's body for
  /// (program, method, verdicts) or, on a miss, runs the passes replaying
  /// those verdicts and stores the result. Bodies, OptStats and compile
  /// cycles are identical either way; a hit runs no passes, so it emits no
  /// opt.pass.* counters, optimizer spans or inline.decision events.
  opt::BodyMemo* body_memo = nullptr;
  /// Caller identity mixed into every fault-injection key so distinct
  /// evaluations (genome, workload, attempt) see independent fault draws.
  std::uint64_t fault_key = 0;
  /// Per-iteration input hook for request-driven serving (src/serving/).
  /// When set, run() invokes it before each iteration *instead of*
  /// resetting the global data segment, so state built by earlier
  /// iterations (a key-value table, a loaded model) persists across
  /// requests and the hook writes only the request parameters into their
  /// ABI slots. Null (the default) keeps the batch-benchmark behaviour:
  /// every iteration starts from zeroed globals.
  std::function<void(int iteration, std::vector<std::int64_t>& globals)> iteration_input;

  /// `pipeline`, or the standard pipeline when it is unset.
  opt::PipelineDesc effective_pipeline() const {
    return pipeline ? *pipeline : opt::PipelineDesc::standard();
  }
};

struct IterationStats {
  rt::ExecStats exec;
  std::uint64_t compile_cycles = 0;
  std::size_t baseline_compiles = 0;
  std::size_t opt_compiles = 0;
};

/// One optimizing compile, as run-level replay (tuner/decision_trie.hpp)
/// records it: which method at which tier, the origin call sites the live
/// profile reported hot at that moment, and the probe's verdict bytes (the
/// body memo's key). Under one configuration the body installed is a pure
/// function of (method, verdicts).
struct CompileEvent {
  bc::MethodId method = -1;
  rt::Tier tier = rt::Tier::kOpt;
  /// rt::ProfileData::site_key of every site at or above
  /// hot_site_threshold, ascending; empty under Opt, whose oracle is cold.
  std::vector<std::uint64_t> hot_sites;
  std::string verdicts;
};

struct RunResult {
  std::vector<IterationStats> iterations;
  /// Iteration-1 wall time: execution plus compilation (the paper's "total").
  std::uint64_t total_cycles = 0;
  /// Best later iteration's pure execution time (the paper's "running").
  std::uint64_t running_cycles = 0;
  std::uint64_t compile_cycles_all = 0;
  std::size_t methods_baseline_compiled = 0;
  std::size_t methods_opt_compiled = 0;
  std::size_t recompilations = 0;
  /// Machine words of all code ever emitted (compiled-code footprint).
  std::size_t code_words_emitted = 0;
  /// Summed optimizer statistics over all optimizing compilations.
  opt::OptStats opt_stats;
  /// Every optimizing compile in order, recorded only when the VM probes
  /// its compiles (VmConfig::body_memo serves the program and the pipeline
  /// has an inline pass); empty otherwise.
  std::vector<CompileEvent> compile_trace;
};

class VirtualMachine final : private rt::CodeSource {
 public:
  /// The program and heuristic references must outlive the VM (the machine
  /// model is copied). The heuristic is non-const because whole-program
  /// heuristics (knapsack oracle) build per-program state in prepare().
  VirtualMachine(const bc::Program& prog, const rt::MachineModel& machine,
                 heur::InlineHeuristic& heuristic, VmConfig config = {});

  /// Runs the benchmark `iterations` times (>= 1; the paper uses >= 2).
  RunResult run(int iterations = 2);

  const rt::ProfileData& profile() const { return profile_; }
  const VmConfig& config() const { return config_; }

  /// The session-persistent pass manager every optimizing compilation runs
  /// through (exposed so tests and tools can inspect the analysis cache).
  const opt::PassManager& pass_manager() const { return *pass_manager_; }

  /// Rebinds the fault-key component of the config between run() calls.
  /// The serving tier calls run(1) once per request on a long-lived VM and
  /// needs each request to see an independent fault draw — without this the
  /// per-iteration key (which restarts at 0 every run()) would repeat.
  void set_fault_key(std::uint64_t key) { config_.fault_key = key; }

  /// Final global data segment (state after the most recent run iteration).
  /// Differential testing compares this against a reference execution.
  const std::vector<std::int64_t>& globals() const { return interp_->globals(); }

 private:
  // rt::CodeSource
  const rt::CompiledMethod& invoke(bc::MethodId id) override;
  void on_back_edge(bc::MethodId id) override;
  const rt::CompiledMethod* osr_replacement(const rt::CompiledMethod& current,
                                            std::size_t target_pc) override;
  void on_call_site(bc::MethodId origin_method, std::int32_t origin_pc) override;

  std::unique_ptr<rt::CompiledMethod> compile_baseline(bc::MethodId id);
  std::unique_ptr<rt::CompiledMethod> compile_opt(bc::MethodId id, rt::Tier tier);
  void install(bc::MethodId id, std::unique_ptr<rt::CompiledMethod> cm);
  void maybe_recompile(bc::MethodId id);

  /// Applies the kCompileInflate fault (if armed), accrues the cycles
  /// against this run's compile-cycle budget (throwing kCompileCycles when
  /// it is exhausted), and returns the possibly-inflated cycle count.
  std::uint64_t charge_compile(bc::MethodId id, std::uint64_t cycles);
  /// Throws kWallClock once the host deadline set by run() has passed.
  void check_wall() const;

  const bc::Program& prog_;
  const rt::MachineModel machine_;  // by value: callers may pass temporaries
  heur::InlineHeuristic& heuristic_;
  VmConfig config_;

  /// Persistent across compilations: one PassManager per VM session so the
  /// AnalysisManager's program-scope caches amortize over the whole run.
  std::unique_ptr<opt::PassManager> pass_manager_;

  /// config_.body_memo when it serves this VM's program (else null), the
  /// probe that yields each compile's verdicts (null without an inline
  /// pass: every body then has the empty verdict list), and per-compile
  /// scratch reused across compiles.
  opt::BodyMemo* memo_ = nullptr;
  std::unique_ptr<opt::DecisionProbe> probe_;
  opt::VerdictTrace verdicts_;
  opt::BodyMemo::Key memo_key_;

  std::vector<std::unique_ptr<rt::CompiledMethod>> current_;
  std::vector<std::unique_ptr<rt::CompiledMethod>> retired_;
  std::vector<int> opt_compile_count_;  // per-method optimizing compilations so far
  rt::ProfileData profile_;
  std::unique_ptr<rt::ICache> icache_;
  std::unique_ptr<rt::Interpreter> interp_;

  std::uint64_t next_code_addr_ = 0x10000;
  IterationStats* live_iter_ = nullptr;  // where compile costs accrue
  RunResult* live_result_ = nullptr;

  std::uint64_t compile_cycles_run_ = 0;  // accrued against budget.max_compile_cycles
  std::uint64_t compile_counter_ = 0;     // fault-key component: nth compilation
  std::chrono::steady_clock::time_point wall_deadline_{};

  obs::Context* obs_ = nullptr;  // == config_.obs (null: tracing off)
  /// Simulated-cycle cursor for trace timestamps: advanced by every compile
  /// span as it is emitted and by each iteration's execution cycles, so
  /// compile spans nest inside their iteration span on the trace timeline.
  std::uint64_t sim_now_ = 0;
};

}  // namespace ith::vm
