#include "fuzz/oracle.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>

#include "bytecode/verifier.hpp"
#include "heuristics/heuristic.hpp"
#include "opt/decision_probe.hpp"
#include "resilience/budget.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/machine.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "vm/vm.hpp"

namespace ith::fuzz {

const char* tier_name(TierKind t) {
  switch (t) {
    case TierKind::kReference: return "reference";
    case TierKind::kO1: return "O1";
    case TierKind::kO2: return "O2";
    case TierKind::kAdaptive: return "adaptive";
    case TierKind::kEngineDiff: return "engine-diff";
    case TierKind::kBudgetDiff: return "budget-diff";
    case TierKind::kSigEquiv: return "sig-equiv";
  }
  return "?";
}

std::string OracleVerdict::summary() const {
  if (reference_failed) return "reference failed: " + reference_error;
  if (!diverged) return "ok";
  std::ostringstream os;
  os << divergences.size() << " divergence(s):";
  for (const Divergence& d : divergences) os << " [" << tier_name(d.tier) << "] " << d.detail;
  return os.str();
}

std::size_t apply_planted_bug(bc::Method& body, PlantedBug bug,
                              const opt::PipelineDesc& pipeline) {
  if (bug != PlantedBug::kFoldOverflow || !pipeline.has_pass("fold")) return 0;
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kMin32 = std::numeric_limits<std::int32_t>::min();

  auto& code = body.mutable_code();
  std::size_t rewrites = 0;
  for (std::size_t pc = 0; pc + 2 < code.size(); ++pc) {
    if (code[pc].op != bc::Op::kConst || code[pc + 1].op != bc::Op::kConst ||
        code[pc + 2].op != bc::Op::kAdd) {
      continue;
    }
    // Only the overflow residue: sums that fit int32 were already folded by
    // the sound pass, and folding them here would be correct anyway.
    const std::int64_t sum = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(code[pc].a)) +
        static_cast<std::uint64_t>(static_cast<std::int64_t>(code[pc + 1].a)));
    if (sum >= kMin32 && sum <= kMax32) continue;
    // Keep the miscompilation deterministic: skip triples a branch lands in.
    bool branch_target_inside = false;
    for (const bc::Instruction& insn : code) {
      if (bc::op_info(insn.op).is_branch &&
          (insn.a == static_cast<std::int32_t>(pc + 1) ||
           insn.a == static_cast<std::int32_t>(pc + 2))) {
        branch_target_inside = true;
        break;
      }
    }
    if (branch_target_inside) continue;
    // The bug: clamp into the immediate field instead of skipping the fold.
    code[pc] = {bc::Op::kNop, 0, 0};
    code[pc + 1] = {bc::Op::kNop, 0, 0};
    code[pc + 2] = {bc::Op::kConst, static_cast<std::int32_t>(std::clamp(sum, kMin32, kMax32)), 0};
    ++rewrites;
  }
  return rewrites;
}

namespace {

/// Identity CodeSource: every method runs as-is (the reference tier and the
/// statically-optimized tiers share it; only the program differs).
class PlainSource final : public rt::CodeSource {
 public:
  explicit PlainSource(const bc::Program& prog) : prog_(prog), compiled_(prog.num_methods()) {}

  const rt::CompiledMethod& invoke(bc::MethodId id) override {
    auto& slot = compiled_[static_cast<std::size_t>(id)];
    if (!slot) {
      slot = std::make_unique<rt::CompiledMethod>();
      slot->body = prog_.method(id);
      slot->tier = rt::Tier::kOpt;
      slot->method_id = id;
      slot->code_base = 0x1000 + 0x10000 * static_cast<std::uint64_t>(id);
      slot->origin.resize(slot->body.size());
      for (std::size_t pc = 0; pc < slot->body.size(); ++pc) {
        slot->origin[pc] = {id, static_cast<std::int32_t>(pc)};
      }
      slot->finalize();
    }
    return *slot;
  }

 private:
  const bc::Program& prog_;
  std::vector<std::unique_ptr<rt::CompiledMethod>> compiled_;
};

struct TierOutcome {
  bool ok = false;
  std::string error;
  std::int64_t exit_value = 0;
  std::vector<std::int64_t> globals;
  std::uint64_t instructions = 0;
  rt::ExecStats stats;
};

const rt::MachineModel& oracle_machine() {
  static const rt::MachineModel machine = rt::pentium4_model();
  return machine;
}

/// One engine run under explicit interpreter options, every failure
/// classified into a structured EvalOutcome (the budget-diff tier compares
/// classifications, not error text).
struct ClassifiedOutcome {
  resilience::EvalOutcome outcome;
  std::int64_t exit_value = 0;
  std::vector<std::int64_t> globals;
};

ClassifiedOutcome run_classified(const bc::Program& prog, rt::InterpreterOptions iopts) {
  ClassifiedOutcome out;
  try {
    PlainSource source(prog);
    rt::Interpreter interp(prog, oracle_machine(), source, /*icache=*/nullptr, iopts);
    const rt::ExecStats stats = interp.run();
    out.outcome = resilience::EvalOutcome::make_ok();
    out.exit_value = stats.exit_value;
    out.globals = interp.globals();
  } catch (...) {
    out.outcome = resilience::classify_current_exception();
  }
  return out;
}

TierOutcome run_plain(const bc::Program& prog, std::uint64_t budget, rt::EngineKind engine,
                      bool with_icache = false) {
  TierOutcome out;
  try {
    PlainSource source(prog);
    rt::InterpreterOptions iopts;
    iopts.max_instructions = budget;
    iopts.engine = engine;
    const rt::MachineModel& machine = oracle_machine();
    std::unique_ptr<rt::ICache> icache;
    if (with_icache) {
      icache = std::make_unique<rt::ICache>(machine.icache_bytes, machine.icache_line_bytes,
                                            machine.icache_assoc);
    }
    rt::Interpreter interp(prog, machine, source, icache.get(), iopts);
    const rt::ExecStats stats = interp.run();
    out.ok = true;
    out.exit_value = stats.exit_value;
    out.globals = interp.globals();
    out.instructions = stats.instructions;
    out.stats = stats;
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

/// Field-by-field ExecStats comparison; empty string when bit-identical.
std::string diff_stats(const rt::ExecStats& ref, const rt::ExecStats& got) {
  std::ostringstream os;
  auto field = [&](const char* name, auto want, auto have) {
    if (want != have) os << " " << name << " " << have << " (want " << want << ")";
  };
  field("cycles", ref.cycles, got.cycles);
  field("instructions", ref.instructions, got.instructions);
  field("calls", ref.calls, got.calls);
  field("osr_transitions", ref.osr_transitions, got.osr_transitions);
  field("icache_probes", ref.icache_probes, got.icache_probes);
  field("icache_misses", ref.icache_misses, got.icache_misses);
  field("max_frame_depth", ref.max_frame_depth, got.max_frame_depth);
  field("exit_value", ref.exit_value, got.exit_value);
  return os.str();
}

std::string diff_globals(const std::vector<std::int64_t>& ref,
                         const std::vector<std::int64_t>& got) {
  if (ref.size() != got.size()) {
    return "globals size " + std::to_string(got.size()) + " vs " + std::to_string(ref.size());
  }
  std::size_t count = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (ref[i] != got[i]) {
      if (count == 0) first = i;
      ++count;
    }
  }
  if (count == 0) return "";
  std::ostringstream os;
  os << count << " global slot(s) differ, first at [" << first << "]: " << got[first]
     << " (want " << ref[first] << ")";
  return os.str();
}

}  // namespace

DifferentialOracle::DifferentialOracle(OracleConfig config) : config_(config) {
  Pcg32 rng(config_.seed, /*seq=*/0x6f7261636cULL);  // "oracl" stream
  const auto& ranges = heur::param_ranges();
  heur::InlineParams::Array arr{};
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    arr[i] = static_cast<int>(rng.range(ranges[i].lo, ranges[i].hi));
  }
  params_ = heur::InlineParams::from_array(arr);

  // Each pass group stays in the standard pipeline with probability 0.85,
  // drawn in this order so every campaign seed keeps its configuration; one
  // draw covers both halves of dead-code removal.
  static const std::vector<std::vector<std::string>> kDrawn = {
      {"inline"},          {"fold"},      {"copyprop"},      {"dce", "unreachable"},
      {"branch_simplify"}, {"algebraic"}, {"compare_fusion"}};
  pipeline_ = opt::PipelineDesc::standard();
  for (const std::vector<std::string>& group : kDrawn) {
    if (rng.chance(0.85)) continue;
    for (const std::string& name : group) pipeline_ = pipeline_.without(name);
  }
  // The draw of the deleted tail_recursion pass, discarded so that the
  // thresholds, OSR switch and engine below keep their per-seed values.
  (void)rng.chance(0.85);

  hot_method_threshold_ = static_cast<std::uint64_t>(rng.range(20, 800));
  hot_site_threshold_ = static_cast<std::uint64_t>(rng.range(10, 600));
  const std::uint64_t rehots[] = {0, 1, 2, 12};
  rehot_multiplier_ = rehots[rng.bounded(4)];
  enable_osr_ = rng.chance(0.5);
  // Per-seed engine coin flip: half the campaign fuzzes the optimized tiers
  // under the fast engine, half under the reference engine.
  engine_ = rng.chance(0.5) ? rt::EngineKind::kFast : rt::EngineKind::kReference;

  if (config_.forced_pipeline) pipeline_ = *config_.forced_pipeline;
  if (config_.forced_params) params_ = *config_.forced_params;
  if (config_.forced_engine) engine_ = *config_.forced_engine;
}

OracleVerdict DifferentialOracle::check(const bc::Program& prog) const {
  return check_with_pipeline(prog, pipeline_);
}

OracleVerdict DifferentialOracle::check_with_pipeline(const bc::Program& prog,
                                                      const opt::PipelineDesc& pipeline) const {
  OracleVerdict verdict;

  const TierOutcome ref = run_plain(prog, config_.reference_budget, rt::EngineKind::kReference);
  if (!ref.ok) {
    verdict.reference_failed = true;
    verdict.reference_error = ref.error;
    return verdict;
  }
  const std::uint64_t tier_budget =
      ref.instructions * config_.budget_slack + config_.reference_budget / 8 + 10'000;

  auto record = [&](TierKind tier, std::string detail) {
    verdict.diverged = true;
    verdict.divergences.push_back(Divergence{tier, std::move(detail)});
  };

  // Engine-differential tier: both engines execute the unoptimized program
  // with I-cache simulation on; the complete ExecStats and the final global
  // segment must be bit-identical.
  {
    const TierOutcome eref =
        run_plain(prog, tier_budget, rt::EngineKind::kReference, /*with_icache=*/true);
    const TierOutcome efast =
        run_plain(prog, tier_budget, rt::EngineKind::kFast, /*with_icache=*/true);
    if (eref.ok != efast.ok) {
      record(TierKind::kEngineDiff,
             std::string("engines disagree on trapping: reference ") +
                 (eref.ok ? "ok" : eref.error) + " vs fast " + (efast.ok ? "ok" : efast.error));
    } else if (eref.ok) {
      const std::string sd = diff_stats(eref.stats, efast.stats);
      if (!sd.empty()) record(TierKind::kEngineDiff, "ExecStats differ:" + sd);
      const std::string gd = diff_globals(eref.globals, efast.globals);
      if (!gd.empty()) record(TierKind::kEngineDiff, gd);
    }
  }

  // Budget-classification tier: both engines under a deliberately tight
  // budget (half the reference run's instructions and frame depth, floored
  // so trivial programs still run). The engines must agree on the
  // EvalOutcome classification — same budget axis, or both Ok with equal
  // exit values. Arena caps are engine-specific (the fast engine's operand
  // arena grows geometrically), so that axis is not differential-tested.
  {
    rt::InterpreterOptions tight;
    tight.max_instructions = std::max<std::uint64_t>(ref.instructions / 2, 64);
    tight.max_frames = std::max<std::size_t>(ref.stats.max_frame_depth / 2, 4);
    tight.engine = rt::EngineKind::kReference;
    const ClassifiedOutcome bref = run_classified(prog, tight);
    tight.engine = rt::EngineKind::kFast;
    const ClassifiedOutcome bfast = run_classified(prog, tight);
    if (!bref.outcome.same_classification(bfast.outcome)) {
      record(TierKind::kBudgetDiff, "engines classify tight-budget run differently: reference " +
                                        bref.outcome.to_string() + " vs fast " +
                                        bfast.outcome.to_string());
    } else if (bref.outcome.ok()) {
      if (bref.exit_value != bfast.exit_value) {
        record(TierKind::kBudgetDiff,
               "exit value under tight budget " + std::to_string(bfast.exit_value) + " (want " +
                   std::to_string(bref.exit_value) + ")");
      }
      const std::string gd = diff_globals(bref.globals, bfast.globals);
      if (!gd.empty()) record(TierKind::kBudgetDiff, gd);
    }
  }

  auto compare = [&](TierKind tier, const TierOutcome& got) {
    if (!got.ok) {
      record(tier, "trap: " + got.error);
      return;
    }
    if (got.exit_value != ref.exit_value) {
      record(tier, "exit value " + std::to_string(got.exit_value) + " (want " +
                       std::to_string(ref.exit_value) + ")");
    }
    const std::string gd = diff_globals(ref.globals, got.globals);
    if (!gd.empty()) record(tier, gd);
  };

  const opt::InlineLimits limits{.hard_depth_cap = 20,
                                 .max_recursive_occurrences = 1,
                                 .max_body_words = 20000};

  // Statically-optimized tiers: O1 under the (randomized) Jikes heuristic,
  // O2 under maximal inlining. Every cached analysis a pass reads is checked
  // against a fresh computation, and each transformed program must
  // re-verify.
  auto static_tier = [&](TierKind tier, const heur::InlineHeuristic& h) {
    bc::Program optimized = prog;
    try {
      opt::PassManager pm(prog, h, opt::cold_site, pipeline, limits);
      pm.analyses().set_verify(true);
      for (std::size_t i = 0; i < prog.num_methods(); ++i) {
        const auto id = static_cast<bc::MethodId>(i);
        bc::Method body = pm.run(id).body.method;
        apply_planted_bug(body, config_.planted_bug, pipeline);
        optimized.mutable_method(id) = std::move(body);
      }
    } catch (const Error& e) {
      record(tier, std::string("optimizer trap: ") + e.what());
      return;
    }
    try {
      bc::verify_program(optimized);
    } catch (const Error& e) {
      record(tier, std::string("verifier rejected optimized program: ") + e.what());
      return;
    }
    compare(tier, run_plain(optimized, tier_budget, engine_));
  };

  {
    heur::JikesHeuristic o1(params_);
    static_tier(TierKind::kO1, o1);
    heur::AlwaysInlineHeuristic o2(/*depth_cap=*/8);
    static_tier(TierKind::kO2, o2);
  }

  // One full adaptive-VM run (baseline -> O1 -> O2 ladder, profiling,
  // optional OSR) under explicit InlineParams; shared by the adaptive tier
  // and the signature-equivalence tier.
  struct AdaptiveOutcome {
    bool ok = false;
    std::string error;
    vm::RunResult rr;
    std::vector<std::int64_t> globals;
  };
  auto run_adaptive = [&](const heur::InlineParams& params) {
    AdaptiveOutcome out;
    try {
      vm::VmConfig cfg;
      cfg.scenario = vm::Scenario::kAdapt;
      cfg.hot_method_threshold = hot_method_threshold_;
      cfg.hot_site_threshold = hot_site_threshold_;
      cfg.rehot_multiplier = rehot_multiplier_;
      cfg.pipeline = pipeline;
      cfg.inline_limits = limits;
      cfg.interp_options.max_instructions = tier_budget;
      cfg.interp_options.engine = engine_;
      cfg.simulate_icache = false;  // affects cycles only, not observables
      cfg.enable_osr = enable_osr_;
      heur::JikesHeuristic h(params);
      vm::VirtualMachine machine(prog, oracle_machine(), h, cfg);
      out.rr = machine.run(config_.vm_iterations);
      out.globals = machine.globals();
      out.ok = true;
    } catch (const Error& e) {
      out.error = e.what();
    }
    return out;
  };

  // Adaptive tier: exercises recompilation and live-frame transfer.
  {
    const AdaptiveOutcome ao = run_adaptive(params_);
    if (!ao.ok) {
      record(TierKind::kAdaptive, "trap: " + ao.error);
    } else {
      for (std::size_t i = 0; i < ao.rr.iterations.size(); ++i) {
        const std::int64_t exit = ao.rr.iterations[i].exec.exit_value;
        if (exit != ref.exit_value) {
          record(TierKind::kAdaptive, "iteration " + std::to_string(i + 1) + " exit value " +
                                          std::to_string(exit) + " (want " +
                                          std::to_string(ref.exit_value) + ")");
        }
      }
      const std::string gd = diff_globals(ref.globals, ao.globals);
      if (!gd.empty()) record(TierKind::kAdaptive, gd);
    }
  }

  // Signature-equivalence tier: perturb the params a few times; any variant
  // whose decision signature equals the original's must be completely
  // indistinguishable from it through the adaptive VM — same ExecStats on
  // every iteration, same compile counts and cycles, same globals. Only
  // meaningful when the inliner runs (with inlining off the heuristic is
  // never consulted).
  if (pipeline.has_pass("inline")) {
    Pcg32 srng(config_.seed, /*seq=*/0x736967ULL);  // "sig" stream
    const auto& ranges = heur::param_ranges();
    opt::SignatureOptions sopts;
    sopts.adaptive = true;
    const opt::ProbeFacts facts(prog);  // shared by the base probe and every variant
    const std::uint64_t base_sig =
        opt::decision_signature(prog, facts, params_, limits, sopts).value;
    std::optional<heur::InlineParams> aliased;
    for (int v = 0; v < 4 && !aliased; ++v) {
      heur::InlineParams::Array arr = params_.to_array();
      const auto k = static_cast<std::size_t>(srng.bounded(static_cast<std::uint32_t>(arr.size())));
      arr[k] = std::clamp(arr[k] + static_cast<int>(srng.bounded(5)) - 2,
                          ranges[k].lo, ranges[k].hi);
      if (arr == params_.to_array()) continue;
      const heur::InlineParams candidate = heur::InlineParams::from_array(arr);
      if (opt::decision_signature(prog, facts, candidate, limits, sopts).value == base_sig) {
        aliased = candidate;
      }
    }
    if (aliased) {
      const AdaptiveOutcome a = run_adaptive(params_);
      const AdaptiveOutcome b = run_adaptive(*aliased);
      if (a.ok != b.ok) {
        record(TierKind::kSigEquiv,
               std::string("signature-equal params disagree on trapping: ") +
                   (a.ok ? "ok" : a.error) + " vs " + (b.ok ? "ok" : b.error));
      } else if (a.ok) {
        if (a.rr.iterations.size() != b.rr.iterations.size()) {
          record(TierKind::kSigEquiv, "iteration counts differ");
        } else {
          for (std::size_t i = 0; i < a.rr.iterations.size(); ++i) {
            const vm::IterationStats& ia = a.rr.iterations[i];
            const vm::IterationStats& ib = b.rr.iterations[i];
            const std::string sd = diff_stats(ia.exec, ib.exec);
            if (!sd.empty()) {
              record(TierKind::kSigEquiv,
                     "iteration " + std::to_string(i + 1) + " ExecStats differ:" + sd);
            }
            if (ia.compile_cycles != ib.compile_cycles ||
                ia.baseline_compiles != ib.baseline_compiles ||
                ia.opt_compiles != ib.opt_compiles) {
              record(TierKind::kSigEquiv,
                     "iteration " + std::to_string(i + 1) + " compile stats differ");
            }
          }
        }
        if (a.rr.total_cycles != b.rr.total_cycles ||
            a.rr.running_cycles != b.rr.running_cycles ||
            a.rr.compile_cycles_all != b.rr.compile_cycles_all ||
            a.rr.recompilations != b.rr.recompilations ||
            a.rr.code_words_emitted != b.rr.code_words_emitted) {
          record(TierKind::kSigEquiv, "aggregate run statistics differ");
        }
        const std::string gd = diff_globals(a.globals, b.globals);
        if (!gd.empty()) record(TierKind::kSigEquiv, gd);
      }
    }
  }

  return verdict;
}

}  // namespace ith::fuzz
