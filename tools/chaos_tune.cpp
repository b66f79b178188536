// chaos_tune: run a tuning campaign under deterministic fault injection,
// with checkpoint/resume and an optional mid-run kill — the resilience
// layer's end-to-end harness.
//
//   chaos_tune --generations=6 --fault-rate=0.1 --checkpoint=cp.bin
//   chaos_tune --generations=6 --checkpoint=cp.bin --kill-at=2   # exits 3
//   chaos_tune --generations=6 --checkpoint=cp.bin --resume      # continues
//
// Because fault decisions are pure hashes of (seed, site, key) and the GA
// checkpoints after every generation, the three-command sequence above
// (killed run + resumed run) must print the same BEST line as a single
// straight-through run — the property the CI chaos job asserts.
//
// The flags are declared once, in kFlags below; --help, any undeclared
// flag, or an integer flag outside its range prints the usage generated
// from them and exits 2.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "heuristics/heuristic.hpp"
#include "obs/context.hpp"
#include "obs/sink.hpp"
#include "resilience/fault.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "tuner/eval_cache.hpp"
#include "tuner/parameter_space.hpp"
#include "tuner/tuner.hpp"
#include "workloads/suite.hpp"

using namespace ith;

namespace {

const std::vector<FlagSpec> kFlags = {
    {"workloads", "CSV", "benchmark names or a suite name (default compress,db)"},
    {"scenario", "S", "adapt (default) or opt"},
    {"arch", "A", "x86 (default) or ppc"},
    {"goal", "G", "running | total (default) | balance"},
    {"generations", "N", "GA generations (default 6)"},
    {"pop", "N", "population size (default 8)"},
    {"seed", "N", "GA seed (default 7)"},
    {"iterations", "N", "VM iterations per benchmark (default 2)"},
    {"retries", "N", "guarded retries per benchmark (default 2)"},
    {"fault-rate", "R", "per-opportunity injection probability (default 0)"},
    {"fault-seed", "N", "fault-plan seed (default 1)"},
    {"fault-sites", "CSV", "vm,compile,eval,sink or all (default all)"},
    {"compile-inflation", "X", "compile-cycle multiplier for compile faults"},
    {"budget-cycles", "N", "sim-cycle cap per benchmark run (0 = unlimited)"},
    {"budget-compile", "N",
     "compile-cycle cap (auto-derived from the default\n"
     "heuristic when compile faults are armed and this\n"
     "is unset, so inflated compiles are caught)"},
    {"budget-instructions", "N", "dynamic-instruction cap per iteration"},
    {"budget-frames", "N", "simulated frame-depth cap"},
    {"budget-wall-ms", "N", "host wall-clock deadline per run"},
    {"checkpoint", "PATH", "journal GA state here after every generation"},
    {"checkpoint-every", "N", "journal cadence (default 1)"},
    {"resume", "", "continue from --checkpoint instead of starting over"},
    {"kill-at", "G", "exit(3) right after generation G's checkpoint lands"},
    {"trace", "PATH", "write a JSONL trace (feed it to trace_report)"},
    {"eval-cache", "PATH",
     "persistent evaluation cache: load it before the\n"
     "tune (cold start if absent; warn and start cold on\n"
     "corruption/fingerprint mismatch) and save the\n"
     "merged cache back after. A warm cache whose\n"
     "configuration matches performs zero real suite\n"
     "executions and zero probes. Composes with --resume."},
};

/// "compress,db" -> individual workloads; "specjvm98"/"dacapo+jbb"/"all"
/// expand to the whole suite.
std::vector<wl::Workload> parse_workloads(const std::string& spec) {
  if (spec == "specjvm98" || spec == "dacapo+jbb" || spec == "all") {
    return wl::make_suite(spec);
  }
  std::vector<wl::Workload> suite;
  std::istringstream names(spec);
  std::string name;
  while (std::getline(names, name, ',')) {
    if (!name.empty()) suite.push_back(wl::make_workload(name));
  }
  ITH_CHECK(!suite.empty(), "--workloads named no benchmarks: " + spec);
  return suite;
}

tuner::Goal parse_goal(const std::string& s) {
  if (s == "running") return tuner::Goal::kRunning;
  if (s == "total") return tuner::Goal::kTotal;
  if (s == "balance") return tuner::Goal::kBalance;
  throw Error("--goal must be running, total or balance");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliParser cli(argc, argv);
    if (!cli.only_declared(kFlags)) {
      std::cerr << usage_text("chaos_tune", kFlags);
      return 2;
    }
    const std::string scenario = cli.get_or("scenario", "adapt");
    const std::string arch = cli.get_or("arch", "x86");
    ITH_CHECK(scenario == "adapt" || scenario == "opt", "--scenario must be adapt or opt");
    ITH_CHECK(arch == "x86" || arch == "ppc", "--arch must be x86 or ppc");

    // Every integer flag is read here, before anything is opened or
    // written, each within the range its field holds.
    constexpr std::int64_t kInt = std::numeric_limits<int>::max();
    constexpr std::int64_t kI64 = std::numeric_limits<std::int64_t>::max();
    const auto iterations = static_cast<int>(cli.get_int_in("iterations", 2, 1, kInt));
    const auto retries = static_cast<int>(cli.get_int_in("retries", 2, 0, 100));
    const auto population = static_cast<int>(cli.get_int_in("pop", 8, 2, kInt));
    const auto generations = static_cast<int>(cli.get_int_in("generations", 6, 1, kInt));
    const auto seed = static_cast<std::uint64_t>(cli.get_int_in("seed", 7, 0, kI64));
    const auto checkpoint_every =
        static_cast<int>(cli.get_int_in("checkpoint-every", 1, 1, kInt));
    const auto kill_at = static_cast<int>(cli.get_int_in("kill-at", -1, 0, kInt));

    resilience::FaultPlan plan;
    plan.rate = cli.get_double_or("fault-rate", 0.0);
    ITH_CHECK(plan.rate >= 0.0 && plan.rate <= 1.0, "--fault-rate out of [0,1]");
    plan.seed = static_cast<std::uint64_t>(cli.get_int_in("fault-seed", 1, 0, kI64));
    plan.sites = resilience::FaultPlan::parse_sites(cli.get_or("fault-sites", "all"));
    plan.compile_inflation = cli.get_double_or("compile-inflation", plan.compile_inflation);

    resilience::RunBudget budget;
    budget.max_sim_cycles = static_cast<std::uint64_t>(cli.get_int_in("budget-cycles", 0, 0, kI64));
    budget.max_compile_cycles =
        static_cast<std::uint64_t>(cli.get_int_in("budget-compile", 0, 0, kI64));
    budget.max_instructions =
        static_cast<std::uint64_t>(cli.get_int_in("budget-instructions", 0, 0, kI64));
    budget.max_frame_depth = static_cast<std::size_t>(cli.get_int_in("budget-frames", 0, 0, kI64));
    budget.max_wall_ms = static_cast<std::uint64_t>(cli.get_int_in("budget-wall-ms", 0, 0, kI64));

    const std::string trace_path = cli.get_or("trace", "");
    std::ofstream trace_out;
    std::unique_ptr<obs::TraceSink> sink;
    if (!trace_path.empty()) {
      trace_out.open(trace_path);
      ITH_CHECK(trace_out.is_open(), "cannot open " + trace_path);
      sink = std::make_unique<obs::JsonlSink>(trace_out);
    }
    obs::Context ctx(sink.get());  // null sink: events drop, counters still count

    tuner::EvalConfig ec;
    ec.machine = arch == "ppc" ? rt::ppc_g4_model() : rt::pentium4_model();
    ec.scenario = scenario == "adapt" ? vm::Scenario::kAdapt : vm::Scenario::kOpt;
    ec.iterations = iterations;
    ec.max_retries = retries;
    ec.obs = &ctx;

    std::vector<wl::Workload> suite = parse_workloads(cli.get_or("workloads", "compress,db"));

    // A compile-inflation fault only *helps* chaos testing if it trips the
    // compile-cycle budget (and is retried with a fresh fault key) instead of
    // silently distorting fitness. When compile faults are armed but no cap
    // was given, derive one from a fault-free probe of the default heuristic:
    // 50x its worst per-benchmark compile bill passes every legitimate
    // candidate while any 1000x-inflated compile trips immediately.
    if (plan.armed() && plan.enabled(resilience::FaultSite::kCompileInflate) &&
        budget.max_compile_cycles == 0) {
      tuner::SuiteEvaluator probe(suite, ec);
      std::uint64_t worst = 0;
      for (const tuner::BenchmarkResult& r : *probe.default_results()) {
        worst = std::max(worst, r.compile_cycles);
      }
      budget.max_compile_cycles = 50 * std::max<std::uint64_t>(worst, 1);
      std::cout << "derived --budget-compile=" << budget.max_compile_cycles
                << " (50x default-heuristic worst case)\n";
    }

    ec.vm_config.budget = budget;
    if (plan.armed()) ec.vm_config.faults = &plan;
    tuner::SuiteEvaluator evaluator(std::move(suite), ec);

    const std::string eval_cache_path = cli.get_or("eval-cache", "");
    if (!eval_cache_path.empty()) {
      if (std::ifstream(eval_cache_path).good()) {
        try {
          evaluator.restore(tuner::load_eval_cache(eval_cache_path));
          std::cout << "eval-cache: warm start from " << eval_cache_path << " ("
                    << evaluator.cache_size() << " cached suite evaluations)\n";
        } catch (const Error& e) {
          // A stale or corrupt cache costs re-evaluation, never correctness.
          std::cerr << "warning: ignoring evaluation cache: " << e.what() << "\n";
        }
      } else {
        std::cout << "eval-cache: cold start (no file at " << eval_cache_path << ")\n";
      }
    }

    ga::GaConfig ga_cfg;
    ga_cfg.population = population;
    ga_cfg.generations = generations;
    ga_cfg.seed = seed;
    ga_cfg.threads = 1;
    ga_cfg.memoize = true;
    ga_cfg.obs = &ctx;
    const bool include_hot = ec.scenario == vm::Scenario::kAdapt;
    ga_cfg.seed_individuals.push_back(
        tuner::genome_from_params(heur::default_params(), include_hot));

    tuner::TuneCheckpointOptions checkpoint;
    checkpoint.path = cli.get_or("checkpoint", "");
    checkpoint.resume = cli.has("resume");
    checkpoint.every = checkpoint_every;
    ITH_CHECK(!checkpoint.resume || !checkpoint.path.empty(), "--resume needs --checkpoint=PATH");

    const bool kill_armed = cli.has("kill-at");
    ITH_CHECK(!kill_armed || !checkpoint.path.empty(), "--kill-at needs --checkpoint=PATH");
    checkpoint.on_generation = [&](const ga::GenerationStats& stats) {
      std::cout << "gen " << stats.generation << " best=" << stats.best
                << " mean=" << stats.mean << " diversity=" << stats.diversity << "\n";
      if (kill_armed && stats.generation == kill_at) {
        // The checkpoint for this generation is already on disk (the GA
        // journals before invoking progress), so dying here simulates a
        // crash at the worst defensible moment.
        std::cout << "killed after generation " << kill_at << " (checkpoint "
                  << checkpoint.path << " is complete); rerun with --resume\n";
        ctx.flush();
        std::exit(3);
      }
    };

    // Probes of this campaign only (the compile-cap derivation above has
    // its own evaluator on the same context).
    const std::uint64_t probes_before = ctx.counter("sig.probes").value();
    const tuner::TuneResult result =
        tuner::tune(evaluator, parse_goal(cli.get_or("goal", "total")), ga_cfg, checkpoint);
    const std::uint64_t probes = ctx.counter("sig.probes").value() - probes_before;

    ctx.flush();
    sink.reset();

    if (!eval_cache_path.empty()) {
      tuner::save_eval_cache(eval_cache_path, evaluator.snapshot());
      std::cout << "eval-cache: saved " << evaluator.cache_size() << " suite evaluations to "
                << eval_cache_path << "\n";
    }

    std::cout << "BEST " << result.best.to_string() << " fitness=" << result.best_fitness << "\n";
    std::cout << "evaluations=" << result.ga.evaluations << " cache_hits=" << result.ga.cache_hits
              << " generations_run=" << result.ga.history.size() << "\n";
    const std::uint64_t params_seen = evaluator.params_seen();
    const std::uint64_t sigs_seen = evaluator.signatures_seen();
    const std::uint64_t real_evals = evaluator.evaluations_performed();
    std::cout << "eval-cache: params_seen=" << params_seen << " distinct_signatures=" << sigs_seen
              << " real_evaluations=" << real_evals << " probes=" << probes
              << " benchmark_runs=" << evaluator.benchmark_runs()
              << " replayed=" << evaluator.benchmark_replays()
              << " saved_by_collapse=" << (params_seen - sigs_seen)
              << " saved_by_persistence=" << (sigs_seen - std::min(sigs_seen, real_evals)) << "\n";

    std::uint64_t ok = 0, failed = 0;
    std::cout << "resilience counters:\n";
    for (const auto& [name, value] : ctx.counter_values()) {
      if (name.rfind("resil.", 0) != 0) continue;
      std::cout << "  " << name << " = " << value << "\n";
      if (name == "resil.outcome.ok") ok = value;
      if (name == "resil.outcome.budget" || name == "resil.outcome.trap" ||
          name == "resil.outcome.crash") {
        failed += value;
      }
    }
    if (ok + failed > 0) {
      std::cout << "survival: " << ok << "/" << (ok + failed) << " benchmark runs ok\n";
    }
    return 0;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n" << usage_text("chaos_tune", kFlags);
    return 2;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
