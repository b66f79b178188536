// tune_scenario: the paper's end-to-end pipeline for one compilation
// scenario — tune the inlining heuristic with a genetic algorithm on the
// SPECjvm98 training suite, then evaluate the tuned parameters on the
// unseen DaCapo+JBB test suite.
//
// Usage:
//   tune_scenario [--scenario=adapt|opt] [--goal=running|total|balance]
//                 [--arch=x86|ppc] [--generations=40] [--pop=20] [--seed=42]

#include <cstdint>
#include <iostream>
#include <limits>
#include <vector>

#include "support/cli.hpp"
#include "tuner/parameter_space.hpp"
#include "tuner/report.hpp"
#include "tuner/tuner.hpp"

using namespace ith;

namespace {

const std::vector<FlagSpec> kFlags = {
    {"scenario", "S", "adapt (default) or opt"},
    {"goal", "G", "running, total or balance (default)"},
    {"arch", "A", "x86 (default) or ppc"},
    {"generations", "N", "GA generations (default 40)"},
    {"pop", "N", "GA population (default 20)"},
    {"seed", "N", "GA seed (default 42)"},
};

}  // namespace

int main(int argc, char** argv) {
  const CliParser cli(argc, argv);
  if (!cli.only_declared(kFlags)) {
    std::cerr << usage_text("tune_scenario", kFlags);
    return 2;
  }
  constexpr std::int64_t kInt = std::numeric_limits<int>::max();
  constexpr std::int64_t kI64 = std::numeric_limits<std::int64_t>::max();
  ga::GaConfig ga_cfg;
  try {
    ga_cfg = tuner::default_ga_config(
        static_cast<int>(cli.get_int_in("generations", 40, 1, kInt)),
        static_cast<std::uint64_t>(cli.get_int_in("seed", 42, 0, kI64)));
    ga_cfg.population = static_cast<int>(cli.get_int_in("pop", 20, 2, kInt));
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n" << usage_text("tune_scenario", kFlags);
    return 2;
  }

  tuner::EvalConfig eval_cfg;
  eval_cfg.machine = cli.get_or("arch", "x86") == "ppc" ? rt::ppc_g4_model()
                                                        : rt::pentium4_model();
  eval_cfg.scenario =
      cli.get_or("scenario", "adapt") == "opt" ? vm::Scenario::kOpt : vm::Scenario::kAdapt;
  const std::string goal_str = cli.get_or("goal", "balance");
  const tuner::Goal goal = goal_str == "running"  ? tuner::Goal::kRunning
                           : goal_str == "total" ? tuner::Goal::kTotal
                                                 : tuner::Goal::kBalance;

  std::cout << "Tuning scenario=" << vm::scenario_name(eval_cfg.scenario)
            << " goal=" << tuner::goal_name(goal) << " arch=" << eval_cfg.machine.name << "\n";

  // --- Off-line tuning on the training suite -------------------------------
  tuner::SuiteEvaluator train(wl::make_suite("specjvm98"), eval_cfg);

  tuner::TuneResult tuned = tuner::tune(train, goal, ga_cfg);

  std::cout << "GA: " << tuned.ga.evaluations << " evaluations, " << tuned.ga.cache_hits
            << " cache hits, " << tuned.ga.history.size() << " generations\n";
  std::cout << "Best fitness (normalized Perf(S)): " << tuned.best_fitness << "\n";
  std::cout << "Tuned parameters: " << tuned.best.to_string() << "\n";
  std::cout << "Default parameters: " << heur::default_params().to_string() << "\n\n";

  // --- Evaluation: training suite then unseen test suite -------------------
  for (const char* suite : {"specjvm98", "dacapo+jbb"}) {
    tuner::SuiteEvaluator eval(wl::make_suite(suite), eval_cfg);
    const auto with_default = eval.default_results();
    const auto with_tuned = eval.evaluate(tuned.best);
    std::cout << suite << " (tuned vs default, <1.0 is better):\n";
    tuner::comparison_table(tuner::compare_results(*with_tuned, *with_default)).render(std::cout);
    std::cout << "\n";
  }
  return 0;
}
