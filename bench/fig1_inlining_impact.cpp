// Reproduces Figure 1: "Relative time reduction with inlining" — the Jikes
// RVM default heuristic versus no inlining, for the Opt (a) and Adapt (b)
// scenarios, on the SPECjvm98 suite, x86. Values are normalized to the
// no-inlining run; bars below 1 are improvements.
//
// Shape to reproduce: under Opt the default heuristic improves running time
// substantially (paper: 24% average) but *degrades total time on average*
// (paper: -3%) because of compile-time blowup on some programs; under Adapt
// it improves both (paper: 23% running, 8% total).

#include <iostream>

#include "harness.hpp"
#include "heuristics/heuristic.hpp"
#include "support/statistics.hpp"

using namespace ith;

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "fig1_inlining_impact", "Figure 1 (a: Opt, b: Adapt)",
                           [](bench::BenchContext& bx) {
    const char* panel = "ab";
    const vm::Scenario scenarios[2] = {vm::Scenario::kOpt, vm::Scenario::kAdapt};
    for (int i = 0; i < 2; ++i) {
      tuner::EvalConfig cfg;
      cfg.machine = bench::machine_for(false);
      cfg.scenario = scenarios[i];
      cfg.obs = bx.obs();
      tuner::SuiteEvaluator eval(wl::make_suite("specjvm98"), cfg);

      const auto no_inlining = eval.evaluate_heuristic([] { return heur::make_never(); });
      const auto with_default = eval.default_results();

      std::cout << "(" << panel[i] << ") " << vm::scenario_name(scenarios[i])
                << " scenario — default heuristic normalized to NO inlining:\n";
      tuner::comparison_table(tuner::compare_results(*with_default, no_inlining)).render(std::cout);
      std::cout << "\n";
    }

    std::cout << "Expected shape (paper): Opt improves running but hurts average total;\n"
                 "Adapt improves both.\n";
    return 0;
  });
}
