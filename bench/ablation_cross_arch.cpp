// Cross-architecture ablation: the paper's motivating complaint is that
// Jikes RVM ships ONE heuristic for both Intel and PowerPC. This bench
// quantifies the claim on our simulator: evaluate each architecture's tuned
// parameters on the *other* architecture and show the mismatch penalty.
//
// Expected shape: a heuristic tuned for machine A is worse on machine B
// than B's own tuned heuristic — i.e. architecture-specific tuning matters.

#include <iostream>

#include "common.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"

using namespace ith;

namespace {

/// Balance-goal fitness (normalized Perf(S), the tuning objective) of
/// `params` over the SPEC suite on `machine` under Adapt.
double fitness_on(const rt::MachineModel& machine, vm::Scenario scenario,
                  const heur::InlineParams& params) {
  tuner::EvalConfig cfg;
  cfg.machine = machine;
  cfg.scenario = scenario;
  tuner::SuiteEvaluator eval(wl::make_suite("specjvm98"), cfg);
  return tuner::suite_fitness(tuner::Goal::kBalance, *eval.evaluate(params),
                              *eval.default_results());
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::takes_no_arguments(argc, argv)) return 2;
  bench::print_header("ablation_cross_arch",
                      "motivation: one heuristic per architecture is suboptimal (section 1)");

  // Recorded Table-4 values: index 0/3 are Adapt x86/PPC, 1/4 Opt:Bal.
  const heur::InlineParams adapt_x86 = bench::recorded_tuned_params()[0];
  const heur::InlineParams adapt_ppc = bench::recorded_tuned_params()[3];
  const heur::InlineParams optbal_x86 = bench::recorded_tuned_params()[1];
  const heur::InlineParams optbal_ppc = bench::recorded_tuned_params()[4];

  const rt::MachineModel x86 = bench::machine_for(false);
  const rt::MachineModel ppc = bench::machine_for(true);

  for (const auto& [label, scenario, px86, pppc] :
       std::vector<std::tuple<const char*, vm::Scenario, heur::InlineParams, heur::InlineParams>>{
           {"Adapt (balance)", vm::Scenario::kAdapt, adapt_x86, adapt_ppc},
           {"Opt (balance)", vm::Scenario::kOpt, optbal_x86, optbal_ppc}}) {
    std::cout << label << " — balance fitness (lower is better, 1.0 = default heuristic):\n";
    Table t({"heuristic \\ machine", "on x86", "on PPC"});
    t.add_row({"default (shipped, both archs)", cell(1.0, 4), cell(1.0, 4)});
    t.add_row({"tuned for x86", cell(fitness_on(x86, scenario, px86), 4),
               cell(fitness_on(ppc, scenario, px86), 4)});
    t.add_row({"tuned for PPC", cell(fitness_on(x86, scenario, pppc), 4),
               cell(fitness_on(ppc, scenario, pppc), 4)});
    t.render(std::cout);

    const double native_x86 = fitness_on(x86, scenario, px86);
    const double foreign_x86 = fitness_on(x86, scenario, pppc);
    const double native_ppc = fitness_on(ppc, scenario, pppc);
    const double foreign_ppc = fitness_on(ppc, scenario, px86);
    std::cout << "mismatch penalty: x86 " << cell_percent((foreign_x86 - native_x86) * 100.0)
              << ", PPC " << cell_percent((foreign_ppc - native_ppc) * 100.0)
              << " (positive = the foreign heuristic is worse than the native one)\n\n";
  }
  std::cout << "Paper's implied shape: each architecture's own tuned values win on it\n"
               "(Table 4's columns differ per architecture).\n";
  return 0;
}
