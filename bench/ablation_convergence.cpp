// GA convergence ablation: the paper ran population 20 for 500 generations
// against noisy wall-clock fitness. On our deterministic simulator the
// search converges orders of magnitude earlier; this bench prints the
// best-fitness-per-generation curve for each scenario so EXPERIMENTS.md's
// reduced-budget claim is backed by data, and reports the generation at
// which the final value was first reached.

#include <iostream>
#include <optional>

#include "common.hpp"
#include "support/table.hpp"
#include "tuner/parameter_space.hpp"

using namespace ith;

int main(int argc, char** argv) {
  const std::optional<ga::GaConfig> env_cfg = bench::ga_config_from_env(argc, argv);
  if (!env_cfg) return 2;
  bench::print_header("ablation_convergence",
                      "methodology: pop 20 x 500 generations (section 3.1) vs observed convergence");

  ga::GaConfig cfg = *env_cfg;
  cfg.patience = 0;  // run the full budget so the curve's tail is visible

  for (std::size_t s = 0; s < bench::table4_scenarios().size(); ++s) {
    const bench::ScenarioSpec& spec = bench::table4_scenarios()[s];
    tuner::SuiteEvaluator train(wl::make_suite("specjvm98"), bench::eval_config_for(spec));
    ga::GaConfig scenario_cfg = cfg;
    scenario_cfg.seed = cfg.seed + 1000 * s;
    ga::GenomeSpace space =
        tuner::inline_param_space(spec.scenario == vm::Scenario::kAdapt);
    ga::GeneticAlgorithm algo(space, tuner::make_fitness(train, spec.goal), scenario_cfg);
    const ga::GaResult r = algo.run();

    int converged_at = 0;
    for (std::size_t g = 0; g < r.history.size(); ++g) {
      if (r.history[g].best <= r.best_fitness + 1e-12) {
        converged_at = r.history[g].generation;
        break;
      }
    }

    std::cout << spec.label << ": best " << cell(r.best_fitness, 4) << " first reached at generation "
              << converged_at << " of " << r.history.size() << " (" << r.evaluations
              << " suite evaluations)\n";
    Table t({"generation", "best", "mean", "worst"});
    for (std::size_t g = 0; g < r.history.size();
         g += std::max<std::size_t>(1, r.history.size() / 10)) {
      const ga::GenerationStats& gs = r.history[g];
      t.add_row({cell(static_cast<long long>(gs.generation)), cell(gs.best, 4), cell(gs.mean, 4),
                 cell(gs.worst, 4)});
    }
    const ga::GenerationStats& last = r.history.back();
    t.add_row({cell(static_cast<long long>(last.generation)), cell(last.best, 4),
               cell(last.mean, 4), cell(last.worst, 4)});
    t.render(std::cout);
    std::cout << "\n";
  }
  return 0;
}
