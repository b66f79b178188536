// Ablation bench (beyond the paper's evaluation, probing its design
// choices): under an equal evaluation budget, compare the genetic algorithm
// against random search and hill climbing on the Adapt/balance tuning
// problem, and quantify the effect of fitness memoization.
//
// Honest finding on this simulator: the five-threshold landscape has broad
// plateau optima (many parameter settings induce identical inlining
// decisions), so at realistic budgets all three strategies reach the same
// fitness — the GA's value here is robustness, not superiority. The paper
// never compared against simpler search; this bench documents that a
// simpler tuner would likely have worked too, which strengthens rather
// than weakens its automation thesis.

#include <iostream>
#include <optional>

#include "common.hpp"
#include "ga/baselines.hpp"
#include "support/table.hpp"
#include "tuner/parameter_space.hpp"

using namespace ith;

int main(int argc, char** argv) {
  const std::optional<ga::GaConfig> env_cfg = bench::ga_config_from_env(argc, argv, 20);
  if (!env_cfg) return 2;
  bench::print_header("ablation_search",
                      "design-choice ablation: GA vs random vs hill climbing; memoization");

  const bench::ScenarioSpec& spec = bench::table4_scenarios()[0];  // Adapt x86, balance
  tuner::SuiteEvaluator eval(wl::make_suite("specjvm98"), bench::eval_config_for(spec));
  const ga::FitnessFn fitness = tuner::make_fitness(eval, spec.goal);
  const ga::GenomeSpace space = tuner::inline_param_space(true);

  ga::GaConfig ga_cfg = *env_cfg;
  ga_cfg.patience = 0;  // fixed budget for a fair comparison

  // --- GA ---------------------------------------------------------------
  ga::GeneticAlgorithm algo(space, fitness, ga_cfg);
  const ga::GaResult ga_result = algo.run();
  const std::size_t budget = ga_result.evaluations;  // unique evaluations spent

  // --- Baselines under the same number of fitness evaluations -----------
  const ga::SearchResult rnd = ga::random_search(space, fitness, budget, ga_cfg.seed);
  const ga::SearchResult hc = ga::hill_climb(space, fitness, budget, ga_cfg.seed);

  Table t({"search strategy", "evaluations", "best fitness", "best params"});
  t.add_row({"genetic algorithm", cell(static_cast<long long>(ga_result.evaluations)),
             cell(ga_result.best_fitness, 4),
             tuner::params_from_genome(ga_result.best).to_string()});
  t.add_row({"random search", cell(static_cast<long long>(rnd.evaluations)),
             cell(rnd.best_fitness, 4), tuner::params_from_genome(rnd.best).to_string()});
  t.add_row({"hill climbing", cell(static_cast<long long>(hc.evaluations)),
             cell(hc.best_fitness, 4), tuner::params_from_genome(hc.best).to_string()});
  t.render(std::cout);
  std::cout << "(fitness is normalized Perf(S); 1.0 = default heuristic; lower is better)\n\n";

  // --- Memoization effect -------------------------------------------------
  std::cout << "fitness-cache effect over the GA run:\n";
  Table m({"metric", "value"});
  const std::size_t nominal =
      static_cast<std::size_t>(ga_cfg.population) * static_cast<std::size_t>(ga_result.history.size());
  m.add_row({"nominal evaluations (pop x generations)", cell(static_cast<long long>(nominal))});
  m.add_row({"actual fitness evaluations", cell(static_cast<long long>(ga_result.evaluations))});
  m.add_row({"cache hits", cell(static_cast<long long>(ga_result.cache_hits))});
  m.add_row({"suite runs avoided (%)",
             cell(100.0 * (1.0 - static_cast<double>(ga_result.evaluations) /
                                     static_cast<double>(nominal)),
                  1)});
  m.render(std::cout);

  // --- GA operator variants ------------------------------------------------
  std::cout << "\nGA operator ablation (same budget, seed " << ga_cfg.seed << "):\n";
  Table o({"variant", "best fitness"});
  for (const auto& [label, mutate_config] :
       std::vector<std::pair<std::string, ga::GaConfig>>{
           {"two-point crossover + reset mutation (default)", ga_cfg},
           [&] {
             ga::GaConfig c = ga_cfg;
             c.crossover = ga::CrossoverKind::kUniform;
             return std::pair<std::string, ga::GaConfig>{"uniform crossover", c};
           }(),
           [&] {
             ga::GaConfig c = ga_cfg;
             c.mutation = ga::MutationKind::kGaussian;
             return std::pair<std::string, ga::GaConfig>{"gaussian mutation", c};
           }(),
           [&] {
             ga::GaConfig c = ga_cfg;
             c.selection = ga::SelectionKind::kRoulette;
             return std::pair<std::string, ga::GaConfig>{"roulette selection", c};
           }(),
           [&] {
             ga::GaConfig c = ga_cfg;
             c.elites = 0;
             return std::pair<std::string, ga::GaConfig>{"no elitism", c};
           }()}) {
    ga::GeneticAlgorithm variant(space, fitness, mutate_config);
    o.add_row({label, cell(variant.run().best_fitness, 4)});
  }
  o.render(std::cout);
  return 0;
}
