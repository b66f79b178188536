// Reproduces Table 4: "Inlining Parameter Values Found for Intel x86 and
// PowerPC" — runs the genetic algorithm for each compilation scenario over
// the SPECjvm98 training suite and prints the parameter values it finds,
// next to the Jikes RVM defaults. Also prints the Table 1 search ranges.
//
// Budget: --generations / ITH_GA_GENERATIONS (default 40; the paper ran 500
// over noisy wall-clock measurements — our deterministic fitness converges
// far earlier), --pop / ITH_GA_POP (default 20 = paper), --seed / ITH_GA_SEED.
// Tracing: --trace=PATH --trace-format=jsonl|chrome --trace-cats=eval,ga.

#include <iostream>
#include <iterator>

#include "harness.hpp"
#include "support/table.hpp"
#include "tuner/parameter_space.hpp"

using namespace ith;

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "table4_tuned_params", "Table 4 (+ Table 1 ranges)",
                           [](bench::BenchContext& bx) {

  // Table 1: the search space.
  {
    Table t({"parameter", "description", "range"});
    const char* desc[] = {"Maximum callee size allowable to inline",
                          "Callees smaller than this are always inlined",
                          "Maximum inlining depth at a call site",
                          "Maximum caller size to inline into",
                          "Maximum hot callee to inline",
                          "Maximum guard head to splice (partial inlining; not in the paper)"};
    static_assert(std::size(desc) == heur::InlineParams::kNumParams);
    const auto& ranges = heur::param_ranges();
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      t.add_row({ranges[i].name, desc[i],
                 std::to_string(ranges[i].lo) + "-" + std::to_string(ranges[i].hi)});
    }
    std::cout << "Table 1 — tuned parameters and ranges (search space "
              << tuner::inline_param_space(true).cardinality() << " settings):\n";
    t.render(std::cout);
    std::cout << "\n";
  }

  const ga::GaConfig ga_cfg = bx.ga_config();
  std::cout << "GA: population " << ga_cfg.population << ", up to " << ga_cfg.generations
            << " generations, seed " << ga_cfg.seed << "\n\n";

  Table t({"Parameters", "Default", "Adapt", "Opt:Bal", "Opt:Tot", "Adapt (PPC)", "Opt:Bal (PPC)"});
  std::vector<heur::InlineParams> found;
  std::size_t scenario_index = 0;
  for (const bench::ScenarioSpec& spec : bench::table4_scenarios()) {
    tuner::SuiteEvaluator train(wl::make_suite("specjvm98"), bx.eval_config_for(spec));
    // Each scenario is an independent GA experiment (its own seed), as in
    // the paper's per-scenario tuning runs.
    ga::GaConfig scenario_cfg = ga_cfg;
    scenario_cfg.seed = ga_cfg.seed + 1000 * scenario_index++;
    const tuner::TuneResult r = tuner::tune(train, spec.goal, scenario_cfg);
    std::cout << spec.label << ": fitness " << cell(r.best_fitness, 4) << " after "
              << r.ga.evaluations << " evaluations (" << r.ga.cache_hits << " cache hits, "
              << r.ga.history.size() << " generations)\n";
    found.push_back(r.best);
  }
  std::cout << "\n";

  const heur::InlineParams dflt = heur::default_params();
  const auto& ranges = heur::param_ranges();
  for (std::size_t row = 0; row < 5; ++row) {
    std::vector<std::string> cells = {ranges[row].name, std::to_string(dflt.to_array()[row])};
    for (std::size_t s = 0; s < found.size(); ++s) {
      const bool opt_scenario = bench::table4_scenarios()[s].scenario == vm::Scenario::kOpt;
      if (row == 4 && opt_scenario) {
        cells.push_back("NA");  // HOT_CALLEE_MAX_SIZE unused under Opt
      } else {
        cells.push_back(std::to_string(found[s].to_array()[row]));
      }
    }
    t.add_row(std::move(cells));
  }
  std::cout << "Table 4 — inlining parameter values found per scenario:\n";
  t.render(std::cout);

  std::cout << "\nRecorded values used by the figure benches (regenerate after model changes):\n";
  for (std::size_t s = 0; s < found.size(); ++s) {
    std::cout << "  " << bench::table4_scenarios()[s].label << ": " << found[s].to_string() << "\n";
  }
  return 0;
  });
}
