// explore_heuristics: compare the heuristic families across a whole suite —
// never / Jikes default / always / knapsack oracle — and sweep one
// parameter to see its marginal effect (the Figure 2 experiment generalized
// to any parameter).
//
// Usage:
//   explore_heuristics [--suite=specjvm98|dacapo+jbb|all] [--arch=x86|ppc]
//                      [--scenario=opt|adapt] [--sweep=depth|callee|always|caller|hot]
//                      [--benchmark=<name>]

#include <iostream>

#include "heuristics/heuristic.hpp"
#include "heuristics/knapsack.hpp"
#include "heuristics/profile_directed.hpp"
#include "support/cli.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"
#include "tuner/evaluator.hpp"
#include "workloads/suite.hpp"

using namespace ith;

namespace {

struct SuiteTimes {
  double running_geomean_norm;  // vs default heuristic
  double total_geomean_norm;
};

SuiteTimes normalized(const std::vector<tuner::BenchmarkResult>& candidate,
                      const std::vector<tuner::BenchmarkResult>& base) {
  std::vector<double> run, tot;
  for (std::size_t i = 0; i < candidate.size(); ++i) {
    run.push_back(static_cast<double>(candidate[i].running_cycles) /
                  static_cast<double>(base[i].running_cycles));
    tot.push_back(static_cast<double>(candidate[i].total_cycles) /
                  static_cast<double>(base[i].total_cycles));
  }
  return {geomean(run), geomean(tot)};
}

}  // namespace

int main(int argc, char** argv) {
  const CliParser cli(argc, argv);
  tuner::EvalConfig cfg;
  cfg.machine = cli.get_or("arch", "x86") == "ppc" ? rt::ppc_g4_model() : rt::pentium4_model();
  cfg.scenario = cli.get_or("scenario", "opt") == "adapt" ? vm::Scenario::kAdapt
                                                          : vm::Scenario::kOpt;
  const std::string suite = cli.get_or("suite", "specjvm98");

  tuner::SuiteEvaluator eval(wl::make_suite(suite), cfg);
  const auto base = eval.default_results();

  std::cout << "Heuristic families on " << suite << " (" << cfg.machine.name << ", "
            << vm::scenario_name(cfg.scenario) << "), geomeans normalized to the default:\n";
  {
    Table t({"heuristic", "running (geomean)", "total (geomean)"});
    const auto knapsack = [](double budget) -> tuner::HeuristicFactory {
      return [budget] { return std::make_unique<heur::KnapsackHeuristic>(budget); };
    };
    for (const tuner::HeuristicFactory& make : std::initializer_list<tuner::HeuristicFactory>{
             [] { return heur::make_never(); }, [] { return heur::make_always(); },
             knapsack(0.05), knapsack(0.20),
             // needs Adapt profiles to act
             [] { return std::make_unique<heur::ProfileDirectedHeuristic>(); }}) {
      const SuiteTimes s = normalized(eval.evaluate_heuristic(make), *base);
      t.add_row({make()->name(), cell_ratio(s.running_geomean_norm),
                 cell_ratio(s.total_geomean_norm)});
    }
    t.add_row({"jikes-default", cell_ratio(1.0), cell_ratio(1.0)});
    t.render(std::cout);
  }

  // Single-parameter sweep around the defaults.
  const std::string sweep = cli.get_or("sweep", "depth");
  std::vector<int> values;
  auto apply = [&sweep](heur::InlineParams& p, int v) {
    if (sweep == "depth") p.max_inline_depth = v;
    else if (sweep == "callee") p.callee_max_size = v;
    else if (sweep == "always") p.always_inline_size = v;
    else if (sweep == "caller") p.caller_max_size = v;
    else p.hot_callee_max_size = v;
  };
  if (sweep == "depth") values = {1, 2, 3, 5, 8, 10, 15};
  else if (sweep == "callee") values = {1, 5, 10, 23, 35, 50};
  else if (sweep == "always") values = {1, 5, 11, 20, 30};
  else if (sweep == "caller") values = {16, 64, 256, 1024, 2048, 4000};
  else values = {1, 50, 135, 250, 400};

  std::cout << "\nSweep of " << sweep << " (other parameters at defaults):\n";
  Table t({sweep, "running (geomean)", "total (geomean)"});
  for (int v : values) {
    heur::InlineParams p = heur::default_params();
    apply(p, v);
    const SuiteTimes s = normalized(*eval.evaluate(p), *base);
    t.add_row({std::to_string(v), cell_ratio(s.running_geomean_norm),
               cell_ratio(s.total_geomean_norm)});
  }
  t.render(std::cout);
  return 0;
}
