// 2-D parameter-landscape sweep: total-time fitness over a
// CALLEE_MAX_SIZE x MAX_INLINE_DEPTH grid (other parameters at defaults),
// SPECjvm98 under Opt/x86. Makes the tuning landscape visible: broad
// plateaus of equivalent settings separated by threshold cliffs — the
// structure behind ablation_search's finding that GA, random search and
// hill climbing all reach the same optimum.
//
// ITH_CSV_DIR=<dir> additionally writes the grid as CSV for plotting.

#include <fstream>
#include <iostream>

#include "common.hpp"
#include "support/csv.hpp"
#include "support/env.hpp"
#include "support/table.hpp"

using namespace ith;

int main(int argc, char** argv) {
  if (!bench::takes_no_arguments(argc, argv)) return 2;
  bench::print_header("sweep_heatmap",
                      "landscape structure: total-time fitness over CALLEE x DEPTH");

  tuner::EvalConfig cfg;
  cfg.machine = bench::machine_for(false);
  cfg.scenario = vm::Scenario::kOpt;
  tuner::SuiteEvaluator eval(wl::make_suite("specjvm98"), cfg);
  const auto defaults = eval.default_results();

  const int callee_values[] = {1, 5, 10, 17, 23, 31, 40, 50};
  const int depth_values[] = {1, 2, 3, 5, 8, 12, 15};

  std::vector<std::string> headers = {"CALLEE \\ DEPTH"};
  for (int d : depth_values) headers.push_back(std::to_string(d));
  Table t(headers);

  std::vector<std::vector<std::string>> csv_rows;
  for (int c : callee_values) {
    std::vector<std::string> row = {std::to_string(c)};
    for (int d : depth_values) {
      heur::InlineParams p = heur::default_params();
      p.callee_max_size = c;
      p.max_inline_depth = d;
      const double f = tuner::suite_fitness(tuner::Goal::kTotal, *eval.evaluate(p), *defaults);
      row.push_back(cell(f, 4));
      csv_rows.push_back({std::to_string(c), std::to_string(d), cell(f, 6)});
    }
    t.add_row(std::move(row));
  }
  std::cout << "normalized total-time fitness (1.0 = default heuristic, lower is better),\n"
               "SPECjvm98, Opt, x86; other parameters at defaults:\n";
  t.render(std::cout);

  const std::string csv_dir = env_or("ITH_CSV_DIR", "");
  if (!csv_dir.empty()) {
    const std::string path = csv_dir + "/heatmap_callee_depth.csv";
    std::ofstream out(path);
    if (out) {
      CsvWriter csv(out);
      csv.write_row({"callee_max_size", "max_inline_depth", "total_fitness"});
      for (const auto& r : csv_rows) csv.write_row(r);
      std::cout << "[csv written to " << path << "]\n";
    }
  }
  std::cout << "\nReading: whole rows/columns share values once a threshold stops binding —\n"
               "the plateaus any search strategy finds quickly.\n";
  return 0;
}
