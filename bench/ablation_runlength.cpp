// Run-length ablation: the paper motivates its multiple optimization goals
// by run length — "when the program is likely to run for a considerable
// length of time, it may be preferable to reduce the running time at the
// expense of potentially greater compilation time" (section 3.3). This
// bench makes that quantitative: sweep the benchmarks' input size
// (run_scale) and show how the trade-off between the conservative
// Opt:Tot-tuned heuristic and an aggressive always-inline policy flips as
// runs get longer.
//
// Expected shape: at small scales (short runs, compile-dominated) the
// conservative tuned heuristic wins total time; as scale grows the
// aggressive policy's running-time advantage amortizes its compile cost
// and eventually wins — the crossover the paper's goal taxonomy implies.

#include <iostream>

#include "common.hpp"
#include "heuristics/heuristic.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"
#include "vm/vm.hpp"

using namespace ith;

namespace {

/// Geomean total cycles of the SPEC suite at `scale` under heuristic `h`.
double suite_total(double scale, heur::InlineHeuristic& h) {
  std::vector<double> totals;
  const rt::MachineModel machine = bench::machine_for(false);
  for (const wl::Workload& w : wl::make_suite("specjvm98", scale)) {
    vm::VmConfig cfg;
    cfg.scenario = vm::Scenario::kOpt;
    vm::VirtualMachine m(w.program, machine, h, cfg);
    totals.push_back(static_cast<double>(m.run(2).total_cycles));
  }
  return geomean(totals);
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::takes_no_arguments(argc, argv)) return 2;
  bench::print_header("ablation_runlength",
                      "section 3.3's run-length argument for multiple optimization goals");

  const heur::InlineParams conservative = bench::recorded_tuned_params()[2];  // Opt:Tot

  std::cout << "SPECjvm98 under Opt, geomean total time, conservative (Opt:Tot-tuned)\n"
               "vs aggressive (always-inline) heuristic, as input size scales:\n";
  Table t({"run_scale", "conservative (cyc)", "aggressive (cyc)", "aggressive/conservative"});
  double prev_ratio = 0.0;
  double crossover = 0.0;
  for (const double scale : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    heur::JikesHeuristic cons(conservative);
    heur::AlwaysInlineHeuristic aggr(12);
    const double c = suite_total(scale, cons);
    const double a = suite_total(scale, aggr);
    const double ratio = a / c;
    if (prev_ratio > 1.0 && ratio <= 1.0) crossover = scale;
    prev_ratio = ratio;
    t.add_row({cell(scale, 2), cell(c, 0), cell(a, 0), cell(ratio, 4)});
  }
  t.render(std::cout);
  if (crossover > 0.0) {
    std::cout << "crossover: the aggressive policy starts winning near run_scale "
              << cell(crossover, 2) << "\n";
  } else if (prev_ratio > 1.0) {
    std::cout << "no crossover in range: compile cost dominates throughout\n";
  } else {
    std::cout << "no crossover in range: running time dominates throughout\n";
  }
  std::cout << "\nReading: ratios > 1 mean the conservative tuning wins (short runs,\n"
               "compile-bound); ratios < 1 mean aggressive inlining amortized (long\n"
               "runs) — the reason a single tuning goal cannot serve all run lengths.\n";
  return 0;
}
