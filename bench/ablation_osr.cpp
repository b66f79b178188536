// OSR ablation ("future work" variant): Jikes RVM 2.3.3 — the paper's
// system — had no on-stack replacement, so a hot loop's current activation
// kept running old code after recompilation; only the next invocation
// benefited. This bench enables our OSR implementation (live baseline
// frames transfer into recompiled code at loop headers) and measures how
// much of the adaptive scenario's iteration-1 penalty it recovers.
//
// Expected shape: total time (iteration 1) improves, most on long-running
// loop-dominated programs (compress); steady-state running time is
// unchanged (OSR only affects the warm-up).

#include <iostream>

#include "common.hpp"
#include "heuristics/heuristic.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"
#include "vm/vm.hpp"

using namespace ith;

int main(int argc, char** argv) {
  if (!bench::takes_no_arguments(argc, argv)) return 2;
  bench::print_header("ablation_osr",
                      "future-work variant: on-stack replacement for the Adapt scenario");

  const rt::MachineModel machine = bench::machine_for(false);
  std::cout << "Adapt scenario, default heuristic, with/without OSR:\n";
  Table t({"benchmark", "total w/o OSR", "total w/ OSR", "total red.", "running red.",
           "OSR transfers"});
  std::vector<double> total_ratios;
  for (const wl::Workload& w : wl::make_suite("all")) {
    vm::RunResult results[2];
    for (const bool osr : {false, true}) {
      heur::JikesHeuristic h;
      vm::VmConfig cfg;
      cfg.scenario = vm::Scenario::kAdapt;
      cfg.enable_osr = osr;
      vm::VirtualMachine m(w.program, machine, h, cfg);
      results[osr ? 1 : 0] = m.run(2);
    }
    const double total_ratio = static_cast<double>(results[1].total_cycles) /
                               static_cast<double>(results[0].total_cycles);
    const double running_ratio = static_cast<double>(results[1].running_cycles) /
                                 static_cast<double>(results[0].running_cycles);
    total_ratios.push_back(total_ratio);
    t.add_row({w.name, cell(static_cast<long long>(results[0].total_cycles)),
               cell(static_cast<long long>(results[1].total_cycles)),
               cell_percent(percent_reduction(total_ratio)),
               cell_percent(percent_reduction(running_ratio)),
               cell(static_cast<long long>(results[1].iterations[0].exec.osr_transitions))});
  }
  t.add_rule();
  t.add_row({"average", "", "", cell_percent(percent_reduction(mean(total_ratios))), "", ""});
  t.render(std::cout);
  std::cout << "\nReading: OSR recovers a large part of the adaptive warm-up cost\n"
               "(iteration-1 total) on programs whose first iteration is one long loop\n"
               "activation. Side effects are real and visible: transferring earlier\n"
               "shifts when profile counters accumulate, which can change which call\n"
               "sites are hot at recompile time and therefore the generated code — a\n"
               "few programs regress, exactly the deployment risk that made OSR a\n"
               "later addition to production VMs.\n";
  return 0;
}
