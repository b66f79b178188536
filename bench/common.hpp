// Shared plumbing for the figure/table reproduction harnesses.
//
// Every bench binary regenerates one table or figure of the paper. GA
// budgets come from the environment so the same binaries serve smoke runs
// and paper-scale runs:
//
//   ITH_GA_GENERATIONS  generations per GA run (default 40; paper used 500)
//   ITH_GA_POP          population size        (default 20, as the paper)
//   ITH_GA_SEED         GA seed                (default 42)
//   ITH_RETUNE=1        re-run the GA live instead of using the recorded
//                       parameter values (figs 5-10, table 5)
//
// The "recorded" values are the output of bench/table4_tuned_params with
// the default budget and seed — the analogue of the paper shipping Table 4
// inside the compiler.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ga/ga.hpp"
#include "support/cli.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/fitness.hpp"
#include "tuner/report.hpp"
#include "tuner/tuner.hpp"
#include "workloads/suite.hpp"

namespace ith::bench {

/// One tuning scenario of Table 4.
struct ScenarioSpec {
  std::string label;       ///< e.g. "Adapt", "Opt:Bal", "Adapt (PPC)"
  vm::Scenario scenario;
  tuner::Goal goal;
  bool ppc;                ///< machine: false = Pentium-4, true = PowerPC G4
};

/// The five tuned columns of Table 4, in paper order.
const std::vector<ScenarioSpec>& table4_scenarios();

rt::MachineModel machine_for(bool ppc);

/// Evaluator over a suite for a scenario spec.
tuner::EvalConfig eval_config_for(const ScenarioSpec& spec);

/// The GA budget (see header comment): --generations, --pop and --seed when
/// `cli` has them, else the ITH_GA_* variables, else `generations`, 20 and
/// 42. Generations must fit [1, INT_MAX], the population [2, INT_MAX] and
/// the seed [0, INT64_MAX]; anything else throws UsageError.
ga::GaConfig ga_config(const CliParser& cli, int generations = 40);

/// For a bench main that takes no arguments and runs a GA: its budget from
/// the environment, with `generations` as the ITH_GA_GENERATIONS default.
/// nullopt, after a usage line on stderr, when arguments were given or an
/// ITH_GA_* value is out of range; the main then exits 2.
std::optional<ga::GaConfig> ga_config_from_env(int argc, const char* const* argv,
                                               int generations = 40);

/// Tuned parameter values recorded from a default-budget table4 run
/// (ITH_GA_GENERATIONS=60, seed 42). Index parallel to table4_scenarios().
const std::vector<heur::InlineParams>& recorded_tuned_params();

/// Recorded per-program running-time parameters (figure 10); pairs of
/// (benchmark name, params), x86 Opt scenario.
const std::vector<std::pair<std::string, heur::InlineParams>>& recorded_fig10_params();

/// Banner helper.
void print_header(const std::string& title, const std::string& paper_ref);

/// For a bench main that takes no arguments: true when none were given;
/// otherwise prints a usage line for argv[0] to stderr and returns false,
/// and the main exits 2.
bool takes_no_arguments(int argc, const char* const* argv);

}  // namespace ith::bench
