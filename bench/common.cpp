#include "common.hpp"

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "support/env.hpp"
#include "tuner/parameter_space.hpp"

namespace ith::bench {

namespace {

void print_no_argument_usage(const char* argv0) {
  std::cerr << "usage: " << std::filesystem::path(argv0).filename().string()
            << "\n  (takes no arguments)\n";
}

/// The integer flag `flag` of `cli` when given, else the environment
/// variable `env` when set, else `fallback`. A given value that is not an
/// integer in [lo, hi], from either source, throws UsageError.
std::int64_t ga_int(const CliParser& cli, const std::string& flag, const std::string& env,
                    std::int64_t fallback, std::int64_t lo, std::int64_t hi) {
  const std::string raw = env_or(env, "");
  if (!raw.empty()) {
    const std::optional<std::int64_t> v = parse_int_in(raw, lo, hi);
    if (!v) {
      throw UsageError(env + "=" + raw + " is not an integer in [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]");
    }
    fallback = *v;
  }
  return cli.get_int_in(flag, fallback, lo, hi);
}

}  // namespace

const std::vector<ScenarioSpec>& table4_scenarios() {
  static const std::vector<ScenarioSpec> kScenarios = {
      {"Adapt", vm::Scenario::kAdapt, tuner::Goal::kBalance, false},
      {"Opt:Bal", vm::Scenario::kOpt, tuner::Goal::kBalance, false},
      {"Opt:Tot", vm::Scenario::kOpt, tuner::Goal::kTotal, false},
      {"Adapt (PPC)", vm::Scenario::kAdapt, tuner::Goal::kBalance, true},
      {"Opt:Bal (PPC)", vm::Scenario::kOpt, tuner::Goal::kBalance, true},
  };
  return kScenarios;
}

rt::MachineModel machine_for(bool ppc) { return ppc ? rt::ppc_g4_model() : rt::pentium4_model(); }

tuner::EvalConfig eval_config_for(const ScenarioSpec& spec) {
  tuner::EvalConfig cfg;
  cfg.machine = machine_for(spec.ppc);
  cfg.scenario = spec.scenario;
  return cfg;
}

ga::GaConfig ga_config(const CliParser& cli, int generations) {
  constexpr std::int64_t kInt = std::numeric_limits<int>::max();
  constexpr std::int64_t kI64 = std::numeric_limits<std::int64_t>::max();
  ga::GaConfig cfg = tuner::default_ga_config(
      static_cast<int>(ga_int(cli, "generations", "ITH_GA_GENERATIONS", generations, 1, kInt)),
      static_cast<std::uint64_t>(ga_int(cli, "seed", "ITH_GA_SEED", 42, 0, kI64)));
  cfg.population = static_cast<int>(ga_int(cli, "pop", "ITH_GA_POP", 20, 2, kInt));
  return cfg;
}

std::optional<ga::GaConfig> ga_config_from_env(int argc, const char* const* argv,
                                               int generations) {
  if (!takes_no_arguments(argc, argv)) return std::nullopt;
  try {
    return ga_config(CliParser(argc, argv), generations);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    print_no_argument_usage(argv[0]);
    return std::nullopt;
  }
}

namespace {

heur::InlineParams make_params(int callee, int always, int depth, int caller, int hot) {
  heur::InlineParams p;
  p.callee_max_size = callee;
  p.always_inline_size = always;
  p.max_inline_depth = depth;
  p.caller_max_size = caller;
  p.hot_callee_max_size = hot;
  return p;
}

}  // namespace

// Values produced by `ITH_GA_GENERATIONS=60 ./bench/table4_tuned_params`
// (seed 42) on this simulator; see EXPERIMENTS.md. Regenerate after any
// cost-model or workload change.
const std::vector<heur::InlineParams>& recorded_tuned_params() {
  static const std::vector<heur::InlineParams> kRecorded = {
      /* Adapt        */ make_params(6, 13, 7, 3992, 37),
      /* Opt:Bal      */ make_params(49, 9, 6, 308, 135),
      /* Opt:Tot      */ make_params(47, 6, 3, 128, 135),
      /* Adapt (PPC)  */ make_params(10, 13, 2, 2942, 44),
      /* Opt:Bal (PPC)*/ make_params(48, 4, 6, 236, 135),
  };
  return kRecorded;
}

// Values produced by `./bench/fig10_per_program` with ITH_RETUNE=1 and the
// default budget; see EXPERIMENTS.md.
const std::vector<std::pair<std::string, heur::InlineParams>>& recorded_fig10_params() {
  static const std::vector<std::pair<std::string, heur::InlineParams>> kRecorded = {
      {"compress", make_params(33, 13, 7, 600, 135)},
      {"jess", make_params(36, 12, 15, 1924, 135)},
      {"db", make_params(36, 12, 7, 187, 135)},
      {"javac", make_params(24, 14, 7, 187, 135)},
      {"mpegaudio", make_params(39, 14, 7, 187, 135)},
      {"raytrace", make_params(49, 23, 2, 2813, 135)},
      {"jack", make_params(33, 13, 7, 600, 135)},
      {"antlr", make_params(28, 1, 7, 902, 135)},
      {"fop", make_params(36, 12, 15, 1924, 135)},
      {"jython", make_params(33, 13, 7, 600, 135)},
      {"pmd", make_params(36, 12, 15, 1924, 135)},
      {"ps", make_params(47, 12, 15, 187, 135)},
      {"ipsixql", make_params(36, 12, 15, 1924, 135)},
      {"pseudojbb", make_params(39, 1, 6, 600, 135)},
  };
  return kRecorded;
}

void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n";
  std::cout << title << "\n";
  std::cout << "reproduces: " << paper_ref << "\n";
  std::cout << "==============================================================\n\n";
}

bool takes_no_arguments(int argc, const char* const* argv) {
  if (argc <= 1) return true;
  print_no_argument_usage(argv[0]);
  return false;
}

}  // namespace ith::bench
