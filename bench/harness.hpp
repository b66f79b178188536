// Unified harness for the figure/table reproduction mains.
//
// Every bench binary used to hand-roll the same wiring: read the GA budget
// from the environment, decide recorded-vs-live parameters, open CSV
// outputs, print the banner. BenchContext centralizes that plus the new
// observability plumbing, exposed as CLI flags with the historical
// environment variables as fallbacks (flags win):
//
//   --generations=N   (ITH_GA_GENERATIONS, default 40)
//   --pop=N           (ITH_GA_POP, default 20)
//   --seed=N          (ITH_GA_SEED, default 42)
//   --retune          (ITH_RETUNE=1) re-run the GA instead of using the
//                     recorded Table-4 parameters
//   --eval-cache=PATH (ITH_EVAL_CACHE) persistent evaluation cache for
//                     --retune runs: loaded (if present and compatible)
//                     before each scenario's GA run and saved back after,
//                     so repeated retunes skip every suite evaluation they
//                     have already paid for. Each scenario gets its own
//                     file, PATH.s<scenario-index>, because different
//                     scenarios have different evaluator fingerprints. A
//                     stale or corrupt file is ignored with a warning.
//   --csv-dir=DIR     (ITH_CSV_DIR) write machine-readable CSV series
//   --trace=PATH      write a structured trace (off when absent)
//   --trace-format=F  jsonl (default) or chrome (chrome://tracing/Perfetto)
//   --trace-cats=CSV  category filter, e.g. "eval,ga" (default: all)
//
// These are declared once, in BenchContext::flags(); --help or any other
// flag prints the usage generated from them and exits 2.
//
// Usage:
//   int main(int argc, char** argv) {
//     return bench::bench_main(argc, argv, "fig5_adapt_x86", "Figure 5 — ...",
//                              [](bench::BenchContext& bx) {
//       bx.print_figure_panels(bench::table4_scenarios()[0], bx.tuned_params_for(0));
//       return 0;
//     });
//   }
#pragma once

#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/context.hpp"
#include "obs/sink.hpp"
#include "support/cli.hpp"

namespace ith::bench {

/// Flag/env-resolved options shared by every bench main.
struct BenchOptions {
  int generations = 40;
  int population = 20;
  std::uint64_t seed = 42;
  bool retune = false;
  std::string eval_cache;  ///< empty = no persistent evaluation cache
  std::string csv_dir;
  std::string trace_path;               ///< empty = tracing off
  std::string trace_format = "jsonl";   ///< "jsonl" or "chrome"
  std::uint32_t trace_categories = obs::kAllCategories;
};

class BenchContext {
 public:
  /// Parses flags (with env fallback), prints the banner, and — when
  /// --trace is given — opens the sink and constructs the obs::Context.
  BenchContext(int argc, const char* const* argv, const std::string& title,
               const std::string& paper_ref);
  ~BenchContext();  // flushes counters and closes the trace file

  BenchContext(const BenchContext&) = delete;
  BenchContext& operator=(const BenchContext&) = delete;

  /// The flags every bench main accepts.
  static const std::vector<FlagSpec>& flags();

  const BenchOptions& options() const { return opts_; }
  const CliParser& cli() const { return cli_; }

  /// Null when tracing is off; owned by this context otherwise.
  obs::Context* obs() { return ctx_ ? &*ctx_ : nullptr; }

  /// GA budget from the resolved options.
  ga::GaConfig ga_config();

  /// Evaluator config for a Table-4 scenario, with the trace context wired
  /// through (EvalConfig::obs -> VmConfig::obs -> OptimizerOptions::obs).
  tuner::EvalConfig eval_config_for(const ScenarioSpec& spec);

  /// Tuned parameters for scenario index `i`: the recorded Table-4 values,
  /// or a live GA run when --retune / ITH_RETUNE=1.
  heur::InlineParams tuned_params_for(std::size_t scenario_index);

  /// The standard (a)/(b) two-suite tuned-vs-default panels, honoring
  /// --csv-dir and tracing through this context.
  void print_figure_panels(const ScenarioSpec& spec, const heur::InlineParams& tuned);

 private:
  CliParser cli_;
  BenchOptions opts_;
  std::ofstream trace_file_;
  std::unique_ptr<obs::TraceSink> sink_;
  std::optional<obs::Context> ctx_;
};

/// Runs `body` with a fully wired BenchContext; catches ith::Error into a
/// message + non-zero exit so every bench main reports failures uniformly.
/// An undeclared flag prints the usage, titled `title`, and returns 2.
int bench_main(int argc, const char* const* argv, const std::string& title,
               const std::string& paper_ref, const std::function<int(BenchContext&)>& body);

}  // namespace ith::bench
