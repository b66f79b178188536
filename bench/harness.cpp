#include "harness.hpp"

#include <cctype>
#include <iostream>

#include "support/env.hpp"
#include "support/error.hpp"
#include "tuner/eval_cache.hpp"
#include "tuner/parameter_space.hpp"

namespace ith::bench {

const std::vector<FlagSpec>& BenchContext::flags() {
  static const std::vector<FlagSpec> kFlags = {
      {"generations", "N", "GA generations (ITH_GA_GENERATIONS, default 40)"},
      {"pop", "N", "GA population (ITH_GA_POP, default 20)"},
      {"seed", "N", "GA seed (ITH_GA_SEED, default 42)"},
      {"retune", "", "re-run the GA instead of the recorded Table 4 params (ITH_RETUNE=1)"},
      {"eval-cache", "PATH", "persistent evaluation cache for --retune (ITH_EVAL_CACHE)"},
      {"csv-dir", "DIR", "write CSV series into DIR (ITH_CSV_DIR)"},
      {"trace", "PATH", "write a structured trace (off when absent)"},
      {"trace-format", "F", "jsonl (default) or chrome"},
      {"trace-cats", "CSV", "category filter, e.g. eval,ga (default all)"},
  };
  return kFlags;
}

BenchContext::BenchContext(int argc, const char* const* argv, const std::string& title,
                           const std::string& paper_ref)
    : cli_(argc, argv) {
  const ga::GaConfig budget = bench::ga_config(cli_);
  opts_.generations = budget.generations;
  opts_.population = budget.population;
  opts_.seed = budget.seed;
  opts_.retune = cli_.get_bool_or("retune", env_int_or("ITH_RETUNE", 0) != 0);
  opts_.eval_cache = cli_.get_or("eval-cache", env_or("ITH_EVAL_CACHE", ""));
  opts_.csv_dir = cli_.get_or("csv-dir", env_or("ITH_CSV_DIR", ""));
  opts_.trace_path = cli_.get_or("trace", "");
  opts_.trace_format = cli_.get_or("trace-format", "jsonl");
  opts_.trace_categories = obs::category_mask_from_string(cli_.get_or("trace-cats", "all"));

  print_header(title, paper_ref);

  if (!opts_.trace_path.empty()) {
    ITH_CHECK(opts_.trace_format == "jsonl" || opts_.trace_format == "chrome",
              "--trace-format must be jsonl or chrome, got " + opts_.trace_format);
    trace_file_.open(opts_.trace_path);
    ITH_CHECK(trace_file_.is_open(), "cannot open trace file " + opts_.trace_path);
    if (opts_.trace_format == "chrome") {
      sink_ = std::make_unique<obs::ChromeTraceSink>(trace_file_);
    } else {
      sink_ = std::make_unique<obs::JsonlSink>(trace_file_);
    }
    ctx_.emplace(sink_.get(), opts_.trace_categories);
    std::cout << "[tracing to " << opts_.trace_path << " (" << opts_.trace_format << ")]\n\n";
  }
}

BenchContext::~BenchContext() {
  if (ctx_) ctx_->flush();
  sink_.reset();  // ChromeTraceSink writes its closing bracket at destruction
}

ga::GaConfig BenchContext::ga_config() {
  ga::GaConfig cfg = tuner::default_ga_config(opts_.generations, opts_.seed);
  cfg.population = opts_.population;
  cfg.obs = obs();
  return cfg;
}

tuner::EvalConfig BenchContext::eval_config_for(const ScenarioSpec& spec) {
  tuner::EvalConfig cfg = bench::eval_config_for(spec);
  cfg.obs = obs();
  return cfg;
}

heur::InlineParams BenchContext::tuned_params_for(std::size_t scenario_index) {
  const ScenarioSpec& spec = table4_scenarios().at(scenario_index);
  if (!opts_.retune) {
    return recorded_tuned_params().at(scenario_index);
  }
  ga::GaConfig cfg = ga_config();
  cfg.seed += 1000 * scenario_index;  // independent GA experiment per scenario
  std::cout << "[retuning " << spec.label << " live: pop " << cfg.population << ", up to "
            << cfg.generations << " generations]\n";
  tuner::SuiteEvaluator train(wl::make_suite("specjvm98"), eval_config_for(spec));

  // Per-scenario cache file: scenarios differ in machine model / scenario /
  // goal, so they have different evaluator fingerprints and cannot share one.
  const std::string cache_path =
      opts_.eval_cache.empty() ? "" : opts_.eval_cache + ".s" + std::to_string(scenario_index);
  if (!cache_path.empty() && std::ifstream(cache_path).good()) {
    try {
      train.restore(tuner::load_eval_cache(cache_path));
      std::cout << "[eval-cache: warm start from " << cache_path << ", " << train.cache_size()
                << " cached suite evaluations]\n";
    } catch (const Error& e) {
      // Stale or corrupt caches cost a re-evaluation, never correctness.
      std::cerr << "[eval-cache ignored: " << e.what() << "]\n";
    }
  }
  const heur::InlineParams best = tuner::tune(train, spec.goal, cfg).best;
  if (!cache_path.empty()) {
    tuner::save_eval_cache(cache_path, train.snapshot());
    std::cout << "[eval-cache: saved " << train.cache_size() << " suite evaluations to "
              << cache_path << " (" << train.evaluations_performed()
              << " evaluated this run)]\n";
  }
  return best;
}

void BenchContext::print_figure_panels(const ScenarioSpec& spec,
                                       const heur::InlineParams& tuned) {
  std::cout << "scenario=" << spec.label << " machine=" << machine_for(spec.ppc).name
            << " goal=" << tuner::goal_name(spec.goal) << "\n";
  std::cout << "tuned params:   " << tuned.to_string() << "\n";
  std::cout << "default params: " << heur::default_params().to_string() << "\n\n";

  // Machine-readable series next to the human tables, for replotting.
  std::string tag;
  for (char c : spec.label) tag += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';

  const char* panel = "ab";
  const char* suites[2] = {"specjvm98", "dacapo+jbb"};
  const char* roles[2] = {"training suite", "unseen test suite"};
  for (int i = 0; i < 2; ++i) {
    tuner::SuiteEvaluator eval(wl::make_suite(suites[i]), eval_config_for(spec));
    const auto with_default = eval.default_results();
    const auto with_tuned = eval.evaluate(tuned);
    const auto rows = tuner::compare_results(*with_tuned, *with_default);
    std::cout << "(" << panel[i] << ") " << suites[i] << " (" << roles[i]
              << "), normalized to the default heuristic (<1.0 = improvement):\n";
    tuner::comparison_table(rows).render(std::cout);
    std::cout << "\n";
    if (!opts_.csv_dir.empty()) {
      const std::string path =
          opts_.csv_dir + "/" + tag + "_" + (i == 0 ? "spec" : "dacapo") + ".csv";
      std::ofstream out(path);
      if (out) {
        tuner::write_comparison_csv(out, rows);
        std::cout << "[csv written to " << path << "]\n\n";
      } else {
        std::cerr << "[cannot write " << path << "]\n\n";
      }
    }
  }
}

int bench_main(int argc, const char* const* argv, const std::string& title,
               const std::string& paper_ref, const std::function<int(BenchContext&)>& body) {
  try {
    if (!CliParser(argc, argv).only_declared(BenchContext::flags())) {
      std::cerr << usage_text(title, BenchContext::flags());
      return 2;
    }
    BenchContext bx(argc, argv, title, paper_ref);
    return body(bx);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n" << usage_text(title, BenchContext::flags());
    return 2;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ith::bench
