// Writes perf-trajectory data points. Two modes:
//
//   bench_json [OUTPUT_PATH]
//     Runs the dispatch micro-benchmark over both engines (fast and
//     reference) and emits BENCH_interpreter.json (instructions/sec and
//     ns/instruction per engine, fixed workloads, pinned seed, and the
//     fast/reference geomean speedup).
//
//   bench_json --tuning [OUTPUT_PATH]
//     Times one cold and one warm tuning run (default GA config, fixed
//     seed) and emits BENCH_tuning.json: tune wall-clock for each, the
//     signature-collapse statistics, the real suite evaluations and
//     benchmark runs each performed, and how many evaluations the two
//     cache levels saved. The warm run restores the cold run's
//     evaluation-cache snapshot, so it must perform zero real suite
//     executions and land on the identical winner — both are recorded.
//
//   bench_json --serving [OUTPUT_PATH]
//     Runs the serving tier (online re-tuning on, fixed seed/load) and
//     emits BENCH_serving.json: exact p50/p95/p99 request latency in
//     simulated cycles per workload, SLO violations, fleet installs, and
//     the tuned genome each service converged to.
//
//   bench_json --fleet [OUTPUT_PATH]
//     Runs three concurrent tunes against one in-process evaluation daemon
//     (fixed seeds, --verify-solo semantics) and emits BENCH_fleet.json:
//     fleet vs standalone real suite evaluations, the sharing ratio, lease
//     accounting, and whether every fleet winner matched its standalone
//     run. Exit status enforces winners_match, strictly fewer fleet
//     evaluations, and balanced leases.
//
// Any other argument that starts with "--" (--help included), or more than
// one OUTPUT_PATH, prints the usage and exits 2 before anything runs or is
// written.
//
// CI uploads the files as artifacts; committing a refreshed copy at the
// repo root records the trajectory commit-over-commit.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dispatch_bench.hpp"
#include "service/fleet.hpp"
#include "serving/driver.hpp"
#include "support/error.hpp"
#include "tuner/parameter_space.hpp"
#include "tuner/tuner.hpp"
#include "workloads/suite.hpp"

namespace {

struct TuneSample {
  double seconds = 0.0;
  std::uint64_t params_seen = 0;
  std::uint64_t distinct_signatures = 0;
  std::uint64_t real_evaluations = 0;
  std::uint64_t benchmark_runs = 0;
  std::uint64_t benchmark_replays = 0;
  std::string winner;
  double fitness = 0.0;
};

TuneSample timed_tune(ith::tuner::SuiteEvaluator& evaluator, const ith::ga::GaConfig& ga_cfg) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const ith::tuner::TuneResult result =
      ith::tuner::tune(evaluator, ith::tuner::Goal::kTotal, ga_cfg, {});
  const auto t1 = clock::now();
  TuneSample s;
  s.seconds = std::chrono::duration<double>(t1 - t0).count();
  s.params_seen = evaluator.params_seen();
  s.distinct_signatures = evaluator.signatures_seen();
  s.real_evaluations = evaluator.evaluations_performed();
  s.benchmark_runs = evaluator.benchmark_runs();
  s.benchmark_replays = evaluator.benchmark_replays();
  s.winner = result.best.to_string();
  s.fitness = result.best_fitness;
  return s;
}

int run_tuning_bench(const std::string& path) {
  constexpr int kGenerations = 8;
  constexpr std::uint64_t kSeed = 42;
  const std::string suite_name = "specjvm98";

  ith::ga::GaConfig ga_cfg = ith::tuner::default_ga_config(kGenerations, kSeed);
  ga_cfg.seed_individuals.push_back(
      ith::tuner::genome_from_params(ith::heur::default_params(), /*include_hot=*/true));

  ith::tuner::EvalConfig ec;  // defaults: Pentium-4 model, Adapt, 2 iterations
  ith::tuner::SuiteEvaluator cold_eval(ith::wl::make_suite(suite_name), ec);
  const TuneSample cold = timed_tune(cold_eval, ga_cfg);

  ith::tuner::SuiteEvaluator warm_eval(ith::wl::make_suite(suite_name), ec);
  warm_eval.restore(cold_eval.snapshot());
  const TuneSample warm = timed_tune(warm_eval, ga_cfg);

  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_json: cannot write " << path << "\n";
    return 1;
  }
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.4f", v);
    return std::string(buf);
  };
  out << "{\n"
      << "  \"benchmark\": \"tuning_eval_cache\",\n"
      << "  \"unit\": \"seconds per tuning run\",\n"
      << "  \"config\": {\"suite\": \"" << suite_name << "\", \"generations\": " << kGenerations
      << ", \"population\": " << ga_cfg.population << ", \"seed\": " << kSeed << "},\n"
      << "  \"cold\": {\"seconds\": " << num(cold.seconds)
      << ", \"params_seen\": " << cold.params_seen
      << ", \"distinct_signatures\": " << cold.distinct_signatures
      << ", \"real_evaluations\": " << cold.real_evaluations
      << ", \"benchmark_runs\": " << cold.benchmark_runs
      << ", \"benchmark_replays\": " << cold.benchmark_replays << "},\n"
      << "  \"warm\": {\"seconds\": " << num(warm.seconds)
      << ", \"real_evaluations\": " << warm.real_evaluations
      << ", \"benchmark_runs\": " << warm.benchmark_runs
      << ", \"benchmark_replays\": " << warm.benchmark_replays << "},\n"
      << "  \"evaluations_saved_by_collapse\": " << (cold.params_seen - cold.distinct_signatures)
      << ",\n"
      << "  \"evaluations_saved_by_persistence\": "
      << (warm.distinct_signatures - warm.real_evaluations) << ",\n"
      << "  \"warm_speedup\": " << num(warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0)
      << ",\n"
      << "  \"winners_match\": " << (cold.winner == warm.winner ? "true" : "false") << ",\n"
      << "  \"winner\": \"" << cold.winner << "\"\n"
      << "}\n";
  std::cout << "wrote " << path << " (cold " << num(cold.seconds) << "s, warm "
            << num(warm.seconds) << "s, " << cold.real_evaluations << " real evaluations for "
            << cold.params_seen << " params; warm real evaluations " << warm.real_evaluations
            << ", winners " << (cold.winner == warm.winner ? "match" : "DIFFER") << ")\n";
  return cold.winner == warm.winner && warm.real_evaluations == 0 ? 0 : 1;
}

int run_serving_bench(const std::string& path) {
  ith::serving::ServingConfig config;
  config.seed = 1;
  config.instances = 2;
  config.requests = 384;
  config.load = 0.7;
  config.online_tune = true;
  config.ga_generations = 4;
  config.ga_population = 8;
  config.ga_seed = 7;

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const ith::serving::ServeReport report = ith::serving::run_serving(config);
  const double seconds = std::chrono::duration<double>(clock::now() - t0).count();

  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_json: cannot write " << path << "\n";
    return 1;
  }
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.4f", v);
    return std::string(buf);
  };
  out << "{\n  \"benchmark\": \"serving_latency\",\n"
      << "  \"unit\": \"simulated cycles per request\",\n"
      << "  \"config\": {\"seed\": " << config.seed << ", \"instances\": " << config.instances
      << ", \"requests\": " << config.requests << ", \"load\": " << num(config.load)
      << ", \"generations\": " << config.ga_generations
      << ", \"population\": " << config.ga_population << "},\n"
      << "  \"wall_seconds\": " << num(seconds) << ",\n"
      << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < report.workloads.size(); ++i) {
    const ith::serving::WorkloadServeReport& w = report.workloads[i];
    out << "    {\"name\": \"" << w.name << "\", \"p50\": " << w.digest.p50()
        << ", \"p95\": " << w.digest.p95() << ", \"p99\": " << w.digest.p99()
        << ", \"mean\": " << w.digest.mean() << ", \"slo_violations\": " << w.slo_violations
        << ", \"installs\": " << w.installs << ", \"final_fitness\": " << num(w.final_fitness)
        << ", \"final_params\": \"" << w.final_params.to_string() << "\"}"
        << (i + 1 < report.workloads.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << " (" << num(seconds) << "s";
  for (const ith::serving::WorkloadServeReport& w : report.workloads) {
    std::cout << "; " << w.name << " p99=" << w.digest.p99();
  }
  std::cout << ")\n";
  return 0;
}

int run_fleet_bench(const std::string& path) {
  ith::svc::FleetConfig fc;
  fc.suite = ith::wl::make_suite("specjvm98");
  fc.clients = 3;
  fc.generations = 4;
  fc.population = 6;
  fc.base_seed = 42;
  fc.socket_path = "bench_fleet.sock";
  fc.snapshot_every = 4;
  fc.verify_solo = true;

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const ith::svc::FleetReport report = ith::svc::run_fleet(fc);
  const double seconds = std::chrono::duration<double>(clock::now() - t0).count();

  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_json: cannot write " << path << "\n";
    return 1;
  }
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.4f", v);
    return std::string(buf);
  };
  const double ratio =
      report.fleet_real_evaluations > 0
          ? static_cast<double>(report.solo_real_evaluations) /
                static_cast<double>(report.fleet_real_evaluations)
          : 0.0;
  out << "{\n"
      << "  \"benchmark\": \"fleet_tuning_service\",\n"
      << "  \"unit\": \"real suite evaluations per fleet\",\n"
      << "  \"config\": {\"suite\": \"specjvm98\", \"clients\": " << fc.clients
      << ", \"generations\": " << fc.generations << ", \"population\": " << fc.population
      << ", \"base_seed\": " << fc.base_seed << "},\n"
      << "  \"wall_seconds\": " << num(seconds) << ",\n"
      << "  \"fleet_real_evaluations\": " << report.fleet_real_evaluations << ",\n"
      << "  \"solo_real_evaluations\": " << report.solo_real_evaluations << ",\n"
      << "  \"sharing_ratio\": " << num(ratio) << ",\n"
      << "  \"federated_entries\": " << report.federated_entries << ",\n"
      << "  \"winners_match\": " << (report.winners_match ? "true" : "false") << ",\n"
      << "  \"leases\": {\"granted\": " << report.daemon.leases_granted
      << ", \"published\": " << report.daemon.leases_published
      << ", \"reclaimed\": " << report.daemon.leases_reclaimed
      << ", \"balanced\": " << (report.leases_balanced ? "true" : "false") << "},\n"
      << "  \"daemon\": {\"requests\": " << report.daemon.requests
      << ", \"hits\": " << report.daemon.hits << ", \"waits\": " << report.daemon.waits << "},\n"
      << "  \"clients\": [\n";
  for (std::size_t i = 0; i < report.clients.size(); ++i) {
    const ith::svc::FleetClientReport& c = report.clients[i];
    out << "    {\"real_evaluations\": " << c.real_evaluations
        << ", \"solo_real_evaluations\": " << c.solo_real_evaluations
        << ", \"winner_matches_solo\": " << (c.solo_match ? "true" : "false")
        << ", \"fitness\": " << num(c.fitness) << ", \"winner\": \"" << c.winner << "\"}"
        << (i + 1 < report.clients.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  const bool ok = report.winners_match && report.leases_balanced &&
                  report.fleet_real_evaluations < report.solo_real_evaluations;
  std::cout << "wrote " << path << " (" << num(seconds) << "s; fleet "
            << report.fleet_real_evaluations << " vs solo " << report.solo_real_evaluations
            << " real evaluations, " << num(ratio) << "x sharing; winners "
            << (report.winners_match ? "match" : "DIFFER") << "; leases "
            << (report.leases_balanced ? "balanced" : "UNBALANCED") << ")\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  std::size_t next = 0;
  std::string mode;  // empty: the interpreter benchmark
  if (!args.empty() &&
      (args[0] == "--tuning" || args[0] == "--serving" || args[0] == "--fleet")) {
    mode = args[next++];
  }
  if (args.size() > next + 1 || (next < args.size() && args[next].starts_with("--"))) {
    std::cerr << "usage: bench_json [OUTPUT_PATH]\n"
                 "       bench_json --tuning|--serving|--fleet [OUTPUT_PATH]\n";
    return 2;
  }
  const auto out_path = [&](const char* fallback) {
    return next < args.size() ? args[next] : std::string(fallback);
  };

  try {
    if (mode == "--tuning") return run_tuning_bench(out_path("BENCH_tuning.json"));
    if (mode == "--serving") return run_serving_bench(out_path("BENCH_serving.json"));
    if (mode == "--fleet") return run_fleet_bench(out_path("BENCH_fleet.json"));
    const std::string path = out_path("BENCH_interpreter.json");
    ith::bench::DispatchBenchConfig config;
    const auto results = ith::bench::run_dispatch_bench(config);
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench_json: cannot write " << path << "\n";
      return 1;
    }
    ith::bench::write_bench_json(out, config, results);
    std::cout << "wrote " << path << " (geomean fast/reference speedup "
              << ith::bench::geomean_speedup(results) << "x)\n";
  } catch (const ith::Error& e) {
    std::cerr << "bench_json: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
