// Shared plumbing of the benchmark binary: the result record every workload
// fills, the per-layer accumulator of the traced run, and the timing
// wrappers placed around calls into the tuner's public API.
//
// Nothing here instruments src/: every timer sits in the benchmark's own
// code, around a public call (GeneticAlgorithm's fitness callback, an
// EvalBackend, PassManager::run, an Engine, VirtualMachine::run, ...).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ga/ga.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/fitness.hpp"
#include "tuner/tuner.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs);

/// `v` with every significant digit (run.py keeps it as measured).
std::string exact(double v);

/// Seconds one pass of a fixed, interpreter-shaped dispatch loop takes: a
/// gauge of host speed that shares nothing with src/. On a shared machine
/// the host's speed drifts by tens of percent over minutes; this loop slows
/// with it (5-second-window minima of a specjvm98 suite run varied with a
/// CV of 9.1%; divided by the probe's minima, 4.1%), so end-to-end timings
/// are reported scaled to a host on which the probe takes kReferenceProbeS.
double host_probe();
inline constexpr double kReferenceProbeS = 0.005;

/// Per-layer numbers of one traced round: name -> value. Times are seconds,
/// counts are plain numbers.
using Layers = std::map<std::string, double>;

/// Everything one invocation reports back to run.py.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::vector<std::pair<std::string, Metric>> metrics;
  /// Values that must repeat exactly for one commit and seed.
  std::map<std::string, std::string> deterministic;
  /// Human-readable extras (workload-specific end-to-end figures).
  std::vector<std::pair<std::string, double>> info;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int rounds = 0;
  /// Compiler that built the benchmark, for the result's environment block.
  std::string compiler;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  /// Records an output check. Rounds repeat checks: one entry per name is
  /// kept, and the first failure replaces a pass.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  /// Records `value` under `name`; a later round that reports a different
  /// value fails the "deterministic" check.
  void deterministic_value(const std::string& name, const std::string& value);
};

/// A training suite permuted by the workload seed. The order is the only
/// thing the seed changes: the tuner's work is invariant under it.
std::vector<ith::wl::Workload> seeded_suite(const std::string& suite, std::uint64_t seed);

/// Guarded benchmark runs recorded in an evaluator's cache: (attempted,
/// failed) over every completed signature.
std::pair<std::uint64_t, std::uint64_t> guarded_runs(const ith::tuner::SuiteEvaluator& ev);

/// Time of a unit of work that repeats the same steps every round: the sum
/// over steps of each step's fastest time across rounds (`rounds[r][i]` =
/// seconds of step i in round r). Host speed on a shared machine swings by
/// a quarter in bursts lasting seconds; a burst hits different steps in
/// different rounds, and a change that slows a step slows its fastest time
/// too. Returns 0 (which run.py rejects) when rounds disagree on the steps.
double sum_of_step_minima(const std::vector<std::vector<double>>& rounds);

/// A tune composed the way tuner::tune composes it (Table 1 space,
/// make_fitness, the same GaConfig), timing each fitness call into `calls`
/// in call order. With `layers` set, each call is also split into its
/// first-time signature probe, a real suite evaluation, or a cache hit, and
/// ga.* and tuner.* entries are added under `prefix`.
ith::tuner::TuneResult composed_tune(ith::tuner::SuiteEvaluator& ev, ith::tuner::Goal goal,
                                     const ith::ga::GaConfig& ga_config,
                                     std::vector<double>& calls, Layers* layers = nullptr,
                                     const std::string& prefix = "");

/// EvalBackend decorator that counts and times every acquire/publish RPC.
class TimedBackend final : public ith::tuner::EvalBackend {
 public:
  explicit TimedBackend(ith::tuner::EvalBackend& inner) : inner_(inner) {}

  std::optional<std::vector<ith::tuner::BenchmarkResult>> acquire(std::uint64_t sig,
                                                                  std::uint64_t* lease) override;
  void publish(std::uint64_t sig, std::uint64_t lease,
               const std::vector<ith::tuner::BenchmarkResult>& results) override;

  double acquire_s = 0.0;
  double publish_s = 0.0;
  std::uint64_t acquire_calls = 0;
  std::uint64_t publish_calls = 0;
  /// acquire() calls that fell back to local evaluation without a lease.
  std::uint64_t degraded = 0;

 private:
  ith::tuner::EvalBackend& inner_;
};

/// One program to replay with the parameters it was tuned to.
struct ReplayTarget {
  const ith::wl::Workload* workload = nullptr;
  ith::heur::InlineParams params;
};

/// The output check every run makes: each target program, run through the
/// VM under its params, gives identical ExecStats on the fast engine and on
/// the reference engine. Returns "" on success, else the first mismatch.
std::string engine_mismatch(const std::vector<ReplayTarget>& targets,
                            const ith::tuner::EvalConfig& ec);

/// The traced run's layer replays (after the timed tune, outside tune_s):
/// the opt pipeline over every method for the targets' params and for the
/// default params, the decision signature, the runtime engines on the
/// compiled bodies, and the VM. Adds opt.*, runtime.* and vm.* entries;
/// records the runtime oracle check and deterministic counts in `result`.
void replay_layers(const std::vector<ReplayTarget>& targets, const ith::tuner::EvalConfig& ec,
                   Layers& layers, Result& result);

}  // namespace perfbench
