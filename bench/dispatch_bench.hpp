// Interpreter dispatch micro-benchmark: wall-clock throughput of the two
// execution engines (predecoded direct-threaded "fast" vs. switch-dispatch
// "reference") over a fixed workload set.
//
// This measures *host* time, not simulated cycles — the simulated cycle
// model is engine-invariant by construction (see DESIGN.md, "Execution
// engines"); what differs between engines is how fast the host machine can
// produce those identical numbers. The headline metric is interpreted
// instructions per wall-clock second, best-of-N to shed scheduler noise.
// Each of the N rounds times back-to-back runs of the program until about
// a million instructions have executed, so a program of a few hundred
// instructions is not timed by a single clock read pair.
//
// Used by bench/micro_dispatch (human-readable table, optional JSON) and
// tools/bench_json (writes BENCH_interpreter.json for the perf trajectory).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ith::bench {

struct DispatchMeasurement {
  std::string workload;
  std::string engine;              ///< "fast" or "reference"
  std::uint64_t instructions = 0;  ///< per run (engine-invariant)
  std::uint64_t sim_cycles = 0;    ///< simulated cycles, cold icache run
  double best_seconds = 0.0;       ///< fastest round's time per run
  double insns_per_sec = 0.0;
  double ns_per_insn = 0.0;
};

struct DispatchBenchConfig {
  int repeats = 5;                ///< best-of-N timing repeats per engine
  double run_scale = 1.0;         ///< workload trip-count multiplier
  std::uint64_t fuzz_seed = 7;    ///< pinned seed for the adversarial row
  bool with_icache = true;        ///< probe the simulated I-cache (hot path)
};

/// Names of the fixed workload set (suite programs + one generated
/// adversarial program, pinned seed). Stable across runs by design so the
/// JSON is comparable commit-over-commit.
std::vector<std::string> dispatch_workload_names(const DispatchBenchConfig& config);

/// Runs every workload under both engines, "fast" (the predecoded engine)
/// and "reference". Verifies on the way that both produced identical
/// ExecStats for the cold run (throws ith::Error otherwise — a benchmark
/// that measures different computations is meaningless). Timing rounds are
/// interleaved across the engines so a mid-benchmark change in effective
/// host speed (CPU steal, frequency drift) cancels out of the reported
/// ratios. Results are ordered workload-major: fast, reference.
std::vector<DispatchMeasurement> run_dispatch_bench(const DispatchBenchConfig& config);

/// Geometric-mean speedup of fast over reference (instructions/sec ratio).
double geomean_speedup(const std::vector<DispatchMeasurement>& ms);

/// One run_dispatch_bench pass per sample. A single pass's geomean speedup
/// varies by about ±10% across runs of one binary on a shared host, so the
/// recorded figure is the median of kRecordSamples passes and the guard
/// compares the median of kGuardSamples passes with it.
using DispatchSamples = std::vector<std::vector<DispatchMeasurement>>;
inline constexpr int kRecordSamples = 9;
inline constexpr int kGuardSamples = 5;

/// Runs `n` (>= 1) passes of run_dispatch_bench back to back.
DispatchSamples run_dispatch_samples(const DispatchBenchConfig& config, int n);

/// The pass whose geomean speedup is the median (the lower middle one for
/// an even count).
const std::vector<DispatchMeasurement>& median_sample(const DispatchSamples& samples);

/// Writes the BENCH_interpreter.json document: the median pass's rows, the
/// median geomean speedup, and every pass's geomean with their range.
void write_bench_json(std::ostream& os, const DispatchBenchConfig& config,
                      const DispatchSamples& samples);

/// Human-readable table with a per-workload and geomean speedup column.
void print_dispatch_table(std::ostream& os, const std::vector<DispatchMeasurement>& ms);

}  // namespace ith::bench
