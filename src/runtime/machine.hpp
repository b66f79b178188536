// MachineModel: the per-architecture cost model.
//
// The paper's cross-architecture result (Table 4: PPC prefers smaller
// MAX_INLINE_DEPTH, attributed to its smaller L1 I-cache) is reproduced by
// making every term of the time model an architecture parameter: code
// quality per tier, call linkage cost, I-cache geometry and miss penalty,
// and compile throughput. Times are deterministic simulated cycles.
//
// Execution time is counted in exact integers: every CPI is a whole number
// of twentieths of a cycle (2.2 = 44/20, 1.45 = 29/20), so the engines add
// integer twentieths and divide by 20 once at the end of a run. No
// summation order can round, which is what lets the fast engine charge a
// whole straight-line run at once.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ith::rt {

/// Execution cost units per simulated cycle (see the header comment).
inline constexpr std::uint64_t kCostUnitsPerCycle = 20;

struct MachineModel {
  std::string name;

  // --- Execution ---------------------------------------------------------
  /// Cycles per estimated machine word in baseline-tier code. The baseline
  /// compiler emits naive stack-traffic code, hence CPI well above 1.
  double baseline_cpi = 3.0;
  /// Cycles per estimated machine word at the first optimizing level (O1):
  /// same transformations, weaker register allocation / scheduling.
  double mid_cpi = 1.45;
  /// Cycles per estimated machine word in fully optimized (O2) code.
  double opt_cpi = 1.0;
  /// Extra cycles for the linkage of every dynamic call (arg registers,
  /// frame, return). This is the direct cost inlining removes.
  std::uint64_t call_overhead_cycles = 20;

  // --- Instruction cache --------------------------------------------------
  std::size_t icache_bytes = 64 * 1024;
  std::size_t icache_line_bytes = 64;
  std::size_t icache_assoc = 4;
  std::uint64_t icache_miss_cycles = 40;
  /// Bytes per estimated machine word (instruction encoding size).
  std::size_t bytes_per_word = 4;

  // --- Compilation --------------------------------------------------------
  /// Baseline tier: cycles per emitted machine word (a fast single pass).
  double baseline_compile_cycles_per_word = 20.0;
  /// Optimizing tier: cycles = k * words^e over the *post-inlining* body.
  /// The superlinear exponent models the quadratic-ish analyses a real
  /// optimizer runs, which is why overly aggressive inlining blows up
  /// compile time (the effect Figure 1(a) shows).
  double opt_compile_cycles_per_word = 220.0;
  double opt_compile_exponent = 1.15;

  /// Clock, used only to present cycles as seconds (Figure 2 axes).
  double clock_hz = 1.0e9;

  /// Fraction of the full-opt compile rate the O1 level costs.
  double mid_compile_fraction = 0.33;

  /// {baseline, mid, opt} CPI in cost units (twentieths of a cycle),
  /// indexed by Tier. Throws ith::Error when a CPI times kCostUnitsPerCycle
  /// is not a whole number in [0, 65535]: such a model would round.
  std::array<std::uint32_t, 3> cpi_units() const;

  /// Full optimizing-tier (O2) compile cycles for a body of `words` words.
  std::uint64_t opt_compile_cycles(std::size_t words) const;
  /// First-level (O1) compile cycles.
  std::uint64_t mid_compile_cycles(std::size_t words) const;
  /// Baseline-tier compile cycles for a body of `words` machine words.
  std::uint64_t baseline_compile_cycles(std::size_t words) const;

  double cycles_to_seconds(std::uint64_t cycles) const;
};

/// 2.8 GHz Pentium-4-like model: deep pipeline (expensive calls and misses),
/// comparatively large instruction cache, fast compile throughput.
MachineModel pentium4_model();

/// 533 MHz PowerPC G4-like model: small L1 I-cache (the paper's explanation
/// for PPC's preference for shallow inlining), milder penalties.
MachineModel ppc_g4_model();

}  // namespace ith::rt
