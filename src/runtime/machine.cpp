#include "runtime/machine.hpp"

#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace ith::rt {

std::array<std::uint32_t, 3> MachineModel::cpi_units() const {
  const double cpi[3] = {baseline_cpi, mid_cpi, opt_cpi};
  const char* const tier[3] = {"baseline", "mid", "opt"};
  std::array<std::uint32_t, 3> units{};
  for (std::size_t t = 0; t < 3; ++t) {
    const double scaled = cpi[t] * static_cast<double>(kCostUnitsPerCycle);
    const double whole = std::round(scaled);
    if (!(whole >= 0.0 && whole <= 65535.0 && std::fabs(scaled - whole) <= 1e-9)) {
      std::ostringstream os;
      os << "machine model '" << name << "': " << tier[t] << " CPI " << cpi[t]
         << " is not a whole number of 1/" << kCostUnitsPerCycle << " cycles";
      throw Error(os.str());
    }
    units[t] = static_cast<std::uint32_t>(whole);
  }
  return units;
}

std::uint64_t MachineModel::opt_compile_cycles(std::size_t words) const {
  const double w = static_cast<double>(words);
  return static_cast<std::uint64_t>(opt_compile_cycles_per_word * std::pow(w, opt_compile_exponent));
}

std::uint64_t MachineModel::mid_compile_cycles(std::size_t words) const {
  return static_cast<std::uint64_t>(mid_compile_fraction * static_cast<double>(opt_compile_cycles(words)));
}

std::uint64_t MachineModel::baseline_compile_cycles(std::size_t words) const {
  return static_cast<std::uint64_t>(baseline_compile_cycles_per_word * static_cast<double>(words));
}

double MachineModel::cycles_to_seconds(std::uint64_t cycles) const {
  return static_cast<double>(cycles) / clock_hz;
}

MachineModel pentium4_model() {
  MachineModel m;
  m.name = "pentium4-2.8GHz";
  m.baseline_cpi = 2.2;
  m.mid_cpi = 1.45;
  m.opt_cpi = 1.0;
  m.call_overhead_cycles = 10;  // deep pipeline: calls flush more work
  // Cache capacities are scaled to the miniature workload programs (whose
  // hot code is hundreds of words, not hundreds of KB); what matters is the
  // x86:PPC capacity ratio the paper invokes, not absolute size.
  m.icache_bytes = 8 * 1024;
  m.icache_line_bytes = 64;
  m.icache_assoc = 4;
  m.icache_miss_cycles = 45;
  m.bytes_per_word = 4;
  m.baseline_compile_cycles_per_word = 20.0;
  m.opt_compile_cycles_per_word = 450.0;
  m.opt_compile_exponent = 1.15;
  m.clock_hz = 2.8e9;
  return m;
}

MachineModel ppc_g4_model() {
  MachineModel m;
  m.name = "ppc-g4-533MHz";
  m.baseline_cpi = 2.0;
  m.mid_cpi = 1.4;
  m.opt_cpi = 1.0;
  m.call_overhead_cycles = 6;   // shallow pipeline: cheaper linkage
  m.icache_bytes = 2 * 1024;    // small L1 I-cache: code growth hurts sooner
  m.icache_line_bytes = 32;
  m.icache_assoc = 8;
  m.icache_miss_cycles = 25;
  m.bytes_per_word = 4;
  m.baseline_compile_cycles_per_word = 24.0;
  m.opt_compile_cycles_per_word = 500.0;
  m.opt_compile_exponent = 1.15;
  m.clock_hz = 0.533e9;
  return m;
}

}  // namespace ith::rt
