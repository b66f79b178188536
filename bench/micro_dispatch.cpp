// Dispatch-engine micro-benchmark: wall-clock throughput of the fast
// (predecoded direct-threaded) engine vs. the reference switch interpreter
// over a fixed workload set. Prints a table; optionally writes the
// BENCH_interpreter.json document.
//
//   micro_dispatch [--repeats=N] [--json=PATH]
//                  [--guard=BASELINE.json] [--tolerance=0.01]
//
// One pass over the workload set times each engine best-of-N rounds
// (--repeats=N) and yields one fast/reference geomean speedup. On a shared
// host that figure varies by about ±10% from pass to pass, so a single
// pass decides nothing: --json runs kRecordSamples passes and records
// their median geomean (with every pass's value and their range), and
// --guard runs kGuardSamples passes and compares their median with the
// recorded median, failing (exit 1) when it regressed by more than
// --tolerance (relative). The table shows the median pass. The ratio
// cancels the host's speed but not its load: while other work contends
// for the host, the reference engine slows more than the fast one and the
// ratio reads higher, so record on a quiet host. The guard is the overhead
// budget for the observability layer — with a null obs context the fast
// engine must keep its full speedup over the reference engine. On failure
// it prints a per-workload current-vs-recorded breakdown so the offending
// workload is identifiable without rerunning locally.
//
// The simulated ExecStats are checked for cross-engine equality before any
// timing is reported, so a regression in the equivalence guarantee fails
// the benchmark instead of skewing it.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dispatch_bench.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace {

ith::JsonValue load_baseline(const std::string& path) {
  std::ifstream in(path);
  ITH_CHECK(in.is_open(), "cannot open baseline " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return ith::parse_json(buf.str());
}

/// The recorded (median) geomean the current run must hold.
double baseline_geomean_speedup(const ith::JsonValue& doc, const std::string& path) {
  const ith::JsonValue* v = doc.find("geomean_speedup_fast_over_reference");
  ITH_CHECK(v != nullptr && v->kind == ith::JsonValue::Kind::kNumber,
            path + ": geomean_speedup_fast_over_reference missing");
  return v->number;
}

/// Per-workload fast/reference speedups from a baseline document's results
/// array.
std::map<std::string, double> baseline_workload_speedups(const ith::JsonValue& doc) {
  std::map<std::string, double> fast_ips, ref_ips;
  const ith::JsonValue* results = doc.find("results");
  if (results == nullptr || results->kind != ith::JsonValue::Kind::kArray) return {};
  for (const ith::JsonValue& row : results->items) {
    const ith::JsonValue* wl = row.find("workload");
    const ith::JsonValue* engine = row.find("engine");
    const ith::JsonValue* ips = row.find("insns_per_sec");
    if (wl == nullptr || engine == nullptr || ips == nullptr) continue;
    if (engine->str == "fast") {
      fast_ips[wl->str] = ips->number;
    } else if (engine->str == "reference") {
      ref_ips[wl->str] = ips->number;
    }
  }
  std::map<std::string, double> out;
  for (const auto& [wl, ips] : fast_ips) {
    if (ref_ips.count(wl) != 0 && ref_ips[wl] > 0) out[wl] = ips / ref_ips[wl];
  }
  return out;
}

void print_guard_breakdown(const std::vector<ith::bench::DispatchMeasurement>& results,
                           const std::map<std::string, double>& recorded) {
  std::cerr << "per-workload speedup (fast / reference), current vs recorded:\n";
  std::map<std::string, double> fast_ips, ref_ips;
  for (const auto& m : results) {
    if (m.engine == "fast") fast_ips[m.workload] = m.insns_per_sec;
    if (m.engine == "reference") ref_ips[m.workload] = m.insns_per_sec;
  }
  for (const auto& [wl, ips] : fast_ips) {
    if (ref_ips.count(wl) == 0) continue;
    const double current = ips / ref_ips[wl];
    std::cerr << "  " << wl << ": " << current << "x";
    const auto it = recorded.find(wl);
    if (it != recorded.end()) {
      std::cerr << " (recorded " << it->second << "x, " << (current / it->second - 1.0) * 100
                << "% drift)";
    }
    std::cerr << "\n";
  }
}

const std::vector<ith::FlagSpec> kFlags = {
    {"repeats", "N", "best-of-N timing repeats per engine and pass (default 5)"},
    {"json", "PATH", "record the median of 9 passes in a BENCH_interpreter.json at PATH"},
    {"guard", "BASELINE.json",
     "fail when the median geomean speedup of 5 passes regressed past --tolerance"},
    {"tolerance", "R", "relative guard tolerance (default 0.01)"},
};

}  // namespace

int main(int argc, char** argv) {
  const ith::CliParser cli(argc, argv);
  ith::bench::DispatchBenchConfig config;
  if (!cli.only_declared(kFlags)) {
    std::cerr << ith::usage_text("micro_dispatch", kFlags);
    return 2;
  }
  try {
    config.repeats = static_cast<int>(
        cli.get_int_in("repeats", config.repeats, 1, std::numeric_limits<int>::max()));
  } catch (const ith::UsageError& e) {
    std::cerr << "micro_dispatch: " << e.what() << "\n"
              << ith::usage_text("micro_dispatch", kFlags);
    return 2;
  }
  const std::string json_path = cli.get_or("json", "");
  const std::string guard_path = cli.get_or("guard", "");
  try {
    int passes = 1;
    if (!guard_path.empty()) passes = ith::bench::kGuardSamples;
    if (!json_path.empty()) passes = ith::bench::kRecordSamples;
    const ith::bench::DispatchSamples samples = ith::bench::run_dispatch_samples(config, passes);
    const auto& results = ith::bench::median_sample(samples);
    ith::bench::print_dispatch_table(std::cout, results);
    if (passes > 1) {
      std::cout << "median of " << passes << " passes; geomean per pass:";
      for (const auto& sample : samples) std::cout << " " << ith::bench::geomean_speedup(sample);
      std::cout << "\n";
    }
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "micro_dispatch: cannot write " << json_path << "\n";
        return 1;
      }
      ith::bench::write_bench_json(out, config, samples);
      std::cout << "wrote " << json_path << "\n";
    }
    if (!guard_path.empty()) {
      const double tolerance = cli.get_double_or("tolerance", 0.01);
      const ith::JsonValue doc = load_baseline(guard_path);
      const double baseline = baseline_geomean_speedup(doc, guard_path);
      const double current = ith::bench::geomean_speedup(results);
      const double floor = baseline * (1.0 - tolerance);
      std::cout << "guard: median geomean speedup " << current << " vs recorded median "
                << baseline << " (floor " << floor << ", tolerance " << tolerance * 100
                << "%)\n";
      if (current < floor) {
        // The exact recorded-vs-measured pair: a CI log must identify the
        // regression without rerunning locally.
        std::cerr << "micro_dispatch: the fast engine regressed below the guard floor: recorded "
                  << "geomean " << baseline << "x, measured " << current << "x (floor " << floor
                  << ")\n";
        print_guard_breakdown(results, baseline_workload_speedups(doc));
        return 1;
      }
      std::cout << "guard: OK\n";
    }
  } catch (const ith::Error& e) {
    std::cerr << "micro_dispatch: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
