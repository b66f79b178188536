#include "dispatch_bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "fuzz/generator.hpp"
#include "runtime/icache.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/machine.hpp"
#include "serving/workloads.hpp"
#include "support/error.hpp"
#include "workloads/suite.hpp"

namespace ith::bench {
namespace {

/// Compiles nothing: every method runs as-is at the Opt tier with zero
/// compile accounting — the measurement loop then times pure dispatch, not
/// the tiering policy. Bodies stay alive for the source's lifetime, which
/// spans every engine constructed over it (the CodeSource contract).
class PlainSource final : public rt::CodeSource {
 public:
  explicit PlainSource(const bc::Program& prog) : prog_(prog), compiled_(prog.num_methods()) {}

  const rt::CompiledMethod& invoke(bc::MethodId id) override {
    auto& slot = compiled_[static_cast<std::size_t>(id)];
    if (!slot) {
      slot = std::make_unique<rt::CompiledMethod>();
      slot->body = prog_.method(id);
      slot->tier = rt::Tier::kOpt;
      slot->method_id = id;
      slot->code_base = 0x1000 + 0x10000 * static_cast<std::uint64_t>(id);
      slot->origin.resize(slot->body.size());
      for (std::size_t pc = 0; pc < slot->body.size(); ++pc) {
        slot->origin[pc] = {id, static_cast<std::int32_t>(pc)};
      }
      slot->finalize();
    }
    return *slot;
  }

 private:
  const bc::Program& prog_;
  std::vector<std::unique_ptr<rt::CompiledMethod>> compiled_;
};

struct NamedProgram {
  std::string name;
  bc::Program program;
};

/// Suite subset chosen for dispatch diversity: tight arithmetic loops
/// (compress), global-heavy lookups (db), call-dense recursion (raytrace),
/// branchy scanning (jack) — plus the three serving workloads in batch mode
/// (the latency tier that feels dispatch speed most directly; batch mode
/// drives the same per-request handlers over the deterministic request
/// tape, so it runs as a plain program) and one generator program
/// exercising the opcode-set corners none of the structured workloads
/// reach.
std::vector<NamedProgram> dispatch_programs(const DispatchBenchConfig& config) {
  std::vector<NamedProgram> out;
  for (const char* name : {"compress", "db", "raytrace", "jack"}) {
    out.push_back({name, wl::make_workload(name, config.run_scale).program});
  }
  for (const std::string& name : serving::serving_names()) {
    out.push_back({name, serving::make_serving_workload(name, serving::ServingMode::kBatch).program});
  }
  fuzz::GeneratorSpec spec;
  spec.seed = config.fuzz_seed;
  spec.max_methods = 10;
  spec.max_stmts = 12;
  spec.max_fuel = 9;
  out.push_back({"adversarial", fuzz::generate_adversarial(spec)});
  return out;
}

/// One engine variant held live across the whole measurement: its source,
/// icache and interpreter outlive the interleaved timing rounds below.
struct EngineBench {
  std::unique_ptr<PlainSource> source;
  std::unique_ptr<rt::ICache> icache;
  std::unique_ptr<rt::Interpreter> interp;
  rt::ExecStats cold;  ///< stats of the cold (warm-up) run, fresh icache
  double best_seconds = std::numeric_limits<double>::infinity();  ///< per run
};

EngineBench setup_engine(const bc::Program& prog, const rt::MachineModel& machine,
                         rt::EngineKind kind, const DispatchBenchConfig& config) {
  EngineBench b;
  b.source = std::make_unique<PlainSource>(prog);
  if (config.with_icache) {
    b.icache = std::make_unique<rt::ICache>(machine.icache_bytes, machine.icache_line_bytes,
                                            machine.icache_assoc);
  }
  rt::InterpreterOptions opts;
  opts.engine = kind;
  b.interp = std::make_unique<rt::Interpreter>(prog, machine, *b.source, b.icache.get(), opts);

  // Cold run: pays predecoding, arena growth, and icache fill once, and
  // yields the stats used for the cross-engine equality check.
  b.cold = b.interp->run();
  return b;
}

/// Instructions one timing round executes, at least: a round repeats a
/// short program back to back until it gets there. A single run of the
/// 671-instruction adversarial program takes about 3 µs, which one clock
/// read and one scheduler hiccup swamp.
constexpr std::uint64_t kRoundInstructions = 1'000'000;

/// One steady-state timing round: enough back-to-back runs to execute about
/// kRoundInstructions, timed together; the per-run time is the round's time
/// over its runs. The best (minimum) across rounds is the reported time,
/// rejecting transient interference.
void time_round(EngineBench& b) {
  const std::uint64_t insns = std::max<std::uint64_t>(b.cold.instructions, 1);
  const std::uint64_t runs = (kRoundInstructions + insns - 1) / insns;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < runs; ++r) {
    b.interp->reset_globals();
    const rt::ExecStats stats = b.interp->run();
    ITH_CHECK(stats.instructions == b.cold.instructions,
              "dispatch bench: instruction count drifted across repeats");
  }
  const auto t1 = std::chrono::steady_clock::now();
  b.best_seconds = std::min(b.best_seconds, std::chrono::duration<double>(t1 - t0).count() /
                                                static_cast<double>(runs));
}

std::string format_double(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << v;
  return os.str();
}

}  // namespace

std::vector<std::string> dispatch_workload_names(const DispatchBenchConfig& config) {
  std::vector<std::string> names;
  for (const NamedProgram& np : dispatch_programs(config)) names.push_back(np.name);
  return names;
}

std::vector<DispatchMeasurement> run_dispatch_bench(const DispatchBenchConfig& config) {
  ITH_CHECK(config.repeats >= 1, "dispatch bench needs at least one repeat");
  const rt::MachineModel machine = rt::pentium4_model();
  std::vector<DispatchMeasurement> out;
  for (const NamedProgram& np : dispatch_programs(config)) {
    EngineBench fast = setup_engine(np.program, machine, rt::EngineKind::kFast, config);
    EngineBench ref = setup_engine(np.program, machine, rt::EngineKind::kReference, config);
    if (fast.cold != ref.cold) {
      throw Error("dispatch bench: engines disagree on '" + np.name +
                  "' — refusing to time non-equivalent executions");
    }
    // Timing rounds are interleaved across the two engines instead of
    // exhausting one engine's repeats before the next: when the host's
    // effective speed drifts mid-benchmark (CPU steal on a shared core,
    // frequency changes), every variant samples the same slow and fast
    // windows, so the reported speedup RATIO stays stable even when the
    // absolute throughput numbers move.
    for (int r = 0; r < config.repeats; ++r) {
      time_round(fast);
      time_round(ref);
    }
    const struct {
      const EngineBench* t;
      const char* engine;
    } variants[] = {{&fast, "fast"}, {&ref, "reference"}};
    for (const auto& v : variants) {
      DispatchMeasurement m;
      m.workload = np.name;
      m.engine = v.engine;
      m.instructions = v.t->cold.instructions;
      m.sim_cycles = v.t->cold.cycles;
      m.best_seconds = v.t->best_seconds;
      m.insns_per_sec = static_cast<double>(v.t->cold.instructions) / v.t->best_seconds;
      m.ns_per_insn = v.t->best_seconds * 1e9 / static_cast<double>(v.t->cold.instructions);
      out.push_back(std::move(m));
    }
  }
  return out;
}

double geomean_speedup(const std::vector<DispatchMeasurement>& ms) {
  double log_sum = 0.0;
  int n = 0;
  for (const DispatchMeasurement& m : ms) {
    if (m.engine != "fast") continue;
    for (const DispatchMeasurement& d : ms) {
      if (d.engine == "reference" && d.workload == m.workload) {
        log_sum += std::log(m.insns_per_sec / d.insns_per_sec);
        ++n;
        break;
      }
    }
  }
  return n == 0 ? 1.0 : std::exp(log_sum / n);
}

DispatchSamples run_dispatch_samples(const DispatchBenchConfig& config, int n) {
  ITH_CHECK(n >= 1, "dispatch bench needs at least one sample");
  DispatchSamples samples;
  for (int i = 0; i < n; ++i) samples.push_back(run_dispatch_bench(config));
  return samples;
}

const std::vector<DispatchMeasurement>& median_sample(const DispatchSamples& samples) {
  ITH_CHECK(!samples.empty(), "no dispatch samples");
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return geomean_speedup(samples[a]) < geomean_speedup(samples[b]);
  });
  return samples[order[(order.size() - 1) / 2]];
}

void write_bench_json(std::ostream& os, const DispatchBenchConfig& config,
                      const DispatchSamples& samples) {
  const std::vector<DispatchMeasurement>& ms = median_sample(samples);
  std::vector<double> geomeans;
  for (const auto& sample : samples) geomeans.push_back(geomean_speedup(sample));
  os << "{\n";
  os << "  \"benchmark\": \"interpreter_dispatch\",\n";
  os << "  \"unit\": \"interpreted instructions per wall-clock second\",\n";
  os << "  \"config\": {\"repeats\": " << config.repeats << ", \"samples\": " << samples.size()
     << ", \"run_scale\": " << format_double(config.run_scale, 2)
     << ", \"fuzz_seed\": " << config.fuzz_seed
     << ", \"icache\": " << (config.with_icache ? "true" : "false") << "},\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const DispatchMeasurement& m = ms[i];
    os << "    {\"workload\": \"" << m.workload << "\", \"engine\": \"" << m.engine
       << "\", \"instructions\": " << m.instructions << ", \"sim_cycles\": " << m.sim_cycles
       << ", \"best_seconds\": " << format_double(m.best_seconds, 6)
       << ", \"insns_per_sec\": " << format_double(m.insns_per_sec, 0)
       << ", \"ns_per_insn\": " << format_double(m.ns_per_insn, 3) << "}"
       << (i + 1 < ms.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"geomean_samples\": [";
  for (std::size_t i = 0; i < geomeans.size(); ++i) {
    os << (i == 0 ? "" : ", ") << format_double(geomeans[i], 3);
  }
  os << "],\n";
  const auto [lo, hi] = std::minmax_element(geomeans.begin(), geomeans.end());
  os << "  \"geomean_range\": [" << format_double(*lo, 3) << ", " << format_double(*hi, 3)
     << "],\n";
  os << "  \"geomean_speedup_fast_over_reference\": " << format_double(geomean_speedup(ms), 3)
     << "\n";
  os << "}\n";
}

void print_dispatch_table(std::ostream& os, const std::vector<DispatchMeasurement>& ms) {
  os << "workload      engine     instructions    best ms   Minsn/s   ns/insn\n";
  os << "--------------------------------------------------------------------\n";
  for (const DispatchMeasurement& m : ms) {
    os << m.workload;
    for (std::size_t p = m.workload.size(); p < 14; ++p) os << ' ';
    os << m.engine;
    for (std::size_t p = m.engine.size(); p < 11; ++p) os << ' ';
    std::string cols = format_double(static_cast<double>(m.instructions), 0);
    for (std::size_t p = cols.size(); p < 12; ++p) os << ' ';
    os << cols << "  ";
    cols = format_double(m.best_seconds * 1e3, 3);
    for (std::size_t p = cols.size(); p < 9; ++p) os << ' ';
    os << cols << "  ";
    cols = format_double(m.insns_per_sec / 1e6, 1);
    for (std::size_t p = cols.size(); p < 8; ++p) os << ' ';
    os << cols << "  ";
    cols = format_double(m.ns_per_insn, 3);
    for (std::size_t p = cols.size(); p < 8; ++p) os << ' ';
    os << cols << "\n";
  }
  os << "\ngeomean speedup (fast / reference): " << format_double(geomean_speedup(ms), 2)
     << "x\n";
}

}  // namespace ith::bench
