#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "opt/decision_probe.hpp"
#include "opt/optimizer.hpp"
#include "opt/pipeline.hpp"
#include "resilience/fault.hpp"
#include "runtime/interpreter.hpp"
#include "tuner/parameter_space.hpp"
#include "vm/vm.hpp"

namespace perfbench {

using namespace ith;

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double host_probe() {
  // 8 Ki pseudo-random opcodes over 12 handlers and a 256 KiB table.
  static const std::vector<std::uint8_t> code = [] {
    std::vector<std::uint8_t> c(8192);
    std::uint64_t x = 1;
    for (std::uint8_t& op : c) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      op = static_cast<std::uint8_t>((x >> 33) % 12);
    }
    return c;
  }();
  static std::vector<std::uint64_t> table(std::size_t{1} << 15);
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 15) - 1;
  std::uint64_t r0 = 1, r1 = 2, r2 = 3, r3 = 4;
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < 60; ++rep) {
    for (const std::uint8_t op : code) {
      switch (op) {
        case 0: r0 += r1; break;
        case 1: r1 ^= r2 << 1; break;
        case 2: r2 = table[r0 & kMask]; break;
        case 3: r3 += r2 * 3; break;
        case 4: table[r3 & kMask] = r1; break;
        case 5: r0 -= r3; break;
        case 6: (r1 & 1) != 0 ? ++r2 : --r3; break;
        case 7: r1 = r0 >> 3; break;
        case 8: r2 += table[(r1 * 7) & kMask]; break;
        case 9: r3 ^= r0; break;
        case 10: r0 = r0 * 5 + 1; break;
        default: r1 += r3; break;
      }
    }
  }
  const double s = seconds_since(t0);
  table[0] += r0 + r1 + r2 + r3;  // keeps the loop's results observable
  return s;
}

void Result::check(const std::string& name, bool ok, const std::string& detail) {
  for (Check& c : checks) {
    if (c.name != name) continue;
    if (c.ok && !ok) c = {name, ok, detail};
    return;
  }
  checks.push_back({name, ok, detail});
}

void Result::deterministic_value(const std::string& name, const std::string& value) {
  const auto [it, fresh] = deterministic.emplace(name, value);
  if (!fresh && it->second != value) {
    check("deterministic." + name, false, "round " + std::to_string(rounds) + " gave " + value +
                                              ", round 0 gave " + it->second);
  }
}

std::vector<wl::Workload> seeded_suite(const std::string& suite, std::uint64_t seed) {
  std::vector<wl::Workload> out = wl::make_suite(suite);
  std::uint64_t state = resilience::mix_keys(seed, 0x5eed5eedULL);
  for (std::size_t i = out.size(); i > 1; --i) {
    state = resilience::mix_keys(state, i);
    std::swap(out[i - 1], out[state % i]);
  }
  return out;
}

std::pair<std::uint64_t, std::uint64_t> guarded_runs(const tuner::SuiteEvaluator& ev) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const tuner::EvalCacheSnapshot::Entry& e : ev.snapshot().entries) {
    for (const tuner::BenchmarkResult& r : e.results) {
      ++attempted;
      if (!r.outcome.ok()) ++failed;
    }
  }
  return {attempted, failed};
}

double sum_of_step_minima(const std::vector<std::vector<double>>& rounds) {
  double sum = 0.0;
  for (std::size_t i = 0; !rounds.empty() && i < rounds.front().size(); ++i) {
    double fastest = rounds.front()[i];
    for (const std::vector<double>& r : rounds) {
      if (r.size() != rounds.front().size()) return 0.0;
      fastest = std::min(fastest, r[i]);
    }
    sum += fastest;
  }
  return sum;
}

tuner::TuneResult composed_tune(tuner::SuiteEvaluator& ev, tuner::Goal goal,
                                const ga::GaConfig& ga_config, std::vector<double>& calls,
                                Layers* layers, const std::string& prefix) {
  const bool include_hot = ev.config().scenario == vm::Scenario::kAdapt;

  // make_fitness forces the default-params baseline; run it first so its
  // cost is attributed instead of landing in the first fitness call.
  Clock::time_point t0 = Clock::now();
  ev.default_results();
  if (layers != nullptr) (*layers)[prefix + "tuner.baseline_s"] += seconds_since(t0);

  const ga::FitnessFn fitness = tuner::make_fitness(ev, goal);
  const ga::FitnessFn timed = [&](const ga::Genome& g) {
    const Clock::time_point start = Clock::now();
    if (layers == nullptr) {
      const double f = fitness(g);
      calls.push_back(seconds_since(start));
      return f;
    }
    Layers& l = *layers;
    const std::size_t seen = ev.params_seen();
    ev.signature_of(tuner::params_from_genome(g));
    const Clock::time_point probed = Clock::now();
    const bool first_probe = ev.params_seen() > seen;
    const std::uint64_t before = ev.evaluations_performed();
    const double f = fitness(g);
    const Clock::time_point done = Clock::now();
    const double probe_s = std::chrono::duration<double>(probed - start).count();
    const double eval_s = std::chrono::duration<double>(done - probed).count();
    if (first_probe) {
      l[prefix + "tuner.probe_s"] += probe_s;
      l[prefix + "tuner.probe_calls"] += 1;
    }
    const std::string kind = ev.evaluations_performed() > before ? "tuner.real" : "tuner.hit";
    l[prefix + kind + "_s"] += eval_s + (first_probe ? 0.0 : probe_s);
    l[prefix + kind + "_calls"] += 1;
    calls.push_back(std::chrono::duration<double>(done - start).count());
    return f;
  };

  ga::GeneticAlgorithm algo(tuner::inline_param_space(include_hot), timed, ga_config);
  const std::size_t first_call = calls.size();
  t0 = Clock::now();
  tuner::TuneResult result;
  result.ga = algo.run();
  const double run_s = seconds_since(t0);
  result.best = tuner::params_from_genome(result.ga.best);
  result.best_fitness = result.ga.best_fitness;
  if (layers != nullptr) {
    double in_fitness = 0.0;
    for (std::size_t i = first_call; i < calls.size(); ++i) in_fitness += calls[i];
    (*layers)[prefix + "ga.self_s"] += run_s - in_fitness;
    (*layers)[prefix + "ga.fitness_calls"] += static_cast<double>(result.ga.evaluations);
  }
  return result;
}

std::optional<std::vector<tuner::BenchmarkResult>> TimedBackend::acquire(std::uint64_t sig,
                                                                         std::uint64_t* lease) {
  const Clock::time_point t0 = Clock::now();
  auto hit = inner_.acquire(sig, lease);
  acquire_s += seconds_since(t0);
  ++acquire_calls;
  if (!hit && *lease == 0) ++degraded;
  return hit;
}

void TimedBackend::publish(std::uint64_t sig, std::uint64_t lease,
                           const std::vector<tuner::BenchmarkResult>& results) {
  const Clock::time_point t0 = Clock::now();
  inner_.publish(sig, lease, results);
  publish_s += seconds_since(t0);
  ++publish_calls;
}

namespace {

opt::PipelineDesc pipeline_of(const tuner::EvalConfig& ec) {
  return ec.vm_config.pipeline ? *ec.vm_config.pipeline
                               : opt::pipeline_from_options(ec.vm_config.opt_options);
}

vm::RunResult run_vm(const ReplayTarget& t, const tuner::EvalConfig& ec, rt::EngineKind engine) {
  heur::JikesHeuristic h(t.params);
  vm::VmConfig cfg = ec.vm_config;
  cfg.scenario = ec.scenario;
  cfg.interp_options.engine = engine;
  vm::VirtualMachine machine(t.workload->program, ec.machine, h, cfg);
  return machine.run(ec.iterations);
}

std::string stats_string(const rt::ExecStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "cycles=%llu insns=%llu calls=%llu misses=%llu exit=%lld",
                static_cast<unsigned long long>(s.cycles),
                static_cast<unsigned long long>(s.instructions),
                static_cast<unsigned long long>(s.calls),
                static_cast<unsigned long long>(s.icache_misses),
                static_cast<long long>(s.exit_value));
  return buf;
}

/// Serves every method's optimized body, compiled up front by the opt
/// replay, at line-aligned code addresses laid out the way the VM lays out
/// installs.
class ReplaySource final : public rt::CodeSource {
 public:
  ReplaySource(std::vector<std::unique_ptr<rt::CompiledMethod>> bodies,
               const rt::MachineModel& machine)
      : bodies_(std::move(bodies)) {
    std::uint64_t addr = 0x10000;
    for (auto& cm : bodies_) {
      addr = (addr + machine.icache_line_bytes - 1) / machine.icache_line_bytes *
             machine.icache_line_bytes;
      cm->code_base = addr;
      addr += static_cast<std::uint64_t>(cm->size_words()) * machine.bytes_per_word;
    }
  }

  const rt::CompiledMethod& invoke(bc::MethodId id) override {
    return *bodies_[static_cast<std::size_t>(id)];
  }

 private:
  std::vector<std::unique_ptr<rt::CompiledMethod>> bodies_;
};

/// Compiles every method of `prog` under `params` through one PassManager
/// (as a VM session would), accumulating per-pass statistics into `layers`.
std::vector<std::unique_ptr<rt::CompiledMethod>> compile_all(const bc::Program& prog,
                                                             const heur::InlineParams& params,
                                                             const tuner::EvalConfig& ec,
                                                             Layers& layers, double& inst_before,
                                                             double& inst_after) {
  heur::JikesHeuristic h(params);
  opt::PassManager pm(prog, h, opt::cold_site, pipeline_of(ec), ec.vm_config.inline_limits);
  std::vector<std::unique_ptr<rt::CompiledMethod>> bodies;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < prog.num_methods(); ++i) {
    const bc::MethodId id = static_cast<bc::MethodId>(i);
    opt::OptimizeResult res = pm.run(id);
    auto cm = std::make_unique<rt::CompiledMethod>();
    cm->body = std::move(res.body.method);
    cm->tier = rt::Tier::kOpt;
    cm->method_id = id;
    cm->origin.reserve(res.body.meta.size());
    for (const opt::InstrMeta& m : res.body.meta) cm->origin.emplace_back(m.origin_method, m.origin_pc);
    cm->finalize();
    bodies.push_back(std::move(cm));
    for (const opt::PassStat& s : res.pass_stats) {
      const std::string key = std::string("opt.pass.") + s.pass;
      layers[key + ".runs"] += static_cast<double>(s.runs);
      layers[key + ".changes"] += static_cast<double>(s.changes);
      inst_before += static_cast<double>(s.inst_before);
      inst_after += static_cast<double>(s.inst_after);
    }
  }
  layers["opt.compile_s"] += seconds_since(t0);
  return bodies;
}

}  // namespace

std::string engine_mismatch(const std::vector<ReplayTarget>& targets,
                            const tuner::EvalConfig& ec) {
  for (const ReplayTarget& t : targets) {
    const vm::RunResult fast = run_vm(t, ec, rt::EngineKind::kFast);
    const vm::RunResult ref = run_vm(t, ec, rt::EngineKind::kReference);
    if (fast.iterations.size() != ref.iterations.size()) return t.workload->name + ": iteration count";
    for (std::size_t i = 0; i < fast.iterations.size(); ++i) {
      if (!(fast.iterations[i].exec == ref.iterations[i].exec)) {
        return t.workload->name + " iteration " + std::to_string(i) + ": fast " +
               stats_string(fast.iterations[i].exec) + " vs reference " +
               stats_string(ref.iterations[i].exec);
      }
    }
  }
  return "";
}

void replay_layers(const std::vector<ReplayTarget>& targets, const tuner::EvalConfig& ec,
                   Layers& layers, Result& result) {
  double inst_before = 0.0;
  double inst_after = 0.0;
  std::uint64_t insns = 0;
  std::uint64_t probes = 0;
  std::uint64_t misses = 0;
  std::uint64_t exact = 0;
  std::uint64_t consultations = 0;
  std::uint64_t forks = 0;
  std::string oracle;
  for (const ReplayTarget& t : targets) {
    const bc::Program& prog = t.workload->program;
    compile_all(prog, heur::default_params(), ec, layers, inst_before, inst_after);
    ReplaySource source(compile_all(prog, t.params, ec, layers, inst_before, inst_after),
                        ec.machine);

    Clock::time_point t0 = Clock::now();
    opt::SignatureOptions so;
    so.adaptive = ec.scenario == vm::Scenario::kAdapt;
    const opt::SignatureResult sig =
        opt::decision_signature(prog, t.params, ec.vm_config.inline_limits, so);
    layers["opt.signature_s"] += seconds_since(t0);
    exact += sig.exact ? 1 : 0;
    consultations += sig.consultations;
    forks += sig.forks;

    const auto run_engine = [&](rt::EngineKind kind, double* seconds) {
      rt::ICache icache(ec.machine.icache_bytes, ec.machine.icache_line_bytes,
                        ec.machine.icache_assoc);
      rt::InterpreterOptions opts = ec.vm_config.interp_options;
      opts.engine = kind;
      auto engine = rt::make_engine(prog, ec.machine, source, &icache, opts);
      const Clock::time_point start = Clock::now();
      const rt::ExecStats s = engine->run();
      if (seconds != nullptr) *seconds += seconds_since(start);
      return s;
    };
    double exec_s = 0.0;
    const rt::ExecStats fast = run_engine(rt::EngineKind::kFast, &exec_s);
    const rt::ExecStats ref = run_engine(rt::EngineKind::kReference, nullptr);
    layers["runtime.exec_s"] += exec_s;
    insns += fast.instructions;
    probes += fast.icache_probes;
    misses += fast.icache_misses;
    if (oracle.empty() && !(fast == ref)) {
      oracle = t.workload->name + ": fast " + stats_string(fast) + " vs reference " +
               stats_string(ref);
    }

    t0 = Clock::now();
    const vm::RunResult run = run_vm(t, ec, rt::EngineKind::kFast);
    layers["vm.run_s"] += seconds_since(t0);
    layers["vm.baseline_compiles"] += static_cast<double>(run.methods_baseline_compiled);
    layers["vm.opt_compiles"] += static_cast<double>(run.methods_opt_compiled);
    layers["vm.recompilations"] += static_cast<double>(run.recompilations);
    layers["vm.code_words"] += static_cast<double>(run.code_words_emitted);
  }
  layers["opt.ir_ratio"] = inst_before > 0 ? inst_after / inst_before : 0.0;
  layers["opt.signature_exact"] = static_cast<double>(exact);
  layers["opt.signature_consultations"] = static_cast<double>(consultations);
  layers["opt.signature_forks"] = static_cast<double>(forks);
  layers["runtime.insns"] = static_cast<double>(insns);
  layers["runtime.insns_per_s"] =
      layers["runtime.exec_s"] > 0 ? static_cast<double>(insns) / layers["runtime.exec_s"] : 0.0;
  layers["runtime.icache_miss_ratio"] =
      probes > 0 ? static_cast<double>(misses) / static_cast<double>(probes) : 0.0;
  result.check("runtime_oracle", oracle.empty(),
                oracle.empty() ? "replayed bodies: fast engine == reference engine" : oracle);
}

}  // namespace perfbench
