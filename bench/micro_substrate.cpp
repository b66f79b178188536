// Substrate microbenchmarks (google-benchmark): throughput of the pieces
// the tuning loop is built from — interpreter, inliner, optimizer pipeline,
// I-cache probes, whole-suite evaluation, and GA machinery.

#include <benchmark/benchmark.h>

#include "bytecode/size_estimator.hpp"
#include "bytecode/verifier.hpp"
#include "ga/ga.hpp"
#include "heuristics/heuristic.hpp"
#include "opt/optimizer.hpp"
#include "runtime/icache.hpp"
#include "runtime/interpreter.hpp"
#include "support/rng.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/parameter_space.hpp"
#include "vm/vm.hpp"
#include "workloads/suite.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace ith;

// A plain identity code source for raw interpreter throughput.
class RawSource final : public rt::CodeSource {
 public:
  explicit RawSource(const bc::Program& prog) : prog_(prog), compiled_(prog.num_methods()) {}
  const rt::CompiledMethod& invoke(bc::MethodId id) override {
    auto& slot = compiled_[static_cast<std::size_t>(id)];
    if (!slot) {
      slot = std::make_unique<rt::CompiledMethod>();
      slot->body = prog_.method(id);
      slot->tier = rt::Tier::kOpt;
      slot->method_id = id;
      slot->code_base = 0x1000 + 0x10000 * static_cast<std::uint64_t>(id);
      slot->finalize();
    }
    return *slot;
  }

 private:
  const bc::Program& prog_;
  std::vector<std::unique_ptr<rt::CompiledMethod>> compiled_;
};

void BM_InterpreterThroughput(benchmark::State& state) {
  const wl::Workload w = wl::make_workload("compress");
  const rt::MachineModel machine = rt::pentium4_model();
  RawSource source(w.program);
  rt::Interpreter interp(w.program, machine, source, nullptr);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    interp.reset_globals();
    const rt::ExecStats r = interp.run();
    instructions += r.instructions;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.counters["bc_instr/s"] = benchmark::Counter(static_cast<double>(instructions),
                                                    benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput);

void BM_InterpreterWithICache(benchmark::State& state) {
  const wl::Workload w = wl::make_workload("compress");
  const rt::MachineModel machine = rt::pentium4_model();
  RawSource source(w.program);
  rt::ICache icache(machine.icache_bytes, machine.icache_line_bytes, machine.icache_assoc);
  rt::Interpreter interp(w.program, machine, source, &icache);
  for (auto _ : state) {
    interp.reset_globals();
    benchmark::DoNotOptimize(interp.run().cycles);
  }
}
BENCHMARK(BM_InterpreterWithICache);

void BM_ICacheProbe(benchmark::State& state) {
  rt::ICache cache(8192, 64, 4);
  Pcg32 rng(1);
  std::vector<std::uint64_t> addrs(4096);
  for (auto& a : addrs) a = static_cast<std::uint64_t>(rng.range(0, 1 << 20));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.probe(addrs[i++ & 4095]));
  }
}
BENCHMARK(BM_ICacheProbe);

void BM_InlinerOnWorkload(benchmark::State& state) {
  const wl::Workload w = wl::make_workload("jess");
  heur::JikesHeuristic h;
  const opt::Inliner inliner(w.program, h);
  for (auto _ : state) {
    for (std::size_t m = 0; m < w.program.num_methods(); ++m) {
      benchmark::DoNotOptimize(inliner.run(static_cast<bc::MethodId>(m)).method.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.program.num_methods()));
}
BENCHMARK(BM_InlinerOnWorkload);

void BM_OptimizerPipeline(benchmark::State& state) {
  const wl::Workload w = wl::make_workload("jess");
  heur::JikesHeuristic h;
  const opt::Optimizer optimizer(w.program, h);
  for (auto _ : state) {
    for (std::size_t m = 0; m < w.program.num_methods(); ++m) {
      benchmark::DoNotOptimize(optimizer.optimize(static_cast<bc::MethodId>(m)).body.method.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.program.num_methods()));
}
BENCHMARK(BM_OptimizerPipeline);

void BM_VmFullRun(benchmark::State& state) {
  const wl::Workload w = wl::make_workload("raytrace");
  const rt::MachineModel machine = rt::pentium4_model();
  for (auto _ : state) {
    heur::JikesHeuristic h;
    vm::VirtualMachine m(w.program, machine, h, vm::VmConfig{});
    benchmark::DoNotOptimize(m.run(2).total_cycles);
  }
}
BENCHMARK(BM_VmFullRun);

void BM_SuiteEvaluation(benchmark::State& state) {
  tuner::EvalConfig cfg;
  cfg.scenario = vm::Scenario::kOpt;
  for (auto _ : state) {
    state.PauseTiming();
    tuner::SuiteEvaluator eval(wl::make_suite("specjvm98"), cfg);  // cold cache each round
    state.ResumeTiming();
    benchmark::DoNotOptimize(eval.evaluate(heur::default_params())->size());
  }
}
BENCHMARK(BM_SuiteEvaluation)->Unit(benchmark::kMillisecond);

void BM_WorkloadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl::make_workload("pseudojbb").program.num_methods());
  }
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

void BM_GaGenerationStep(benchmark::State& state) {
  // Cheap synthetic fitness isolates the GA's own bookkeeping cost.
  const ga::GenomeSpace space = tuner::inline_param_space(true);
  auto fitness = [](const ga::Genome& g) {
    double s = 0;
    for (int v : g) s += v * 0.001;
    return s;
  };
  for (auto _ : state) {
    ga::GaConfig cfg;
    cfg.generations = 10;
    cfg.memoize = false;
    ga::GeneticAlgorithm algo(space, fitness, cfg);
    benchmark::DoNotOptimize(algo.run().best_fitness);
  }
}
BENCHMARK(BM_GaGenerationStep);

void BM_Verifier(benchmark::State& state) {
  const wl::Workload w = wl::make_workload("antlr");
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::verify_program(w.program).size());
  }
}
BENCHMARK(BM_Verifier)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
