// End-to-end trace accounting: run the VM with a MemorySink attached and
// check the core observability invariant — the simulated-cycle compile
// spans in the trace sum exactly to RunResult::compile_cycles_all — plus
// the presence and consistency of the tiering events around them.
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <variant>

#include <gtest/gtest.h>

#include "heuristics/heuristic.hpp"
#include "obs/context.hpp"
#include "obs/sink.hpp"
#include "testing.hpp"
#include "vm/vm.hpp"

namespace ith::vm {
namespace {

bool is_compile_span(const obs::Event& e) {
  return e.phase == obs::Phase::kComplete && e.cat == obs::Category::kCompile;
}

struct TracedRun {
  RunResult result;
  std::vector<obs::Event> events;
};

TracedRun traced_adapt_run(std::uint32_t categories = obs::kAllCategories) {
  obs::MemorySink sink;
  obs::Context ctx(&sink, categories);
  const bc::Program p = ith::test::make_loop_program(500);
  heur::JikesHeuristic h;
  VmConfig cfg;
  cfg.scenario = Scenario::kAdapt;
  cfg.hot_method_threshold = 50;
  cfg.hot_site_threshold = 40;
  cfg.rehot_multiplier = 4;
  cfg.obs = &ctx;
  VirtualMachine m(p, rt::pentium4_model(), h, cfg);
  TracedRun out{m.run(2), {}};
  out.events = sink.events();
  return out;
}

TEST(VmTrace, CompileSpanDurationsSumToCompileCyclesAll) {
  const TracedRun run = traced_adapt_run();
  ASSERT_GT(run.result.compile_cycles_all, 0u);
  std::uint64_t traced = 0;
  std::size_t spans = 0;
  for (const obs::Event& e : run.events) {
    if (!is_compile_span(e)) continue;
    EXPECT_EQ(e.domain, obs::Domain::kSim);
    traced += e.dur;
    ++spans;
  }
  EXPECT_EQ(traced, run.result.compile_cycles_all);
  // Every compilation the VM counted has a span (methods_opt_compiled
  // already includes recompilations — it counts compile_opt invocations).
  EXPECT_EQ(spans, run.result.methods_baseline_compiled + run.result.methods_opt_compiled);
}

TEST(VmTrace, TieringEventsArePresentOnAHotRun) {
  const TracedRun run = traced_adapt_run();
  ASSERT_GT(run.result.recompilations, 0u) << "workload must get hot for this test";
  std::size_t promotes = 0, hot_sites = 0, installs = 0, iterations = 0;
  for (const obs::Event& e : run.events) {
    if (std::strcmp(e.name, "vm.promote") == 0) ++promotes;
    if (std::strcmp(e.name, "vm.hot_site") == 0) ++hot_sites;
    if (std::strcmp(e.name, "vm.install") == 0) ++installs;
    if (std::strcmp(e.name, "vm.iteration") == 0) ++iterations;
  }
  EXPECT_EQ(promotes, run.result.recompilations);
  EXPECT_GT(hot_sites, 0u);
  EXPECT_EQ(iterations, run.result.iterations.size());
  // Every compile pairs with exactly one install.
  EXPECT_EQ(installs, run.result.methods_baseline_compiled + run.result.methods_opt_compiled);
}

TEST(VmTrace, IterationSpansTileTheSimTimeline) {
  // kVm-only trace: compile spans are masked, yet the sim-cycle cursor must
  // keep advancing through compilation so iteration spans stay consistent.
  const TracedRun run = traced_adapt_run(static_cast<std::uint32_t>(obs::Category::kVm));
  std::uint64_t prev_end = 0;
  std::uint64_t exec = 0;
  std::size_t n = 0;
  for (const obs::Event& e : run.events) {
    if (std::strcmp(e.name, "vm.iteration") != 0) continue;
    EXPECT_EQ(e.phase, obs::Phase::kComplete);
    EXPECT_GE(e.ts, prev_end) << "iteration spans must not overlap";
    prev_end = e.ts + e.dur;
    ++n;
    for (const obs::Arg& a : e.args) {
      if (a.key == "exec_cycles") exec += static_cast<std::uint64_t>(std::get<std::int64_t>(a.value));
    }
  }
  ASSERT_EQ(n, run.result.iterations.size());
  // The timeline ends at total exec + compile cycles...
  std::uint64_t exec_all = 0;
  for (const IterationStats& it : run.result.iterations) exec_all += it.exec.cycles;
  EXPECT_EQ(prev_end, exec_all + run.result.compile_cycles_all);
  // ...and the per-span exec_cycles args reproduce the exec total.
  EXPECT_EQ(exec, exec_all);
}

// The runtime publishes no engine-specific counter family: a traced run
// publishes the same counters, with the same values, on either engine.
TEST(VmTrace, FusionCountersPublishedOnFusedRun) {
  std::map<std::string, std::int64_t> counters[2];
  int idx = 0;
  for (const rt::EngineKind engine : {rt::EngineKind::kFast, rt::EngineKind::kReference}) {
    obs::MemorySink sink;
    obs::Context ctx(&sink);
    const bc::Program p = ith::test::make_loop_program(500);
    heur::JikesHeuristic h;
    VmConfig cfg;
    cfg.scenario = Scenario::kAdapt;
    cfg.hot_method_threshold = 50;
    cfg.hot_site_threshold = 40;
    cfg.rehot_multiplier = 4;
    cfg.interp_options.engine = engine;
    cfg.obs = &ctx;
    VirtualMachine m(p, rt::pentium4_model(), h, cfg);
    m.run(2);
    for (const obs::Event& e : sink.events()) {
      if (e.phase != obs::Phase::kCounter) continue;
      for (const obs::Arg& a : e.args) {
        if (const auto* v = std::get_if<std::int64_t>(&a.value)) counters[idx][a.key] += *v;
      }
    }
    ++idx;
  }
  EXPECT_FALSE(counters[0].empty()) << "traced run published no counters";
  EXPECT_EQ(counters[0], counters[1]) << "fast and reference runs published different counters";
}

TEST(VmTrace, NullContextRunMatchesTracedRun) {
  // Tracing must be observational only: identical cycle accounting with and
  // without a context attached.
  const TracedRun traced = traced_adapt_run();
  const bc::Program p = ith::test::make_loop_program(500);
  heur::JikesHeuristic h;
  VmConfig cfg;
  cfg.scenario = Scenario::kAdapt;
  cfg.hot_method_threshold = 50;
  cfg.hot_site_threshold = 40;
  cfg.rehot_multiplier = 4;
  VirtualMachine m(p, rt::pentium4_model(), h, cfg);
  const RunResult plain = m.run(2);
  EXPECT_EQ(plain.total_cycles, traced.result.total_cycles);
  EXPECT_EQ(plain.running_cycles, traced.result.running_cycles);
  EXPECT_EQ(plain.compile_cycles_all, traced.result.compile_cycles_all);
  EXPECT_EQ(plain.recompilations, traced.result.recompilations);
}

}  // namespace
}  // namespace ith::vm
