// Resilience layer: budget enforcement/classification, deterministic fault
// injection, checkpoint file integrity, and sink fault tolerance.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codec/samples.hpp"
#include "heuristics/heuristic.hpp"
#include "obs/sink.hpp"
#include "resilience/budget.hpp"
#include "resilience/chaos_sink.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault.hpp"
#include "resilience/guard.hpp"
#include "runtime/machine.hpp"
#include "support/error.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

// ---------------------------------------------------------------------------
// Guarded runs: every budget axis classifies as itself, never as a throw.

struct GuardedFixture {
  wl::Workload workload = wl::make_workload("db");
  rt::MachineModel machine = rt::pentium4_model();
  heur::JikesHeuristic heuristic{heur::default_params()};

  resilience::GuardedRun run(const resilience::RunBudget& budget) {
    vm::VmConfig cfg;
    cfg.budget = budget;
    return resilience::guarded_run(workload.program, machine, heuristic, cfg, 2);
  }
};

TEST(GuardedRun, UnlimitedBudgetIsOk) {
  GuardedFixture f;
  const resilience::GuardedRun gr = f.run({});
  EXPECT_TRUE(gr.outcome.ok());
  EXPECT_EQ(gr.outcome.to_string(), "ok");
  EXPECT_GT(gr.result.total_cycles, 0u);
}

TEST(GuardedRun, SimCycleBudgetClassifies) {
  GuardedFixture f;
  resilience::RunBudget b;
  b.max_sim_cycles = 1000;
  const resilience::GuardedRun gr = f.run(b);
  EXPECT_EQ(gr.outcome.kind, resilience::OutcomeKind::kBudgetExceeded);
  EXPECT_EQ(gr.outcome.budget, resilience::BudgetKind::kSimCycles);
  EXPECT_EQ(gr.outcome.to_string(), "budget-exceeded(sim-cycles)");
}

TEST(GuardedRun, CompileCycleBudgetClassifies) {
  GuardedFixture f;
  resilience::RunBudget b;
  b.max_compile_cycles = 1;
  const resilience::GuardedRun gr = f.run(b);
  EXPECT_EQ(gr.outcome.kind, resilience::OutcomeKind::kBudgetExceeded);
  EXPECT_EQ(gr.outcome.budget, resilience::BudgetKind::kCompileCycles);
}

TEST(GuardedRun, InstructionBudgetClassifies) {
  GuardedFixture f;
  resilience::RunBudget b;
  b.max_instructions = 64;
  const resilience::GuardedRun gr = f.run(b);
  EXPECT_EQ(gr.outcome.kind, resilience::OutcomeKind::kBudgetExceeded);
  EXPECT_EQ(gr.outcome.budget, resilience::BudgetKind::kInstructions);
}

TEST(GuardedRun, FrameDepthBudgetClassifies) {
  GuardedFixture f;
  resilience::RunBudget b;
  b.max_frame_depth = 1;  // any call beyond main trips
  const resilience::GuardedRun gr = f.run(b);
  EXPECT_EQ(gr.outcome.kind, resilience::OutcomeKind::kBudgetExceeded);
  EXPECT_EQ(gr.outcome.budget, resilience::BudgetKind::kFrameDepth);
}

TEST(GuardedRun, ArenaBudgetClassifies) {
  GuardedFixture f;
  resilience::RunBudget b;
  b.max_arena_words = 4;
  const resilience::GuardedRun gr = f.run(b);
  EXPECT_EQ(gr.outcome.kind, resilience::OutcomeKind::kBudgetExceeded);
  EXPECT_EQ(gr.outcome.budget, resilience::BudgetKind::kArena);
}

TEST(GuardedRun, InjectedVmTrapClassifies) {
  GuardedFixture f;
  resilience::FaultPlan plan;
  plan.rate = 1.0;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kVmTrap);
  vm::VmConfig cfg;
  cfg.faults = &plan;
  const resilience::GuardedRun gr =
      resilience::guarded_run(f.workload.program, f.machine, f.heuristic, cfg, 2);
  EXPECT_EQ(gr.outcome.kind, resilience::OutcomeKind::kTrap);
  EXPECT_EQ(gr.outcome.trap, resilience::TrapKind::kInjected);
  EXPECT_EQ(gr.outcome.to_string(), "trap(injected)");
}

// The classification the fuzz oracle's budget-diff tier relies on: both
// engines must agree on the axis, not the detail text.
TEST(GuardedRun, SameClassificationIgnoresDetail) {
  const auto a = resilience::EvalOutcome::budget_exceeded(resilience::BudgetKind::kInstructions,
                                                          "engine A text");
  const auto b = resilience::EvalOutcome::budget_exceeded(resilience::BudgetKind::kInstructions,
                                                          "engine B text");
  const auto c = resilience::EvalOutcome::budget_exceeded(resilience::BudgetKind::kFrameDepth, "");
  EXPECT_TRUE(a.same_classification(b));
  EXPECT_FALSE(a.same_classification(c));
  EXPECT_FALSE(a.same_classification(resilience::EvalOutcome::make_ok()));
}

// ---------------------------------------------------------------------------
// Fault plans: pure-hash decisions, site parsing.

TEST(FaultPlan, DecisionsArePureAndSeeded) {
  resilience::FaultPlan plan;
  plan.seed = 42;
  plan.rate = 0.5;
  plan.sites = resilience::FaultPlan::parse_sites("all");
  int fired = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const bool a = plan.should_inject(resilience::FaultSite::kVmTrap, key);
    const bool b = plan.should_inject(resilience::FaultSite::kVmTrap, key);
    EXPECT_EQ(a, b);  // pure function of (seed, site, key)
    fired += a ? 1 : 0;
  }
  // rate 0.5 over 1000 keys: comfortably between 400 and 600.
  EXPECT_GT(fired, 400);
  EXPECT_LT(fired, 600);

  resilience::FaultPlan other = plan;
  other.seed = 43;
  int differs = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    differs += plan.should_inject(resilience::FaultSite::kVmTrap, key) !=
                       other.should_inject(resilience::FaultSite::kVmTrap, key)
                   ? 1
                   : 0;
  }
  EXPECT_GT(differs, 0);  // a different seed is a different plan
}

TEST(FaultPlan, RateZeroAndDisabledSitesNeverFire) {
  resilience::FaultPlan plan;  // default: rate 0, no sites
  EXPECT_FALSE(plan.armed());
  EXPECT_FALSE(plan.should_inject(resilience::FaultSite::kVmTrap, 7));

  plan.rate = 1.0;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kSink);
  EXPECT_TRUE(plan.armed());
  EXPECT_FALSE(plan.should_inject(resilience::FaultSite::kVmTrap, 7));  // site not armed
  EXPECT_TRUE(plan.should_inject(resilience::FaultSite::kSink, 7));     // rate 1, armed
}

TEST(FaultPlan, ParseSites) {
  using resilience::FaultPlan;
  using resilience::FaultSite;
  EXPECT_EQ(FaultPlan::parse_sites("vm,eval"),
            FaultPlan::site_bit(FaultSite::kVmTrap) | FaultPlan::site_bit(FaultSite::kEvaluator));
  // "all" spans both planes: the four eval sites and the five kSvc*
  // service sites; "svc" is the service plane alone.
  EXPECT_EQ(FaultPlan::parse_sites("vm,compile,eval,sink"), FaultPlan::eval_sites());
  EXPECT_EQ(FaultPlan::parse_sites("accept,read,write,dispatch,snapshot"),
            FaultPlan::service_sites());
  EXPECT_EQ(FaultPlan::parse_sites("svc"), FaultPlan::service_sites());
  EXPECT_EQ(FaultPlan::parse_sites("all"),
            FaultPlan::eval_sites() | FaultPlan::service_sites());
  EXPECT_EQ(FaultPlan::parse_sites(""), 0u);
  EXPECT_THROW(FaultPlan::parse_sites("vm,bogus"), Error);
}

// ---------------------------------------------------------------------------
// Checkpoint file format: roundtrip and the loader's own diagnostics
// (truncation and bit flips are swept in tests/codec/golden_test.cpp).

class CheckpointFile : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "resilience_cp_" + info->name() + ".bin";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CheckpointFile, Roundtrip) {
  const resilience::GaCheckpoint cp = sample_checkpoint();
  resilience::save_checkpoint(path_, cp);
  const resilience::GaCheckpoint got = resilience::load_checkpoint(path_);
  EXPECT_EQ(got.fingerprint, cp.fingerprint);
  EXPECT_EQ(got.generation, cp.generation);
  EXPECT_EQ(got.rng_state, cp.rng_state);
  EXPECT_EQ(got.rng_inc, cp.rng_inc);
  EXPECT_EQ(got.evaluations, cp.evaluations);
  EXPECT_EQ(got.cache_hits, cp.cache_hits);
  EXPECT_EQ(got.best_ever, cp.best_ever);
  EXPECT_EQ(got.best_genome, cp.best_genome);
  EXPECT_EQ(got.stale, cp.stale);
  EXPECT_EQ(got.population, cp.population);
  EXPECT_EQ(got.fitness, cp.fitness);
  EXPECT_EQ(got.cache, cp.cache);
  EXPECT_EQ(got.quarantine, cp.quarantine);
  ASSERT_EQ(got.history.size(), 1u);
  EXPECT_EQ(got.history[0].generation, 7);
  EXPECT_EQ(got.history[0].best, 0.875);
  EXPECT_EQ(got.history[0].best_genome, cp.best_genome);
}

TEST_F(CheckpointFile, MissingFileRejected) {
  EXPECT_THROW(resilience::load_checkpoint(path_), Error);
}

TEST_F(CheckpointFile, BadMagicRejected) {
  std::ofstream out(path_, std::ios::binary);
  out << "definitely not a checkpoint, but comfortably longer than a header";
  out.close();
  try {
    resilience::load_checkpoint(path_);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos) << e.what();
  }
}

TEST_F(CheckpointFile, TrailingGarbageRejected) {
  resilience::save_checkpoint(path_, sample_checkpoint());
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  out << "extra";
  out.close();
  try {
    resilience::load_checkpoint(path_);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Sink fault tolerance.

obs::Event make_event(const char* name) {
  obs::Event e;
  e.name = name;
  return e;
}

TEST(SinkResilience, JsonlSinkDegradesOnStreamFailure) {
  std::ostringstream os;
  {
    obs::JsonlSink sink(os, /*buffer_bytes=*/1);  // spill on every write
    sink.write(make_event("first"));
    EXPECT_TRUE(sink.ok());
    os.setstate(std::ios::badbit);  // the "disk" goes away
    sink.write(make_event("second"));
    sink.flush();
    EXPECT_FALSE(sink.ok());
    os.clear();  // stream recovers, but the sink stays latched off
    sink.write(make_event("third"));
    sink.flush();
    EXPECT_FALSE(sink.ok());
  }
  EXPECT_NE(os.str().find("first"), std::string::npos);
  EXPECT_EQ(os.str().find("third"), std::string::npos);
}

TEST(SinkResilience, ChaosSinkDropsDeterministically) {
  resilience::FaultPlan plan;
  plan.seed = 5;
  plan.rate = 0.5;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kSink);

  const auto run_once = [&plan] {
    obs::MemorySink memory;
    resilience::ChaosSink chaos(memory, plan);
    for (int i = 0; i < 100; ++i) chaos.write(make_event("e"));
    return std::pair<std::size_t, std::uint64_t>(memory.size(), chaos.dropped());
  };
  const auto [kept_a, dropped_a] = run_once();
  const auto [kept_b, dropped_b] = run_once();
  EXPECT_EQ(kept_a, kept_b);  // keyed by sequence number: replayable
  EXPECT_EQ(dropped_a, dropped_b);
  EXPECT_EQ(kept_a + dropped_a, 100u);
  EXPECT_GT(dropped_a, 0u);
  EXPECT_GT(kept_a, 0u);

  plan.rate = 0.0;
  obs::MemorySink memory;
  resilience::ChaosSink quiet(memory, plan);
  for (int i = 0; i < 10; ++i) quiet.write(make_event("e"));
  EXPECT_EQ(memory.size(), 10u);
  EXPECT_EQ(quiet.dropped(), 0u);
}

}  // namespace
}  // namespace ith
