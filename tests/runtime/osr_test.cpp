// On-stack replacement tests: frame transfer at loop headers, its safety
// guards, and the end-to-end effect through the VM.
#include <gtest/gtest.h>

#include "bytecode/builder.hpp"
#include "heuristics/heuristic.hpp"
#include "opt/pipeline.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/machine.hpp"
#include "support/error.hpp"
#include "testing.hpp"
#include "vm/vm.hpp"
#include "workloads/suite.hpp"

namespace ith::rt {
namespace {

/// A code source that serves the baseline body until `flip_after` back
/// edges, then offers an optimized body via the OSR hook.
class FlippingSource final : public CodeSource {
 public:
  FlippingSource(const bc::Program& prog, std::uint64_t flip_after)
      : prog_(prog), flip_after_(flip_after) {
    // Baseline versions with identity origins.
    for (std::size_t i = 0; i < prog.num_methods(); ++i) {
      auto cm = std::make_unique<CompiledMethod>();
      cm->body = prog.method(static_cast<bc::MethodId>(i));
      cm->tier = Tier::kBaseline;
      cm->method_id = static_cast<bc::MethodId>(i);
      cm->code_base = 0x1000 + 0x10000 * i;
      cm->origin.resize(cm->body.size());
      for (std::size_t pc = 0; pc < cm->body.size(); ++pc) {
        cm->origin[pc] = {static_cast<bc::MethodId>(i), static_cast<std::int32_t>(pc)};
      }
      cm->finalize();
      baseline_.push_back(std::move(cm));
    }
    // Fully optimized versions (always-inline) with provenance.
    heur::AlwaysInlineHeuristic h;
    opt::PassManager pm(prog, h);
    for (std::size_t i = 0; i < prog.num_methods(); ++i) {
      opt::OptimizeResult r = pm.run(static_cast<bc::MethodId>(i));
      auto cm = std::make_unique<CompiledMethod>();
      cm->body = std::move(r.body.method);
      cm->tier = Tier::kOpt;
      cm->method_id = static_cast<bc::MethodId>(i);
      cm->code_base = 0x900000 + 0x10000 * i;
      for (const opt::InstrMeta& m : r.body.meta) {
        cm->origin.emplace_back(m.origin_method, m.origin_pc);
      }
      cm->finalize();
      optimized_.push_back(std::move(cm));
    }
  }

  const CompiledMethod& invoke(bc::MethodId id) override {
    return *baseline_[static_cast<std::size_t>(id)];
  }
  void on_back_edge(bc::MethodId) override { ++back_edges_; }
  const CompiledMethod* osr_replacement(const CompiledMethod& current, std::size_t) override {
    if (back_edges_ < flip_after_) return nullptr;
    return optimized_[static_cast<std::size_t>(current.method_id)].get();
  }

  std::uint64_t back_edges_ = 0;

 private:
  const bc::Program& prog_;
  std::uint64_t flip_after_;
  std::vector<std::unique_ptr<CompiledMethod>> baseline_;
  std::vector<std::unique_ptr<CompiledMethod>> optimized_;
};

TEST(Osr, TransfersAtLoopHeaderAndPreservesSemantics) {
  const bc::Program p = ith::test::make_loop_program(200);
  const MachineModel machine = pentium4_model();
  FlippingSource source(p, /*flip_after=*/20);
  Interpreter interp(p, machine, source, nullptr);
  const ExecStats r = interp.run();
  EXPECT_EQ(r.osr_transitions, 1u);
  EXPECT_EQ(r.exit_value, ith::test::run_exit_value(p));
}

TEST(Osr, SpeedsUpTheRemainingIterations) {
  const bc::Program p = ith::test::make_loop_program(500);
  const MachineModel machine = pentium4_model();
  FlippingSource early(p, 10);
  Interpreter fast(p, machine, early, nullptr);
  const std::uint64_t with_osr = fast.run().cycles;

  FlippingSource never(p, 1'000'000);
  Interpreter slow(p, machine, never, nullptr);
  const std::uint64_t without = slow.run().cycles;
  EXPECT_LT(with_osr, without)
      << "transferring into optimized code mid-loop must cut the remaining cost";
}

TEST(Osr, DeclinedByDefaultHook) {
  const bc::Program p = ith::test::make_loop_program(100);
  const MachineModel machine = pentium4_model();
  ith::test::IdentitySource source(p, Tier::kBaseline);
  Interpreter interp(p, machine, source, nullptr);
  EXPECT_EQ(interp.run().osr_transitions, 0u);
}

TEST(Osr, VmDisabledByDefault) {
  const bc::Program p = ith::test::make_loop_program(3000);
  heur::JikesHeuristic h;
  vm::VmConfig cfg;
  cfg.scenario = vm::Scenario::kAdapt;
  cfg.hot_method_threshold = 50;
  vm::VirtualMachine m(p, pentium4_model(), h, cfg);
  const vm::RunResult r = m.run(2);
  EXPECT_GT(r.recompilations, 0u);
  EXPECT_EQ(r.iterations[0].exec.osr_transitions, 0u);
}

TEST(Osr, VmTransfersWhenEnabledAndImprovesIterationOne) {
  const bc::Program p = ith::test::make_loop_program(3000);
  auto run_with = [&p](bool osr) {
    heur::JikesHeuristic h;
    vm::VmConfig cfg;
    cfg.scenario = vm::Scenario::kAdapt;
    cfg.hot_method_threshold = 50;
    cfg.enable_osr = osr;
    vm::VirtualMachine m(p, pentium4_model(), h, cfg);
    return m.run(2);
  };
  const vm::RunResult off = run_with(false);
  const vm::RunResult on = run_with(true);
  EXPECT_GT(on.iterations[0].exec.osr_transitions, 0u);
  EXPECT_LT(on.iterations[0].exec.cycles, off.iterations[0].exec.cycles)
      << "iteration 1 should stop paying baseline speed after the transfer";
  EXPECT_EQ(on.iterations[0].exec.exit_value, off.iterations[0].exec.exit_value);
}

TEST(Osr, WorkloadSemanticsUnchangedWithOsr) {
  for (const char* name : {"compress", "jess", "raytrace"}) {
    const wl::Workload w = wl::make_workload(name);
    auto exit_with = [&w](bool osr) {
      heur::JikesHeuristic h;
      vm::VmConfig cfg;
      cfg.scenario = vm::Scenario::kAdapt;
      cfg.enable_osr = osr;
      vm::VirtualMachine m(w.program, pentium4_model(), h, cfg);
      return m.run(2).iterations[0].exec.exit_value;
    };
    EXPECT_EQ(exit_with(true), exit_with(false)) << name;
  }
}

}  // namespace
}  // namespace ith::rt
