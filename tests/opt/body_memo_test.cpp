// BodyMemo: compact entries (the code in a variable-length encoding) that
// expand back to exactly what PassManager built, exact keys,
// least-recently-used eviction under the byte budget, and VMs that share
// one memo — across runs and across threads — producing the same RunResult
// as VMs that run every pass themselves.
#include "opt/body_memo.hpp"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bytecode/serializer.hpp"
#include "heuristics/heuristic.hpp"
#include "support/error.hpp"
#include "testing.hpp"
#include "vm/vm.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

using opt::BodyMemo;

const vm::VmConfig kVm{};
const opt::PipelineDesc kPipeline = kVm.effective_pipeline();

heur::InlineParams wide_params() {
  heur::InlineParams p = heur::default_params();
  p.callee_max_size = 200;
  p.max_inline_depth = 8;
  p.caller_max_size = 4000;
  p.hot_callee_max_size = 400;
  return p;
}

BodyMemo::Key key(int program, bc::MethodId method, std::string verdicts) {
  return BodyMemo::Key{program, method, std::move(verdicts)};
}

TEST(BodyMemo, EntriesExpandToThePassManagerOutput) {
  std::size_t insns = 0;
  std::size_t runs = 0;
  std::size_t code_bytes = 0;
  for (const wl::Workload& w : wl::make_suite("specjvm98")) {
    BodyMemo memo({&w.program}, kPipeline, kVm.inline_limits);
    const heur::JikesHeuristic h(wide_params());
    opt::PassManager pm(w.program, h, opt::cold_site, kPipeline, kVm.inline_limits);
    const opt::DecisionProbe probe(memo.facts(0), h, opt::cold_site, kVm.inline_limits);
    opt::VerdictTrace verdicts;
    for (bc::MethodId id = 0; id < static_cast<bc::MethodId>(w.program.num_methods()); ++id) {
      SCOPED_TRACE(w.name + ": " + w.program.method(id).name());
      probe.probe_method(id, verdicts);
      const BodyMemo::Key k = key(0, id, opt::verdict_bytes(verdicts.decisions));
      const opt::OptimizeResult result = pm.run(id, nullptr, &verdicts);
      ASSERT_EQ(memo.find(k), nullptr);
      memo.insert(k, result);
      const auto body = memo.find(k);
      ASSERT_NE(body, nullptr);
      EXPECT_EQ(body->decode(), result.body.method.code());
      EXPECT_EQ(body->num_locals, result.body.method.num_locals());
      EXPECT_TRUE(body->stats == result.stats);
      const auto origins = body->expand_origins();
      ASSERT_EQ(origins.size(), result.body.meta.size());
      for (std::size_t pc = 0; pc < origins.size(); ++pc) {
        EXPECT_EQ(origins[pc].first, result.body.meta[pc].origin_method) << "pc " << pc;
        EXPECT_EQ(origins[pc].second, result.body.meta[pc].origin_pc) << "pc " << pc;
      }
      insns += origins.size();
      runs += body->origins.size();
      code_bytes += body->code.size();
    }
  }
  // Provenance is stored as runs, not one pair per instruction, and the
  // code in under 2 bytes an instruction, not sizeof(bc::Instruction).
  EXPECT_LT(runs * 4, insns);
  EXPECT_LT(code_bytes, 2 * insns);
}

TEST(BodyMemo, EntriesRoundTripEveryOpcodeOperandAndOrigin) {
  // One body holding every opcode with `a` at the int32 extremes, -1 and 0
  // (once with a `b` its opcode does not use), a call of every argument
  // count the parser accepts, and provenance as the inliner leaves it:
  // caller runs, inlined argument stores with no origin (-1, -1), a spliced
  // callee and synthetic instructions that keep their method.
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  std::vector<bc::Instruction> code;
  for (int op = 0; op < bc::kNumOps; ++op) {
    for (const std::int32_t a : {kMin, -1, 0, kMax}) {
      code.push_back({static_cast<bc::Op>(op), a, 0});
      code.push_back({static_cast<bc::Op>(op), a, a});
    }
  }
  for (std::int32_t argc = 0; argc <= bc::kMaxLocals; ++argc) {
    code.push_back({bc::Op::kCall, argc % 5, argc});
  }
  const std::vector<std::pair<bc::MethodId, std::int32_t>> pattern = {
      {0, 0}, {0, 1}, {-1, -1}, {-1, -1}, {3, 0}, {3, 1}, {3, 2}, {-1, -1},
      {0, 2}, {0, 3}, {0, -1},  {0, -1},  {0, 4}, {2, 7}, {2, 6}, {-1, -1}};
  opt::OptimizeResult result;
  result.body.method = bc::Method("synthetic", 1, 3);
  result.body.method.mutable_code() = code;
  std::vector<std::pair<bc::MethodId, std::int32_t>> origins;
  for (std::size_t i = 0; i < code.size(); ++i) {
    origins.push_back(pattern[i % pattern.size()]);
    opt::InstrMeta m;
    m.origin_method = origins.back().first;
    m.origin_pc = origins.back().second;
    result.body.meta.push_back(m);
  }
  result.stats.folds = 5;

  const bc::Program prog = test::make_loop_program();
  BodyMemo memo({&prog}, kPipeline, kVm.inline_limits);
  memo.insert(key(0, 0, ""), result);
  const auto body = memo.find(key(0, 0, ""));
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->decode(), code);
  EXPECT_EQ(body->expand_origins(), origins);
  EXPECT_EQ(body->num_locals, 3);
  EXPECT_TRUE(body->stats == result.stats);
}

TEST(BodyMemo, KeysCompareProgramMethodAndVerdictBytes) {
  const bc::Program a = test::make_loop_program();
  const bc::Program b = test::make_fib_program();
  BodyMemo memo({&a, &b}, kPipeline, kVm.inline_limits);
  EXPECT_EQ(memo.program_index(a), 0);
  EXPECT_EQ(memo.program_index(b), 1);
  EXPECT_EQ(memo.program_index(test::make_add_program()), -1);

  const heur::JikesHeuristic h;
  opt::PassManager pm(a, h);
  const opt::OptimizeResult result = pm.run(0);
  memo.insert(key(0, 0, std::string("\x00\x01", 2)), result);
  EXPECT_NE(memo.find(key(0, 0, std::string("\x00\x01", 2))), nullptr);
  EXPECT_EQ(memo.find(key(0, 0, std::string("\x01\x00", 2))), nullptr);
  EXPECT_EQ(memo.find(key(0, 0, std::string("\x00\x01\x00", 3))), nullptr);
  EXPECT_EQ(memo.find(key(0, 1, std::string("\x00\x01", 2))), nullptr);
  EXPECT_EQ(memo.find(key(1, 0, std::string("\x00\x01", 2))), nullptr);
  const BodyMemo::Stats s = memo.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(BodyMemo, EvictsLeastRecentlyUsedWithinItsBudget) {
  const bc::Program prog = test::make_loop_program();
  const heur::JikesHeuristic h;
  opt::PassManager pm(prog, h);
  const opt::OptimizeResult result = pm.run(0);

  // Every entry below stores the same body under a one-byte key, so each
  // costs what the first one does.
  std::size_t entry_bytes = 0;
  {
    BodyMemo sizing({&prog}, kPipeline, kVm.inline_limits);
    sizing.insert(key(0, 0, "a"), result);
    entry_bytes = sizing.stats().bytes;
  }
  ASSERT_GT(entry_bytes, 0u);
  BodyMemo memo({&prog}, kPipeline, kVm.inline_limits, nullptr, 3 * entry_bytes + entry_bytes / 2);
  memo.insert(key(0, 0, "a"), result);
  memo.insert(key(0, 0, "b"), result);
  memo.insert(key(0, 0, "c"), result);
  EXPECT_EQ(memo.stats().evictions, 0u);
  ASSERT_NE(memo.find(key(0, 0, "a")), nullptr);  // "b" is now least recently used
  memo.insert(key(0, 0, "d"), result);
  const BodyMemo::Stats s = memo.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_LE(s.bytes, 3 * entry_bytes + entry_bytes / 2);
  EXPECT_EQ(memo.find(key(0, 0, "b")), nullptr);
  EXPECT_NE(memo.find(key(0, 0, "a")), nullptr);
  EXPECT_NE(memo.find(key(0, 0, "c")), nullptr);
  EXPECT_NE(memo.find(key(0, 0, "d")), nullptr);

  BodyMemo none({&prog}, kPipeline, kVm.inline_limits, nullptr, entry_bytes - 1);
  none.insert(key(0, 0, "a"), result);  // larger than the whole budget: not stored
  EXPECT_EQ(none.stats().entries, 0u);
}

vm::RunResult run_vm(const bc::Program& prog, vm::Scenario scenario, BodyMemo* memo) {
  heur::JikesHeuristic h(wide_params());
  vm::VmConfig cfg = kVm;
  cfg.scenario = scenario;
  cfg.body_memo = memo;
  vm::VirtualMachine machine(prog, rt::pentium4_model(), h, cfg);
  return machine.run(2);
}

void expect_same_run(const vm::RunResult& got, const vm::RunResult& want) {
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (std::size_t i = 0; i < got.iterations.size(); ++i) {
    EXPECT_TRUE(got.iterations[i].exec == want.iterations[i].exec) << "iteration " << i;
    EXPECT_EQ(got.iterations[i].compile_cycles, want.iterations[i].compile_cycles);
    EXPECT_EQ(got.iterations[i].opt_compiles, want.iterations[i].opt_compiles);
  }
  EXPECT_EQ(got.total_cycles, want.total_cycles);
  EXPECT_EQ(got.running_cycles, want.running_cycles);
  EXPECT_EQ(got.compile_cycles_all, want.compile_cycles_all);
  EXPECT_EQ(got.recompilations, want.recompilations);
  EXPECT_EQ(got.code_words_emitted, want.code_words_emitted);
  EXPECT_TRUE(got.opt_stats == want.opt_stats);
}

TEST(BodyMemoVm, HitsInstallWhatThePassesBuild) {
  const std::vector<wl::Workload> suite = wl::make_suite("specjvm98");
  std::vector<const bc::Program*> programs;
  for (const wl::Workload& w : suite) programs.push_back(&w.program);
  for (const vm::Scenario scenario : {vm::Scenario::kOpt, vm::Scenario::kAdapt}) {
    BodyMemo memo(programs, kPipeline, kVm.inline_limits);
    for (const wl::Workload& w : suite) {
      SCOPED_TRACE(w.name + (scenario == vm::Scenario::kOpt ? " opt" : " adapt"));
      const vm::RunResult want = run_vm(w.program, scenario, nullptr);
      expect_same_run(run_vm(w.program, scenario, &memo), want);  // fills the memo
      const std::uint64_t hits = memo.stats().hits;
      expect_same_run(run_vm(w.program, scenario, &memo), want);  // served from it
      EXPECT_GT(memo.stats().hits, hits);
    }
  }
}

TEST(BodyMemoVm, FourThreadsShareOneMemo) {
  const std::vector<wl::Workload> suite = wl::make_suite("dacapo+jbb");
  std::vector<const bc::Program*> programs;
  std::vector<vm::RunResult> want;
  for (const wl::Workload& w : suite) {
    programs.push_back(&w.program);
    want.push_back(run_vm(w.program, vm::Scenario::kOpt, nullptr));
  }
  // The default budget, where every thread after the first finds its
  // bodies, then one of a few dozen bodies, where inserts and evictions race
  // with finds.
  for (const std::size_t budget : {BodyMemo::kBudgetBytes, std::size_t{32} << 10}) {
    SCOPED_TRACE("memo budget " + std::to_string(budget));
    BodyMemo memo(programs, kPipeline, kVm.inline_limits, nullptr, budget);
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<vm::RunResult>> got(kThreads,
                                                std::vector<vm::RunResult>(suite.size()));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t k = 0; k < suite.size(); ++k) {
          const std::size_t i = (k + t) % suite.size();
          got[t][i] = run_vm(suite[i].program, vm::Scenario::kOpt, &memo);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t i = 0; i < suite.size(); ++i) {
        SCOPED_TRACE("thread " + std::to_string(t) + " " + suite[i].name);
        expect_same_run(got[t][i], want[i]);
      }
    }
    if (budget == BodyMemo::kBudgetBytes) {
      EXPECT_GT(memo.stats().hits, 0u);
    } else {
      EXPECT_GT(memo.stats().evictions, 0u);
    }
  }
}

TEST(BodyMemoVm, PipelinesItCannotKeyRunWithoutIt) {
  // An inline pass inside the fixpoint group runs more than once per
  // compile, so one probe walk does not describe its verdicts.
  const bc::Program prog = test::make_loop_program();
  const opt::PipelineDesc repeated = opt::PipelineDesc::parse("fixpoint(inline,fold):2");
  ASSERT_FALSE(BodyMemo::supports(repeated));
  BodyMemo memo({&prog}, repeated, kVm.inline_limits);
  heur::JikesHeuristic h;
  vm::VmConfig cfg = kVm;
  cfg.scenario = vm::Scenario::kOpt;
  cfg.pipeline = repeated;
  cfg.body_memo = &memo;
  vm::VirtualMachine machine(prog, rt::pentium4_model(), h, cfg);
  machine.run(1);
  EXPECT_EQ(memo.stats().hits + memo.stats().misses, 0u);
}

TEST(BodyMemoVm, RefusesAMemoBuiltForAnotherPipeline) {
  const bc::Program prog = test::make_loop_program();
  BodyMemo memo({&prog}, kPipeline, kVm.inline_limits);
  heur::JikesHeuristic h;
  vm::VmConfig cfg = kVm;
  cfg.pipeline = opt::PipelineDesc::parse("inline,fixpoint(fold):2");
  cfg.body_memo = &memo;
  EXPECT_THROW(vm::VirtualMachine(prog, rt::pentium4_model(), h, cfg), Error);
}

}  // namespace
}  // namespace ith
