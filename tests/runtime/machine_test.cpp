// MachineModel, CompiledMethod and ProfileData tests.
#include <array>
#include <cstdint>

#include <gtest/gtest.h>

#include "bytecode/size_estimator.hpp"
#include "runtime/compiled.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/machine.hpp"
#include "runtime/profile.hpp"
#include "support/error.hpp"
#include "testing.hpp"

namespace ith::rt {
namespace {

TEST(MachineModel, ArchitecturesDifferAsThePaperArgues) {
  const MachineModel x86 = pentium4_model();
  const MachineModel ppc = ppc_g4_model();
  EXPECT_GT(x86.icache_bytes, ppc.icache_bytes) << "PPC has the smaller I-cache (Table 4 narrative)";
  EXPECT_GT(x86.call_overhead_cycles, ppc.call_overhead_cycles) << "deeper pipeline on P4";
  EXPECT_GT(x86.clock_hz, ppc.clock_hz);
}

TEST(MachineModel, CpiInWholeTwentiethsOfACycle) {
  EXPECT_EQ(pentium4_model().cpi_units(), (std::array<std::uint32_t, 3>{44, 29, 20}));
  EXPECT_EQ(ppc_g4_model().cpi_units(), (std::array<std::uint32_t, 3>{40, 28, 20}));
  // 2.21 * 20 = 44.2: no integer count of cost units, so the model is
  // refused rather than rounded, by the model and by both engines.
  MachineModel m = pentium4_model();
  m.baseline_cpi = 2.21;
  EXPECT_THROW(m.cpi_units(), Error);
  const bc::Program prog = ith::test::make_add_program();
  for (const EngineKind engine : {EngineKind::kFast, EngineKind::kReference}) {
    ith::test::IdentitySource source(prog);
    InterpreterOptions opts;
    opts.engine = engine;
    EXPECT_THROW(Interpreter(prog, m, source, nullptr, opts), Error) << engine_name(engine);
  }
}

TEST(MachineModel, OptCompileIsSuperlinear) {
  const MachineModel m = pentium4_model();
  const auto small = m.opt_compile_cycles(100);
  const auto large = m.opt_compile_cycles(1000);
  EXPECT_GT(static_cast<double>(large), 10.0 * static_cast<double>(small))
      << "10x the code must cost more than 10x the compile time";
}

TEST(MachineModel, BaselineCompileIsLinear) {
  const MachineModel m = pentium4_model();
  EXPECT_EQ(m.baseline_compile_cycles(200), 2 * m.baseline_compile_cycles(100));
}

TEST(MachineModel, OptCompileSlowerPerWordThanBaseline) {
  const MachineModel m = pentium4_model();
  EXPECT_GT(m.opt_compile_cycles(100), m.baseline_compile_cycles(100));
}

TEST(MachineModel, TierLadderIsOrdered) {
  // O0 -> O1 -> O2: code quality improves, compile cost grows.
  const MachineModel m = pentium4_model();
  EXPECT_GT(m.baseline_cpi, m.mid_cpi);
  EXPECT_GT(m.mid_cpi, m.opt_cpi);
  EXPECT_LT(m.baseline_compile_cycles(200), m.mid_compile_cycles(200));
  EXPECT_LT(m.mid_compile_cycles(200), m.opt_compile_cycles(200));
}

TEST(MachineModel, MidCompileIsFractionOfFull) {
  const MachineModel m = pentium4_model();
  EXPECT_NEAR(static_cast<double>(m.mid_compile_cycles(500)),
              m.mid_compile_fraction * static_cast<double>(m.opt_compile_cycles(500)),
              2.0);
}

TEST(MachineModel, CyclesToSeconds) {
  const MachineModel m = pentium4_model();
  EXPECT_NEAR(m.cycles_to_seconds(static_cast<std::uint64_t>(m.clock_hz)), 1.0, 1e-9);
}

TEST(CompiledMethod, FinalizeBuildsWordOffsets) {
  const bc::Program p = ith::test::make_add_program();
  CompiledMethod cm;
  cm.body = p.method(p.entry());
  cm.tier = Tier::kOpt;
  cm.method_id = p.entry();
  cm.finalize();
  ASSERT_EQ(cm.word_offset.size(), cm.body.size() + 1);
  EXPECT_EQ(cm.word_offset.front(), static_cast<std::uint32_t>(bc::kFrameOverheadWords));
  EXPECT_EQ(cm.size_words(), static_cast<std::uint32_t>(bc::estimated_method_size(cm.body)));
  for (std::size_t pc = 0; pc < cm.body.size(); ++pc) {
    EXPECT_LE(cm.word_offset[pc], cm.word_offset[pc + 1]);
  }
}

TEST(CompiledMethod, SizeWordsRequiresFinalize) {
  CompiledMethod cm;
  EXPECT_THROW(cm.size_words(), Error);
}

TEST(CompiledMethod, OriginLengthMismatchRejected) {
  const bc::Program p = ith::test::make_add_program();
  CompiledMethod cm;
  cm.body = p.method(p.entry());
  cm.origin.resize(1);  // wrong length
  EXPECT_THROW(cm.finalize(), Error);
}

TEST(ProfileData, CountersAccumulate) {
  ProfileData prof(3);
  prof.record_invocation(1);
  prof.record_invocation(1);
  prof.record_back_edge(1);
  EXPECT_EQ(prof.invocations(1), 2u);
  EXPECT_EQ(prof.back_edges(1), 1u);
  EXPECT_EQ(prof.hot_score(1), 3u);
  EXPECT_EQ(prof.hot_score(0), 0u);
}

TEST(ProfileData, SiteCounts) {
  ProfileData prof(2);
  prof.record_call_site(0, 4);
  prof.record_call_site(0, 4);
  prof.record_call_site(1, 0);
  EXPECT_EQ(prof.site_count(0, 4), 2u);
  EXPECT_EQ(prof.site_count(1, 0), 1u);
  EXPECT_EQ(prof.site_count(0, 5), 0u);
}

TEST(ProfileData, SyntheticOriginsIgnored) {
  ProfileData prof(2);
  prof.record_call_site(-1, -1);  // synthetic instruction: no attribution
  EXPECT_EQ(prof.site_count(-1, -1), 0u);
}

TEST(ProfileData, ClearResets) {
  ProfileData prof(2);
  prof.record_invocation(0);
  prof.record_call_site(0, 1);
  prof.clear();
  EXPECT_EQ(prof.invocations(0), 0u);
  EXPECT_EQ(prof.site_count(0, 1), 0u);
}

TEST(ProfileData, BoundsChecked) {
  ProfileData prof(2);
  EXPECT_THROW(prof.record_invocation(2), Error);
  EXPECT_THROW(prof.invocations(-1), Error);
}

}  // namespace
}  // namespace ith::rt
