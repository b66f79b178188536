// PassManager coverage: pipeline description round trips and strict
// parsing, cached analyses checked against fresh ones (set_verify) over
// workloads and the fuzz corpus for several pipelines, analysis-cache reuse
// across compilations, the opt.analysis_* obs counters, and the
// stale-analysis detector that the PreservedAnalyses soundness property
// tests drive.
#include "opt/pipeline.hpp"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/campaign.hpp"
#include "obs/context.hpp"
#include "obs/sink.hpp"
#include "support/error.hpp"
#include "testing.hpp"
#include "workloads/suite.hpp"

namespace ith::opt {
namespace {

// --- PipelineDesc ---------------------------------------------------------

TEST(PipelineDesc, StandardRoundTripsThroughText) {
  const PipelineDesc p = PipelineDesc::standard();
  const PipelineDesc q = PipelineDesc::parse(p.to_string());
  EXPECT_EQ(p, q);
  EXPECT_TRUE(p.has_pass("inline"));
  EXPECT_TRUE(p.has_pass("fold"));
  EXPECT_FALSE(p.has_pass("no_such_pass"));
}

TEST(PipelineDesc, ParseAcceptsMinimalShapes) {
  const PipelineDesc p = PipelineDesc::parse("inline,fixpoint(fold):2");
  EXPECT_EQ(p.setup, std::vector<std::string>{"inline"});
  EXPECT_EQ(p.fixpoint, std::vector<std::string>{"fold"});
  EXPECT_EQ(p.max_iterations, 2);
  EXPECT_EQ(PipelineDesc::parse(p.to_string()), p);

  const PipelineDesc empty = PipelineDesc::parse("fixpoint():1");
  EXPECT_TRUE(empty.setup.empty());
  EXPECT_TRUE(empty.fixpoint.empty());
}

TEST(PipelineDesc, ParseRejectsMalformedDescriptions) {
  EXPECT_THROW(PipelineDesc::parse("inline,fold"), Error);            // no fixpoint group
  EXPECT_THROW(PipelineDesc::parse("fixpoint(fold"), Error);          // unterminated
  EXPECT_THROW(PipelineDesc::parse("fixpoint(fold)"), Error);         // missing :N
  EXPECT_THROW(PipelineDesc::parse("fixpoint(fold):0"), Error);       // zero iterations
  EXPECT_THROW(PipelineDesc::parse("fixpoint(fold):x"), Error);       // bad number
  EXPECT_THROW(PipelineDesc::parse("bogus,fixpoint(fold):1"), Error); // unknown setup pass
  EXPECT_THROW(PipelineDesc::parse("fixpoint(bogus):1"), Error);      // unknown fixpoint pass
  // Text after the iteration count is an error, not silently dropped.
  EXPECT_THROW(PipelineDesc::parse("inline,fixpoint(fold):6,dce"), Error);
  EXPECT_THROW(PipelineDesc::parse("fixpoint(fold):6x"), Error);
}

TEST(PipelineDesc, WithoutDropsEveryOccurrence) {
  const PipelineDesc p = PipelineDesc::parse("inline,fold,fixpoint(fold,dce):3");
  EXPECT_EQ(p.without("fold").to_string(), "inline,fixpoint(dce):3");
  EXPECT_EQ(p.without("unreachable"), p);
}

TEST(PipelineDesc, MakePassKnowsEveryRegisteredName) {
  for (const std::string& name : known_pass_names()) {
    const std::unique_ptr<Pass> pass = make_pass(name);
    ASSERT_NE(pass, nullptr);
    EXPECT_EQ(pass->name(), name);
  }
  EXPECT_THROW(make_pass("bogus"), Error);
}

// --- Cached analyses equal fresh ones ------------------------------------

// Compiles every method of `prog` through one PassManager whose analysis
// cache is verified: every cached read is recomputed and compared, so a
// pass that claims to preserve an analysis it changed throws. The manager
// persists across methods, as the VM's does.
void expect_cache_sound(const bc::Program& prog, const heur::InlineParams& params,
                        const SiteOracle& oracle, const PipelineDesc& pipeline,
                        const std::string& label) {
  const heur::JikesHeuristic h(params);
  PassManager pm(prog, h, oracle, pipeline);
  pm.analyses().set_verify(true);
  for (bc::MethodId id = 0; id < static_cast<bc::MethodId>(prog.num_methods()); ++id) {
    SCOPED_TRACE(label + " [" + pipeline.to_string() + "]: method " + prog.method(id).name());
    ASSERT_NO_THROW(pm.run(id));
  }
  EXPECT_GT(pm.analyses().stats().hits, 0u) << label << ": nothing was read from the cache";
}

std::vector<heur::InlineParams> five_param_variants() {
  std::vector<heur::InlineParams> out;
  out.push_back(heur::default_params());

  heur::InlineParams aggressive;
  aggressive.callee_max_size = 500;
  aggressive.always_inline_size = 200;
  aggressive.max_inline_depth = 12;
  aggressive.caller_max_size = 100000;
  aggressive.hot_callee_max_size = 500;
  out.push_back(aggressive);

  heur::InlineParams stingy;
  stingy.callee_max_size = 1;
  stingy.always_inline_size = 0;
  stingy.max_inline_depth = 0;
  stingy.caller_max_size = 1;
  stingy.hot_callee_max_size = 1;
  out.push_back(stingy);
  return out;
}

/// The standard pipeline and three subsets: no inlining, a scalar mix, and
/// a single fixpoint iteration.
std::vector<PipelineDesc> pipeline_variants() {
  const PipelineDesc all = PipelineDesc::standard();
  PipelineDesc one_iter = all.without("copyprop").without("dce").without("unreachable");
  one_iter.max_iterations = 1;
  return {all, all.without("inline"),
          all.without("fold").without("algebraic"), one_iter};
}

std::vector<std::pair<std::string, SiteOracle>> oracle_variants() {
  const SiteOracle mixed = [](bc::MethodId m, std::int32_t pc) {
    const std::uint64_t h =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m)) * 0x9e3779b97f4a7c15ULL) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pc)) * 0xbf58476d1ce4e5b9ULL);
    return SiteProfile{(h >> 17 & 1) != 0, h % 701};
  };
  return {{"cold", cold_site}, {"mixed", mixed}};
}

TEST(PassManagerEquivalence, CachedAnalysesMatchFreshOverWorkloads) {
  const std::vector<heur::InlineParams> params = five_param_variants();
  const std::vector<PipelineDesc> pipelines = pipeline_variants();
  const auto oracles = oracle_variants();
  std::size_t i = 0;
  for (const wl::Workload& w : wl::make_suite("all")) {
    for (std::size_t pi = 0; pi < params.size(); ++pi, ++i) {
      const auto& [oracle_name, oracle] = oracles[i % oracles.size()];
      expect_cache_sound(w.program, params[pi], oracle, pipelines[i % pipelines.size()],
                         w.name + "/params" + std::to_string(pi) + "/" + oracle_name);
    }
  }
}

#ifdef ITH_FUZZ_CORPUS_DIR
// Every checked-in fuzz repro — programs shrunk specifically to stress the
// optimizer — compiles with every cached analysis equal to a fresh one,
// under every pipeline variant and both oracles, for one randomized
// five-parameter genome per program. The corpus is small enough to sweep
// whole, and a wrong PreservedAnalyses claim may show on one program under
// one pipeline only. (The live fuzz campaign re-checks
// this continuously: its O1/O2 tiers compile in verify mode; this pins the
// corpus in the unit suite.)
TEST(PassManagerEquivalence, CachedAnalysesMatchFreshOverFuzzCorpus) {
  const auto entries = fuzz::load_corpus(ITH_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(entries.empty()) << "corpus directory missing or empty";
  const std::vector<PipelineDesc> pipelines = pipeline_variants();
  const auto oracles = oracle_variants();
  std::mt19937_64 rng(20260807);
  const auto& ranges = heur::param_ranges();
  for (const auto& [name, prog] : entries) {
    heur::InlineParams::Array a{};
    for (std::size_t k = 0; k < a.size(); ++k) {
      std::uniform_int_distribution<int> dist(ranges[k].lo, ranges[k].hi);
      a[k] = dist(rng);
    }
    a[5] = 0;  // five-param genome: partial inlining off
    const heur::InlineParams params = heur::InlineParams::from_array(a);
    for (std::size_t pi = 0; pi < pipelines.size(); ++pi) {
      for (const auto& [oracle_name, oracle] : oracles) {
        expect_cache_sound(prog, params, oracle, pipelines[pi],
                           name + "/pipeline" + std::to_string(pi) + "/" + oracle_name);
      }
    }
  }
}
#endif

// --- Analysis cache reuse across compilations -----------------------------

TEST(PassManagerCache, SecondCompilationReusesProgramScopeAnalyses) {
  const bc::Program& prog = wl::make_workload("compress").program;
  const heur::JikesHeuristic h;
  PassManager pm(prog, h);

  pm.run(prog.entry());
  const AnalysisStats s1 = pm.analyses().stats();
  EXPECT_GT(s1.misses, 0u) << "first compilation must compute something";

  pm.run(prog.entry());
  const AnalysisStats s2 = pm.analyses().stats();
  EXPECT_GT(s2.hits, s1.hits) << "recompilation must hit the cache";

  // The call graph is program-scope: recompiling the same root re-asks for
  // its callees but must never recompute them.
  const auto cg = static_cast<unsigned>(AnalysisId::kCallGraph);
  EXPECT_GT(s2.hits_by_kind[cg], s1.hits_by_kind[cg]);
  EXPECT_EQ(s2.misses_by_kind[cg], s1.misses_by_kind[cg]);
}

TEST(PassManagerCache, AnalysisCountersReachTheObsLayer) {
  obs::MemorySink sink;
  obs::Context ctx(&sink, obs::kAllCategories);
  const bc::Program& prog = wl::make_workload("compress").program;
  const heur::JikesHeuristic h;
  PassManager pm(prog, h, cold_site, PipelineDesc::standard(), InlineLimits{}, &ctx);
  pm.run(prog.entry());
  pm.run(prog.entry());
  ctx.flush();

  std::int64_t hits = -1, misses = -1;
  for (const obs::Event& e : sink.events()) {
    if (e.phase != obs::Phase::kCounter) continue;
    for (const obs::Arg& arg : e.args) {
      if (arg.key == "opt.analysis_hits") hits = std::get<std::int64_t>(arg.value);
      if (arg.key == "opt.analysis_misses") misses = std::get<std::int64_t>(arg.value);
    }
  }
  EXPECT_GT(hits, 0) << "opt.analysis_hits counter missing or zero";
  EXPECT_GT(misses, 0) << "opt.analysis_misses counter missing or zero";
}

TEST(PassManagerStats, EmitsOneRowPerPipelinePass) {
  const bc::Program p = ith::test::make_loop_program(10);
  const heur::JikesHeuristic h;
  PassManager pm(p, h);
  const OptimizeResult r = pm.run(p.entry());

  const PipelineDesc& desc = pm.pipeline();
  ASSERT_EQ(r.pass_stats.size(), desc.setup.size() + desc.fixpoint.size());
  for (std::size_t i = 0; i < desc.setup.size(); ++i) {
    EXPECT_EQ(r.pass_stats[i].pass, desc.setup[i]);
  }
  for (std::size_t i = 0; i < desc.fixpoint.size(); ++i) {
    EXPECT_EQ(r.pass_stats[desc.setup.size() + i].pass, desc.fixpoint[i]);
  }
  // The inline pass ran exactly once and saw the original body size.
  EXPECT_EQ(r.pass_stats[0].pass, std::string("inline"));
  EXPECT_EQ(r.pass_stats[0].runs, 1u);
  EXPECT_GT(r.pass_stats[0].inst_before, 0u);
  EXPECT_NE(format_pass_stat(r.pass_stats[0]).find("[pass inline]"), std::string::npos);
}

// --- PreservedAnalyses soundness ------------------------------------------

// Property: a pass that rewrites the body but *under-reports* what it
// invalidated leaves a stale cached analysis behind, and verify mode must
// catch exactly that. Honest invalidation of the same rewrite passes.
TEST(AnalysisInvalidation, UnderReportingTripsTheStaleDetector) {
  const bc::Program p = ith::test::make_loop_program(10);
  const bc::MethodId id = p.entry();

  int mutations_checked = 0;
  AnalysisManager manager(p);
  manager.set_verify(true);
  AnnotatedMethod am = AnnotatedMethod::from_method(p.method(id), id);
  const std::vector<bc::Instruction>& code = am.method.code();
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    if (code[pc].op != bc::Op::kLoad) continue;
    manager.begin_body();
    manager.liveness(am);  // miss: computed and cached

    AnnotatedMethod mutated = am;
    mutated.method.mutable_code()[pc].op = bc::Op::kConst;  // load count changes
    // The "pass" claims it preserved everything — the next hit recomputes
    // under verify mode, sees a different load count, and throws.
    manager.invalidate(PreservedAnalyses::all());
    EXPECT_THROW(manager.liveness(mutated), Error) << "pc " << pc;

    // The honest report (liveness abandoned) drops the entry instead.
    manager.begin_body();
    manager.liveness(am);
    manager.invalidate(PreservedAnalyses::all().abandon(AnalysisId::kLiveness));
    EXPECT_NO_THROW(manager.liveness(mutated)) << "pc " << pc;
    ++mutations_checked;
  }
  ASSERT_GT(mutations_checked, 0) << "test program lost its loads";
}

TEST(AnalysisInvalidation, BranchRetargetingIsAlsoDetected) {
  const bc::Program p = ith::test::make_loop_program(10);
  const bc::MethodId id = p.entry();
  AnnotatedMethod am = AnnotatedMethod::from_method(p.method(id), id);

  std::size_t branch_pc = am.method.code().size();
  for (std::size_t pc = 0; pc < am.method.code().size(); ++pc) {
    const bc::Op op = am.method.code()[pc].op;
    if (op == bc::Op::kJz || op == bc::Op::kJmp) {
      branch_pc = pc;
      break;
    }
  }
  ASSERT_LT(branch_pc, am.method.code().size()) << "test program lost its branches";

  AnalysisManager manager(p);
  manager.set_verify(true);
  manager.begin_body();
  manager.branch_targets(am);

  AnnotatedMethod mutated = am;
  mutated.method.mutable_code()[branch_pc].a += 1;  // branch target moves
  manager.invalidate(PreservedAnalyses::all());
  EXPECT_THROW(manager.branch_targets(mutated), Error);

  manager.invalidate(PreservedAnalyses::none());
  EXPECT_NO_THROW(manager.branch_targets(mutated));
}

TEST(AnalysisInvalidation, BeginBodyDropsWithoutCountingInvalidations) {
  const bc::Program p = ith::test::make_loop_program(10);
  AnalysisManager manager(p);
  const AnnotatedMethod am = AnnotatedMethod::from_method(p.method(p.entry()), p.entry());
  manager.begin_body();
  manager.liveness(am);
  manager.begin_body();
  EXPECT_EQ(manager.stats().invalidations, 0u);
  manager.liveness(am);
  EXPECT_EQ(manager.stats().misses_by_kind[static_cast<unsigned>(AnalysisId::kLiveness)], 2u)
      << "begin_body must drop body-scope entries";
}

}  // namespace
}  // namespace ith::opt
