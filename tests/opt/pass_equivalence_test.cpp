// Per-pass behavioural-equivalence property sweep: every scalar pass,
// applied alone (plus compaction) to every method of randomly generated
// programs, must keep the program verifiable and its result unchanged.
// The whole-pipeline version lives in optimizer_test.cpp; this narrows a
// failure to the individual pass.
#include <gtest/gtest.h>

#include <functional>

#include "bytecode/verifier.hpp"
#include "opt/passes.hpp"
#include "support/error.hpp"
#include "testing.hpp"
#include "workloads/synthetic.hpp"

namespace ith::opt {
namespace {

using PassFn = std::function<std::size_t(AnnotatedMethod&)>;

struct PassCase {
  const char* name;
  PassFn run;
};

const std::vector<PassCase>& passes() {
  static const std::vector<PassCase> kPasses = {
      {"constant_fold", [](AnnotatedMethod& am) { return constant_fold(am); }},
      {"simplify_algebraic", [](AnnotatedMethod& am) { return simplify_algebraic(am); }},
      {"fuse_compare_branch", [](AnnotatedMethod& am) { return fuse_compare_branch(am); }},
      {"copy_propagate", [](AnnotatedMethod& am) { return copy_propagate(am); }},
      {"eliminate_dead_stores", [](AnnotatedMethod& am) { return eliminate_dead_stores(am); }},
      {"simplify_branches", [](AnnotatedMethod& am) { return simplify_branches(am); }},
      {"eliminate_unreachable", [](AnnotatedMethod& am) { return eliminate_unreachable(am); }},
  };
  return kPasses;
}

struct SweepCase {
  std::uint64_t seed;
  std::size_t pass_index;
};

class PassEquivalence : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PassEquivalence, SinglePassPreservesBehaviour) {
  const SweepCase c = GetParam();
  wl::SyntheticSpec spec;
  spec.seed = c.seed;
  spec.n_leaves = 7;
  spec.n_chains = 2;
  spec.n_dispatchers = 1;
  spec.n_recursive = 1;
  spec.n_blobs = 1;
  spec.hot_iters = 9;
  const bc::Program p = wl::make_synthetic(spec);
  const std::int64_t expected = ith::test::run_exit_value(p);

  const PassCase& pass = passes()[c.pass_index];
  bc::Program q = p;
  for (std::size_t i = 0; i < p.num_methods(); ++i) {
    AnnotatedMethod am =
        AnnotatedMethod::from_method(p.method(static_cast<bc::MethodId>(i)),
                                     static_cast<bc::MethodId>(i));
    pass.run(am);
    compact_nops(am);
    ASSERT_TRUE(am.consistent()) << pass.name;
    q.mutable_method(static_cast<bc::MethodId>(i)) = am.method;
  }
  ASSERT_NO_THROW(bc::verify_program(q)) << pass.name << " seed=" << c.seed;
  EXPECT_EQ(ith::test::run_exit_value(q), expected) << pass.name << " seed=" << c.seed;
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (std::size_t pi = 0; pi < passes().size(); ++pi) {
      cases.push_back({seed, pi});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPassesAllSeeds, PassEquivalence, ::testing::ValuesIn(sweep_cases()),
                         [](const ::testing::TestParamInfo<SweepCase>& param_info) {
                           return std::string(passes()[param_info.param.pass_index].name) +
                                  "_seed" + std::to_string(param_info.param.seed);
                         });

// Passes must be idempotent after compaction settles: a second application
// finds nothing new once the first (plus compaction) reached a fixpoint.
TEST(PassFixpoint, EachPassReachesAFixpoint) {
  wl::SyntheticSpec spec;
  spec.seed = 3;
  const bc::Program p = wl::make_synthetic(spec);
  for (const PassCase& pass : passes()) {
    for (std::size_t i = 0; i < p.num_methods(); ++i) {
      AnnotatedMethod am =
          AnnotatedMethod::from_method(p.method(static_cast<bc::MethodId>(i)),
                                       static_cast<bc::MethodId>(i));
      // Iterate pass+compact until quiet; must terminate quickly.
      int rounds = 0;
      while (pass.run(am) + compact_nops(am) > 0) {
        ASSERT_LT(++rounds, 50) << pass.name << " did not reach a fixpoint";
      }
      EXPECT_EQ(pass.run(am), 0u) << pass.name << " found work after its own fixpoint";
    }
  }
}

}  // namespace
}  // namespace ith::opt
