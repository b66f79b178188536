// DecisionProbe walks against the real splice: every walk must describe
// the body the Inliner builds from it — no divergence thrown, and the
// walk's virtual size equal to the real estimate — across workloads,
// hand-written edge cases, generated adversarial programs, oracles and
// limit variants. Plus unit coverage for the decision signature built on
// top of the walk.
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bytecode/builder.hpp"
#include "bytecode/size_estimator.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "opt/decision_probe.hpp"
#include "opt/inliner.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

/// Walks every method of `prog` and splices each walk: the Inliner must
/// accept it (any divergence from the real body throws), and the walk's
/// virtual size accounting must agree with the real estimate of the
/// spliced body.
void expect_walks_splice(const bc::Program& prog, const heur::InlineParams& params,
                         const opt::SiteOracle& oracle, opt::InlineLimits limits,
                         const std::string& label) {
  const heur::JikesHeuristic heuristic(params);
  const opt::ProbeFacts facts(prog);
  const opt::DecisionProbe probe(facts, heuristic, oracle, limits);
  const opt::Inliner inliner(prog);
  opt::VerdictTrace walk;
  for (bc::MethodId id = 0; id < static_cast<bc::MethodId>(prog.num_methods()); ++id) {
    SCOPED_TRACE(label + ": method " + prog.method(id).name());
    probe.probe_method(id, walk);
    EXPECT_NO_THROW({
      const opt::AnnotatedMethod am = inliner.run(id, walk);
      EXPECT_EQ(bc::estimated_method_size(am.method), walk.stats.size_after_words);
    });
  }
}

/// The body the inline pass builds for `id`: walk, then splice.
opt::AnnotatedMethod inline_body(const bc::Program& prog, const opt::ProbeFacts& facts,
                                 const heur::InlineHeuristic& h, const opt::SiteOracle& oracle,
                                 bc::MethodId id) {
  opt::VerdictTrace walk;
  opt::DecisionProbe(facts, h, oracle).probe_method(id, walk);
  return opt::Inliner(prog).run(id, walk);
}

std::vector<heur::InlineParams> param_variants() {
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

  // Partial inlining armed with a generous head budget: too-big callees
  // with guard heads now take the kPartial verdict path everywhere.
  heur::InlineParams partial_friendly = heur::default_params();
  partial_friendly.partial_max_head_size = 40;
  out.push_back(partial_friendly);

  std::mt19937_64 rng(20260806);
  const auto& ranges = heur::param_ranges();
  for (int i = 0; i < 4; ++i) {
    heur::InlineParams::Array a{};
    for (std::size_t k = 0; k < a.size(); ++k) {
      std::uniform_int_distribution<int> dist(ranges[k].lo, ranges[k].hi);
      a[k] = dist(rng);
    }
    out.push_back(heur::InlineParams::from_array(a));
  }
  return out;
}

std::vector<std::pair<std::string, opt::SiteOracle>> oracle_variants() {
  const opt::SiteOracle all_hot = [](bc::MethodId, std::int32_t) {
    return opt::SiteProfile{true, 5000};
  };
  // Deterministic mixed labelling: hot/cold depends on the origin site, the
  // way a real mid-run profile snapshot would.
  const opt::SiteOracle mixed = [](bc::MethodId m, std::int32_t pc) {
    const std::uint64_t h =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m)) * 0x9e3779b97f4a7c15ULL) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pc)) * 0xbf58476d1ce4e5b9ULL);
    return opt::SiteProfile{(h >> 17 & 1) != 0, h % 701};
  };
  return {{"cold", opt::cold_site}, {"all_hot", all_hot}, {"mixed", mixed}};
}

TEST(DecisionProbe, MatchesInlinerOverWorkloads) {
  const std::vector<heur::InlineParams> params = param_variants();
  const auto oracles = oracle_variants();
  for (const wl::Workload& w : wl::make_suite("all")) {
    for (std::size_t pi = 0; pi < params.size(); ++pi) {
      const auto& [oracle_name, oracle] = oracles[pi % oracles.size()];
      expect_walks_splice(w.program, params[pi], oracle, opt::InlineLimits{},
                                   w.name + "/params" + std::to_string(pi) + "/" + oracle_name);
    }
  }
}

TEST(DecisionProbe, MatchesInlinerOverGeneratedPrograms) {
  const std::vector<heur::InlineParams> params = param_variants();
  const auto oracles = oracle_variants();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    fuzz::GeneratorSpec spec;
    spec.seed = seed;
    const bc::Program prog = fuzz::generate_adversarial(spec);
    const heur::InlineParams& p = params[seed % params.size()];
    const auto& [oracle_name, oracle] = oracles[seed % oracles.size()];
    expect_walks_splice(prog, p, oracle, opt::InlineLimits{},
                                 "gen" + std::to_string(seed) + "/" + oracle_name);
  }
}

#ifdef ITH_FUZZ_CORPUS_DIR
TEST(DecisionProbe, MatchesInlinerOverEdgeCasesAndLimits) {
  const std::vector<opt::InlineLimits> limit_variants = {
      opt::InlineLimits{},
      opt::InlineLimits{.hard_depth_cap = 2, .max_recursive_occurrences = 1, .max_body_words = 300},
      opt::InlineLimits{.hard_depth_cap = 20, .max_recursive_occurrences = 3,
                        .max_body_words = 20000},
  };
  const auto oracles = oracle_variants();
  // Every corpus entry, the three hand-written edge cases among them.
  for (const auto& [name, prog] : fuzz::load_corpus(ITH_FUZZ_CORPUS_DIR)) {
    for (std::size_t li = 0; li < limit_variants.size(); ++li) {
      const auto& [oracle_name, oracle] = oracles[li % oracles.size()];
      expect_walks_splice(prog, heur::default_params(), oracle, limit_variants[li],
                                   name + "/limits" + std::to_string(li) + "/" + oracle_name);
    }
  }
}

// The acceptance bar for the probe: every checked-in fuzz-corpus repro —
// programs specifically shrunk to stress the optimizer — splices exactly as
// walked. A corpus entry the walk mispredicts would poison the signature
// cache for exactly the programs most likely to expose it.
TEST(DecisionProbe, MatchesInlinerOverFuzzCorpus) {
  const auto entries = fuzz::load_corpus(ITH_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(entries.empty()) << "corpus directory missing or empty";
  const std::vector<heur::InlineParams> params = param_variants();
  const auto oracles = oracle_variants();
  std::size_t i = 0;
  for (const auto& [name, prog] : entries) {
    for (std::size_t pi = 0; pi < params.size(); ++pi, ++i) {
      const auto& [oracle_name, oracle] = oracles[i % oracles.size()];
      expect_walks_splice(prog, params[pi], oracle, opt::InlineLimits{},
                                   name + "/params" + std::to_string(pi) + "/" + oracle_name);
    }
  }
}
#endif

// --- Partial inlining -------------------------------------------------------

// guard(n): pure six-instruction head, fat accumulation tail — the shape
// partial inlining targets (same fixture as partial_inline_test.cpp). main
// calls it twice so the walk must cover the splice, the residual stub
// consultation and the structural refusal of the re-expanded stub.
bc::Program make_guard_program() {
  bc::ProgramBuilder pb("partial", 0);
  auto& g = pb.method("guard", 1, 2);
  g.load(0).const_(10).cmplt().jz("tail");
  g.const_(0).ret();
  g.label("tail");
  g.load(0).store(1);
  for (int i = 1; i <= 9; ++i) {
    g.load(1).const_(i).add().store(1);
  }
  g.load(1).ret();

  auto& m = pb.method("main", 0, 0);
  m.const_(3).call("guard", 1);
  m.const_(50).call("guard", 1);
  m.add().halt();
  pb.entry("main");
  return pb.build();
}

TEST(DecisionProbe, MatchesInlinerOverPartialSplices) {
  const bc::Program prog = make_guard_program();
  const std::vector<opt::InlineLimits> limit_variants = {
      opt::InlineLimits{},
      // A looser recursion allowance lets the residual stub be consulted
      // (and partially expanded) again instead of refused structurally.
      opt::InlineLimits{.hard_depth_cap = 20, .max_recursive_occurrences = 3,
                        .max_body_words = 20000},
  };
  const auto oracles = oracle_variants();
  for (int head = 0; head <= 40; head += 8) {
    heur::InlineParams p = heur::default_params();
    p.partial_max_head_size = head;
    for (std::size_t li = 0; li < limit_variants.size(); ++li) {
      const auto& [oracle_name, oracle] = oracles[(static_cast<std::size_t>(head / 8) + li) % oracles.size()];
      expect_walks_splice(prog, p, oracle, limit_variants[li],
                                   "partial_head" + std::to_string(head) + "/limits" +
                                       std::to_string(li) + "/" + oracle_name);
    }
  }
}

// --- Decision signature ----------------------------------------------------

bc::Program two_method_program() {
  bc::Program prog("sigtest", 4);
  bc::Method leaf("leaf", 1, 1);
  leaf.append({bc::Op::kLoad, 0, 0});
  leaf.append({bc::Op::kConst, 2, 0});
  leaf.append({bc::Op::kMul, 0, 0});
  leaf.append({bc::Op::kRet, 0, 0});
  const bc::MethodId leaf_id = prog.add_method(leaf);

  bc::Method entry("entry", 0, 1);
  entry.append({bc::Op::kConst, 21, 0});
  entry.append({bc::Op::kCall, leaf_id, 1});
  entry.append({bc::Op::kStore, 0, 0});
  entry.append({bc::Op::kConst, 0, 0});
  entry.append({bc::Op::kHalt, 0, 0});
  prog.set_entry(prog.add_method(entry));
  return prog;
}

TEST(DecisionSignature, DeterministicAndParamSensitive) {
  const bc::Program prog = two_method_program();
  const heur::InlineParams p = heur::default_params();
  const opt::SignatureResult a = opt::decision_signature(prog, p, opt::InlineLimits{});
  const opt::SignatureResult b = opt::decision_signature(prog, p, opt::InlineLimits{});
  EXPECT_TRUE(a.exact);
  EXPECT_EQ(a.value, b.value);
  EXPECT_GT(a.consultations, 0u);

  heur::InlineParams never = p;
  never.callee_max_size = 1;
  never.always_inline_size = 0;
  const opt::SignatureResult c = opt::decision_signature(prog, never, opt::InlineLimits{});
  EXPECT_NE(a.value, c.value);
}

TEST(DecisionSignature, ColdReplayIgnoresHotParameter) {
  const bc::Program prog = two_method_program();
  heur::InlineParams p1 = heur::default_params();
  heur::InlineParams p2 = p1;
  p2.hot_callee_max_size = p1.hot_callee_max_size + 40;

  opt::SignatureOptions opts;
  opts.adaptive = false;
  const auto s1 = opt::decision_signature(prog, p1, opt::InlineLimits{}, opts);
  const auto s2 = opt::decision_signature(prog, p2, opt::InlineLimits{}, opts);
  EXPECT_EQ(s1.value, s2.value);
  EXPECT_EQ(s1.forks, 0u);  // non-adaptive never forks
}

TEST(DecisionSignature, AdaptiveForksWhenHotAndColdVerdictsDiverge) {
  const bc::Program prog = two_method_program();
  const int leaf_size = bc::estimated_method_size(prog.method(prog.find_method("leaf")));

  // Figure 3 says yes (callee under both thresholds), Figure 4 says no
  // (callee over the hot ceiling): the labelling of the site matters, so
  // the adaptive exploration must fork and the hot parameter must show up
  // in the signature.
  heur::InlineParams p;
  p.callee_max_size = leaf_size + 10;
  p.always_inline_size = leaf_size + 5;
  p.max_inline_depth = 5;
  p.caller_max_size = 2048;
  p.hot_callee_max_size = leaf_size - 1;

  const auto s = opt::decision_signature(prog, p, opt::InlineLimits{});
  EXPECT_GT(s.forks, 0u);

  heur::InlineParams hot_friendly = p;
  hot_friendly.hot_callee_max_size = leaf_size + 10;  // fig4 now agrees with fig3
  const auto s2 = opt::decision_signature(prog, hot_friendly, opt::InlineLimits{});
  EXPECT_EQ(s2.forks, 0u);
  EXPECT_NE(s.value, s2.value);
}

TEST(DecisionSignature, BudgetOverflowFallsBackToRawParams) {
  const bc::Program prog = two_method_program();
  opt::SignatureOptions opts;
  opts.max_events = 0;  // the very first consultation overflows

  heur::InlineParams p1 = heur::default_params();
  heur::InlineParams p2 = p1;
  p2.callee_max_size += 1;

  const auto s1 = opt::decision_signature(prog, p1, opt::InlineLimits{}, opts);
  const auto s1_again = opt::decision_signature(prog, p1, opt::InlineLimits{}, opts);
  const auto s2 = opt::decision_signature(prog, p2, opt::InlineLimits{}, opts);
  EXPECT_FALSE(s1.exact);
  EXPECT_EQ(s1.value, s1_again.value);
  EXPECT_NE(s1.value, s2.value);  // raw-params fallback never aliases
}

TEST(DecisionSignature, PartialParameterIgnoredWithoutAnOpportunity) {
  // No callee of this program is both too big and guard-headed, so the
  // sixth parameter can never change a verdict — and therefore must never
  // change the signature (the partial=0 byte stream is the legacy one).
  const bc::Program prog = two_method_program();
  heur::InlineParams p1 = heur::default_params();
  heur::InlineParams p2 = p1;
  p2.partial_max_head_size = 40;
  const auto s1 = opt::decision_signature(prog, p1, opt::InlineLimits{});
  const auto s2 = opt::decision_signature(prog, p2, opt::InlineLimits{});
  EXPECT_TRUE(s1.exact);
  EXPECT_EQ(s1.value, s2.value);
}

TEST(DecisionSignature, PartialParameterSeparatesSignaturesWhenEligible) {
  const bc::Program prog = make_guard_program();
  heur::InlineParams p1 = heur::default_params();
  heur::InlineParams p2 = p1;
  p2.partial_max_head_size = 40;
  const auto s1 = opt::decision_signature(prog, p1, opt::InlineLimits{});
  const auto s2 = opt::decision_signature(prog, p2, opt::InlineLimits{});
  ASSERT_TRUE(s1.exact);
  ASSERT_TRUE(s2.exact);
  EXPECT_NE(s1.value, s2.value) << "a partial verdict must reach the hash";

  // And the partial exploration stays deterministic.
  const auto s2_again = opt::decision_signature(prog, p2, opt::InlineLimits{});
  EXPECT_EQ(s2.value, s2_again.value);
}

TEST(DecisionSignature, EqualSignaturesImplyIdenticalOptimizedCode) {
  // Scan a band of neighbouring callee_max_size values over a real
  // workload; whenever two land on the same exact signature, the optimizer
  // must emit identical code for every method under any per-site labelling.
  const bc::Program& prog = wl::make_workload("compress").program;
  const auto oracles = oracle_variants();

  // The default event budget favours probe speed; this test wants the
  // exhaustive exploration, so give it room (aggressive callee ceilings on
  // compress fork past the default).
  opt::SignatureOptions opts;
  opts.max_events = std::size_t{1} << 18;

  const opt::ProbeFacts facts(prog);
  std::map<std::uint64_t, heur::InlineParams> by_sig;
  std::size_t aliased_pairs = 0;
  for (int c = 10; c <= 40; ++c) {
    heur::InlineParams p = heur::default_params();
    p.callee_max_size = c;
    const auto s = opt::decision_signature(prog, p, opt::InlineLimits{}, opts);
    ASSERT_TRUE(s.exact);
    const auto [it, fresh] = by_sig.emplace(s.value, p);
    if (fresh) continue;
    ++aliased_pairs;
    const heur::JikesHeuristic h1(it->second);
    const heur::JikesHeuristic h2(p);
    for (const auto& [oracle_name, oracle] : oracles) {
      for (bc::MethodId id = 0; id < static_cast<bc::MethodId>(prog.num_methods()); ++id) {
        EXPECT_EQ(inline_body(prog, facts, h1, oracle, id).method,
                  inline_body(prog, facts, h2, oracle, id).method)
            << "aliased params diverged: method " << prog.method(id).name() << " oracle "
            << oracle_name << " callee_max " << it->second.callee_max_size << " vs "
            << p.callee_max_size;
      }
    }
  }
  // The band is wider than the number of distinct callee sizes it straddles,
  // so collapse must actually occur for this test to mean anything.
  EXPECT_GT(aliased_pairs, 0u);
}

}  // namespace
}  // namespace ith
