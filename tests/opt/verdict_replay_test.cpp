// Verdict replay: PassManager::run fed DecisionProbe's verdict list for a
// method must build exactly what a heuristic-driven run builds — body,
// provenance and OptStats — over the workloads and the fuzz corpus. A list
// that disagrees with the inliner's walk (one verdict flipped, one entry
// dropped) must throw ith::Error, never splice silently.
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/campaign.hpp"
#include "heuristics/heuristic.hpp"
#include "heuristics/inline_params.hpp"
#include "opt/decision_probe.hpp"
#include "opt/pipeline.hpp"
#include "support/error.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

using opt::PassManager;
using opt::PipelineDesc;
using opt::SiteOracle;
using opt::VerdictTrace;

const opt::InlineLimits kLimits{
    .hard_depth_cap = 20, .max_recursive_occurrences = 1, .max_body_words = 20000};

SiteOracle mixed_oracle() {
  return [](bc::MethodId m, std::int32_t pc) {
    const std::uint64_t h =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m)) * 0x9e3779b97f4a7c15ULL) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pc)) * 0xbf58476d1ce4e5b9ULL);
    return opt::SiteProfile{(h >> 17 & 1) != 0, h % 701};
  };
}

void expect_replay_identical(const bc::Program& prog, const heur::InlineParams& params,
                             const SiteOracle& oracle, const std::string& label) {
  const heur::JikesHeuristic h(params);
  PassManager driven(prog, h, oracle, PipelineDesc::standard(), kLimits);
  PassManager replayed(prog, h, oracle, PipelineDesc::standard(), kLimits);
  const opt::ProbeFacts facts(prog);
  const opt::DecisionProbe probe(facts, h, oracle, kLimits);
  VerdictTrace verdicts;
  for (bc::MethodId id = 0; id < static_cast<bc::MethodId>(prog.num_methods()); ++id) {
    SCOPED_TRACE(label + ": method " + prog.method(id).name());
    probe.probe_method(id, verdicts);
    const opt::OptimizeResult want = driven.run(id);
    const opt::OptimizeResult got = replayed.run(id, nullptr, &verdicts);
    ASSERT_EQ(got.body.method, want.body.method);
    ASSERT_EQ(got.body.meta.size(), want.body.meta.size());
    for (std::size_t pc = 0; pc < got.body.meta.size(); ++pc) {
      EXPECT_EQ(got.body.meta[pc].depth, want.body.meta[pc].depth) << "pc " << pc;
      EXPECT_EQ(got.body.meta[pc].origin_method, want.body.meta[pc].origin_method) << "pc " << pc;
      EXPECT_EQ(got.body.meta[pc].origin_pc, want.body.meta[pc].origin_pc) << "pc " << pc;
    }
    EXPECT_TRUE(got.stats == want.stats);
  }
}

std::vector<heur::InlineParams> param_variants() {
  heur::InlineParams wide = heur::default_params();
  wide.callee_max_size = 300;
  wide.always_inline_size = 60;
  wide.max_inline_depth = 10;
  wide.caller_max_size = 8000;
  wide.hot_callee_max_size = 400;
  heur::InlineParams partial = heur::default_params();
  partial.partial_max_head_size = 40;
  return {heur::default_params(), wide, partial};
}

TEST(VerdictReplay, MatchesHeuristicRunsOverWorkloads) {
  const std::vector<heur::InlineParams> params = param_variants();
  std::size_t i = 0;
  for (const wl::Workload& w : wl::make_suite("all")) {
    const heur::InlineParams& p = params[i % params.size()];
    const bool hot = i % 2 == 1;
    expect_replay_identical(w.program, p, hot ? mixed_oracle() : SiteOracle(opt::cold_site),
                            w.name + (hot ? "/mixed" : "/cold") + "/params" +
                                std::to_string(i % params.size()));
    ++i;
  }
}

#ifdef ITH_FUZZ_CORPUS_DIR
TEST(VerdictReplay, MatchesHeuristicRunsOverFuzzCorpus) {
  const auto entries = fuzz::load_corpus(ITH_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(entries.empty()) << "corpus directory missing or empty";
  std::mt19937_64 rng(20261017);
  const auto& ranges = heur::param_ranges();
  std::size_t i = 0;
  for (const auto& [name, prog] : entries) {
    heur::InlineParams::Array a{};
    for (std::size_t k = 0; k < a.size(); ++k) {
      std::uniform_int_distribution<int> dist(ranges[k].lo, ranges[k].hi);
      a[k] = dist(rng);
    }
    const bool hot = i++ % 2 == 1;
    expect_replay_identical(prog, heur::InlineParams::from_array(a),
                            hot ? mixed_oracle() : SiteOracle(opt::cold_site), name);
  }
}
#endif

/// Replays every single-entry corruption `corrupt` makes of each method's
/// verdict list and requires each to throw; returns how many were tried.
template <typename Corrupt>
std::size_t expect_corruptions_throw(const bc::Program& prog, const heur::InlineParams& params,
                                     Corrupt corrupt) {
  const heur::JikesHeuristic h(params);
  PassManager pm(prog, h, opt::cold_site, PipelineDesc::standard(), kLimits);
  const opt::ProbeFacts facts(prog);
  const opt::DecisionProbe probe(facts, h, opt::cold_site, kLimits);
  std::size_t tried = 0;
  for (bc::MethodId id = 0; id < static_cast<bc::MethodId>(prog.num_methods()); ++id) {
    VerdictTrace verdicts;
    probe.probe_method(id, verdicts);
    for (std::size_t k = 0; k < verdicts.decisions.size(); ++k) {
      VerdictTrace bad = verdicts;
      corrupt(bad, k);
      SCOPED_TRACE(prog.method(id).name() + " entry " + std::to_string(k));
      EXPECT_THROW(pm.run(id, nullptr, &bad), Error);
      ++tried;
    }
  }
  return tried;
}

TEST(VerdictReplay, FlippedVerdictThrows) {
  std::size_t tried = 0;
  for (const heur::InlineParams& params : param_variants()) {
    for (const wl::Workload& w : wl::make_suite("specjvm98")) {
      tried += expect_corruptions_throw(w.program, params, [](VerdictTrace& t, std::size_t k) {
        opt::ProbeDecision& d = t.decisions[k];
        // A partial splice turns into a full one; any other verdict flips
        // between refuse and inline.
        d.inlined = d.partial || !d.inlined;
        d.partial = false;
      });
    }
  }
  EXPECT_GT(tried, 100u);
}

TEST(VerdictReplay, DroppedEntryThrows) {
  std::size_t tried = 0;
  for (const wl::Workload& w : wl::make_suite("specjvm98")) {
    tried += expect_corruptions_throw(
        w.program, heur::default_params(), [](VerdictTrace& t, std::size_t k) {
          t.decisions.erase(t.decisions.begin() + static_cast<std::ptrdiff_t>(k));
        });
  }
  EXPECT_GT(tried, 100u);
}

TEST(VerdictReplay, ExtraEntryThrows) {
  const bc::Program prog = wl::make_suite("specjvm98").front().program;
  const heur::JikesHeuristic h(heur::default_params());
  PassManager pm(prog, h, opt::cold_site, PipelineDesc::standard(), kLimits);
  const opt::ProbeFacts facts(prog);
  const opt::DecisionProbe probe(facts, h, opt::cold_site, kLimits);
  for (bc::MethodId id = 0; id < static_cast<bc::MethodId>(prog.num_methods()); ++id) {
    VerdictTrace verdicts;
    probe.probe_method(id, verdicts);
    if (verdicts.decisions.empty()) continue;
    verdicts.decisions.push_back(verdicts.decisions.back());
    EXPECT_THROW(pm.run(id, nullptr, &verdicts), Error) << prog.method(id).name();
  }
}

}  // namespace
}  // namespace ith
