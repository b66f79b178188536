// Walk corruption: PassManager::run fed a walk that no longer describes the
// body — one verdict flipped, one entry dropped or added, a structural
// refusal dropped or turned into an inline verdict — must throw ith::Error,
// never splice silently.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
using opt::VerdictTrace;
using Outcome = opt::ProbeDecision::Outcome;

const opt::InlineLimits kLimits{
    .hard_depth_cap = 20, .max_recursive_occurrences = 1, .max_body_words = 20000};

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

/// Splices every single-entry corruption `corrupt` makes of each method's
/// walk and requires each to throw; returns how many were tried.
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
  std::size_t structural = 0;
  for (const heur::InlineParams& params : param_variants()) {
    for (const wl::Workload& w : wl::make_suite("specjvm98")) {
      tried += expect_corruptions_throw(w.program, params, [&](VerdictTrace& t, std::size_t k) {
        Outcome& o = t.decisions[k].outcome;
        if (o == Outcome::kRefusedStructural) ++structural;
        // A partial splice turns into a full one, a full one into a refusal,
        // and either refusal (a structural one too) into a full splice.
        o = o == Outcome::kInlined ? Outcome::kRefusedHeuristic : Outcome::kInlined;
      });
    }
  }
  EXPECT_GT(tried, 100u);
  EXPECT_GT(structural, 0u) << "no structural refusal was turned into an inline verdict";
}

TEST(VerdictReplay, DroppedEntryThrows) {
  std::size_t tried = 0;
  std::size_t structural = 0;
  for (const heur::InlineParams& params : param_variants()) {
    for (const wl::Workload& w : wl::make_suite("specjvm98")) {
      tried += expect_corruptions_throw(w.program, params, [&](VerdictTrace& t, std::size_t k) {
        if (t.decisions[k].outcome == Outcome::kRefusedStructural) ++structural;
        t.decisions.erase(t.decisions.begin() + static_cast<std::ptrdiff_t>(k));
      });
    }
  }
  EXPECT_GT(tried, 100u);
  EXPECT_GT(structural, 0u) << "no structural refusal was dropped";
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
