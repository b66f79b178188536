// Golden decision signatures. The table below was recorded from the
// original, per-call-facts implementation of opt::decision_signature and is
// committed verbatim: any change to the signature walk that moves a single
// output bit — the value, the exact flag, the consultation or fork count —
// fails here. Rows cover both suites, both scenarios (adaptive explores
// hot/cold labellings, Opt replays all-cold), partial inlining off and on,
// and parameter vectors whose walk overflows the default event budget
// (exact=false). Every row is checked through both entry points: the
// wrapper that builds its own ProbeFacts, and the overload that reuses one
// ProbeFacts per program the way SuiteEvaluator does.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "opt/decision_probe.hpp"
#include "support/codec.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

struct GoldenRow {
  const char* suite;
  bool adaptive;
  heur::InlineParams::Array params;
  std::uint64_t value;
  bool exact;
  std::uint64_t consultations;
  std::uint64_t forks;
};

// Suite-level figures: the per-program values chained through FNV-1a in
// suite order, exact = every program exact, counts summed.
constexpr GoldenRow kGolden[] = {
    {"specjvm98", true, {23, 11, 5, 2048, 135, 0}, 0xa3447cecf1c66943ULL, true, 2058, 210},
    {"specjvm98", true, {23, 11, 5, 2048, 135, 12}, 0x4794dfee5b257beeULL, true, 2058, 210},
    {"specjvm98", true, {50, 30, 15, 4000, 400, 0}, 0x4532e62dacfe7ec0ULL, false, 90042, 8258},
    {"specjvm98", true, {50, 30, 15, 4000, 400, 40}, 0x7a2cbe97c9b69970ULL, false, 90042, 8258},
    {"specjvm98", true, {1, 1, 1, 1, 1, 0}, 0xd8f3ed15f28a11ddULL, true, 817, 0},
    {"specjvm98", true, {1, 1, 1, 1, 1, 1}, 0xd8f3ed15f28a11ddULL, true, 817, 0},
    {"specjvm98", true, {35, 20, 8, 3000, 250, 0}, 0x8653bf3fd6b1b4d0ULL, false, 22177, 1600},
    {"specjvm98", true, {35, 20, 8, 3000, 250, 25}, 0x00662bad9fd13268ULL, false, 22177, 1600},
    {"specjvm98", true, {12, 6, 3, 500, 60, 0}, 0x7c5aa20d102bdcf9ULL, true, 40125, 19024},
    {"specjvm98", true, {12, 6, 3, 500, 60, 6}, 0x7c5aa20d102bdcf9ULL, true, 40125, 19024},
    {"specjvm98", true, {30, 14, 6, 1200, 200, 0}, 0xc2ee778a998f9a08ULL, true, 2033, 140},
    {"specjvm98", true, {30, 14, 6, 1200, 200, 18}, 0xa008a03af71c27e5ULL, true, 2033, 140},
    {"specjvm98", true, {8, 30, 2, 64, 20, 0}, 0x50a3160577d3ad84ULL, true, 49597, 24142},
    {"specjvm98", true, {8, 30, 2, 64, 20, 3}, 0x50a3160577d3ad84ULL, true, 49597, 24142},
    {"specjvm98", true, {5, 3, 1, 200, 10, 0}, 0xd8f3ed15f28a11ddULL, true, 817, 0},
    {"specjvm98", true, {5, 3, 1, 200, 10, 2}, 0xd8f3ed15f28a11ddULL, true, 817, 0},
    {"specjvm98", true, {15, 10, 2, 800, 90, 0}, 0xe1c8aa005bba50b8ULL, true, 13155, 4937},
    {"specjvm98", true, {15, 10, 2, 800, 90, 9}, 0xc0c6259dcbdea0a7ULL, true, 13155, 4937},
    {"specjvm98", true, {20, 5, 4, 1500, 15, 0}, 0xea945f55f3767fd2ULL, true, 9464, 3403},
    {"specjvm98", true, {20, 5, 4, 1500, 15, 40}, 0x349db854b78f17c3ULL, true, 9464, 3403},
    {"specjvm98", false, {23, 11, 5, 2048, 135, 0}, 0xc87d3b2c75d6aa36ULL, true, 893, 0},
    {"specjvm98", false, {23, 11, 5, 2048, 135, 12}, 0x24d74c1b32584abdULL, true, 893, 0},
    {"specjvm98", false, {50, 30, 15, 4000, 400, 0}, 0x896dc086cfea36d7ULL, true, 907, 0},
    {"specjvm98", false, {50, 30, 15, 4000, 400, 40}, 0x896dc086cfea36d7ULL, true, 907, 0},
    {"specjvm98", false, {1, 1, 1, 1, 1, 0}, 0xd8f3ed15f28a11ddULL, true, 817, 0},
    {"specjvm98", false, {1, 1, 1, 1, 1, 1}, 0xd8f3ed15f28a11ddULL, true, 817, 0},
    {"specjvm98", false, {35, 20, 8, 3000, 250, 0}, 0x741bafad1e65dea3ULL, true, 899, 0},
    {"specjvm98", false, {35, 20, 8, 3000, 250, 25}, 0x741bafad1e65dea3ULL, true, 899, 0},
    {"specjvm98", false, {12, 6, 3, 500, 60, 0}, 0x870a792c8ae97abaULL, true, 817, 0},
    {"specjvm98", false, {12, 6, 3, 500, 60, 6}, 0x870a792c8ae97abaULL, true, 817, 0},
    {"specjvm98", false, {30, 14, 6, 1200, 200, 0}, 0x267d6d7e4f7300a3ULL, true, 899, 0},
    {"specjvm98", false, {30, 14, 6, 1200, 200, 18}, 0xedd742cf9ce63c80ULL, true, 899, 0},
    {"specjvm98", false, {8, 30, 2, 64, 20, 0}, 0xd8f3ed15f28a11ddULL, true, 817, 0},
    {"specjvm98", false, {8, 30, 2, 64, 20, 3}, 0xd8f3ed15f28a11ddULL, true, 817, 0},
    {"specjvm98", false, {5, 3, 1, 200, 10, 0}, 0xd8f3ed15f28a11ddULL, true, 817, 0},
    {"specjvm98", false, {5, 3, 1, 200, 10, 2}, 0xd8f3ed15f28a11ddULL, true, 817, 0},
    {"specjvm98", false, {15, 10, 2, 800, 90, 0}, 0x510ff7572989e603ULL, true, 817, 0},
    {"specjvm98", false, {15, 10, 2, 800, 90, 9}, 0xddf7dc344adb8602ULL, true, 817, 0},
    {"specjvm98", false, {20, 5, 4, 1500, 15, 0}, 0x704ac11610a5d098ULL, true, 863, 0},
    {"specjvm98", false, {20, 5, 4, 1500, 15, 40}, 0x77f2956587c5416eULL, true, 863, 0},
    {"dacapo+jbb", true, {23, 11, 5, 2048, 135, 0}, 0x66c99bf7a27d20adULL, false, 79634, 15555},
    {"dacapo+jbb", true, {23, 11, 5, 2048, 135, 12}, 0x0d74dba4d3814da5ULL, false, 79634, 15555},
    {"dacapo+jbb", true, {50, 30, 15, 4000, 400, 0}, 0x2740768acedf29feULL, false, 114695, 7180},
    {"dacapo+jbb", true, {50, 30, 15, 4000, 400, 40}, 0x20f02dd8eb94d13eULL, false, 114695, 7180},
    {"dacapo+jbb", true, {1, 1, 1, 1, 1, 0}, 0x31f5acdaf9cf3f24ULL, true, 2411, 0},
    {"dacapo+jbb", true, {1, 1, 1, 1, 1, 1}, 0x31f5acdaf9cf3f24ULL, true, 2411, 0},
    {"dacapo+jbb", true, {35, 20, 8, 3000, 250, 0}, 0x101f8e04611b47b1ULL, false, 89130, 10312},
    {"dacapo+jbb", true, {35, 20, 8, 3000, 250, 25}, 0xc23188323c3f667dULL, false, 89130, 10312},
    {"dacapo+jbb", true, {12, 6, 3, 500, 60, 0}, 0xe3c56325309e4b4bULL, false, 114695, 40374},
    {"dacapo+jbb", true, {12, 6, 3, 500, 60, 6}, 0xe45350bdbcf78c62ULL, false, 114695, 40374},
    {"dacapo+jbb", true, {30, 14, 6, 1200, 200, 0}, 0xf0e859fa3b3f8da3ULL, false, 54946, 18091},
    {"dacapo+jbb", true, {30, 14, 6, 1200, 200, 18}, 0xf2703903e79c3329ULL, false, 54946, 18091},
    {"dacapo+jbb", true, {8, 30, 2, 64, 20, 0}, 0x616dea33c8d76a30ULL, false, 61233, 19206},
    {"dacapo+jbb", true, {8, 30, 2, 64, 20, 3}, 0x8c79bfce9473002dULL, false, 61233, 19206},
    {"dacapo+jbb", true, {5, 3, 1, 200, 10, 0}, 0xff1d4d5a0f1da6ddULL, true, 2612, 161},
    {"dacapo+jbb", true, {5, 3, 1, 200, 10, 2}, 0xff1d4d5a0f1da6ddULL, true, 2612, 161},
    {"dacapo+jbb", true, {15, 10, 2, 800, 90, 0}, 0x5c59c7fb1cc847f0ULL, false, 114695, 39258},
    {"dacapo+jbb", true, {15, 10, 2, 800, 90, 9}, 0x5bc9ed44cf117176ULL, false, 114695, 39258},
    {"dacapo+jbb", true, {20, 5, 4, 1500, 15, 0}, 0xd4b864128d573512ULL, true, 24368, 5614},
    {"dacapo+jbb", true, {20, 5, 4, 1500, 15, 40}, 0xd4b864128d573512ULL, true, 24368, 5614},
    {"dacapo+jbb", false, {23, 11, 5, 2048, 135, 0}, 0x57092637d160ce71ULL, true, 4096, 0},
    {"dacapo+jbb", false, {23, 11, 5, 2048, 135, 12}, 0x57092637d160ce71ULL, true, 4096, 0},
    {"dacapo+jbb", false, {50, 30, 15, 4000, 400, 0}, 0x67e71dedfec503c8ULL, true, 5215, 0},
    {"dacapo+jbb", false, {50, 30, 15, 4000, 400, 40}, 0x67e71dedfec503c8ULL, true, 5215, 0},
    {"dacapo+jbb", false, {1, 1, 1, 1, 1, 0}, 0x31f5acdaf9cf3f24ULL, true, 2411, 0},
    {"dacapo+jbb", false, {1, 1, 1, 1, 1, 1}, 0x31f5acdaf9cf3f24ULL, true, 2411, 0},
    {"dacapo+jbb", false, {35, 20, 8, 3000, 250, 0}, 0xfee13045b7e66212ULL, true, 5079, 0},
    {"dacapo+jbb", false, {35, 20, 8, 3000, 250, 25}, 0xfee13045b7e66212ULL, true, 5079, 0},
    {"dacapo+jbb", false, {12, 6, 3, 500, 60, 0}, 0xd3cca7fc090ffe4eULL, true, 2411, 0},
    {"dacapo+jbb", false, {12, 6, 3, 500, 60, 6}, 0xd3cca7fc090ffe4eULL, true, 2411, 0},
    {"dacapo+jbb", false, {30, 14, 6, 1200, 200, 0}, 0x644760d6a925f924ULL, true, 4960, 0},
    {"dacapo+jbb", false, {30, 14, 6, 1200, 200, 18}, 0x644760d6a925f924ULL, true, 4960, 0},
    {"dacapo+jbb", false, {8, 30, 2, 64, 20, 0}, 0x0bd630f746942d5cULL, true, 2411, 0},
    {"dacapo+jbb", false, {8, 30, 2, 64, 20, 3}, 0x0bd630f746942d5cULL, true, 2411, 0},
    {"dacapo+jbb", false, {5, 3, 1, 200, 10, 0}, 0x31f5acdaf9cf3f24ULL, true, 2411, 0},
    {"dacapo+jbb", false, {5, 3, 1, 200, 10, 2}, 0x31f5acdaf9cf3f24ULL, true, 2411, 0},
    {"dacapo+jbb", false, {15, 10, 2, 800, 90, 0}, 0xbb571034acba1d12ULL, true, 2411, 0},
    {"dacapo+jbb", false, {15, 10, 2, 800, 90, 9}, 0xbb571034acba1d12ULL, true, 2411, 0},
    {"dacapo+jbb", false, {20, 5, 4, 1500, 15, 0}, 0x6e9fc9db27f7843fULL, true, 3309, 0},
    {"dacapo+jbb", false, {20, 5, 4, 1500, 15, 40}, 0x6e9fc9db27f7843fULL, true, 3309, 0},
};

/// One suite's programs and, built once, their ProbeFacts.
struct Suite {
  std::vector<wl::Workload> workloads;
  std::vector<opt::ProbeFacts> facts;

  explicit Suite(const std::string& name) : workloads(wl::make_suite(name)) {
    for (const wl::Workload& w : workloads) facts.emplace_back(w.program);
  }
};

opt::SignatureResult suite_signature(const Suite& suite, const GoldenRow& row, bool reuse_facts) {
  const heur::InlineParams params = heur::InlineParams::from_array(row.params);
  opt::SignatureOptions opts;
  opts.adaptive = row.adaptive;
  opt::SignatureResult total;
  total.value = codec::kFnv1aBasis;
  for (std::size_t i = 0; i < suite.workloads.size(); ++i) {
    const bc::Program& prog = suite.workloads[i].program;
    const opt::SignatureResult r =
        reuse_facts ? opt::decision_signature(prog, suite.facts[i], params, {}, opts)
                    : opt::decision_signature(prog, params, {}, opts);
    total.value = codec::fnv1a_u64(total.value, r.value);
    total.exact = total.exact && r.exact;
    total.consultations += r.consultations;
    total.forks += r.forks;
  }
  return total;
}

std::string describe(const GoldenRow& row) {
  std::string s = std::string(row.suite) + (row.adaptive ? " adaptive {" : " opt {");
  for (std::size_t k = 0; k < row.params.size(); ++k) {
    s += (k == 0 ? "" : ",") + std::to_string(row.params[k]);
  }
  return s + "}";
}

void check_suite(const std::string& name) {
  const Suite suite(name);
  int rows = 0;
  int overflowing = 0;
  for (const GoldenRow& row : kGolden) {
    if (name != row.suite) continue;
    ++rows;
    overflowing += row.exact ? 0 : 1;
    for (const bool reuse_facts : {false, true}) {
      SCOPED_TRACE(describe(row) + (reuse_facts ? " (shared facts)" : " (wrapper)"));
      const opt::SignatureResult r = suite_signature(suite, row, reuse_facts);
      EXPECT_EQ(r.value, row.value);
      EXPECT_EQ(r.exact, row.exact);
      EXPECT_EQ(r.consultations, row.consultations);
      EXPECT_EQ(r.forks, row.forks);
    }
  }
  // The table itself must keep covering both outcomes of the budget.
  EXPECT_GT(rows, overflowing);
  EXPECT_GT(overflowing, 0);
}

TEST(SignatureGolden, SpecJvm98MatchesRecordedTable) { check_suite("specjvm98"); }

TEST(SignatureGolden, DacapoJbbMatchesRecordedTable) { check_suite("dacapo+jbb"); }

}  // namespace
}  // namespace ith
