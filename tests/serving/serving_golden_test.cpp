// Golden serving outputs. The table below is a committed record: a change
// anywhere in the serving driver, the instances, the shadow tuner or the VM
// that moves one request's start, service or latency, one install or the
// installed parameters fails here, against outputs recorded from an earlier
// implementation rather than against a second run of this build.
//
// Each row is one fixed-seed online serve_workload: every service ×
// {rolling, all} rollout × {4 instances on 4 threads, 3 on 2, 4 on 1}. The
// digest covers every RequestRecord in request-id order; the row also pins
// installs, p50/p99, SLO violations and an FNV-1a digest of the final
// parameters. A row that no longer matches prints its new value as a line of
// this table; a change that moves outputs on purpose replaces the rows it
// moves and says why in CHANGES.md.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "heuristics/inline_params.hpp"
#include "serving/driver.hpp"
#include "serving/workloads.hpp"
#include "support/codec.hpp"

namespace ith {
namespace {

struct Row {
  const char* service;
  const char* rollout;
  int instances;
  int threads;
  std::uint64_t records;  ///< FNV-1a over every RequestRecord field
  std::uint64_t installs;
  std::uint64_t p50;
  std::uint64_t p99;
  std::uint64_t slo_violations;
  std::uint64_t params;  ///< FNV-1a of final_params.to_string()

  bool same(const Row& o) const {
    return records == o.records && installs == o.installs && p50 == o.p50 && p99 == o.p99 &&
           slo_violations == o.slo_violations && params == o.params;
  }

  std::string to_source() const {
    std::ostringstream os;
    os << "    {\"" << service << "\", \"" << rollout << "\", " << instances << ", " << threads
       << ", 0x" << std::hex << records << std::dec << "ULL, " << installs << ", " << p50 << ", "
       << p99 << ", " << slo_violations << ", 0x" << std::hex << params << std::dec << "ULL},";
    return os.str();
  }
};

// clang-format off
constexpr Row kServingGolden[] = {
    {"kv_server", "rolling", 4, 4, 0x35f01769d52b44fdULL, 4, 479, 29552, 7, 0x5e926c6a065864d9ULL},
    {"kv_server", "rolling", 3, 2, 0x88815aa61096f1f7ULL, 3, 479, 27662, 0, 0x5e926c6a065864d9ULL},
    {"kv_server", "rolling", 4, 1, 0x35f01769d52b44fdULL, 4, 479, 29552, 7, 0x5e926c6a065864d9ULL},
    {"kv_server", "all", 4, 4, 0xd894e0fc5e135815ULL, 4, 463, 28385, 3, 0x5e926c6a065864d9ULL},
    {"kv_server", "all", 3, 2, 0xa28256de9375523fULL, 3, 418, 27194, 0, 0x5e926c6a065864d9ULL},
    {"kv_server", "all", 4, 1, 0xd894e0fc5e135815ULL, 4, 463, 28385, 3, 0x5e926c6a065864d9ULL},
    {"query_dispatch", "rolling", 4, 4, 0xd36a7635931a4598ULL, 4, 2571, 71037, 3, 0x9a5efe0c429a69a3ULL},
    {"query_dispatch", "rolling", 3, 2, 0x6dc87fbac903c4abULL, 3, 2230, 68591, 0, 0x9a5efe0c429a69a3ULL},
    {"query_dispatch", "rolling", 4, 1, 0xd36a7635931a4598ULL, 4, 2571, 71037, 3, 0x9a5efe0c429a69a3ULL},
    {"query_dispatch", "all", 4, 4, 0x40a2747bd97193e9ULL, 4, 2205, 77568, 12, 0x9a5efe0c429a69a3ULL},
    {"query_dispatch", "all", 3, 2, 0xc89226e0e9a22c77ULL, 3, 1436, 79519, 15, 0x9a5efe0c429a69a3ULL},
    {"query_dispatch", "all", 4, 1, 0x40a2747bd97193e9ULL, 4, 2205, 77568, 12, 0x9a5efe0c429a69a3ULL},
    {"text_pipe", "rolling", 4, 4, 0x226389a93d9f205ULL, 4, 3636, 181699, 0, 0x301489fcbbbbe2fULL},
    {"text_pipe", "rolling", 3, 2, 0xa745a6a75e007f9dULL, 3, 3897, 200091, 0, 0x301489fcbbbbe2fULL},
    {"text_pipe", "rolling", 4, 1, 0x226389a93d9f205ULL, 4, 3636, 181699, 0, 0x301489fcbbbbe2fULL},
    {"text_pipe", "all", 4, 4, 0x65a98aa8d3bda232ULL, 4, 3427, 175751, 0, 0x301489fcbbbbe2fULL},
    {"text_pipe", "all", 3, 2, 0x2b218d3a65e1e2cdULL, 3, 3445, 242788, 0, 0x301489fcbbbbe2fULL},
    {"text_pipe", "all", 4, 1, 0x65a98aa8d3bda232ULL, 4, 3427, 175751, 0, 0x301489fcbbbbe2fULL},
};
// clang-format on

Row serve_row(const std::string& service, serving::Rollout rollout, int instances, int threads) {
  // Start from the Table 1 low end, a deliberately bad inliner, so the GA
  // improves at once and both rollouts install.
  heur::InlineParams bad;
  bad.callee_max_size = 0;
  bad.always_inline_size = 0;
  bad.max_inline_depth = 0;
  bad.caller_max_size = 0;
  bad.hot_callee_max_size = 0;
  serving::ServingConfig c;
  c.seed = 11;
  c.initial = heur::clamp_to_ranges(bad);
  c.instances = instances;
  c.threads = static_cast<std::size_t>(threads);
  c.requests = 2048;
  c.calibration_requests = 32;
  c.load = 0.9;
  c.slo_multiplier = 32.0;
  c.online_tune = true;
  c.ga_generations = 3;
  c.ga_population = 6;
  c.ga_seed = 7;
  c.rollout = rollout;
  const serving::WorkloadServeReport rep = serving::serve_workload(service, c);

  std::uint64_t h = codec::kFnv1aBasis;
  for (const serving::RequestRecord& r : rep.records) {
    for (const std::uint64_t v : {r.arrival, r.start, r.service, r.latency}) {
      h = codec::fnv1a_u64(h, v);
    }
    h = codec::fnv1a_u64(h, static_cast<std::uint64_t>(r.instance));
    h = codec::fnv1a_u64(h, r.ok ? 1 : 0);
  }
  return Row{service.c_str(), serving::rollout_name(rollout), instances, threads, h,
             rep.installs, rep.digest.p50(), rep.digest.p99(), rep.slo_violations,
             codec::fnv1a(rep.final_params.to_string())};
}

TEST(ServingGolden, EveryServiceRolloutAndFleetShape) {
  const struct {
    int instances;
    int threads;
  } shapes[] = {{4, 4}, {3, 2}, {4, 1}};
  std::size_t matched = 0;
  std::size_t computed = 0;
  for (const std::string& service : serving::serving_names()) {
    for (const serving::Rollout rollout : {serving::Rollout::kRolling, serving::Rollout::kAll}) {
      for (const auto& shape : shapes) {
        const Row got = serve_row(service, rollout, shape.instances, shape.threads);
        ++computed;
        const Row* want = nullptr;
        for (const Row& r : kServingGolden) {
          if (service == r.service && std::string(got.rollout) == r.rollout &&
              r.instances == got.instances && r.threads == got.threads) {
            want = &r;
          }
        }
        if (want == nullptr) {
          ADD_FAILURE() << "no golden row; new value:\n" << got.to_source();
          continue;
        }
        ++matched;
        EXPECT_TRUE(want->same(got)) << "golden row moved; was:\n"
                                     << want->to_source() << "\nnew value:\n"
                                     << got.to_source();
      }
    }
  }
  EXPECT_EQ(matched, computed);
}

}  // namespace
}  // namespace ith
