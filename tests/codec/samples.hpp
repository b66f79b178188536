// The sample records the format tests share. golden/sample.gacp is the
// checkpoint sample as written by the encoder before the codec was unified,
// golden/sample.evc the snapshot sample as written in ITHEVC3. The retired
// ITHEVC1 and ITHEVC2 goldens (golden/sample.v1.evc, golden/sample.v2.evc)
// are kept to show their magic is refused. Changing a sample means
// regenerating its golden file too.
#pragma once

#include <memory>
#include <string>

#include "resilience/budget.hpp"
#include "resilience/checkpoint.hpp"
#include "tuner/eval_cache.hpp"

namespace ith {

/// A two-compile trace: a mid-tier compile with two hot sites, then a full
/// one with none.
inline std::shared_ptr<const tuner::CompileTrace> sample_trace() {
  vm::CompileEvent mid;
  mid.method = 3;
  mid.tier = rt::Tier::kMidOpt;
  mid.hot_sites = {0x300000007ULL, 0x30000000cULL};
  mid.verdicts = std::string("\x01\x00\x02", 3);
  vm::CompileEvent full;
  full.method = 0;
  full.tier = rt::Tier::kOpt;
  return std::make_shared<const tuner::CompileTrace>(tuner::CompileTrace{mid, full});
}

inline tuner::EvalCacheSnapshot sample_snapshot() {
  tuner::EvalCacheSnapshot snap;
  snap.fingerprint = 0xfeedfacecafebeefULL;

  tuner::EvalCacheSnapshot::Entry ok;
  ok.signature = 0x1111222233334444ULL;
  tuner::BenchmarkResult r1;
  r1.name = "db";
  r1.running_cycles = 123456789;
  r1.total_cycles = 234567890;
  r1.compile_cycles = 111111101;
  r1.attempts = 2;
  ok.results.push_back(r1);
  tuner::BenchmarkResult r2;
  r2.name = "compress";
  r2.running_cycles = 42;
  r2.total_cycles = 43;
  r2.compile_cycles = 1;
  r2.trace = sample_trace();
  ok.results.push_back(r2);
  snap.entries.push_back(ok);

  tuner::EvalCacheSnapshot::Entry failed;
  failed.signature = 0x5555666677778888ULL;
  tuner::BenchmarkResult rf;
  rf.name = "db";
  rf.outcome = resilience::EvalOutcome::make_trap(resilience::TrapKind::kInjected, "quarantined");
  rf.attempts = 0;
  failed.results.push_back(rf);
  snap.entries.push_back(failed);

  // A second suite that reached r2's run: the file holds its trace once.
  tuner::EvalCacheSnapshot::Entry shared;
  shared.signature = 0xaaaabbbbccccddddULL;
  shared.results.push_back(r1);
  shared.results.push_back(r2);
  snap.entries.push_back(shared);

  snap.quarantined = {0x5555666677778888ULL, 0x9999aaaabbbbccccULL};

  snap.params.push_back({{1, 1, 1, 1, 1, 0}, {{0x0123456789abcdefULL, true}, {0x42, true}}});
  snap.params.push_back(
      {{23, 11, 5, 2048, 135, 12}, {{0xfedcba9876543210ULL, false}, {0x42, true}}});
  return snap;
}

inline resilience::GaCheckpoint sample_checkpoint() {
  resilience::GaCheckpoint cp;
  cp.fingerprint = 0xfeedfacecafebeefULL;
  cp.generation = 7;
  cp.rng_state = 0x123456789abcdef0ULL;
  cp.rng_inc = 0x1111111111111111ULL;
  cp.evaluations = 42;
  cp.cache_hits = 17;
  cp.best_ever = 0.875;
  cp.best_genome = {3, 1, 4, 1, 5};
  cp.stale = 2;
  cp.population = {{1, 2, 3, 4, 5}, {5, 4, 3, 2, 1}};
  cp.fitness = {0.9, 1.1};
  cp.cache = {{{1, 2, 3, 4, 5}, 0.9}, {{5, 4, 3, 2, 1}, 1.1}};
  ga::GenerationStats gs;
  gs.generation = 7;
  gs.best = 0.875;
  gs.mean = 1.0;
  gs.worst = 1.25;
  gs.diversity = 0.5;
  gs.best_genome = cp.best_genome;
  cp.history = {gs};
  cp.quarantine = {{9, 9, 9, 9, 9}};
  return cp;
}

}  // namespace ith
