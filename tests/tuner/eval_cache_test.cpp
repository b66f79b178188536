// Persistent evaluation cache (ITHEVC3): full-fidelity roundtrip through
// the binary format, trailing bytes after a whole file (the other loader
// diagnostics — missing file, bad magic, truncation, bit flips — are swept
// in tests/codec/golden_test.cpp's Envelope suite), and the fingerprint gate
// that keeps a cache produced under one evaluator configuration from
// silently feeding results to a different one.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "codec/samples.hpp"
#include "heuristics/inline_params.hpp"
#include "resilience/budget.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"
#include "tuner/eval_cache.hpp"
#include "tuner/evaluator.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

class EvalCacheFile : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "eval_cache_" + info->name() + ".bin";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(EvalCacheFile, Roundtrip) {
  const tuner::EvalCacheSnapshot snap = sample_snapshot();
  tuner::save_eval_cache(path_, snap);
  const tuner::EvalCacheSnapshot got = tuner::load_eval_cache(path_);

  EXPECT_EQ(got.fingerprint, snap.fingerprint);
  EXPECT_EQ(got.quarantined, snap.quarantined);
  ASSERT_EQ(got.entries.size(), snap.entries.size());
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].signature, snap.entries[i].signature);
    ASSERT_EQ(got.entries[i].results.size(), snap.entries[i].results.size());
    for (std::size_t j = 0; j < snap.entries[i].results.size(); ++j) {
      const tuner::BenchmarkResult& want = snap.entries[i].results[j];
      const tuner::BenchmarkResult& have = got.entries[i].results[j];
      EXPECT_EQ(have.name, want.name);
      EXPECT_EQ(have.running_cycles, want.running_cycles);
      EXPECT_EQ(have.total_cycles, want.total_cycles);
      EXPECT_EQ(have.compile_cycles, want.compile_cycles);
      EXPECT_EQ(have.outcome.kind, want.outcome.kind);
      EXPECT_EQ(have.outcome.budget, want.outcome.budget);
      EXPECT_EQ(have.outcome.trap, want.outcome.trap);
      EXPECT_EQ(have.outcome.detail, want.outcome.detail);
      EXPECT_EQ(have.attempts, want.attempts);
      ASSERT_EQ(have.trace == nullptr, want.trace == nullptr);
      if (want.trace == nullptr) continue;
      ASSERT_EQ(have.trace->size(), want.trace->size());
      for (std::size_t k = 0; k < want.trace->size(); ++k) {
        const vm::CompileEvent& he = (*have.trace)[k];
        const vm::CompileEvent& we = (*want.trace)[k];
        EXPECT_EQ(he.method, we.method);
        EXPECT_EQ(he.tier, we.tier);
        EXPECT_EQ(he.hot_sites, we.hot_sites);
        EXPECT_EQ(he.verdicts, we.verdicts);
      }
    }
  }
  // One trace in the table, so the results that share it on save share it
  // on load.
  EXPECT_EQ(got.entries[0].results[1].trace, got.entries[2].results[1].trace);
  ASSERT_EQ(got.params.size(), snap.params.size());
  for (std::size_t i = 0; i < snap.params.size(); ++i) {
    EXPECT_EQ(got.params[i].params, snap.params[i].params);
    EXPECT_EQ(got.params[i].keys, snap.params[i].keys);
  }
}

TEST_F(EvalCacheFile, TrailingGarbageRejected) {
  tuner::save_eval_cache(path_, sample_snapshot());
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "extra";
  }
  try {
    tuner::load_eval_cache(path_);
    FAIL() << "loaded a cache with trailing bytes";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos) << e.what();
  }
}

TEST_F(EvalCacheFile, MalformedParamsTableRejected) {
  // Well-sealed payloads (so the checksum passes) whose params table is
  // out of range: the decoder itself must refuse them.
  tuner::save_eval_cache(path_, sample_snapshot());
  std::ifstream in(path_, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::string payload = file.substr(24);  // past magic, size, checksum
  // The sample's table: a count, then two rows of six params, a key count
  // and two (value, exact) keys.
  constexpr std::size_t kRowBytes = 6 * 8 + 8 + 2 * 16;
  const std::size_t first_param = payload.size() - 2 * kRowBytes;
  const std::size_t last_flag = payload.size() - 8;
  const codec::FileFormat format{"ITHEVC3", "evaluation cache"};
  for (const auto& [offset, needle] : {std::pair{first_param, "out of range"},
                                       std::pair{last_flag, "not 0 or 1"}}) {
    std::string bad = payload;
    bad[offset + 5] = '\x01';  // 2^40: no int, and no flag
    codec::save_sealed(path_, format, bad);
    try {
      tuner::load_eval_cache(path_);
      ADD_FAILURE() << "loaded a table damaged at byte " << offset;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Fingerprint gating at restore().

tuner::SuiteEvaluator make_evaluator(int iterations) {
  std::vector<wl::Workload> suite;
  suite.push_back(wl::make_workload("db"));
  tuner::EvalConfig config;
  config.iterations = iterations;
  return tuner::SuiteEvaluator(std::move(suite), config);
}

TEST_F(EvalCacheFile, RestoredEntriesSatisfyEvaluateWithoutARun) {
  tuner::SuiteEvaluator producer = make_evaluator(/*iterations=*/2);
  const heur::InlineParams params = heur::default_params();
  const tuner::SuiteEvaluator::Results want = producer.evaluate(params);
  ASSERT_EQ(producer.evaluations_performed(), 1u);
  tuner::save_eval_cache(path_, producer.snapshot());

  tuner::SuiteEvaluator consumer = make_evaluator(/*iterations=*/2);
  consumer.restore(tuner::load_eval_cache(path_));
  const tuner::SuiteEvaluator::Results got = consumer.evaluate(params);
  EXPECT_EQ(consumer.evaluations_performed(), 0u);  // pure cache hit
  ASSERT_EQ(got->size(), want->size());
  EXPECT_EQ((*got)[0].name, (*want)[0].name);
  EXPECT_EQ((*got)[0].running_cycles, (*want)[0].running_cycles);
  EXPECT_EQ((*got)[0].total_cycles, (*want)[0].total_cycles);
  EXPECT_EQ((*got)[0].compile_cycles, (*want)[0].compile_cycles);
}

TEST_F(EvalCacheFile, FingerprintMismatchRefusedByRestore) {
  tuner::SuiteEvaluator producer = make_evaluator(/*iterations=*/2);
  producer.evaluate(heur::default_params());
  tuner::save_eval_cache(path_, producer.snapshot());

  // A differently-configured evaluator (iteration count changes every cycle
  // figure) must refuse the snapshot outright rather than serve stale rows.
  tuner::SuiteEvaluator other = make_evaluator(/*iterations=*/3);
  ASSERT_NE(other.cache_fingerprint(), producer.cache_fingerprint());
  const tuner::EvalCacheSnapshot snap = tuner::load_eval_cache(path_);
  try {
    other.restore(snap);
    FAIL() << "expected fingerprint mismatch Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"), std::string::npos) << e.what();
  }
  EXPECT_EQ(other.cache_size(), 0u);  // nothing leaked in before the check
}

TEST(EvalCacheFingerprint, EachInstructionFieldChangesIt) {
  // The fingerprint mixes each instruction as one word: a change to its
  // opcode, its a operand or its b operand alone must still change it.
  const wl::Workload db = wl::make_workload("db");
  const auto fingerprint = [](const wl::Workload& w) {
    return tuner::SuiteEvaluator({w}, tuner::EvalConfig{}).cache_fingerprint();
  };
  const std::uint64_t base = fingerprint(db);
  const bc::Instruction first = db.program.method(0).code().front();
  const std::vector<bc::Instruction> variants = {
      {static_cast<bc::Op>(static_cast<int>(first.op) + 1), first.a, first.b},
      {first.op, first.a + 1, first.b},
      {first.op, first.a, first.b + 1},
  };
  std::set<std::uint64_t> seen{base};
  for (const bc::Instruction& insn : variants) {
    wl::Workload changed = db;
    changed.program.mutable_method(0).mutable_code().front() = insn;
    EXPECT_TRUE(seen.insert(fingerprint(changed)).second)
        << "op " << static_cast<int>(insn.op) << " a " << insn.a << " b " << insn.b;
  }
}

TEST_F(EvalCacheFile, RestoredTracesReplayAnEquivalentCandidate) {
  // Under Adapt the file carries each run's compile trace, and the restored
  // evaluator's tries replay a candidate the producer never saw.
  tuner::SuiteEvaluator producer = make_evaluator(/*iterations=*/2);
  heur::InlineParams a = heur::default_params();
  a.callee_max_size += 1;
  heur::InlineParams b = a;
  b.max_inline_depth += 1;  // deeper than db's call graph: decisions unchanged
  producer.evaluate(a);
  tuner::save_eval_cache(path_, producer.snapshot());

  tuner::SuiteEvaluator consumer = make_evaluator(/*iterations=*/2);
  consumer.restore(tuner::load_eval_cache(path_));
  EXPECT_EQ(consumer.evaluate(b), consumer.evaluate(a));
  EXPECT_EQ(consumer.benchmark_runs(), 0u);
  EXPECT_EQ(consumer.benchmark_replays(), 1u);
  EXPECT_EQ(consumer.evaluations_performed(), 0u);
}

TEST_F(EvalCacheFile, TraceNamingAMissingMethodIsRefusedByRestore) {
  tuner::SuiteEvaluator producer = make_evaluator(/*iterations=*/2);
  producer.evaluate(heur::default_params());
  tuner::EvalCacheSnapshot snap = producer.snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  tuner::BenchmarkResult& br = snap.entries[0].results[0];
  ASSERT_NE(br.trace, nullptr);
  tuner::CompileTrace bad = *br.trace;
  ASSERT_FALSE(bad.empty());
  bad[0].method = 1'000'000;
  br.trace = std::make_shared<const tuner::CompileTrace>(bad);

  tuner::SuiteEvaluator consumer = make_evaluator(/*iterations=*/2);
  try {
    consumer.restore(snap);
    FAIL() << "restored a trace naming a missing method";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("names method 1000000"), std::string::npos) << e.what();
  }
  EXPECT_EQ(consumer.cache_size(), 0u);
  EXPECT_EQ(consumer.params_seen(), 0u);
}

}  // namespace
}  // namespace ith
