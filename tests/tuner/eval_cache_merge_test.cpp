// Snapshot federation (merge_eval_snapshots): the deterministic total order
// that makes merging commutative and associative — any merge order of any
// snapshot set yields one canonical cache — plus the fingerprint gate and
// the stale-tmp sweep crashed saves rely on.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "resilience/budget.hpp"
#include "support/error.hpp"
#include "tuner/eval_cache.hpp"

namespace ith {
namespace {

constexpr std::uint64_t kFp = 0x1234abcdULL;

tuner::BenchmarkResult ok_result(const std::string& name, std::uint64_t cycles) {
  tuner::BenchmarkResult br;
  br.name = name;
  br.running_cycles = cycles;
  br.total_cycles = cycles + 100;
  br.compile_cycles = 100;
  return br;
}

tuner::BenchmarkResult failed_result(const std::string& name) {
  tuner::BenchmarkResult br;
  br.name = name;
  br.outcome = resilience::EvalOutcome::make_trap(resilience::TrapKind::kInjected, "boom");
  br.attempts = 0;
  return br;
}

tuner::EvalCacheSnapshot snapshot_with(
    std::initializer_list<std::pair<std::uint64_t, tuner::BenchmarkResult>> entries,
    std::initializer_list<std::uint64_t> quarantined = {}) {
  tuner::EvalCacheSnapshot snap;
  snap.fingerprint = kFp;
  for (const auto& [sig, result] : entries) snap.entries.push_back({sig, {result}});
  snap.quarantined = quarantined;
  return snap;
}

std::string canonical_bytes(const tuner::EvalCacheSnapshot& snap) {
  std::string out;
  for (const auto& e : snap.entries) {
    out += std::to_string(e.signature) + ":" + tuner::encode_results(e.results) + ";";
  }
  out += "|";
  for (std::uint64_t q : snap.quarantined) out += std::to_string(q) + ",";
  return out;
}

TEST(EvalCacheMerge, AddsDuplicatesAndConflictsAreCounted) {
  tuner::EvalCacheSnapshot dst =
      snapshot_with({{1, ok_result("compress", 10)}, {2, ok_result("compress", 20)}});
  const tuner::EvalCacheSnapshot src =
      snapshot_with({{2, ok_result("compress", 20)},   // identical -> duplicate
                     {3, ok_result("compress", 30)},   // new -> added
                     {1, ok_result("compress", 99)}},  // differs -> conflict
                    {7});

  const tuner::SnapshotMergeStats stats = tuner::merge_eval_snapshots(dst, src);
  EXPECT_EQ(stats.added, 1u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.conflicts, 1u);
  ASSERT_EQ(dst.entries.size(), 3u);
  // Entries come out sorted by signature; quarantine is unioned.
  EXPECT_EQ(dst.entries[0].signature, 1u);
  EXPECT_EQ(dst.entries[1].signature, 2u);
  EXPECT_EQ(dst.entries[2].signature, 3u);
  EXPECT_EQ(dst.quarantined, (std::vector<std::uint64_t>{7}));
}

TEST(EvalCacheMerge, ConflictResolvedByFewestFailuresThenBytes) {
  // A conflicting entry with a failed benchmark loses to an all-ok one, in
  // either merge direction.
  const tuner::EvalCacheSnapshot good = snapshot_with({{1, ok_result("db", 50)}});
  const tuner::EvalCacheSnapshot bad = snapshot_with({{1, failed_result("db")}}, {1});

  tuner::EvalCacheSnapshot a = good;
  tuner::merge_eval_snapshots(a, bad);
  ASSERT_EQ(a.entries.size(), 1u);
  EXPECT_TRUE(a.entries[0].results[0].outcome.ok());

  tuner::EvalCacheSnapshot b = bad;
  tuner::merge_eval_snapshots(b, good);
  ASSERT_EQ(b.entries.size(), 1u);
  EXPECT_TRUE(b.entries[0].results[0].outcome.ok());
  // The quarantine is sticky (a union): the failure was observed somewhere.
  EXPECT_EQ(b.quarantined, (std::vector<std::uint64_t>{1}));
}

TEST(EvalCacheMerge, CommutativeAndAssociative) {
  const tuner::EvalCacheSnapshot s1 =
      snapshot_with({{1, ok_result("compress", 10)}, {2, failed_result("db")}}, {2});
  const tuner::EvalCacheSnapshot s2 =
      snapshot_with({{2, ok_result("db", 20)}, {3, ok_result("jess", 30)}}, {9});
  const tuner::EvalCacheSnapshot s3 =
      snapshot_with({{1, ok_result("compress", 11)}, {4, ok_result("mtrt", 40)}});

  // (s1 + s2) + s3  ==  s3 + (s2 + s1)  ==  (s1 + s3) + s2
  tuner::EvalCacheSnapshot left = s1;
  tuner::merge_eval_snapshots(left, s2);
  tuner::merge_eval_snapshots(left, s3);

  tuner::EvalCacheSnapshot right = s2;
  tuner::merge_eval_snapshots(right, s1);
  tuner::EvalCacheSnapshot outer = s3;
  tuner::merge_eval_snapshots(outer, right);

  tuner::EvalCacheSnapshot mixed = s1;
  tuner::merge_eval_snapshots(mixed, s3);
  tuner::merge_eval_snapshots(mixed, s2);

  EXPECT_EQ(canonical_bytes(left), canonical_bytes(outer));
  EXPECT_EQ(canonical_bytes(left), canonical_bytes(mixed));
}

TEST(EvalCacheMerge, SelfMergeIsIdentity) {
  const tuner::EvalCacheSnapshot snap =
      snapshot_with({{1, ok_result("compress", 10)}, {2, failed_result("db")}}, {2});
  tuner::EvalCacheSnapshot dst = snap;
  const tuner::SnapshotMergeStats stats = tuner::merge_eval_snapshots(dst, snap);
  EXPECT_EQ(stats.added, 0u);
  EXPECT_EQ(stats.duplicates, 2u);
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(canonical_bytes(dst), canonical_bytes(snap));
}

TEST(EvalCacheMerge, FingerprintMismatchRejected) {
  tuner::EvalCacheSnapshot dst = snapshot_with({{1, ok_result("compress", 10)}});
  tuner::EvalCacheSnapshot src = snapshot_with({{2, ok_result("db", 20)}});
  src.fingerprint = kFp ^ 1;
  EXPECT_THROW(tuner::merge_eval_snapshots(dst, src), Error);
}

class StaleTmp : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "stale_tmp_" + info->name() + ".bin";
    std::remove(path_.c_str());
    std::remove(tmp().c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(tmp().c_str());
  }
  std::string tmp() const { return path_ + ".tmp"; }
  void plant_tmp() const {
    std::ofstream out(tmp(), std::ios::binary);
    out << "half-written garbage from a crashed save";
  }
  bool tmp_exists() const { return std::ifstream(tmp()).good(); }

  std::string path_;
};

TEST_F(StaleTmp, SweepRemovesLeftoverAndReportsIt) {
  EXPECT_FALSE(tuner::remove_stale_eval_cache_tmp(path_));  // nothing there
  plant_tmp();
  EXPECT_TRUE(tuner::remove_stale_eval_cache_tmp(path_));
  EXPECT_FALSE(tmp_exists());
}

TEST_F(StaleTmp, LoadSweepsStaleTmpBesidePublishedFile) {
  tuner::save_eval_cache(path_, snapshot_with({{1, ok_result("compress", 10)}}));
  plant_tmp();  // a save that died between write and rename
  const tuner::EvalCacheSnapshot loaded = tuner::load_eval_cache(path_);
  EXPECT_EQ(loaded.entries.size(), 1u);  // the published file is whole
  EXPECT_FALSE(tmp_exists()) << "load_eval_cache must sweep the stale tmp";
}

TEST_F(StaleTmp, SaveAfterSweepPublishesAtomically) {
  plant_tmp();
  tuner::remove_stale_eval_cache_tmp(path_);
  const tuner::EvalCacheSnapshot snap =
      snapshot_with({{1, ok_result("compress", 10)}}, {5});
  tuner::save_eval_cache(path_, snap);
  EXPECT_FALSE(tmp_exists());  // rename consumed the tmp
  const tuner::EvalCacheSnapshot loaded = tuner::load_eval_cache(path_);
  EXPECT_EQ(canonical_bytes(loaded), canonical_bytes(snap));
}

}  // namespace
}  // namespace ith
