// Kill-and-resume property: interrupting a seeded GA run at *any* journaled
// generation and resuming from the checkpoint yields the identical best
// genome, fitness, and generation history as the uninterrupted run. First
// proven at the GA layer with a synthetic fitness (cheap: resume from every
// generation), then end-to-end through tune() with a real evaluator, fault
// injection, and a mid-run "kill" (an exception thrown from the progress
// callback, the same point where chaos_tune calls exit(3)).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ga/ga.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/parameter_space.hpp"
#include "tuner/tuner.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

void expect_same_history(const std::vector<ga::GenerationStats>& a,
                         const std::vector<ga::GenerationStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].generation, b[i].generation);
    EXPECT_EQ(a[i].best, b[i].best);
    EXPECT_EQ(a[i].mean, b[i].mean);
    EXPECT_EQ(a[i].worst, b[i].worst);
    EXPECT_EQ(a[i].diversity, b[i].diversity);
    EXPECT_EQ(a[i].best_genome, b[i].best_genome);
  }
}

TEST(CheckpointResume, ResumingAnyGenerationMatchesStraightThrough) {
  const ga::GenomeSpace space({{"a", 0, 25}, {"b", 0, 25}, {"c", 0, 25}});
  const ga::FitnessFn fitness = [](const ga::Genome& g) {
    double d = 1.0;
    const int target[3] = {7, 3, 19};
    for (std::size_t i = 0; i < g.size(); ++i) {
      const double delta = g[i] - target[i];
      d += delta * delta;
    }
    return d;
  };
  ga::GaConfig config;
  config.population = 10;
  config.generations = 8;
  config.seed = 99;
  config.memoize = true;
  config.quarantine_source = [] {
    return std::vector<std::vector<int>>{{1, 2, 3}};  // snapshot passthrough
  };

  std::map<int, resilience::GaCheckpoint> checkpoints;
  config.journal = [&checkpoints](const resilience::GaCheckpoint& cp) {
    checkpoints[cp.generation] = cp;
  };

  ga::GeneticAlgorithm straight(space, fitness, config);
  const ga::GaResult want = straight.run();
  ASSERT_EQ(checkpoints.size(), 8u);  // generations 0..7, every one journaled
  EXPECT_EQ(checkpoints[3].quarantine, config.quarantine_source());
  EXPECT_EQ(checkpoints[7].best_genome, want.best);

  for (const auto& [gen, cp] : checkpoints) {
    ga::GaConfig resumed_config = config;
    resumed_config.journal = nullptr;  // resumed runs need not re-journal here
    resumed_config.resume_from = &cp;
    ga::GeneticAlgorithm resumed(space, fitness, resumed_config);
    const ga::GaResult got = resumed.run();
    EXPECT_EQ(got.best, want.best) << "resumed from generation " << gen;
    EXPECT_EQ(got.best_fitness, want.best_fitness) << "resumed from generation " << gen;
    EXPECT_EQ(got.evaluations, want.evaluations) << "resumed from generation " << gen;
    EXPECT_EQ(got.cache_hits, want.cache_hits) << "resumed from generation " << gen;
    expect_same_history(got.history, want.history);
  }
}

TEST(CheckpointResume, FingerprintMismatchRefused) {
  const ga::GenomeSpace space({{"a", 0, 25}, {"b", 0, 25}});
  const ga::FitnessFn fitness = [](const ga::Genome& g) { return 1.0 + g[0] + g[1]; };
  ga::GaConfig config;
  config.population = 6;
  config.generations = 2;
  config.seed = 5;

  resilience::GaCheckpoint last;
  config.journal = [&last](const resilience::GaCheckpoint& cp) { last = cp; };
  ga::GeneticAlgorithm(space, fitness, config).run();
  ASSERT_EQ(last.generation, 1);  // generations=2 runs gens 0 and 1

  ga::GaConfig other = config;
  other.seed = 6;  // a different search — its checkpoints are not ours
  other.resume_from = &last;
  ga::GeneticAlgorithm mismatched(space, fitness, other);
  EXPECT_THROW(mismatched.run(), Error);
}

// End-to-end through tune(): a run killed mid-flight (from the progress
// callback, after the generation's checkpoint landed) and resumed must
// reproduce the uninterrupted run exactly — with fault injection on, since
// pure-hash fault decisions are what make the two fault histories line up.
TEST(CheckpointResume, TuneKillAndResumeMatchesStraightThrough) {
  struct KillSignal {};
  const std::string dir = ::testing::TempDir();
  const std::string straight_path = dir + "tune_straight.cp";
  const std::string killed_path = dir + "tune_killed.cp";
  std::remove(straight_path.c_str());
  std::remove(killed_path.c_str());

  resilience::FaultPlan plan;
  plan.rate = 0.2;
  plan.seed = 11;
  plan.sites = resilience::FaultPlan::site_bit(resilience::FaultSite::kEvaluator);

  const auto make_evaluator = [&plan] {
    std::vector<wl::Workload> suite;
    suite.push_back(wl::make_workload("db"));
    tuner::EvalConfig config;
    config.iterations = 2;
    config.max_retries = 6;
    config.vm_config.faults = &plan;
    return tuner::SuiteEvaluator(std::move(suite), config);
  };
  ga::GaConfig ga_config;
  ga_config.population = 6;
  ga_config.generations = 3;
  ga_config.seed = 21;

  tuner::SuiteEvaluator straight_eval = make_evaluator();
  tuner::TuneCheckpointOptions straight_opts;
  straight_opts.path = straight_path;
  const tuner::TuneResult want =
      tuner::tune(straight_eval, tuner::Goal::kTotal, ga_config, straight_opts);

  tuner::SuiteEvaluator killed_eval = make_evaluator();
  tuner::TuneCheckpointOptions killed_opts;
  killed_opts.path = killed_path;
  killed_opts.on_generation = [](const ga::GenerationStats& stats) {
    if (stats.generation == 1) throw KillSignal{};  // checkpoint already on disk
  };
  EXPECT_THROW(tuner::tune(killed_eval, tuner::Goal::kTotal, ga_config, killed_opts), KillSignal);
  EXPECT_EQ(resilience::load_checkpoint(killed_path).generation, 1);

  tuner::SuiteEvaluator resumed_eval = make_evaluator();
  tuner::TuneCheckpointOptions resume_opts;
  resume_opts.path = killed_path;
  resume_opts.resume = true;
  const tuner::TuneResult got =
      tuner::tune(resumed_eval, tuner::Goal::kTotal, ga_config, resume_opts);

  EXPECT_EQ(got.ga.best, want.ga.best);
  EXPECT_EQ(got.best_fitness, want.best_fitness);
  EXPECT_EQ(got.best.to_string(), want.best.to_string());
  expect_same_history(got.ga.history, want.ga.history);

  std::remove(straight_path.c_str());
  std::remove(killed_path.c_str());
}

// Resuming a checkpoint of an already-finished run re-runs nothing and
// returns the restored result.
TEST(CheckpointResume, ResumeOfFinishedRunIsANoOp) {
  const ga::GenomeSpace space({{"a", 0, 9}});
  std::size_t calls = 0;
  const ga::FitnessFn fitness = [&calls](const ga::Genome& g) {
    ++calls;
    return 1.0 + g[0];
  };
  ga::GaConfig config;
  config.population = 4;
  config.generations = 2;
  config.seed = 3;

  resilience::GaCheckpoint last;
  config.journal = [&last](const resilience::GaCheckpoint& cp) { last = cp; };
  ga::GeneticAlgorithm straight(space, fitness, config);
  const ga::GaResult want = straight.run();

  const std::size_t calls_before = calls;
  ga::GaConfig resumed_config = config;
  resumed_config.resume_from = &last;
  resumed_config.journal = nullptr;
  ga::GeneticAlgorithm resumed(space, fitness, resumed_config);
  const ga::GaResult got = resumed.run();
  EXPECT_EQ(calls, calls_before);  // nothing re-evaluated
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.best_fitness, want.best_fitness);
}

// Damaged checkpoints fail typed, naming the field, instead of resuming a
// search the file never held. A GA over the inline parameter space (with a
// cheap synthetic fitness) journals generation 2 of 4; each case damages
// one field, writes the checkpoint as a well-sealed file, and resumes.
class DamagedCheckpoint : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "damaged_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".cp";
    config_.population = 6;
    config_.generations = 4;
    config_.seed = 7;
    config_.memoize = true;
    config_.journal = [this](const resilience::GaCheckpoint& cp) {
      if (cp.generation == 2) checkpoint_ = cp;
    };
    ga::GeneticAlgorithm(space_, fitness_, config_).run();
    config_.journal = nullptr;
    ASSERT_EQ(checkpoint_.generation, 2);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Loads `path_` and resumes from it; returns the ith::Error text, or ""
  /// when the run finished (a failure for every caller).
  std::string resume_error() {
    try {
      const resilience::GaCheckpoint cp = resilience::load_checkpoint(path_);
      ga::GaConfig resumed = config_;
      resumed.resume_from = &cp;
      ga::GeneticAlgorithm(space_, fitness_, resumed).run();
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  }

  const ga::GenomeSpace space_ = tuner::inline_param_space(/*include_hot=*/true);
  const ga::FitnessFn fitness_ = [](const ga::Genome& g) {
    double f = 1.0;
    for (const int x : g) f += 1e-3 * x;
    return f;
  };
  ga::GaConfig config_;
  resilience::GaCheckpoint checkpoint_;
  std::string path_;
};

TEST_F(DamagedCheckpoint, GeneOutsideItsRangeIsRefusedAtResume) {
  // CALLEE_MAX_SIZE = -1,000,000 fits an int, so the decoder keeps it; the
  // genome space does not.
  checkpoint_.population[0][0] = -1'000'000;
  resilience::save_checkpoint(path_, checkpoint_);
  const std::string error = resume_error();
  EXPECT_NE(error.find("population genome 0 gene CALLEE_MAX_SIZE = -1000000"), std::string::npos)
      << error;
}

TEST_F(DamagedCheckpoint, GeneWiderThanAnIntIsRefusedByTheDecoder) {
  // CALLER_MAX_SIZE = 2^40 cannot be written through GaCheckpoint's ints:
  // write a marker, then patch its word in the payload and re-seal it.
  constexpr int kMarker = 0x5eed1234;
  checkpoint_.population[0][3] = kMarker;
  resilience::save_checkpoint(path_, checkpoint_);
  std::ifstream in(path_, std::ios::binary);
  std::string payload((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  payload = payload.substr(24);  // past magic, size, checksum
  const std::int64_t marker = kMarker;
  const std::int64_t wide = std::int64_t{1} << 40;
  const std::size_t at =
      payload.find(std::string(reinterpret_cast<const char*>(&marker), sizeof marker));
  ASSERT_NE(at, std::string::npos);
  std::memcpy(payload.data() + at, &wide, sizeof wide);
  const codec::FileFormat format{{'I', 'T', 'H', 'G', 'A', 'C', 'P', '1'}, "checkpoint"};
  codec::save_sealed(path_, format, payload);
  const std::string error = resume_error();
  EXPECT_NE(error.find("population gene out of range"), std::string::npos) << error;
}

TEST_F(DamagedCheckpoint, NonFiniteFitnessIsRefusedByTheDecoder) {
  checkpoint_.fitness[0] = std::numeric_limits<double>::quiet_NaN();
  resilience::save_checkpoint(path_, checkpoint_);
  const std::string error = resume_error();
  EXPECT_NE(error.find("population fitness is not finite"), std::string::npos) << error;
}

TEST_F(DamagedCheckpoint, GenerationOutsideTheRunIsRefusedAtResume) {
  checkpoint_.generation = config_.generations;
  resilience::save_checkpoint(path_, checkpoint_);
  const std::string error = resume_error();
  EXPECT_NE(error.find("checkpoint generation 4 lies outside"), std::string::npos) << error;
}

}  // namespace
}  // namespace ith
