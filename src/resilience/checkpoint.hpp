// Resilience layer, part 4: GA checkpoint/resume.
//
// A GaCheckpoint is the complete search state after some generation g: the
// population and its fitness, the RNG's raw words, the fitness memo cache,
// the best-ever individual, the staleness counter, the full per-generation
// history, and the evaluator's quarantine set. Restoring it and continuing
// is bit-identical to never having stopped — the property the
// kill-and-resume tests assert — because the GA draws nothing from global
// state: Pcg32 exposes its two state words, fault injection is a pure hash,
// and fitness is memoized by genome.
//
// On disk: format "ITHGACP1", a payload schema inside the support/codec.hpp
// file envelope (host-endian — a crash-recovery journal for this machine,
// not a portable archive).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ga/ga.hpp"

namespace ith::resilience {

/// Everything needed to continue a GA run from the end of `generation`.
struct GaCheckpoint {
  /// Hash of the GA config + genome space that produced this checkpoint;
  /// resume refuses to continue under a different configuration.
  std::uint64_t fingerprint = 0;
  /// Last completed generation (0 = initial population evaluated).
  int generation = 0;
  std::uint64_t rng_state = 0;
  std::uint64_t rng_inc = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t cache_hits = 0;
  double best_ever = 0.0;
  ga::Genome best_genome;
  int stale = 0;
  std::vector<ga::Genome> population;
  std::vector<double> fitness;
  /// Fitness memo cache (genome -> fitness), flattened.
  std::vector<std::pair<ga::Genome, double>> cache;
  std::vector<ga::GenerationStats> history;
  /// Quarantined parameter vectors (SuiteEvaluator cache keys, widened to
  /// int vectors) — genomes that kept failing after retries.
  std::vector<std::vector<int>> quarantine;
};

/// Serializes `cp` to `path` with codec::atomic_write_file, so a kill or a
/// power loss mid-save leaves the previous checkpoint intact. Throws
/// ith::Error if the file cannot be written.
void save_checkpoint(const std::string& path, const GaCheckpoint& cp);

/// Loads and validates a checkpoint. Throws ith::Error with a distinct
/// message for missing file, bad magic, truncation, trailing bytes and
/// checksum mismatch.
GaCheckpoint load_checkpoint(const std::string& path);

}  // namespace ith::resilience
