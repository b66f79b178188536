// Fuzzing campaign driver: the orchestration layer behind the fuzz_vm CLI
// and the smoke-fuzz ctest target.
//
// A campaign replays the regression corpus (checked-in `.ithasm` programs:
// three hand-written edge cases and minimal repros of fixed bugs), then
// walks a seed range: generate an adversarial program, run the four-tier
// differential oracle, and on divergence bisect the guilty pass, shrink a
// minimal repro, and (optionally) write it to the corpus directory as an
// `.ithasm` file in the assembly format of bytecode/serializer.hpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "bytecode/program.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"

namespace ith::fuzz {

struct CampaignConfig {
  std::uint64_t seed_begin = 1;
  std::uint64_t seed_end = 100;          ///< inclusive
  double time_budget_seconds = 0;        ///< 0 = unbounded
  std::string corpus_dir;                ///< replay *.ithasm from here; write repros here
  GeneratorSpec gen;                     ///< seed field overridden per iteration
  OracleConfig oracle;                   ///< seed field overridden per iteration
  bool bisect = true;
  bool shrink = true;
  bool write_repros = true;
  std::ostream* log = nullptr;           ///< per-seed progress (optional)
};

/// One divergence the campaign found, fully triaged.
struct FuzzFinding {
  std::uint64_t seed = 0;
  std::string divergence;                ///< oracle verdict summary
  std::vector<std::string> guilty;       ///< bisected pass names (may be empty)
  bc::Program shrunk;                    ///< minimal repro (original if !shrink)
  std::size_t shrunk_instructions = 0;
  std::string repro_path;                ///< written .ithasm, if any
};

struct CampaignReport {
  std::uint64_t seeds_run = 0;
  std::size_t corpus_replayed = 0;
  std::size_t total_instructions_generated = 0;
  std::size_t reference_budget_skips = 0;  ///< seeds too hot to fuzz
  bool budget_exhausted = false;
  std::vector<FuzzFinding> findings;

  bool clean() const { return findings.empty(); }
};

CampaignReport run_campaign(const CampaignConfig& config);

/// Loads every *.ithasm program in `dir` (sorted by filename), keyed by
/// file stem. Missing or empty directories load zero entries; a malformed
/// file throws an ith::Error naming the file and line.
std::vector<std::pair<std::string, bc::Program>> load_corpus(const std::string& dir);

/// Writes `prog` as assembly text to `<dir>/<stem>.ithasm`, creating `dir`
/// if needed. Returns the written path.
std::string write_corpus_entry(const std::string& dir, const std::string& stem,
                               const bc::Program& prog);

}  // namespace ith::fuzz
