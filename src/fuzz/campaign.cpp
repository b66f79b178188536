#include "fuzz/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>

#include "bytecode/serializer.hpp"
#include "fuzz/bisect.hpp"
#include "fuzz/shrink.hpp"
#include "support/error.hpp"

namespace ith::fuzz {

namespace fs = std::filesystem;

namespace {
constexpr const char* kCorpusExtension = ".ithasm";
}  // namespace

std::vector<std::pair<std::string, bc::Program>> load_corpus(const std::string& dir) {
  std::vector<std::pair<std::string, bc::Program>> corpus;
  if (dir.empty() || !fs::exists(dir)) return corpus;

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == kCorpusExtension) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& p : files) {
    std::ifstream is(p);
    ITH_CHECK(is.good(), "corpus: cannot open " + p.string());
    try {
      // Stem only, symmetric with write_corpus_entry's `stem` parameter.
      corpus.emplace_back(p.stem().string(), bc::parse_program(is));
    } catch (const Error& e) {
      throw Error("corpus: " + p.string() + ": " + e.what());
    }
  }
  return corpus;
}

std::string write_corpus_entry(const std::string& dir, const std::string& stem,
                               const bc::Program& prog) {
  fs::create_directories(dir);
  const fs::path path = fs::path(dir) / (stem + kCorpusExtension);
  std::ofstream os(path, std::ios::trunc);
  ITH_CHECK(os.good(), "corpus: cannot write " + path.string());
  bc::dump_program(prog, os);
  return path.string();
}

namespace {

void triage(FuzzFinding& finding, const bc::Program& prog, const OracleVerdict& verdict,
            const DifferentialOracle& oracle, const CampaignConfig& config) {
  finding.divergence = verdict.summary();

  if (config.bisect) {
    finding.guilty = bisect_passes(prog, oracle).guilty;
  }

  finding.shrunk = prog;
  if (config.shrink) {
    const auto still_fails = [&oracle](const bc::Program& candidate) {
      const OracleVerdict v = oracle.check(candidate);
      return !v.reference_failed && v.diverged;
    };
    finding.shrunk = shrink_program(prog, still_fails);
  }
  finding.shrunk_instructions = finding.shrunk.total_code_size();

  if (config.write_repros && !config.corpus_dir.empty()) {
    finding.repro_path = write_corpus_entry(
        config.corpus_dir, "repro_seed" + std::to_string(finding.seed), finding.shrunk);
  }
}

}  // namespace

CampaignReport run_campaign(const CampaignConfig& config) {
  ITH_CHECK(config.seed_end >= config.seed_begin, "campaign: bad seed range");
  CampaignReport report;
  const auto start = std::chrono::steady_clock::now();
  const auto out_of_budget = [&] {
    if (config.time_budget_seconds <= 0) return false;
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    return elapsed.count() >= config.time_budget_seconds;
  };

  // Phase 1: regression replay of the checked-in corpus. These must never
  // diverge; a corpus regression is a finding with the pseudo-seed 0.
  for (const auto& [name, prog] : load_corpus(config.corpus_dir)) {
    OracleConfig ocfg = config.oracle;
    ocfg.seed = config.seed_begin;
    const DifferentialOracle oracle(ocfg);
    const OracleVerdict verdict = oracle.check(prog);
    ++report.corpus_replayed;
    if (verdict.reference_failed) {
      ++report.reference_budget_skips;
      continue;
    }
    if (verdict.diverged) {
      FuzzFinding finding;
      finding.seed = 0;
      CampaignConfig no_write = config;
      no_write.write_repros = false;  // never clobber the checked-in corpus
      triage(finding, prog, verdict, oracle, no_write);
      finding.divergence = "[corpus " + name + "] " + verdict.summary();
      report.findings.push_back(std::move(finding));
      if (config.log != nullptr) {
        *config.log << "corpus " << name << ": " << verdict.summary() << "\n";
      }
    }
  }

  // Phase 2: the seed walk.
  for (std::uint64_t seed = config.seed_begin; seed <= config.seed_end; ++seed) {
    if (out_of_budget()) {
      report.budget_exhausted = true;
      break;
    }
    GeneratorSpec gspec = config.gen;
    gspec.seed = seed;
    const bc::Program prog = generate_adversarial(gspec);
    report.total_instructions_generated += prog.total_code_size();

    OracleConfig ocfg = config.oracle;
    ocfg.seed = seed;
    const DifferentialOracle oracle(ocfg);
    const OracleVerdict verdict = oracle.check(prog);
    ++report.seeds_run;

    if (verdict.reference_failed) {
      ++report.reference_budget_skips;
      continue;
    }
    if (verdict.diverged) {
      FuzzFinding finding;
      finding.seed = seed;
      triage(finding, prog, verdict, oracle, config);
      if (config.log != nullptr) {
        *config.log << "seed " << seed << ": " << finding.divergence << " -> "
                    << finding.shrunk_instructions << " instruction repro";
        if (!finding.guilty.empty()) {
          *config.log << " (guilty:";
          for (const std::string& g : finding.guilty) *config.log << " " << g;
          *config.log << ")";
        }
        *config.log << "\n";
      }
      report.findings.push_back(std::move(finding));
    } else if (config.log != nullptr && seed % 100 == 0) {
      *config.log << "seed " << seed << ": ok\n";
    }
  }

  return report;
}

}  // namespace ith::fuzz
