#include "fuzz/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>

#include "bytecode/binary.hpp"
#include "bytecode/builder.hpp"
#include "fuzz/bisect.hpp"
#include "fuzz/shrink.hpp"
#include "support/error.hpp"

namespace ith::fuzz {

namespace fs = std::filesystem;

std::vector<std::pair<std::string, bc::Program>> builtin_edge_cases() {
  std::vector<std::pair<std::string, bc::Program>> cases;

  {
    // Minimal leaf: the smallest legal body (const; ret). Exercises the
    // always-inline path and zero-work splices.
    bc::ProgramBuilder pb("edge_empty_body_leaf", 8);
    pb.method("leaf", 0, 0).ret_const(7);
    pb.method("main", 0, 0).call("leaf", 0).call("leaf", 0).add().halt();
    pb.entry("main");
    cases.emplace_back("edge_empty_body_leaf", pb.build());
  }

  {
    // Max-stack boundary: a 64-deep operand tower summed pairwise, probing
    // the verifier's max_stack accounting and the interpreter's operand
    // stack through every tier.
    bc::ProgramBuilder pb("edge_max_stack_boundary", 8);
    auto& m = pb.method("main", 0, 0);
    constexpr int kDepth = 64;
    for (int i = 0; i < kDepth; ++i) m.const_(i + 1);
    for (int i = 0; i < kDepth - 1; ++i) m.add();
    m.halt();  // 64*65/2 = 2080
    pb.entry("main");
    cases.emplace_back("edge_max_stack_boundary", pb.build());
  }

  {
    // Self-recursive inline candidate: sum(n) = n<=0 ? 0 : n + sum(n-1).
    // The inliner may splice one self-occurrence; semantics must hold
    // either way.
    bc::ProgramBuilder pb("edge_self_recursive", 8);
    auto& f = pb.method("sum", 1, 1);
    f.load(0).const_(0).cmple().jz("rec");
    f.ret_const(0);
    f.label("rec");
    f.load(0).load(0).const_(1).sub().call("sum", 1).add().ret();
    pb.method("main", 0, 0).const_(9).call("sum", 1).halt();  // 45
    pb.entry("main");
    cases.emplace_back("edge_self_recursive", pb.build());
  }

  return cases;
}

std::vector<std::pair<std::string, bc::Program>> load_corpus(const std::string& dir) {
  std::vector<std::pair<std::string, bc::Program>> corpus;
  if (dir.empty() || !fs::exists(dir)) return corpus;

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".mbc") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& p : files) {
    std::ifstream is(p, std::ios::binary);
    ITH_CHECK(is.good(), "corpus: cannot open " + p.string());
    // Stem only, symmetric with write_corpus_entry's `stem` parameter.
    corpus.emplace_back(p.stem().string(), bc::read_binary(is));
  }
  return corpus;
}

std::string write_corpus_entry(const std::string& dir, const std::string& stem,
                               const bc::Program& prog) {
  fs::create_directories(dir);
  const fs::path path = fs::path(dir) / (stem + ".mbc");
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ITH_CHECK(os.good(), "corpus: cannot write " + path.string());
  bc::write_binary(prog, os);
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

  // Phase 1: regression replay — built-in edge cases plus the checked-in
  // corpus. These must never diverge; a corpus regression is a finding
  // with the pseudo-seed 0.
  std::vector<std::pair<std::string, bc::Program>> replay = builtin_edge_cases();
  for (auto& entry : load_corpus(config.corpus_dir)) replay.push_back(std::move(entry));
  for (const auto& [name, prog] : replay) {
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
