// fuzz_vm: differential fuzzing CLI.
//
//   fuzz_vm --seeds=1..500                 # walk a seed range
//   fuzz_vm --seeds=1..0 --budget=30       # time-budgeted (seconds) walk
//   fuzz_vm --corpus=tests/fuzz/corpus     # replay + write shrunk repros
//   fuzz_vm --replay=FILE.ithasm [--oracle-seed=N]   # triage a repro
//
// Corpus entries and repros are `.ithasm` assembly text (the format of
// bytecode/serializer.hpp): read the file itself to see the program.
//
// Exit status: 0 when every seed and corpus entry agrees across all tiers,
// 1 when any divergence was found, 2 on usage errors. The flags are declared
// once, in kFlags below; --help or any undeclared flag prints the usage
// generated from them and exits 2 without running or writing anything.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bytecode/serializer.hpp"
#include "fuzz/bisect.hpp"
#include "fuzz/campaign.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"

namespace {

const std::vector<ith::FlagSpec> kFlags = {
    {"seeds", "A..B", "seed range to walk (default 1..100; A..0 with --budget is open-ended)"},
    {"budget", "SECONDS", "stop the walk after this much wall time (default 0 = none)"},
    {"corpus", "DIR", "replay DIR's .ithasm entries first and write shrunk repros there"},
    {"no-shrink", "", "report divergences without shrinking them"},
    {"no-bisect", "", "skip the guilty-pass bisection"},
    {"no-write", "", "write no repro files"},
    {"quiet", "", "no per-seed log"},
    {"replay", "FILE", "triage one .ithasm repro and exit"},
    {"oracle-seed", "N", "oracle seed for --replay (default 1)"},
};

/// "A..B" or "A", each a base-10 integer in [0, INT64_MAX].
bool parse_seed_range(const std::string& text, std::uint64_t& begin, std::uint64_t& end) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto dots = text.find("..");
  const std::optional<std::int64_t> lo = ith::parse_int_in(text.substr(0, dots), 0, kMax);
  const std::optional<std::int64_t> hi =
      dots == std::string::npos ? lo : ith::parse_int_in(text.substr(dots + 2), 0, kMax);
  if (!lo || !hi) return false;
  begin = static_cast<std::uint64_t>(*lo);
  end = static_cast<std::uint64_t>(*hi);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const ith::CliParser cli(argc, argv);
  if (!cli.only_declared(kFlags)) {
    std::cerr << ith::usage_text("fuzz_vm", kFlags);
    return 2;
  }
  std::uint64_t oracle_seed = 1;
  try {
    oracle_seed = static_cast<std::uint64_t>(
        cli.get_int_in("oracle-seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
  } catch (const ith::UsageError& e) {
    std::cerr << "fuzz_vm: " << e.what() << "\n" << ith::usage_text("fuzz_vm", kFlags);
    return 2;
  }

  if (cli.has("replay")) {
    try {
      std::ifstream is(*cli.get("replay"));
      if (!is.good()) {
        std::cerr << "fuzz_vm: cannot open " << *cli.get("replay") << "\n";
        return 2;
      }
      const ith::bc::Program prog = ith::bc::parse_program(is);
      ith::fuzz::OracleConfig ocfg;
      ocfg.seed = oracle_seed;
      const ith::fuzz::DifferentialOracle oracle(ocfg);
      const ith::fuzz::OracleVerdict verdict = oracle.check(prog);
      std::cout << "verdict: " << verdict.summary() << "\n";
      if (verdict.diverged) {
        std::cout << "bisect: " << ith::fuzz::bisect_passes(prog, oracle).to_string() << "\n";
        return 1;
      }
      return 0;
    } catch (const ith::Error& e) {
      std::cerr << "fuzz_vm: replay failed: " << e.what() << "\n";
      return 2;
    }
  }

  ith::fuzz::CampaignConfig config;
  const std::string seeds = cli.get_or("seeds", "1..100");
  if (!parse_seed_range(seeds, config.seed_begin, config.seed_end)) {
    std::cerr << "fuzz_vm: bad --seeds range '" << seeds << "' (want A..B)\n"
              << ith::usage_text("fuzz_vm", kFlags);
    return 2;
  }
  // A budget with an open-ended walk: run until the clock says stop.
  config.time_budget_seconds = cli.get_double_or("budget", 0.0);
  if (config.time_budget_seconds > 0 && config.seed_end < config.seed_begin) {
    config.seed_end = config.seed_begin + 1'000'000'000ULL;
  }
  config.corpus_dir = cli.get_or("corpus", "");
  config.shrink = !cli.has("no-shrink");
  config.bisect = !cli.has("no-bisect");
  config.write_repros = !cli.has("no-write");
  if (!cli.has("quiet")) config.log = &std::cout;

  try {
    const ith::fuzz::CampaignReport report = ith::fuzz::run_campaign(config);

    std::cout << "fuzz_vm: " << report.seeds_run << " seed(s), " << report.corpus_replayed
              << " corpus entrie(s), " << report.total_instructions_generated
              << " instructions generated, " << report.reference_budget_skips << " skip(s)"
              << (report.budget_exhausted ? ", time budget exhausted" : "") << "\n";

    if (report.clean()) {
      std::cout << "fuzz_vm: no divergences\n";
      return 0;
    }
    std::cout << "fuzz_vm: " << report.findings.size() << " divergence(s)\n";
    for (const auto& f : report.findings) {
      std::cout << "  seed " << f.seed << ": " << f.divergence << "\n    shrunk to "
                << f.shrunk_instructions << " instruction(s)";
      if (!f.guilty.empty()) {
        std::cout << "; guilty:";
        for (const auto& g : f.guilty) std::cout << " " << g;
      }
      if (!f.repro_path.empty()) std::cout << "; repro: " << f.repro_path;
      std::cout << "\n";
    }
    return 1;
  } catch (const ith::Error& e) {
    std::cerr << "fuzz_vm: fatal: " << e.what() << "\n";
    return 2;
  }
}
