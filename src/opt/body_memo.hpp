// BodyMemo: optimized method bodies, compiled once per inline-decision trace.
//
// Under one pipeline and one set of inline limits, the body PassManager::run
// builds for a method depends only on the program, the method and the
// heuristic verdicts of its decision walk: the walk is a function of those
// verdicts (its structural refusals follow from them), the Inliner splices
// it, and every later pass is deterministic. DecisionProbe walks without
// touching code, so a VM walks first, looks up (program, method, verdict
// bytes) here and runs the passes only on a miss — splicing that same walk,
// so the stored body is exactly what the key describes. A hit installs the same code, provenance and OptStats the
// passes would have produced, and simulated compile cycles come from the
// body's size, so ExecStats, fitness and tuned winners cannot move.
//
// Keys are exact: an entry keeps its verdict bytes and a hit compares them.
// Entries are compact: the code in a lossless variable-length encoding (an
// opcode byte, then a zigzag-LEB128 `a` and `b` only where they are not 0;
// about 1.5 bytes an instruction against bc::Instruction's 12), the local
// count, run-length-encoded provenance and OptStats. A hit decodes the code
// straight into the installed method. Entries are held under a fixed byte
// budget with least-recently-used eviction; a cold tune_opt campaign (24
// generations of dacapo+jbb under Opt) builds about 1,900 bodies, which fit
// it with room to spare, so each is compiled once. One SuiteEvaluator owns
// one memo and hands it to every VM it starts, from any pool worker, so
// every member is thread-safe. The memo also owns the per-program
// ProbeFacts that the VMs' probes and the evaluator's signature walk read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bytecode/program.hpp"
#include "obs/context.hpp"
#include "opt/decision_probe.hpp"
#include "opt/pipeline.hpp"

namespace ith::opt {

class BodyMemo {
 public:
  /// The byte budget every evaluator's memo runs under.
  static constexpr std::size_t kBudgetBytes = std::size_t{4} << 20;

  /// What VirtualMachine::compile_opt installs from one optimized body.
  struct Body {
    /// Instructions [start, next run's start) came from (method, pc + offset
    /// into the run), or all from (method, -1) when pc is -1.
    struct OriginRun {
      std::uint32_t start = 0;
      bc::MethodId method = -1;
      std::int32_t pc = -1;
    };
    /// The instructions, losslessly encoded: per instruction one byte with
    /// the opcode in its low bits and a flag each for a nonzero `a` and
    /// `b`, then those operands as zigzag LEB128.
    std::vector<std::uint8_t> code;
    std::uint32_t num_insns = 0;
    int num_locals = 0;
    std::vector<OriginRun> origins;
    OptStats stats;

    /// The instructions, as PassManager::run built them.
    std::vector<bc::Instruction> decode() const;
    /// One (method, pc) per instruction, as CompiledMethod::origin holds them.
    std::vector<std::pair<bc::MethodId, std::int32_t>> expand_origins() const;
  };

  struct Key {
    int program = -1;  ///< index into the memo's programs
    bc::MethodId method = -1;
    std::string verdicts;  ///< verdict_bytes() of the probe's trace
    friend bool operator==(const Key&, const Key&) = default;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };

  /// `programs` (non-owning, must outlive the memo) are the programs whose
  /// compiles it may serve; `pipeline` and `limits` are what every VM using
  /// it compiles under. `obs` (may be null) receives the opt.memo_hits,
  /// opt.memo_misses and opt.memo_evictions counters. Only tests pass a
  /// `budget_bytes` other than kBudgetBytes.
  BodyMemo(std::vector<const bc::Program*> programs, PipelineDesc pipeline, InlineLimits limits,
           obs::Context* obs = nullptr, std::size_t budget_bytes = kBudgetBytes);

  /// True when PassManager::run's output under `pipeline` is keyed by the
  /// verdicts of one probe walk: the inline pass runs at most once, as a
  /// setup pass.
  static bool supports(const PipelineDesc& pipeline);

  /// True when the memo was built for `pipeline` and `limits`.
  bool serves(const PipelineDesc& pipeline, const InlineLimits& limits) const;

  /// Index of `prog` (by address) among the memo's programs, or -1.
  int program_index(const bc::Program& prog) const;

  /// ProbeFacts of program `index`, built by the first call (so a memo that
  /// never probes never pays for them) and read-only after.
  const ProbeFacts& facts(int index);

  /// The body stored under `key`, or null; counts a hit or a miss.
  std::shared_ptr<const Body> find(const Key& key);

  /// Stores `result`'s body under `key` and evicts least-recently-used
  /// entries until the memo fits its budget again. A key already present
  /// (another VM compiled it meanwhile) keeps its entry.
  void insert(const Key& key, const OptimizeResult& result);

  Stats stats() const;

 private:
  struct Program {
    const bc::Program* prog;
    std::once_flag once;
    std::unique_ptr<const ProbeFacts> facts;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Entry {
    std::shared_ptr<const Body> body;
    std::size_t bytes = 0;
    std::list<const Key*>::iterator lru;  ///< position in lru_
  };

  std::vector<std::unique_ptr<Program>> programs_;
  const PipelineDesc pipeline_;
  const InlineLimits limits_;
  const std::size_t budget_;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;

  mutable std::mutex mu_;  ///< guards everything below
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::list<const Key*> lru_;  ///< keys of entries_, most recently used first
  Stats stats_;
};

/// The memo key bytes of a walk: one byte per heuristic verdict (refuse,
/// inline fully, splice the guard head); structural refusals add none.
std::string verdict_bytes(const std::vector<ProbeDecision>& decisions);

}  // namespace ith::opt
