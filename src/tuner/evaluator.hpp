// SuiteEvaluator: runs a benchmark suite under a candidate heuristic and
// reports per-benchmark running/total cycles. This is the expensive inner
// loop of tuning, so results are memoized — in two levels. Level 1 maps a
// parameter vector to its per-workload keys (a cheap static probe of every
// inline decision the params imply in each program; see
// opt/decision_probe.hpp) and the suite signature they mix into. Level 2
// maps suite signatures to suite results, and below it a per-benchmark
// store maps (benchmark, workload key) to that benchmark's ok result.
// Distinct params that drive the optimizer to identical decisions collapse
// onto one signature, so only one of them ever pays for a suite run; and a
// new signature runs only the benchmarks whose keys the store has not seen.
// Below the store, run-level replay proves most of those runs identical to
// one already recorded and reuses its result (tuner/decision_trie.hpp,
// DESIGN.md §10).
#pragma once

#include <compare>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "heuristics/heuristic.hpp"
#include "obs/context.hpp"
#include "opt/body_memo.hpp"
#include "resilience/budget.hpp"
#include "resilience/fault.hpp"
#include "runtime/machine.hpp"
#include "vm/vm.hpp"
#include "workloads/suite.hpp"

namespace ith::tuner {

struct BenchmarkResult {
  std::string name;
  std::uint64_t running_cycles = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t compile_cycles = 0;
  /// Verdict of the guarded run. When not ok(), the cycle fields are zero
  /// and fitness substitutes kFailurePenalty — never NaN/inf, never a throw.
  resilience::EvalOutcome outcome{};
  /// Guarded attempts consumed (1 = first try succeeded; 0 = quarantined,
  /// never run).
  int attempts = 1;
};

/// A shared evaluation backend (e.g. the evaluation daemon in src/service/).
/// The SuiteEvaluator consults it on every level-2 cache miss *before*
/// paying for a real suite run, and reports locally computed results back,
/// so many evaluator processes federate onto one result repository.
///
/// Implementations must be infallible from the evaluator's point of view:
/// connection loss, timeouts and protocol errors are absorbed internally
/// (returning "compute locally"), never thrown. Because suite results are a
/// pure function of the decision signature under a fixed configuration
/// fingerprint, serving a result from the backend instead of computing it
/// locally is bit-identical by construction.
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  /// Consults the shared cache for `sig`. May block while another process
  /// computes the same signature (cross-process single-flight). Returns the
  /// shared results on a hit; returns std::nullopt when this caller must
  /// compute locally, with `*lease` set to the lease token to hand back to
  /// publish() (0 = degraded / no daemon — publish becomes best-effort).
  virtual std::optional<std::vector<BenchmarkResult>> acquire(std::uint64_t sig,
                                                              std::uint64_t* lease) = 0;

  /// Reports a locally computed suite run back to the shared cache.
  /// Best-effort: a failure to publish costs other processes a duplicate
  /// evaluation, never correctness.
  virtual void publish(std::uint64_t sig, std::uint64_t lease,
                       const std::vector<BenchmarkResult>& results) = 0;
};

/// Builds a fresh heuristic. run_benchmarks calls it once per benchmark run,
/// concurrently from pool workers, so it must be safe to call from several
/// threads at once.
using HeuristicFactory = std::function<std::unique_ptr<heur::InlineHeuristic>()>;

struct EvalConfig {
  rt::MachineModel machine = rt::pentium4_model();
  vm::Scenario scenario = vm::Scenario::kAdapt;
  int iterations = 2;          ///< the paper's "iterate at least twice"
  vm::VmConfig vm_config{};    ///< scenario field is overwritten per run
  /// Observability context. Non-owning, may be null (= tracing off, zero
  /// cost); must outlive the evaluator. Overwrites vm_config.obs, so every
  /// VM the evaluator spins up traces into the same sink. Categories: kEval
  /// (per-benchmark/per-suite spans, cache hit/miss/single-flight events,
  /// sig.probe spans).
  obs::Context* obs = nullptr;
  /// Shared evaluation backend. Non-owning, may be null (= fully local).
  /// Consulted by evaluate() on level-2 misses; never consulted by
  /// default_results(), whose baseline must always be computed locally with
  /// fault injection suppressed.
  EvalBackend* backend = nullptr;
  /// Extra guarded attempts per benchmark after a *retryable* failure —
  /// one whose verdict can change on retry: injected faults (the fault key
  /// mixes in the attempt number), wall-clock deadline misses, foreign
  /// crashes, and — when compile-inflation faults are armed — compile-cycle
  /// budget trips (the signature of an inflated compile). Other sim-domain
  /// failures (cycle/frame/arena budgets, runtime traps) are deterministic
  /// and final on the first attempt.
  int max_retries = 2;
};

/// One benchmark's share of a decision signature: the probe's value over
/// that benchmark's program, and whether it was exact. An inexact value is
/// the raw parameter hash — still a sound key, it just never collapses —
/// and the flag keeps it from ever equalling an exact one. A benchmark's
/// result is a pure function of its program and this key under one
/// evaluator fingerprint, which is what lets suites share results per
/// benchmark.
struct WorkloadKey {
  std::uint64_t value = 0;
  bool exact = true;

  /// The fault salt of every run of a benchmark under this key, so a stored
  /// result is exactly what any suite sharing the key would have drawn.
  std::uint64_t salt() const { return resilience::mix_keys(value, exact ? 1 : 0); }
  friend auto operator<=>(const WorkloadKey&, const WorkloadKey&) = default;
};

/// Serializable image of the evaluator's cached state: every signature with
/// completed results, the quarantine set and every probed parameter
/// vector's per-workload keys, stamped with a fingerprint of everything
/// that could change what a suite run or a probe returns (machine model,
/// scenario, VM/optimizer configuration, fault plan, workload programs,
/// probe version and budget). eval_cache.hpp persists this as an ITHEVC2
/// file.
struct EvalCacheSnapshot {
  std::uint64_t fingerprint = 0;
  struct Entry {
    std::uint64_t signature = 0;
    std::vector<BenchmarkResult> results;
  };
  std::vector<Entry> entries;
  std::vector<std::uint64_t> quarantined;
  /// Level 1: a probed parameter vector and its keys, one per suite
  /// benchmark in suite order (none when the pipeline has no inline pass).
  struct ParamsKeys {
    heur::InlineParams::Array params{};
    std::vector<WorkloadKey> keys;
  };
  std::vector<ParamsKeys> params;
};

class DecisionTrie;

class SuiteEvaluator {
 public:
  /// `memo_budget_bytes` bounds the evaluator's memo of optimized bodies;
  /// only tests pass anything but the default.
  SuiteEvaluator(std::vector<wl::Workload> suite, EvalConfig config,
                 std::size_t memo_budget_bytes = opt::BodyMemo::kBudgetBytes);
  ~SuiteEvaluator();

  /// Decision signature of one parameter vector over the whole suite: the
  /// level-2 cache key and the quarantine key.
  using Signature = std::uint64_t;

  /// One memoized suite run. Shared ownership: the pointer (and everything
  /// it reaches) stays valid for as long as the caller holds it, even after
  /// the evaluator is destroyed — callers that previously held the old
  /// `const vector&` past the evaluator's lifetime were dangling.
  using Results = std::shared_ptr<const std::vector<BenchmarkResult>>;

  /// Runs every benchmark under the Figure 3/4 heuristic with `params`.
  /// Memoized by decision signature — calls whose params imply the same
  /// inline decisions (not merely equal params) return the *same* shared
  /// vector (pointer-identical) after one cheap probe. Concurrent calls
  /// with an uncached signature are single-flighted: one caller runs the
  /// suite, the others block until its result lands in the cache instead
  /// of recomputing it.
  ///
  /// A signature miss first assembles the suite from the per-benchmark
  /// store; when every benchmark is found nothing runs (no backend call,
  /// not counted in evaluations_performed). Otherwise the backend is
  /// consulted for the whole suite, and failing that only the missing
  /// benchmarks run, each salted with its own workload key. Only ok
  /// results enter the store, so failures are re-run, never reused.
  ///
  /// Run-level replay: with no armed fault plan and a pipeline whose
  /// compiles the body memo keys by one probe walk (so every VM records a
  /// compile trace), each missing benchmark first walks its decision trie
  /// of recorded runs, probing `params` at each recorded compile; a walk
  /// that reaches a leaf reuses that run's result instead of running (and
  /// stores it under the new key like a run's), and a walk that falls off
  /// runs the benchmark and records its trace. default_results() replays
  /// and records the same way; evaluate_heuristic() does neither.
  ///
  /// Every benchmark executes under vm_config.budget via a guarded run:
  /// failures become penalized BenchmarkResults (see BenchmarkResult::
  /// outcome), never exceptions. Signatures whose suite still fails after
  /// the retry allowance are quarantined: later evaluations of *any* param
  /// vector mapping to that signature short-circuit to the penalized
  /// result without re-running anything.
  Results evaluate(const heur::InlineParams& params);

  /// Runs every benchmark under an arbitrary heuristic (not memoized), one
  /// heuristic from `make_heuristic` per benchmark run. `fault_salt`
  /// differentiates fault-injection draws between logical evaluations (the
  /// memoized path salts each benchmark with its WorkloadKey::salt(), so
  /// params that share a key there see identical fault draws).
  std::vector<BenchmarkResult> evaluate_heuristic(const HeuristicFactory& make_heuristic,
                                                  std::uint64_t fault_salt = 0);

  /// Results under the shipped default parameters (computed lazily once;
  /// the denominator for normalized figures and the balance factor).
  /// Always runs with fault injection suppressed — a chaos campaign must
  /// never corrupt the normalization baseline.
  Results default_results();

  /// The level-1 lookup: memoized decision signature of `params`. Public
  /// because collapse statistics and tests want the mapping without paying
  /// for a suite run. First call per distinct params runs the probe: one
  /// decision walk per workload, concurrently on ThreadPool::shared() when
  /// the suite has two or more (traced as a "sig.probe" kEval span;
  /// counters sig.probes / sig.collapsed / sig.overflow / sig.probe_us,
  /// where the span and sig.probe_us are the probe's wall time, not the sum
  /// of its walks).
  Signature signature_of(const heur::InlineParams& params);

  /// The other half of the level-1 entry: `params`' key per suite
  /// benchmark, in suite order (empty when the pipeline has no inline
  /// pass). Probes on first use, like signature_of.
  std::vector<WorkloadKey> workload_keys(const heur::InlineParams& params);

  const std::vector<wl::Workload>& suite() const { return suite_; }
  const EvalConfig& config() const { return config_; }
  std::size_t cache_size() const;
  /// Number of suite evaluations that ran or replayed at least one
  /// benchmark, by evaluate() or default_results() (cache hits, signature
  /// collapses, suites assembled wholly from the per-benchmark store or
  /// served by the backend, and single-flight waiters excluded).
  std::uint64_t evaluations_performed() const;
  /// Interpreter runs those evaluations made: at most suite size times
  /// evaluations_performed(), less every benchmark the store supplied or a
  /// replay reused.
  std::uint64_t benchmark_runs() const;
  /// Missing benchmarks those evaluations served by run-level replay.
  /// Without failures, benchmark_runs() + benchmark_replays() is the number
  /// of distinct (benchmark, workload key) pairs evaluated.
  std::uint64_t benchmark_replays() const;
  /// Distinct parameter vectors probed so far (level-1 size).
  std::size_t params_seen() const;
  /// Distinct decision signatures those params collapsed onto.
  std::size_t signatures_seen() const;

  /// Fingerprint of everything that determines suite results for a given
  /// signature and the keys a probe returns for given params. Snapshots
  /// carry it; restore() refuses a mismatch.
  std::uint64_t cache_fingerprint() const;

  /// Copies the completed signature->results entries, the quarantine set
  /// and every level-1 entry. In-flight evaluations are not included.
  EvalCacheSnapshot snapshot() const;
  /// Merges a snapshot produced by an identically-configured evaluator:
  /// restored params need no probe (their suite signatures are recomputed
  /// from the keys), restored entries satisfy later evaluate() calls
  /// without a run (and without counting as evaluations_performed), and
  /// the ok results of entries whose keys the table names seed the
  /// per-benchmark store. Throws ith::Error, having applied nothing, when
  /// the snapshot's fingerprint does not match cache_fingerprint() or a
  /// table row has the wrong number of keys for this suite.
  void restore(const EvalCacheSnapshot& snap);

  /// Quarantined signatures, widened for checkpoint serialization (two
  /// ints per signature: low word, high word).
  std::vector<std::vector<int>> quarantined_keys() const;
  /// Re-arms the quarantine from a checkpoint; entries with the wrong arity
  /// are ignored (this silently drops quarantine entries from pre-signature
  /// checkpoints, which merely costs a re-evaluation).
  void preload_quarantine(const std::vector<std::vector<int>>& keys);

  /// Lifts the quarantine on `sig` and drops its cached (penalized) results
  /// so the next evaluate() of any aliasing params performs a fresh guarded
  /// run of the benchmarks that failed (the store never holds a failure).
  /// Returns true when the signature was actually quarantined. This is
  /// the online tuner's retry path: the quarantine is keyed on signature,
  /// so a seed genome quarantined by a transient fault would otherwise pin
  /// every later retune of that genome to the penalty result forever —
  /// starvation, since the controller can never observe it recovering.
  /// No-op (returns false) while the signature is in flight.
  bool release_quarantine(Signature sig);

  /// True while `sig` is in the quarantine set.
  bool is_quarantined(Signature sig) const;

 private:
  /// Level-1 key: the flattened parameter vector. Sized from
  /// InlineParams::kNumParams (not a literal) so growing InlineParams by a
  /// field can never silently alias cache entries — the sizeof bridge in
  /// inline_params.hpp refuses to compile until kNumParams (and with it
  /// this key) is widened too.
  using ParamKey = heur::InlineParams::Array;
  static_assert(std::tuple_size_v<ParamKey> == heur::InlineParams::kNumParams);

  /// A level-1 entry: the suite signature and the keys it mixes.
  struct Probed {
    Signature sig = 0;
    std::vector<WorkloadKey> keys;
  };
  /// The level-1 lookup behind signature_of and workload_keys.
  Probed probe(const heur::InlineParams& params);

  /// The suite signature `keys` mix into (the one signature_of returns).
  static Signature suite_signature(const std::vector<WorkloadKey>& keys);

  /// The uncached evaluation path: runs the benchmarks `which` (suite
  /// indices) through guarded_run with the retry loop, benchmark i salted
  /// with salts[i], into results[i]; other slots are left alone.
  /// `allow_faults` is false for the default-params baseline. `replay`,
  /// when not null, is the parameter vector make_heuristic builds the Jikes
  /// heuristic of: each benchmark is first checked against its decision
  /// trie, and first-attempt ok runs are recorded. Two or more benchmarks
  /// run concurrently on ThreadPool::shared(), started in dispatch_order_;
  /// a slot always gets its own benchmark's result, so the order changes
  /// wall time only. Returns how many benchmarks were replayed.
  std::size_t run_benchmarks(const std::vector<std::size_t>& which,
                             const HeuristicFactory& make_heuristic,
                             const std::vector<std::uint64_t>& salts, bool allow_faults,
                             const heur::InlineParams* replay,
                             std::vector<BenchmarkResult>& results);

  /// True when runs may be recorded and replayed: every VM records a
  /// compile trace and no fault plan is armed (fault draws are salted by
  /// workload key, so a run under another key may draw differently).
  bool replay_enabled() const;

  /// Walks benchmark i's decision trie under `params`: at each recorded
  /// compile, DecisionProbe with the Jikes heuristic and the VM's site
  /// oracle over the recorded hot set.
  std::optional<BenchmarkResult> find_replay(std::size_t i, const heur::InlineParams& params);

  /// Sets dispatch_order_ from the first complete suite result; caller
  /// holds mu_.
  void note_dispatch_order(const std::vector<BenchmarkResult>& results);

  /// Shared single-flight body of evaluate()/default_results(): looks up /
  /// claims `sig`, then assembles the suite from the per-benchmark store,
  /// the shared backend (when not `baseline`) or runs of the missing
  /// benchmarks. `baseline` also suppresses faults and the quarantine.
  Results evaluate_signature(const heur::InlineParams& params, const Probed& probed,
                             bool baseline,
                             const std::function<void(const char*)>& cache_event);

  std::vector<wl::Workload> suite_;
  EvalConfig config_;
  /// Optimized bodies shared by every VM this evaluator starts (see
  /// opt/body_memo.hpp), under the fixed budget BodyMemo::kBudgetBytes. It
  /// also owns the workloads' ProbeFacts, built on first use (an evaluator
  /// constructed only to fingerprint it never pays for them) and read
  /// lock-free by concurrent probes and compiles.
  std::unique_ptr<opt::BodyMemo> memo_;
  std::map<ParamKey, Probed> param_sigs_;  ///< level 1; guarded by mu_
  std::map<Signature, Results> cache_;     ///< level 2; guarded by mu_
  /// Ok results by (suite index, workload key); guarded by mu_. Failures
  /// never enter it, so quarantine and its release keep suite meaning.
  std::map<std::pair<std::size_t, WorkloadKey>, BenchmarkResult> bench_store_;
  /// One decision trie of recorded runs per suite benchmark (each locks
  /// itself); unbounded, like bench_store_, and as long-lived.
  std::vector<std::unique_ptr<DecisionTrie>> tries_;
  /// The pipeline runs the inline pass once, as a setup pass: each VM's
  /// compiles are keyed by one probe walk and recorded.
  bool traced_ = false;
  /// Signatures currently being evaluated by some thread; guarded by mu_.
  /// Waiters block on cv_ until the owning thread caches the result (or
  /// abandons the signature by exception) rather than re-running the suite.
  std::set<Signature> in_flight_;
  /// Signatures whose suite failed even after retries; guarded by mu_.
  std::set<Signature> quarantine_;
  std::uint64_t evaluations_performed_ = 0;
  std::uint64_t benchmark_runs_ = 0;
  std::uint64_t benchmark_replays_ = 0;
  /// Suite indices by descending total_cycles of the first complete suite
  /// result (empty until then: suite order); guarded by mu_.
  std::vector<std::size_t> dispatch_order_;
  mutable std::optional<std::uint64_t> fingerprint_;  ///< guarded by mu_
  mutable std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace ith::tuner
