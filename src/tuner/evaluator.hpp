// SuiteEvaluator: runs a benchmark suite under a candidate heuristic and
// reports per-benchmark running/total cycles. This is the expensive inner
// loop of tuning, so results are memoized — in two levels. Level 1 maps a
// parameter vector to one key per benchmark and the suite signature they
// mix into; level 2 maps suite signatures to suite results. Distinct params
// whose benchmarks all share keys collapse onto one signature, so only one
// of them ever pays for a suite run. What a key is depends on the scenario
// (DESIGN.md §10):
//   - Adapt: the run key of the recorded run the benchmark's decision trie
//     walks to (tuner/decision_trie.hpp). A walk that falls off runs the
//     benchmark, records its trace and takes that trace's key; everything
//     else keeps a key derived from the parameter vector.
//   - Opt: the value of one all-cold decision walk per program
//     (opt/decision_probe.hpp); a per-benchmark store maps (benchmark, key)
//     to that benchmark's ok result, and below it the tries replay runs.
// The shared backend (the evaluation daemon) is keyed by a hash of the
// parameter vector, and under Adapt its results carry their compile traces,
// which the evaluator folds into its tries.
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

/// A run's optimizing compiles in order (vm::RunResult::compile_trace).
using CompileTrace = std::vector<vm::CompileEvent>;

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
  /// The run's compile trace, under Adapt, when the evaluator recorded the
  /// run in its decision trie (a first-attempt ok run); null otherwise and
  /// always under Opt. Shared: every result a walk reaches holds the
  /// recorded run's one copy.
  std::shared_ptr<const CompileTrace> trace = nullptr;
};

/// A shared evaluation backend (e.g. the evaluation daemon in src/service/).
/// The SuiteEvaluator consults it whenever a parameter vector needs a
/// benchmark run *before* paying for it, and reports locally computed
/// results back, so many evaluator processes federate onto one result
/// repository.
///
/// The key is SuiteEvaluator::backend_key(params), a hash of the parameter
/// vector, so no process needs a probe or a trie to name it. Under Adapt
/// the results carry their compile traces (BenchmarkResult::trace); the
/// evaluator inserts them into its tries, so a client that received one
/// candidate replays an equivalent one locally.
///
/// Implementations must be infallible from the evaluator's point of view:
/// connection loss, timeouts and protocol errors are absorbed internally
/// (returning "compute locally"), never thrown. Because suite results are a
/// pure function of the parameter vector under a fixed configuration
/// fingerprint, serving a result from the backend instead of computing it
/// locally is bit-identical by construction.
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  /// Consults the shared cache for `key`. May block while another process
  /// computes the same key (cross-process single-flight). Returns the
  /// shared results on a hit; returns std::nullopt when this caller must
  /// compute locally, with `*lease` set to the lease token to hand back to
  /// publish() (0 = degraded / no daemon — publish becomes best-effort).
  virtual std::optional<std::vector<BenchmarkResult>> acquire(std::uint64_t key,
                                                              std::uint64_t* lease) = 0;

  /// Reports a locally computed suite run back to the shared cache.
  /// Best-effort: a failure to publish costs other processes a duplicate
  /// evaluation, never correctness.
  virtual void publish(std::uint64_t key, std::uint64_t lease,
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
  /// Consulted before any benchmark runs for evaluate(); never consulted by
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

/// One benchmark's share of a suite signature. An exact key names what
/// fixes the run: under Adapt the run key of a recorded run
/// (tuner/decision_trie.hpp), under Opt the probe's value over the
/// benchmark's program. An inexact key is derived from the parameter vector
/// — still a sound key, it just never collapses — and the flag keeps it
/// from ever equalling an exact one. A benchmark's result is a pure
/// function of its program and its key under one evaluator fingerprint,
/// which is what lets suites share results per benchmark.
struct WorkloadKey {
  std::uint64_t value = 0;
  bool exact = true;

  /// A run's fault salt: the key it has before the run (under Adapt the
  /// parameter-derived key, since a run key exists only afterwards), so
  /// every suite that shares a key draws the same faults.
  std::uint64_t salt() const { return resilience::mix_keys(value, exact ? 1 : 0); }
  friend auto operator<=>(const WorkloadKey&, const WorkloadKey&) = default;
};

/// Serializable image of the evaluator's cached state: every signature with
/// completed results (under Adapt with their compile traces, from which
/// restore() rebuilds the decision tries), the quarantine set and every
/// resolved parameter vector's per-workload keys, stamped with a
/// fingerprint of everything that could change what a suite run or a probe
/// returns (machine model, scenario, VM/optimizer configuration, fault
/// plan, workload programs, probe version and budget). eval_cache.hpp
/// persists this as an ITHEVC3 file.
struct EvalCacheSnapshot {
  std::uint64_t fingerprint = 0;
  struct Entry {
    std::uint64_t signature = 0;
    std::vector<BenchmarkResult> results;
  };
  std::vector<Entry> entries;
  std::vector<std::uint64_t> quarantined;
  /// Level 1: a resolved parameter vector and its keys, one per suite
  /// benchmark in suite order (none when the pipeline has no inline pass).
  struct ParamsKeys {
    heur::InlineParams::Array params{};
    std::vector<WorkloadKey> keys;
  };
  std::vector<ParamsKeys> params;
};

/// A run a decision trie recorded: its result as recorded and the run key
/// of its compile path (tuner/decision_trie.hpp).
struct RecordedRun {
  BenchmarkResult result;
  std::uint64_t key = 0;
};

class DecisionTrie;

class SuiteEvaluator {
 public:
  /// `memo_budget_bytes` bounds the evaluator's memo of optimized bodies;
  /// only tests pass anything but the default.
  SuiteEvaluator(std::vector<wl::Workload> suite, EvalConfig config,
                 std::size_t memo_budget_bytes = opt::BodyMemo::kBudgetBytes);
  ~SuiteEvaluator();

  /// Suite signature of one parameter vector: the level-2 cache key and the
  /// quarantine key.
  using Signature = std::uint64_t;

  /// One memoized suite run. Shared ownership: the pointer (and everything
  /// it reaches) stays valid for as long as the caller holds it, even after
  /// the evaluator is destroyed — callers that previously held the old
  /// `const vector&` past the evaluator's lifetime were dangling.
  using Results = std::shared_ptr<const std::vector<BenchmarkResult>>;

  /// Runs every benchmark under the Figure 3/4 heuristic with `params`.
  /// Memoized by suite signature — calls whose params give every benchmark
  /// the same key (not merely equal params) return the *same* shared vector
  /// (pointer-identical). Concurrent calls with identical params wait for
  /// each other, and no two calls run one benchmark at once: a call that
  /// needs a benchmark another call is running waits for that run, then
  /// looks again, so concurrency never adds runs.
  ///
  /// Resolution, per benchmark: under Adapt with keys_from_runs(), a walk
  /// of its decision trie (probing `params` at each recorded compile); a
  /// walk that reaches a leaf reuses that run's result and key. Under Opt,
  /// the per-benchmark store under the probe's key, then the trie. When
  /// every benchmark resolves nothing runs (a level-1 hit: no backend call,
  /// not counted in evaluations_performed). Otherwise the backend is
  /// consulted for the whole suite, and failing that only the unresolved
  /// benchmarks run, each salted with its own pre-run key. First-attempt ok
  /// runs are recorded in the tries (when replay is enabled); only ok
  /// results enter the store, so failures are re-run, never reused.
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

  /// The level-1 lookup: memoized suite signature of `params`. Public
  /// because collapse statistics and tests want the mapping. When
  /// keys_from_runs(), this resolves `params` exactly as evaluate() would —
  /// running whatever no walk resolves — and a later evaluate(params) is a
  /// hit. Otherwise the keys need no run: Opt's probe (one decision walk
  /// per workload, concurrently on ThreadPool::shared() when the suite has
  /// two or more) or the parameter-derived keys. The first resolution of a
  /// parameter vector is traced as a "sig.probe" kEval span; counters
  /// sig.probes / sig.collapsed / sig.overflow / sig.probe_us, where the span
  /// and sig.probe_us are the probe's or the walks' wall time, not the sum
  /// of its walks.
  Signature signature_of(const heur::InlineParams& params);

  /// The other half of the level-1 entry: `params`' key per suite
  /// benchmark, in suite order (empty when the pipeline has no inline
  /// pass). Resolves on first use, like signature_of.
  std::vector<WorkloadKey> workload_keys(const heur::InlineParams& params);

  /// True when a benchmark's key is the run key of its recorded run: the
  /// Adapt scenario with replay enabled (every VM records a compile trace
  /// and no fault plan is armed). Then resolving a parameter vector may run
  /// benchmarks; otherwise every key is known before any run.
  bool keys_from_runs() const;

  /// The shared backend's key for `params`: a hash of the parameter vector.
  static std::uint64_t backend_key(const heur::InlineParams& params);

  const std::vector<wl::Workload>& suite() const { return suite_; }
  const EvalConfig& config() const { return config_; }
  std::size_t cache_size() const;
  /// Number of suite evaluations that ran at least one benchmark, by
  /// evaluate() or default_results() (cache hits, signature collapses,
  /// suites resolved wholly by walks or the store or served by the backend,
  /// and single-flight waiters excluded).
  std::uint64_t evaluations_performed() const;
  /// Interpreter runs those evaluations made: at most suite size times
  /// evaluations_performed().
  std::uint64_t benchmark_runs() const;
  /// Benchmarks resolved by a walk of their decision trie, summed over
  /// every resolution that walked.
  std::uint64_t benchmark_replays() const;
  /// Hits, misses, evictions, entries and bytes of the memo of optimized
  /// bodies.
  opt::BodyMemo::Stats memo_stats() const { return memo_->stats(); }
  /// Distinct parameter vectors resolved so far (level-1 size).
  std::size_t params_seen() const;
  /// Distinct suite signatures those params collapsed onto.
  std::size_t signatures_seen() const;

  /// Fingerprint of everything that determines suite results for a given
  /// signature and the keys a probe returns for given params. Snapshots
  /// carry it; restore() refuses a mismatch.
  std::uint64_t cache_fingerprint() const;

  /// Copies the completed signature->results entries, the quarantine set
  /// and every level-1 entry. In-flight evaluations are not included.
  EvalCacheSnapshot snapshot() const;
  /// Merges a snapshot produced by an identically-configured evaluator:
  /// restored params need no resolution (their suite signatures are
  /// recomputed from the keys), restored entries satisfy later evaluate()
  /// calls without a run (and without counting as evaluations_performed),
  /// the traces of the entries' results go into the tries, and where keys
  /// need no run the ok results of entries whose keys the table names seed
  /// the per-benchmark store. The tries are built from the traces when a
  /// walk first needs them, so a warm tune that walks nothing never pays
  /// for them; a trace that contradicts them is dropped. Throws ith::Error,
  /// having applied nothing, when the snapshot's fingerprint does not match
  /// cache_fingerprint(), a table row has the wrong number of keys for this
  /// suite or a trace names a method its program lacks.
  void restore(EvalCacheSnapshot snap);

  /// Quarantined signatures, widened for checkpoint serialization (two
  /// ints per signature: low word, high word).
  std::vector<std::vector<int>> quarantined_keys() const;
  /// Re-arms the quarantine from a checkpoint; entries with the wrong arity
  /// are ignored (this silently drops quarantine entries from pre-signature
  /// checkpoints, which merely costs a re-evaluation).
  void preload_quarantine(const std::vector<std::vector<int>>& keys);

  /// Lifts the quarantine on `sig` and drops its cached (penalized) results
  /// so the next evaluate() of any aliasing params performs a fresh guarded
  /// run of the benchmarks that failed (neither the store nor the tries
  /// ever hold a failure). Returns true when the signature was actually
  /// quarantined. This is the online tuner's retry path: the quarantine is
  /// keyed on signature, so a seed genome quarantined by a transient fault
  /// would otherwise pin every later retune of that genome to the penalty
  /// result forever — starvation, since the controller can never observe
  /// it recovering. No-op (returns false) while any evaluation is in
  /// flight.
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
  /// The level-1 entry of a parameter vector and its suite results.
  struct Resolved {
    Probed probed;
    Results results;
  };
  /// Receives "eval.cache_hit", "eval.cache_miss" and the like with the
  /// signature they concern.
  using CacheEvent = std::function<void(const char*, Signature)>;

  /// The level-1 lookup when no key needs a run (see keys_from_runs()):
  /// Opt's probe, or the parameter-derived keys. Memoized in param_sigs_.
  Probed probe(const heur::InlineParams& params);

  /// The suite signature `keys` mix into (the one signature_of returns).
  static Signature suite_signature(const std::vector<WorkloadKey>& keys);

  /// The inexact key of every benchmark of `params`.
  static WorkloadKey params_key(const heur::InlineParams& params);

  /// The uncached evaluation path: runs the benchmarks `which` (suite
  /// indices) through guarded_run with the retry loop, benchmark i salted
  /// with salts[i], into results[i]; other slots are left alone.
  /// `allow_faults` is false for the default-params baseline. When `keys`
  /// is not null, first-attempt ok runs are recorded in their tries, and
  /// under Adapt a recorded run's result carries its trace and keys[i]
  /// becomes its run key. Two or more benchmarks run concurrently on
  /// ThreadPool::shared(), started in dispatch_order_; a slot always gets
  /// its own benchmark's result, so the order changes wall time only.
  void run_benchmarks(const std::vector<std::size_t>& which,
                      const HeuristicFactory& make_heuristic,
                      const std::vector<std::uint64_t>& salts, bool allow_faults,
                      std::vector<WorkloadKey>* keys, std::vector<BenchmarkResult>& results);

  /// True when runs may be recorded and replayed: every VM records a
  /// compile trace and no fault plan is armed (fault draws are salted by
  /// key, so a run under another key may draw differently).
  bool replay_enabled() const;

  /// Walks benchmark i's decision trie under `params`: at each recorded
  /// compile, DecisionProbe with the Jikes heuristic and the VM's site
  /// oracle over the recorded hot set.
  const RecordedRun* walk(std::size_t i, const heur::InlineParams& params) const;

  /// Throws ith::Error when `trace` names a method benchmark i's program
  /// lacks (a trace from a file or the backend).
  void check_trace(std::size_t i, const CompileTrace& trace) const;

  /// Records benchmark i's ok first-attempt run in its trie; returns the
  /// leaf (whose result carries the trace under Adapt). Throws ith::Error
  /// when the trace names a method the program lacks or contradicts the
  /// trie.
  const RecordedRun* record(std::size_t i, std::shared_ptr<const CompileTrace> trace,
                            const BenchmarkResult& result);

  /// Takes a backend hit as benchmark results: one per suite benchmark,
  /// each trace recorded (its run key becoming the benchmark's key under
  /// Adapt). Returns false, leaving `results` and `keys` alone, when the
  /// vector does not fit this suite or a trace does not fit its program.
  bool adopt(const std::vector<BenchmarkResult>& remote, std::vector<BenchmarkResult>& results,
             std::vector<WorkloadKey>& keys);

  /// Records the traces restore() took in, in restore order; every walk
  /// calls it first.
  void record_restored();

  /// Sets dispatch_order_ from the first complete suite result; caller
  /// holds mu_.
  void note_dispatch_order(const std::vector<BenchmarkResult>& results);

  /// The single-flight body of evaluate()/signature_of()/default_results():
  /// looks up `params`, then resolves each benchmark (walk, store), and
  /// assembles the suite from those, the shared backend (when not
  /// `baseline`) or runs of the rest. `baseline` also suppresses faults and
  /// the quarantine.
  Resolved resolve(const heur::InlineParams& params, bool baseline,
                   const CacheEvent& cache_event);

  /// The cache events evaluate() traces for `params`.
  CacheEvent traced_events(const heur::InlineParams& params) const;

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
  /// Ok results by (suite index, workload key) when keys need no run (see
  /// keys_from_runs()); guarded by mu_. Failures never enter it, so
  /// quarantine and its release keep suite meaning.
  std::map<std::pair<std::size_t, WorkloadKey>, BenchmarkResult> bench_store_;
  /// One decision trie of recorded runs per suite benchmark (each locks
  /// itself); unbounded, like bench_store_, and as long-lived.
  std::vector<std::unique_ptr<DecisionTrie>> tries_;
  /// Restored runs not yet in their tries (see restore()); guarded by
  /// restored_mu_, which a walker holds while it records them, so no walk
  /// starts before they are in.
  struct Restored {
    std::size_t bench = 0;
    BenchmarkResult result;  ///< carries the trace
  };
  std::vector<Restored> restored_;
  std::mutex restored_mu_;
  /// The pipeline runs the inline pass once, as a setup pass: each VM's
  /// compiles are keyed by one probe walk and recorded.
  bool traced_ = false;
  /// The pipeline has an inline pass: without one every parameter vector
  /// compiles identically and there are no keys.
  bool inlines_ = false;
  /// Parameter vectors being resolved; guarded by mu_. A call with the
  /// same params waits on cv_ for the owner's result.
  std::set<ParamKey> params_in_flight_;
  /// Per suite benchmark, guarded by mu_: whether a run of it is in flight,
  /// and how many runs of it have finished (a waiter whose walk predates a
  /// finished run walks again).
  std::vector<char> bench_busy_;
  std::vector<std::uint64_t> bench_runs_done_;
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
