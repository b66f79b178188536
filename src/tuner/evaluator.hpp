// SuiteEvaluator: runs a benchmark suite under a candidate heuristic and
// reports per-benchmark running/total cycles. This is the expensive inner
// loop of tuning, so results are memoized — in two levels. Level 1 maps a
// parameter vector to its *decision signature* (a cheap static probe of
// every inline decision the params imply; see opt/decision_probe.hpp).
// Level 2 maps signatures to suite results. Distinct params that drive the
// optimizer to identical decisions collapse onto one signature, so only one
// of them ever pays for a real suite run.
#pragma once

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
#include <vector>

#include "heuristics/heuristic.hpp"
#include "obs/context.hpp"
#include "opt/decision_probe.hpp"
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

/// Builds a fresh heuristic. run_suite calls it once per benchmark run,
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

/// Serializable image of the evaluator's signature-level state: every
/// signature with completed results plus the quarantine set, stamped with a
/// fingerprint of everything that could change what a suite run returns
/// (machine model, scenario, VM/optimizer configuration, fault plan,
/// workload programs). eval_cache.hpp persists this as an ITHEVC1 file.
struct EvalCacheSnapshot {
  std::uint64_t fingerprint = 0;
  struct Entry {
    std::uint64_t signature = 0;
    std::vector<BenchmarkResult> results;
  };
  std::vector<Entry> entries;
  std::vector<std::uint64_t> quarantined;
};

class SuiteEvaluator {
 public:
  SuiteEvaluator(std::vector<wl::Workload> suite, EvalConfig config);

  /// Decision signature of one parameter vector over the whole suite: the
  /// level-2 cache key, the quarantine key, and the fault salt.
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
  /// memoized path salts with the decision signature, so signature-aliased
  /// params see identical fault draws).
  std::vector<BenchmarkResult> evaluate_heuristic(const HeuristicFactory& make_heuristic,
                                                  std::uint64_t fault_salt = 0);

  /// Results under the shipped default parameters (computed lazily once;
  /// the denominator for normalized figures and the balance factor).
  /// Always runs with fault injection suppressed — a chaos campaign must
  /// never corrupt the normalization baseline.
  Results default_results();

  /// The level-1 lookup: memoized decision signature of `params`. Public
  /// because collapse statistics and tests want the mapping without paying
  /// for a suite run. First call per distinct params runs the probe (traced
  /// as a "sig.probe" kEval span; counters sig.probes / sig.collapsed /
  /// sig.overflow / sig.probe_us).
  Signature signature_of(const heur::InlineParams& params);

  const std::vector<wl::Workload>& suite() const { return suite_; }
  const EvalConfig& config() const { return config_; }
  std::size_t cache_size() const;
  /// Number of full-suite evaluations actually performed by evaluate()
  /// (cache hits, signature collapses and single-flight waiters excluded).
  std::uint64_t evaluations_performed() const;
  /// Distinct parameter vectors probed so far (level-1 size).
  std::size_t params_seen() const;
  /// Distinct decision signatures those params collapsed onto.
  std::size_t signatures_seen() const;

  /// Fingerprint of everything that determines suite results for a given
  /// signature. Snapshots carry it; restore() refuses a mismatch.
  std::uint64_t cache_fingerprint() const;

  /// Copies the completed signature->results entries and the quarantine
  /// set. In-flight evaluations are not included.
  EvalCacheSnapshot snapshot() const;
  /// Merges a snapshot produced by an identically-configured evaluator:
  /// restored entries satisfy later evaluate() calls without a run (and
  /// without counting as evaluations_performed). Throws ith::Error when the
  /// snapshot's fingerprint does not match cache_fingerprint().
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
  /// run. Returns true when the signature was actually quarantined. This is
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

  /// The uncached evaluation path: every benchmark through guarded_run with
  /// the retry loop. `allow_faults` is false for the default-params baseline.
  /// Suites of two or more benchmarks run concurrently on
  /// ThreadPool::shared(), started in dispatch_order_; results[i] is always
  /// suite_[i]'s, so the order changes wall time only.
  std::vector<BenchmarkResult> run_suite(const HeuristicFactory& make_heuristic,
                                         std::uint64_t fault_salt, bool allow_faults);

  /// Shared single-flight body of evaluate()/default_results(): looks up /
  /// claims `sig`, consulting the shared backend (when `allow_backend`) and
  /// running `compute` only when this caller owns the miss.
  Results evaluate_signature(Signature sig, bool allow_quarantine, bool allow_backend,
                             const std::function<std::vector<BenchmarkResult>()>& compute,
                             const std::function<void(const char*)>& cache_event);

  std::vector<wl::Workload> suite_;
  EvalConfig config_;
  /// Probe facts, one per workload, built by the first signature_of() (an
  /// evaluator constructed only to fingerprint it never pays for them) and
  /// read-only afterwards, so concurrent probes share them lock-free.
  std::once_flag facts_once_;
  std::vector<opt::ProbeFacts> facts_;
  std::map<ParamKey, Signature> param_sigs_;  ///< level 1; guarded by mu_
  std::map<Signature, Results> cache_;        ///< level 2; guarded by mu_
  /// Signatures currently being evaluated by some thread; guarded by mu_.
  /// Waiters block on cv_ until the owning thread caches the result (or
  /// abandons the signature by exception) rather than re-running the suite.
  std::set<Signature> in_flight_;
  /// Signatures whose suite failed even after retries; guarded by mu_.
  std::set<Signature> quarantine_;
  std::uint64_t evaluations_performed_ = 0;
  /// Suite indices by descending total_cycles of the first completed suite
  /// run (empty until then: suite order); guarded by mu_.
  std::vector<std::size_t> dispatch_order_;
  mutable std::optional<std::uint64_t> fingerprint_;  ///< guarded by mu_
  mutable std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace ith::tuner
