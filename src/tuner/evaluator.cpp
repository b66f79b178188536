#include "tuner/evaluator.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <string_view>

#include "opt/decision_probe.hpp"
#include "resilience/guard.hpp"
#include "runtime/profile.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "tuner/decision_trie.hpp"

namespace ith::tuner {

namespace {

/// A failure is worth retrying only if its verdict can change on a later
/// attempt: injected faults (the fault key mixes in the attempt number),
/// host wall-clock misses (timing), and foreign crashes. Sim-domain budget
/// trips and runtime traps are deterministic — same program, same budget,
/// same verdict — with one exception: when compile-inflation faults are
/// armed, a compile-cycle trip is the *signature* of an inflated compile
/// (that is how the fault manifests), so it is transient and retried too.
bool retryable(const resilience::EvalOutcome& o, bool compile_faults_armed) {
  return o.trap == resilience::TrapKind::kInjected ||
         o.budget == resilience::BudgetKind::kWallClock ||
         o.kind == resilience::OutcomeKind::kCrash ||
         (compile_faults_armed && o.budget == resilience::BudgetKind::kCompileCycles);
}

const char* outcome_counter(const resilience::EvalOutcome& o) {
  switch (o.kind) {
    case resilience::OutcomeKind::kOk: return "resil.outcome.ok";
    case resilience::OutcomeKind::kBudgetExceeded: return "resil.outcome.budget";
    case resilience::OutcomeKind::kTrap: return "resil.outcome.trap";
    case resilience::OutcomeKind::kCrash: return "resil.outcome.crash";
  }
  return "resil.outcome.crash";
}

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) { return resilience::mix_keys(h, v); }

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return mix_u64(h, bits);
}

std::uint64_t hash_program(const bc::Program& prog) {
  std::uint64_t h = codec::fnv1a(prog.name());
  h = mix_u64(h, prog.globals_size());
  h = mix_u64(h, static_cast<std::uint64_t>(prog.entry()));
  for (const bc::Method& m : prog.methods()) {
    h = mix_u64(h, codec::fnv1a(m.name()));
    h = mix_u64(h, static_cast<std::uint64_t>(m.num_args()));
    h = mix_u64(h, static_cast<std::uint64_t>(m.num_locals()));
    for (const bc::Instruction& insn : m.code()) {
      h = mix_u64(h, static_cast<std::uint64_t>(insn.op));
      h = mix_u64(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(insn.a)));
      h = mix_u64(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(insn.b)));
    }
  }
  return h;
}

}  // namespace

SuiteEvaluator::SuiteEvaluator(std::vector<wl::Workload> suite, EvalConfig config,
                               std::size_t memo_budget_bytes)
    : suite_(std::move(suite)), config_(config) {
  ITH_CHECK(!suite_.empty(), "evaluator needs a non-empty suite");
  ITH_CHECK(config_.iterations >= 1, "need at least one iteration");
  ITH_CHECK(config_.max_retries >= 0, "max_retries must be >= 0");
  config_.vm_config.scenario = config_.scenario;
  config_.vm_config.obs = config_.obs;
  std::vector<const bc::Program*> programs;
  for (const wl::Workload& w : suite_) programs.push_back(&w.program);
  const opt::PipelineDesc pipeline = config_.vm_config.effective_pipeline();
  memo_ = std::make_unique<opt::BodyMemo>(std::move(programs), pipeline,
                                          config_.vm_config.inline_limits, config_.obs,
                                          memo_budget_bytes);
  // The condition under which VirtualMachine gives each compile a probe
  // walk, and so records its compile trace.
  traced_ = opt::BodyMemo::supports(pipeline) && pipeline.has_pass("inline");
  for (std::size_t i = 0; i < suite_.size(); ++i) {
    tries_.push_back(std::make_unique<DecisionTrie>());
  }
}

SuiteEvaluator::~SuiteEvaluator() = default;

bool SuiteEvaluator::replay_enabled() const {
  const resilience::FaultPlan* const plan = config_.vm_config.faults;
  return traced_ && (plan == nullptr || !plan->armed());
}

std::optional<BenchmarkResult> SuiteEvaluator::find_replay(std::size_t i,
                                                           const heur::InlineParams& params) {
  const std::unique_ptr<heur::InlineHeuristic> h = heur::make_jikes(params);
  const opt::ProbeFacts& facts = memo_->facts(static_cast<int>(i));
  const bool adaptive = config_.scenario == vm::Scenario::kAdapt;
  const std::uint64_t threshold = config_.vm_config.hot_site_threshold;
  opt::VerdictTrace walk;
  return tries_[i]->find([&](bc::MethodId method, const std::vector<std::uint64_t>& hot) {
    opt::SiteOracle oracle = opt::cold_site;
    if (adaptive) {
      // The VM's oracle, with the live profile's counts replaced by the
      // recorded hot set: the Jikes heuristic reads only is_hot.
      oracle = [&hot, threshold](bc::MethodId m, std::int32_t pc) {
        opt::SiteProfile sp;
        if (m >= 0 && pc >= 0) {
          sp.count = std::binary_search(hot.begin(), hot.end(), rt::ProfileData::site_key(m, pc))
                         ? threshold
                         : 0;
          sp.is_hot = sp.count >= threshold;
        }
        return sp;
      };
    }
    opt::DecisionProbe(facts, *h, std::move(oracle), config_.vm_config.inline_limits)
        .probe_method(method, walk);
    return opt::verdict_bytes(walk.decisions);
  });
}

std::size_t SuiteEvaluator::run_benchmarks(const std::vector<std::size_t>& which,
                                           const HeuristicFactory& make_heuristic,
                                           const std::vector<std::uint64_t>& salts,
                                           bool allow_faults, const heur::InlineParams* replay,
                                           std::vector<BenchmarkResult>& results) {
  obs::Context* const obs = config_.obs;
  const bool trace = obs != nullptr && obs->enabled(obs::Category::kEval);
  obs::ScopedSpan suite_span(obs, obs::Category::kEval, "eval.suite",
                             trace ? std::vector<obs::Arg>{{"benchmarks", which.size()}}
                                   : std::vector<obs::Arg>{});
  const resilience::FaultPlan* const plan = allow_faults ? config_.vm_config.faults : nullptr;
  const bool compile_faults = plan != nullptr && plan->armed() &&
                              plan->enabled(resilience::FaultSite::kCompileInflate);
  std::atomic<std::size_t> replayed{0};
  // One benchmark, start to finish, on whichever thread runs it: its
  // replay check, its own heuristic (prepare() rewrites per-program state,
  // so concurrent VMs cannot share one), its retry loop and its eval.bench
  // span.
  const auto run_benchmark = [&](std::size_t i) {
    const wl::Workload& w = suite_[i];
    const std::uint64_t t0 = obs != nullptr ? obs->host_now_us() : 0;
    if (replay != nullptr) {
      std::optional<BenchmarkResult> hit = find_replay(i, *replay);
      if (obs != nullptr) obs->counter("eval.replay_us").add(obs->host_now_us() - t0);
      if (hit.has_value()) {
        results[i] = std::move(*hit);
        replayed.fetch_add(1, std::memory_order_relaxed);
        if (trace) {
          obs->complete(obs::Category::kEval, "eval.replay", obs::Domain::kHost, t0,
                        obs->host_now_us() - t0,
                        {{"bench", w.name}, {"total_cycles", results[i].total_cycles}});
        }
        return;
      }
    }
    const std::unique_ptr<heur::InlineHeuristic> h = make_heuristic();
    ITH_CHECK(h != nullptr, "heuristic factory returned null");
    BenchmarkResult& br = results[i];
    br.name = w.name;

    std::vector<vm::CompileEvent> compile_trace;
    const int max_attempts = 1 + config_.max_retries;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      vm::VmConfig cfg = config_.vm_config;
      if (!allow_faults) cfg.faults = nullptr;
      cfg.body_memo = memo_.get();
      cfg.fault_key = resilience::mix_keys(
          salts[i], resilience::mix_keys(codec::fnv1a(w.name),
                                         static_cast<std::uint64_t>(attempt)));

      resilience::GuardedRun gr;
      if (cfg.faults != nullptr &&
          cfg.faults->should_inject(resilience::FaultSite::kEvaluator, cfg.fault_key)) {
        gr.outcome = resilience::EvalOutcome::make_trap(resilience::TrapKind::kInjected,
                                                        "injected evaluator fault");
      } else {
        gr = resilience::guarded_run(w.program, config_.machine, *h, cfg, config_.iterations);
      }

      br.attempts = attempt + 1;
      br.outcome = gr.outcome;
      if (gr.outcome.ok()) {
        br.running_cycles = gr.result.running_cycles;
        br.total_cycles = gr.result.total_cycles;
        br.compile_cycles = gr.result.compile_cycles_all;
        compile_trace = std::move(gr.result.compile_trace);
        break;
      }
      if (attempt + 1 < max_attempts && retryable(gr.outcome, compile_faults)) {
        if (obs != nullptr) obs->counter("resil.retries").add(1);
        continue;
      }
      break;  // final failure: penalized result (cycle fields stay zero)
    }

    if (replay != nullptr && br.outcome.ok() && br.attempts == 1) {
      const std::size_t added = tries_[i]->insert(compile_trace, br);
      if (obs != nullptr) obs->counter("eval.replay_trie_bytes").add(added);
    }
    if (obs != nullptr) obs->counter(outcome_counter(br.outcome)).add(1);
    if (trace) {
      obs->complete(obs::Category::kEval, "eval.bench", obs::Domain::kHost, t0,
                    obs->host_now_us() - t0,
                    {{"bench", w.name},
                     {"running_cycles", br.running_cycles},
                     {"total_cycles", br.total_cycles},
                     {"compile_cycles", br.compile_cycles},
                     {"outcome", br.outcome.to_string()},
                     {"attempts", br.attempts}});
    }
  };

  // A single benchmark (the serving shadow evaluator's whole suite, or the
  // one a new signature has not seen) gains nothing from the pool, so it
  // runs on the caller. More fan out across the shared pool, longest
  // first: with more benchmarks than workers, a long one started last
  // would run alone at the end.
  if (which.size() == 1) {
    run_benchmark(which[0]);
    return replayed.load();
  }
  std::vector<std::size_t> order;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dispatch_order_.empty()) {
      order = which;
    } else {
      std::vector<bool> wanted(suite_.size(), false);
      for (const std::size_t i : which) wanted[i] = true;
      for (const std::size_t i : dispatch_order_) {
        if (wanted[i]) order.push_back(i);
      }
    }
  }
  ThreadPool::shared().parallel_for(order.size(),
                                    [&](std::size_t k) { run_benchmark(order[k]); });
  return replayed.load();
}

void SuiteEvaluator::note_dispatch_order(const std::vector<BenchmarkResult>& results) {
  if (!dispatch_order_.empty() || results.size() != suite_.size()) return;
  // Simulated cycles, not host time: the order is a pure function of the
  // first complete result, whatever else the host is doing.
  dispatch_order_.resize(suite_.size());
  std::iota(dispatch_order_.begin(), dispatch_order_.end(), std::size_t{0});
  std::stable_sort(dispatch_order_.begin(), dispatch_order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return results[a].total_cycles > results[b].total_cycles;
                   });
}

std::vector<BenchmarkResult> SuiteEvaluator::evaluate_heuristic(
    const HeuristicFactory& make_heuristic, std::uint64_t fault_salt) {
  std::vector<std::size_t> all(suite_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<BenchmarkResult> results(suite_.size());
  run_benchmarks(all, make_heuristic, std::vector<std::uint64_t>(suite_.size(), fault_salt),
                 /*allow_faults=*/true, /*replay=*/nullptr, results);
  std::lock_guard<std::mutex> lock(mu_);
  note_dispatch_order(results);
  return results;
}

SuiteEvaluator::Signature SuiteEvaluator::suite_signature(const std::vector<WorkloadKey>& keys) {
  Signature sig = codec::fnv1a("ith-suite-signature-v1");
  // Without an inline pass the heuristic is never consulted: every
  // parameter vector compiles identically, so all params share one
  // signature (and have no per-workload keys).
  if (keys.empty()) return mix_u64(sig, codec::fnv1a("inlining-disabled"));
  for (const WorkloadKey& k : keys) sig = mix_u64(sig, k.value);
  return sig;
}

SuiteEvaluator::Probed SuiteEvaluator::probe(const heur::InlineParams& params) {
  const ParamKey key = params.to_array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = param_sigs_.find(key);
    if (it != param_sigs_.end()) return it->second;
  }

  // Probe outside the lock: the keys are a pure function of (program,
  // params, limits), so a concurrent duplicate probe lands the same value.
  obs::Context* const obs = config_.obs;
  const bool trace = obs != nullptr && obs->enabled(obs::Category::kEval);
  const std::uint64_t t0 = obs != nullptr ? obs->host_now_us() : 0;

  Probed probed;
  bool exact = true;
  std::uint64_t consultations = 0;
  std::uint64_t forks = 0;
  if (config_.vm_config.effective_pipeline().has_pass("inline")) {
    opt::SignatureOptions opts;
    opts.adaptive = config_.scenario == vm::Scenario::kAdapt;
    // One walk per workload, each a pure function of its program and writing
    // only its own slot, so they run at once and the caller waits for the
    // slowest; a lone workload walks on the caller and never builds the pool.
    std::vector<opt::SignatureResult> walks(suite_.size());
    const auto walk = [&](std::size_t i) {
      walks[i] = opt::decision_signature(suite_[i].program, memo_->facts(static_cast<int>(i)),
                                         params, config_.vm_config.inline_limits, opts);
    };
    if (suite_.size() == 1) {
      walk(0);
    } else {
      ThreadPool::shared().parallel_for(suite_.size(), walk);
    }
    probed.keys.reserve(walks.size());
    for (const opt::SignatureResult& r : walks) {
      probed.keys.push_back(WorkloadKey{r.value, r.exact});
      exact = exact && r.exact;
      consultations += r.consultations;
      forks += r.forks;
    }
  }
  probed.sig = suite_signature(probed.keys);

  if (obs != nullptr) {
    const std::uint64_t dur = obs->host_now_us() - t0;
    obs->counter("sig.probes").add(1);
    obs->counter("sig.probe_us").add(dur);
    if (!exact) obs->counter("sig.overflow").add(1);
    if (trace) {
      obs->complete(obs::Category::kEval, "sig.probe", obs::Domain::kHost, t0, dur,
                    {{"params", params.to_string()},
                     {"signature", static_cast<std::int64_t>(probed.sig)},
                     {"consultations", consultations},
                     {"forks", forks},
                     {"exact", exact}});
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, fresh] = param_sigs_.emplace(key, std::move(probed));
  if (fresh && obs != nullptr) {
    bool collapsed = false;
    for (const auto& [other_key, other] : param_sigs_) {
      if (other.sig == it->second.sig && other_key != key) {
        collapsed = true;
        break;
      }
    }
    if (collapsed) obs->counter("sig.collapsed").add(1);
  }
  return it->second;
}

SuiteEvaluator::Signature SuiteEvaluator::signature_of(const heur::InlineParams& params) {
  return probe(params).sig;
}

std::vector<WorkloadKey> SuiteEvaluator::workload_keys(const heur::InlineParams& params) {
  return probe(params).keys;
}

SuiteEvaluator::Results SuiteEvaluator::evaluate_signature(
    const heur::InlineParams& params, const Probed& probed, bool baseline,
    const std::function<void(const char*)>& cache_event) {
  obs::Context* const obs = config_.obs;
  const Signature sig = probed.sig;
  const bool allow_quarantine = !baseline;
  bool quarantined = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    bool waited = false;
    for (;;) {
      const auto it = cache_.find(sig);
      if (it != cache_.end()) {
        cache_event(waited ? "eval.singleflight_wait" : "eval.cache_hit");
        return it->second;
      }
      // Single-flight: if another thread is already evaluating this
      // signature, wait for its result instead of running the whole suite
      // again.
      if (in_flight_.find(sig) == in_flight_.end()) break;
      waited = true;
      cv_.wait(lock);
    }
    in_flight_.insert(sig);
    quarantined = allow_quarantine && quarantine_.find(sig) != quarantine_.end();
  }

  // From here until the signature is cached, *any* exit — including a
  // throwing trace sink inside cache_event or a benchmark run — must
  // release it, or single-flight waiters block forever. RAII, not a catch
  // block, so no path can be missed. (Local classes have the enclosing
  // member function's access rights, hence the private member touches.)
  struct InFlightRelease {
    SuiteEvaluator* self;
    Signature sig;
    bool armed = true;
    ~InFlightRelease() {
      if (!armed) return;
      std::lock_guard<std::mutex> lock(self->mu_);
      self->in_flight_.erase(sig);
      self->cv_.notify_all();
    }
  } release{this, sig};

  const auto quarantine_if_failed = [&](const std::vector<BenchmarkResult>& rs) {
    const bool any_failed = std::any_of(rs.begin(), rs.end(),
                                        [](const BenchmarkResult& r) { return !r.outcome.ok(); });
    if (allow_quarantine && any_failed) {
      if (obs != nullptr) obs->counter("resil.quarantined").add(1);
      std::lock_guard<std::mutex> lock(mu_);
      quarantine_.insert(sig);
    }
  };
  // Ok results enter the per-benchmark store under their workload keys;
  // a result vector that does not line up with the suite is not indexed.
  const auto store_ok = [&](const std::vector<BenchmarkResult>& rs) {
    if (probed.keys.empty() || rs.size() != suite_.size()) return;
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (rs[i].outcome.ok() && rs[i].name == suite_[i].name) {
        bench_store_.emplace(std::make_pair(i, probed.keys[i]), rs[i]);
      }
    }
  };

  const std::size_t n = suite_.size();
  std::vector<BenchmarkResult> results;
  if (quarantined) {
    if (obs != nullptr) obs->counter("resil.quarantine_hits").add(1);
    results.reserve(n);
    for (const wl::Workload& w : suite_) {
      BenchmarkResult br;
      br.name = w.name;
      br.outcome = resilience::EvalOutcome::make_trap(resilience::TrapKind::kRuntime,
                                                      "quarantined");
      br.attempts = 0;
      results.push_back(std::move(br));
    }
  } else {
    // Whatever the store already holds needs no run; only ok results are
    // stored, so an assembled suite never inherits a failure.
    results.resize(n);
    std::vector<std::size_t> missing;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < n; ++i) {
        const auto it = probed.keys.empty()
                            ? bench_store_.end()
                            : bench_store_.find(std::make_pair(i, probed.keys[i]));
        if (it != bench_store_.end()) {
          results[i] = it->second;
        } else {
          missing.push_back(i);
        }
      }
    }
    bool have_results = missing.empty();
    if (have_results) {
      cache_event("eval.cache_hit");
      if (obs != nullptr) obs->counter("eval.bench_reused").add(n);
    }
    std::uint64_t backend_lease = 0;
    if (!have_results && !baseline && config_.backend != nullptr) {
      // Shared-cache consult, at suite granularity: another process may
      // have already paid for this signature (or be computing it right now
      // — acquire blocks through the daemon's cross-process single-flight).
      // The served bytes are bit-identical to a local run under the
      // matching fingerprint, so the quarantine decision mirrors the local
      // path exactly.
      if (std::optional<std::vector<BenchmarkResult>> remote =
              config_.backend->acquire(sig, &backend_lease)) {
        cache_event("eval.remote_hit");
        results = std::move(*remote);
        quarantine_if_failed(results);
        store_ok(results);
        have_results = true;
      }
    }
    if (!have_results) {
      cache_event("eval.cache_miss");
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++evaluations_performed_;
      }
      if (obs != nullptr) obs->counter("eval.bench_reused").add(n - missing.size());
      // Each benchmark is salted with its own key, not the suite
      // signature: a stored result is then exactly what every suite
      // sharing that key would have drawn, whatever the evaluation order.
      std::vector<std::uint64_t> salts(n, sig);
      for (std::size_t i = 0; i < probed.keys.size(); ++i) salts[i] = probed.keys[i].salt();
      const std::size_t replayed =
          run_benchmarks(missing, [&params] { return heur::make_jikes(params); }, salts,
                         /*allow_faults=*/!baseline, replay_enabled() ? &params : nullptr,
                         results);
      {
        std::lock_guard<std::mutex> lock(mu_);
        benchmark_runs_ += missing.size() - replayed;
        benchmark_replays_ += replayed;
      }
      if (obs != nullptr) {
        obs->counter("eval.bench_runs").add(missing.size() - replayed);
        obs->counter("eval.bench_replayed").add(replayed);
      }
      store_ok(results);
      quarantine_if_failed(results);
      // Report the freshly paid-for run back to the fleet, failures
      // included (the daemon runs the same quarantine rule server-side).
      // Best-effort: the backend absorbs I/O errors.
      if (!baseline && config_.backend != nullptr) {
        config_.backend->publish(sig, backend_lease, results);
      }
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  release.armed = false;  // the guard would deadlock re-locking mu_ from here
  in_flight_.erase(sig);
  if (!quarantined) note_dispatch_order(results);
  // Notify before emplace: if the insert throws, woken waiters re-check
  // under this same lock and simply become the new owner — no missed wakeup.
  cv_.notify_all();
  return cache_.emplace(sig, std::make_shared<std::vector<BenchmarkResult>>(std::move(results)))
      .first->second;
}

SuiteEvaluator::Results SuiteEvaluator::evaluate(const heur::InlineParams& params) {
  obs::Context* const obs = config_.obs;
  const bool trace = obs != nullptr && obs->enabled(obs::Category::kEval);
  const Probed probed = probe(params);
  const auto cache_event = [&](const char* what) {
    if (trace) {
      obs->instant(obs::Category::kEval, what, obs::Domain::kHost, obs->host_now_us(),
                   {{"params", params.to_string()},
                    {"signature", static_cast<std::int64_t>(probed.sig)}});
    }
    if (obs != nullptr) {
      obs->counter(what).add(1);
      obs->counter(std::string_view(what) == "eval.cache_miss" ? "sig.misses" : "sig.hits").add(1);
    }
  };
  return evaluate_signature(params, probed, /*baseline=*/false, cache_event);
}

SuiteEvaluator::Results SuiteEvaluator::default_results() {
  const heur::InlineParams params = heur::default_params();
  // Faults suppressed: the baseline is the denominator of every normalized
  // figure, so a chaos campaign must never see a penalized default run. The
  // quarantine and the shared backend are bypassed for the same reason (a
  // quarantined signature aliasing the defaults must not poison the
  // baseline); no cache events are emitted, matching the historical
  // behaviour of this path.
  return evaluate_signature(params, probe(params), /*baseline=*/true, [](const char*) {});
}

std::size_t SuiteEvaluator::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

std::uint64_t SuiteEvaluator::evaluations_performed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evaluations_performed_;
}

std::uint64_t SuiteEvaluator::benchmark_runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return benchmark_runs_;
}

std::uint64_t SuiteEvaluator::benchmark_replays() const {
  std::lock_guard<std::mutex> lock(mu_);
  return benchmark_replays_;
}

std::size_t SuiteEvaluator::params_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return param_sigs_.size();
}

std::size_t SuiteEvaluator::signatures_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<Signature> distinct;
  for (const auto& [key, probed] : param_sigs_) distinct.insert(probed.sig);
  return distinct.size();
}

std::uint64_t SuiteEvaluator::cache_fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (fingerprint_.has_value()) return *fingerprint_;

  std::uint64_t fp = codec::fnv1a("ith-eval-cache-v3");
  // The params -> keys table is only as good as the probe that filled it.
  fp = mix_u64(fp, opt::kSignatureVersion);
  fp = mix_u64(fp, opt::SignatureOptions{}.max_events);
  const rt::MachineModel& m = config_.machine;
  fp = mix_u64(fp, codec::fnv1a(m.name));
  fp = mix_double(fp, m.baseline_cpi);
  fp = mix_double(fp, m.mid_cpi);
  fp = mix_double(fp, m.opt_cpi);
  fp = mix_u64(fp, m.call_overhead_cycles);
  fp = mix_u64(fp, m.icache_bytes);
  fp = mix_u64(fp, m.icache_line_bytes);
  fp = mix_u64(fp, m.icache_assoc);
  fp = mix_u64(fp, m.icache_miss_cycles);
  fp = mix_u64(fp, m.bytes_per_word);
  fp = mix_double(fp, m.baseline_compile_cycles_per_word);
  fp = mix_double(fp, m.opt_compile_cycles_per_word);
  fp = mix_double(fp, m.opt_compile_exponent);
  fp = mix_double(fp, m.clock_hz);
  fp = mix_double(fp, m.mid_compile_fraction);

  fp = mix_u64(fp, static_cast<std::uint64_t>(config_.scenario));
  fp = mix_u64(fp, static_cast<std::uint64_t>(config_.iterations));
  fp = mix_u64(fp, static_cast<std::uint64_t>(config_.max_retries));

  const vm::VmConfig& v = config_.vm_config;
  fp = mix_u64(fp, v.hot_method_threshold);
  fp = mix_u64(fp, v.hot_site_threshold);
  fp = mix_u64(fp, v.rehot_multiplier);
  fp = mix_u64(fp, static_cast<std::uint64_t>(v.inline_limits.hard_depth_cap));
  fp = mix_u64(fp, static_cast<std::uint64_t>(v.inline_limits.max_recursive_occurrences));
  fp = mix_u64(fp, static_cast<std::uint64_t>(v.inline_limits.max_body_words));
  fp = mix_u64(fp, v.simulate_icache ? 1 : 0);
  fp = mix_u64(fp, v.enable_osr ? 1 : 0);
  fp = mix_u64(fp, v.interp_options.max_instructions);
  fp = mix_u64(fp, v.interp_options.max_frames);
  fp = mix_u64(fp, v.interp_options.max_arena_words);
  fp = mix_u64(fp, static_cast<std::uint64_t>(v.interp_options.engine));

  // The effective pipeline's canonical string covers the pass list *and*
  // the fixpoint iteration cap, so any change to either refuses stale
  // caches.
  fp = mix_u64(fp, codec::fnv1a(v.effective_pipeline().to_string()));

  const resilience::RunBudget& b = v.budget;
  fp = mix_u64(fp, b.max_sim_cycles);
  fp = mix_u64(fp, b.max_compile_cycles);
  fp = mix_u64(fp, b.max_instructions);
  fp = mix_u64(fp, b.max_frame_depth);
  fp = mix_u64(fp, b.max_arena_words);
  fp = mix_u64(fp, b.max_wall_ms);

  // Results under fault injection depend on the plan (penalized entries,
  // attempt counts), so two runs only share a cache when their plans match.
  if (v.faults != nullptr && v.faults->armed()) {
    fp = mix_u64(fp, v.faults->seed);
    fp = mix_double(fp, v.faults->rate);
    fp = mix_u64(fp, v.faults->sites);
    fp = mix_double(fp, v.faults->compile_inflation);
  } else {
    fp = mix_u64(fp, codec::fnv1a("no-faults"));
  }

  fp = mix_u64(fp, suite_.size());
  for (const wl::Workload& w : suite_) {
    fp = mix_u64(fp, codec::fnv1a(w.name));
    fp = mix_u64(fp, hash_program(w.program));
  }

  fingerprint_ = fp;
  return fp;
}

EvalCacheSnapshot SuiteEvaluator::snapshot() const {
  EvalCacheSnapshot snap;
  snap.fingerprint = cache_fingerprint();
  std::lock_guard<std::mutex> lock(mu_);
  snap.entries.reserve(cache_.size());
  for (const auto& [sig, results] : cache_) {
    snap.entries.push_back(EvalCacheSnapshot::Entry{sig, *results});
  }
  snap.quarantined.assign(quarantine_.begin(), quarantine_.end());
  snap.params.reserve(param_sigs_.size());
  for (const auto& [key, probed] : param_sigs_) {
    snap.params.push_back(EvalCacheSnapshot::ParamsKeys{key, probed.keys});
  }
  return snap;
}

void SuiteEvaluator::restore(const EvalCacheSnapshot& snap) {
  ITH_CHECK(snap.fingerprint == cache_fingerprint(),
            "evaluation cache fingerprint mismatch (different evaluator configuration)");
  const std::size_t want_keys =
      config_.vm_config.effective_pipeline().has_pass("inline") ? suite_.size() : 0;
  for (const EvalCacheSnapshot::ParamsKeys& row : snap.params) {
    ITH_CHECK(row.keys.size() == want_keys,
              "evaluation cache params table has " + std::to_string(row.keys.size()) +
                  " keys per row, this suite needs " + std::to_string(want_keys));
  }

  // Suite signatures are recomputed from the keys, never read: the table
  // cannot name a signature its keys do not mix into.
  std::map<Signature, const std::vector<WorkloadKey>*> keys_of;
  std::uint64_t restored = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const EvalCacheSnapshot::ParamsKeys& row : snap.params) {
    const auto [it, fresh] =
        param_sigs_.emplace(row.params, Probed{suite_signature(row.keys), row.keys});
    keys_of.emplace(it->second.sig, &it->second.keys);
    restored += fresh ? 1 : 0;
  }
  for (const EvalCacheSnapshot::Entry& e : snap.entries) {
    // Never displace a live entry: an in-flight owner is about to publish
    // the same results anyway.
    cache_.emplace(e.signature, std::make_shared<std::vector<BenchmarkResult>>(e.results));
    const auto keys = keys_of.find(e.signature);
    if (keys == keys_of.end() || keys->second->empty() || e.results.size() != suite_.size()) {
      continue;
    }
    for (std::size_t i = 0; i < e.results.size(); ++i) {
      if (e.results[i].outcome.ok() && e.results[i].name == suite_[i].name) {
        bench_store_.emplace(std::make_pair(i, (*keys->second)[i]), e.results[i]);
      }
    }
  }
  quarantine_.insert(snap.quarantined.begin(), snap.quarantined.end());
  if (config_.obs != nullptr) config_.obs->counter("sig.restored").add(restored);
}

std::vector<std::vector<int>> SuiteEvaluator::quarantined_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int>> out;
  out.reserve(quarantine_.size());
  for (const Signature sig : quarantine_) {
    out.push_back({static_cast<int>(static_cast<std::uint32_t>(sig & 0xffffffffULL)),
                   static_cast<int>(static_cast<std::uint32_t>(sig >> 32))});
  }
  return out;
}

bool SuiteEvaluator::release_quarantine(Signature sig) {
  std::lock_guard<std::mutex> lock(mu_);
  // An in-flight owner is about to publish results for this signature; a
  // concurrent release would race its cache insert. Refuse — the caller can
  // simply retry after the evaluation lands.
  if (in_flight_.find(sig) != in_flight_.end()) return false;
  const bool was_quarantined = quarantine_.erase(sig) != 0;
  if (was_quarantined) {
    cache_.erase(sig);  // the cached entry is the penalty result, not data
    if (config_.obs != nullptr) config_.obs->counter("resil.quarantine_released").add(1);
  }
  return was_quarantined;
}

bool SuiteEvaluator::is_quarantined(Signature sig) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantine_.find(sig) != quarantine_.end();
}

void SuiteEvaluator::preload_quarantine(const std::vector<std::vector<int>>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::vector<int>& k : keys) {
    if (k.size() != 2) continue;  // pre-signature (param-keyed) checkpoint entry
    const Signature sig = static_cast<std::uint64_t>(static_cast<std::uint32_t>(k[0])) |
                          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k[1])) << 32);
    quarantine_.insert(sig);
  }
}

}  // namespace ith::tuner
