// The four benchmark workloads. Each runs rounds of its timed unit until the
// run length is spent (at least one round), reports medians, and checks its
// outputs; with tracing on it also splits the unit's wall time into layers.
#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "obs/context.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "serving/driver.hpp"
#include "serving/server.hpp"
#include "serving/workloads.hpp"
#include "tuner/eval_cache.hpp"
#include "tuner/parameter_space.hpp"

namespace perfbench {

using namespace ith;

namespace {

/// Set-ups timed before each round: set-up takes milliseconds, so it is
/// sampled many times, spread over the run.
constexpr int kSetUpsPerRound = 3;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct RunTiming {
  double setup_s = 0.0;  ///< fastest set-up
  double probe_s = 0.0;  ///< fastest host_probe()
};

/// Runs `set_up` kSetUpsPerRound times, host_probe() as often, and then
/// `round`, at least once and then for as long as another round of the last
/// one's length still fits in `seconds`.
template <typename SetUp, typename Round>
RunTiming run_rounds(const Options& o, Result& result, SetUp&& set_up, Round&& round) {
  const Clock::time_point start = Clock::now();
  RunTiming t{std::numeric_limits<double>::infinity(), std::numeric_limits<double>::infinity()};
  double last = 0.0;
  do {
    const Clock::time_point round_start = Clock::now();
    for (int i = 0; i < kSetUpsPerRound; ++i) {
      const Clock::time_point t0 = Clock::now();
      set_up();
      t.setup_s = std::min(t.setup_s, seconds_since(t0));
      t.probe_s = std::min(t.probe_s, host_probe());
    }
    round();
    ++result.rounds;
    last = seconds_since(round_start);
  } while (seconds_since(start) + last <= o.seconds);
  return t;
}

/// The end-to-end metrics: timings scaled to the reference host speed (see
/// host_probe), with the raw seconds on the workload line.
void end_to_end(Result& result, const RunTiming& t, double tune_s, double warm_s,
                double best_fitness, double peak_rss_mb) {
  const double scale = kReferenceProbeS / t.probe_s;
  result.metric("setup_s", t.setup_s * scale, "s");
  result.metric("tune_s", tune_s * scale, "s");
  result.metric("warm_tune_s", warm_s * scale, "s");
  result.metric("best_fitness", best_fitness, "ratio");
  result.metric("peak_rss_mb", peak_rss_mb, "MiB");
  result.info.emplace_back("host_probe_s", t.probe_s);
  result.info.emplace_back("raw_setup_s", t.setup_s);
  result.info.emplace_back("raw_tune_s", tune_s);
  result.info.emplace_back("raw_warm_tune_s", warm_s);
}

/// Median of a layer across traced rounds.
Layers median_layers(const std::vector<Layers>& rounds) {
  std::map<std::string, std::vector<double>> by_key;
  for (const Layers& l : rounds) {
    for (const auto& [k, v] : l) by_key[k].push_back(v);
  }
  Layers out;
  for (auto& [k, vs] : by_key) out[k] = median(vs);
  return out;
}

double sum_of(const Layers& l, const std::string& prefix, const std::vector<std::string>& keys) {
  double s = 0.0;
  for (const std::string& k : keys) {
    const auto it = l.find(prefix + k);
    if (it != l.end()) s += it->second;
  }
  return s;
}

/// Top-level layers of one tune: together with `unattributed_s` they cover
/// the tune's wall time.
const std::vector<std::string> kTuneLayers = {"ga.self_s", "tuner.baseline_s", "tuner.probe_s",
                                              "tuner.real_s", "tuner.hit_s"};

void finish_layers(Result& result, const Layers& layers) {
  for (const char* key : {"opt.ir_ratio", "runtime.insns", "runtime.icache_miss_ratio",
                          "tuner.collapse_ratio"}) {
    const auto it = layers.find(key);
    if (it != layers.end()) result.deterministic_value(key, exact(it->second));
  }
  for (const auto& [k, v] : layers) {
    if (k.rfind("opt.pass.", 0) == 0) result.deterministic_value(k, exact(v));
  }
  for (const auto& [k, v] : layers) {
    const bool is_time = k.size() > 2 && k.compare(k.size() - 2, 2, "_s") == 0;
    const bool is_serving_time = k.rfind("serving.", 0) == 0 && k.size() > 2 &&
                                 k.compare(k.size() - 2, 2, ".s") == 0;
    result.metric(k, v, is_time || is_serving_time ? "s" : "count");
  }
}

// ---------------------------------------------------------------------------
// tune_adapt / tune_opt

struct TuneSpec {
  std::string suite;
  vm::Scenario scenario;
  int generations;
};

Result run_tune(const Options& o, const TuneSpec& spec) {
  Result result;
  const tuner::Goal goal = tuner::Goal::kTotal;
  const bool hot = spec.scenario == vm::Scenario::kAdapt;

  std::vector<wl::Workload> suite;
  const auto set_up = [&] { suite = seeded_suite(spec.suite, o.seed); };

  tuner::EvalConfig ec;
  ec.scenario = spec.scenario;  // Pentium-4 model, 2 iterations
  ga::GaConfig ga_cfg = tuner::default_ga_config(spec.generations, 42);
  ga_cfg.seed_individuals.push_back(tuner::genome_from_params(heur::default_params(), hot));

  const std::string cache_path = o.scratch + "/evc-" + std::to_string(getpid()) + ".bin";
  std::vector<std::vector<double>> cold_rounds, warm_rounds;  // TimedTune::steps per round
  std::vector<double> cold_wall, warm_wall;
  std::vector<Layers> traced;
  heur::InlineParams winner;

  struct TimedTune {
    std::unique_ptr<tuner::SuiteEvaluator> ev;
    tuner::TuneResult result;
    double wall = 0.0;
    /// [everything outside the fitness calls (evaluator, snapshot load,
    /// baseline, GA bookkeeping), then each fitness call in call order].
    std::vector<double> steps{0.0};
  };
  const auto timed = [&](bool warm_start, const tuner::EvalConfig& cfg, Layers* l,
                         const std::string& prefix) {
    TimedTune t;
    const Clock::time_point t0 = Clock::now();
    t.ev = std::make_unique<tuner::SuiteEvaluator>(suite, cfg);
    if (warm_start) {
      const Clock::time_point load0 = Clock::now();
      t.ev->restore(tuner::load_eval_cache(cache_path));
      if (l != nullptr) (*l)["tuner.evc_load_s"] = seconds_since(load0);
    }
    t.result = composed_tune(*t.ev, goal, ga_cfg, t.steps, l, prefix);
    t.wall = seconds_since(t0);
    t.steps[0] = t.wall;
    for (std::size_t i = 1; i < t.steps.size(); ++i) t.steps[0] -= t.steps[i];
    return t;
  };

  const RunTiming timing = run_rounds(o, result, set_up, [&] {
    const TimedTune cold = timed(false, ec, nullptr, "");
    tuner::save_eval_cache(cache_path, cold.ev->snapshot());
    cold_rounds.push_back(cold.steps);
    cold_wall.push_back(cold.wall);
    const tuner::TuneResult& r = cold.result;
    // A warm tune is a fifth of a cold one: sample it twice per round.
    for (int i = 0; i < 2; ++i) {
      const TimedTune warm = timed(true, ec, nullptr, "");
      warm_rounds.push_back(warm.steps);
      warm_wall.push_back(warm.wall);
      result.check("warm_winner_identical",
                   warm.result.best == r.best && warm.result.best_fitness == r.best_fitness,
                   "cold " + r.best.to_string() + " warm " + warm.result.best.to_string());
      result.check("warm_real_evals_zero", warm.ev->evaluations_performed() == 0,
                   std::to_string(warm.ev->evaluations_performed()) + " real evaluations");
    }
    result.deterministic_value("winner", r.best.to_string());
    result.deterministic_value("best_fitness", exact(r.best_fitness));
    result.deterministic_value("real_evals", std::to_string(cold.ev->evaluations_performed()));
    const auto [attempted, failed] = guarded_runs(*cold.ev);
    result.attempted += attempted;
    result.failed += failed;
    winner = r.best;
    if (!o.trace) return;

    Layers l;
    obs::Context ctx(nullptr);  // no sink: counters only
    tuner::EvalConfig tec = ec;
    tec.obs = &ctx;
    const TimedTune tcold = timed(false, tec, &l, "");
    const double params_seen = static_cast<double>(tcold.ev->params_seen());
    const double signatures_seen = static_cast<double>(tcold.ev->signatures_seen());
    l["tuner.params_seen"] = params_seen;
    l["tuner.signatures_seen"] = signatures_seen;
    l["tuner.collapse_ratio"] = params_seen / signatures_seen;
    l["tuner.probe_inexact"] = static_cast<double>(ctx.counter("sig.overflow").value());
    l["unattributed_s"] = tcold.wall - sum_of(l, "", kTuneLayers);
    l["trace.overhead_s"] = tcold.wall - cold.wall;
    result.check("winner_matches_traced", tcold.result.best == r.best,
                 "traced " + tcold.result.best.to_string() + " untraced " + r.best.to_string());

    const Clock::time_point t0 = Clock::now();
    tuner::save_eval_cache(cache_path, tcold.ev->snapshot());
    l["tuner.evc_save_s"] = seconds_since(t0);
    l["tuner.evc_bytes"] = static_cast<double>(std::filesystem::file_size(cache_path));
    const TimedTune twarm = timed(true, tec, &l, "warm.");
    l["warm.unattributed_s"] =
        twarm.wall - l["tuner.evc_load_s"] - sum_of(l, "warm.", kTuneLayers);
    l["warm.trace.overhead_s"] = twarm.wall - warm_wall.back();
    traced.push_back(std::move(l));
  });

  // The composed GA must land where tuner::tune lands (a warm tune: cheap).
  {
    tuner::SuiteEvaluator ev(suite, ec);
    ev.restore(tuner::load_eval_cache(cache_path));
    const tuner::TuneResult t = tuner::tune(ev, goal, ga_cfg);
    result.check("winner_matches_tune", t.best == winner,
                 "tune() " + t.best.to_string() + " composed " + winner.to_string());
  }
  std::filesystem::remove(cache_path);
  result.info.emplace_back("real_evals", std::stod(result.deterministic.at("real_evals")));
  result.info.emplace_back("tune_wall_s", median(cold_wall));
  result.info.emplace_back("warm_wall_s", median(warm_wall));

  std::vector<ReplayTarget> targets;
  for (const wl::Workload& w : suite) targets.push_back({&w, winner});
  const std::string mismatch = engine_mismatch(targets, ec);
  result.check("engine_oracle", mismatch.empty(),
               mismatch.empty() ? "winner's suite: fast engine == reference engine" : mismatch);

  if (o.trace) {
    Layers layers = median_layers(traced);
    layers["workloads.build_s"] = timing.setup_s;  // set-up is the suite build
    replay_layers(targets, ec, layers, result);
    finish_layers(result, layers);
  } else {
    end_to_end(result, timing, sum_of_step_minima(cold_rounds), sum_of_step_minima(warm_rounds),
               std::stod(result.deterministic.at("best_fitness")), peak_rss_mb());
  }
  return result;
}

// ---------------------------------------------------------------------------
// serve_retune

constexpr std::size_t kServeRequests = 131'072;

Result run_serve(const Options& o) {
  Result result;
  serving::ServingConfig sc;
  sc.seed = o.seed;
  sc.instances = 4;
  sc.threads = 4;
  sc.requests = kServeRequests;
  sc.load = 0.7;
  sc.online_tune = true;
  sc.rollout = serving::Rollout::kRolling;
  sc.ga_generations = 4;
  sc.ga_population = 8;
  sc.ga_seed = 7;
  const std::vector<std::string>& names = serving::serving_names();

  // Set-up: build every service's serve and batch programs and run one
  // calibration pass per service on a scratch instance.
  std::vector<wl::Workload> batch;
  double build_s = std::numeric_limits<double>::infinity();
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    std::vector<wl::Workload> serve;
    batch.clear();
    for (const std::string& name : names) {
      serve.push_back(serving::make_serving_workload(name, serving::ServingMode::kServe));
      batch.push_back(serving::make_serving_workload(name, serving::ServingMode::kBatch));
    }
    build_s = std::min(build_s, seconds_since(t0));
    for (const wl::Workload& w : serve) {
      serving::InstanceOptions opts;
      serving::ServerInstance scratch(w.program, sc.machine, sc.initial, opts);
      for (std::size_t id = 0; id < sc.calibration_requests; ++id) {
        serving::Request req;
        req.id = id;
        req.key = static_cast<std::int64_t>(resilience::mix_keys(o.seed, id) % 4096);
        req.op = static_cast<std::int64_t>(resilience::mix_keys(id, o.seed) % 65536);
        req.size = static_cast<std::int64_t>(id % 1024);
        scratch.serve(req);
      }
    }
  };

  std::vector<std::vector<double>> cold_rounds, warm_rounds;  // seconds per service call
  std::vector<Layers> traced;
  std::vector<heur::InlineParams> finals(names.size());
  serving::LatencyDigest merged;
  std::size_t slo_violations = 0;
  double best_fitness = 0.0;

  const auto check_records = [&](const serving::WorkloadServeReport& rep, const char* phase) {
    bool ok = rep.records.size() == sc.requests && rep.digest.count() == sc.requests;
    for (const serving::RequestRecord& rec : rep.records) {
      ok = ok && rec.start >= rec.arrival && rec.latency == (rec.start - rec.arrival) + rec.service &&
           rec.service > 0;
    }
    result.check(std::string("requests_recorded.") + phase + "." + rep.name, ok,
                 std::to_string(rep.records.size()) + " records for " +
                     std::to_string(sc.requests) + " requests");
    result.attempted += rep.records.size();
    result.failed += rep.faulted_requests;
  };

  // Serves every service once, each from initials[i]; returns the seconds
  // of each serve_workload call.
  const auto serve_all = [&](const std::vector<heur::InlineParams>& initials,
                             std::vector<serving::WorkloadServeReport>& reports) {
    std::vector<double> calls;
    for (std::size_t i = 0; i < names.size(); ++i) {
      serving::ServingConfig c = sc;
      c.initial = initials[i];
      const Clock::time_point t0 = Clock::now();
      reports.push_back(serving::serve_workload(names[i], c));
      calls.push_back(seconds_since(t0));
    }
    return calls;
  };
  const auto total = [](const std::vector<double>& xs) {
    double t = 0.0;
    for (const double x : xs) t += x;
    return t;
  };
  const std::vector<heur::InlineParams> defaults(names.size(), sc.initial);

  const RunTiming timing = run_rounds(o, result, set_up, [&] {
    merged = serving::LatencyDigest{};
    slo_violations = 0;
    double log_fitness = 0.0;
    std::vector<serving::WorkloadServeReport> reports;
    cold_rounds.push_back(serve_all(defaults, reports));
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const serving::WorkloadServeReport& rep = reports[i];
      check_records(rep, "cold");
      merged.merge(rep.digest);
      slo_violations += rep.slo_violations;
      log_fitness += std::log(rep.final_fitness);
      finals[i] = rep.final_params;
      result.deterministic_value(rep.name + ".p50_cycles", std::to_string(rep.digest.p50()));
      result.deterministic_value(rep.name + ".p99_cycles", std::to_string(rep.digest.p99()));
      result.deterministic_value(rep.name + ".final_params", rep.final_params.to_string());
      result.deterministic_value(rep.name + ".installs", std::to_string(rep.installs));
    }
    best_fitness = std::exp(log_fitness / static_cast<double>(reports.size()));
    result.deterministic_value("best_fitness", exact(best_fitness));
    result.deterministic_value("p50_cycles", std::to_string(merged.p50()));
    result.deterministic_value("p99_cycles", std::to_string(merged.p99()));
    result.deterministic_value("slo_violations", std::to_string(slo_violations));

    // Warm restart: every service restarts from the heuristic it installed.
    std::vector<serving::WorkloadServeReport> warm;
    warm_rounds.push_back(serve_all(finals, warm));
    for (const serving::WorkloadServeReport& rep : warm) check_records(rep, "warm");

    if (o.trace) {
      Layers l;
      std::vector<serving::WorkloadServeReport> again;
      const Clock::time_point t0 = Clock::now();
      const std::vector<double> calls = serve_all(defaults, again);
      const double traced_cold = seconds_since(t0);
      for (std::size_t i = 0; i < again.size(); ++i) {
        const serving::WorkloadServeReport& rep = again[i];
        l["serving." + rep.name + ".s"] = calls[i];
        l["serving." + rep.name + ".p99_cycles"] = static_cast<double>(rep.digest.p99());
        l["serving.installs"] += static_cast<double>(rep.retune.installed);
        l["serving.skipped_signature"] += static_cast<double>(rep.retune.skipped_signature);
        l["serving.rejected_slo"] += static_cast<double>(rep.retune.rejected_slo);
        result.check("traced_serving_identical." + rep.name,
                     rep.final_params == finals[i] && rep.digest.p99() == reports[i].digest.p99());
      }
      l["unattributed_s"] = traced_cold - total(calls);
      l["trace.overhead_s"] = traced_cold - total(cold_rounds.back());
      traced.push_back(std::move(l));
    }
  });

  tuner::EvalConfig ec;  // the shadow evaluator's configuration
  ec.machine = sc.machine;
  ec.scenario = sc.scenario;
  std::vector<ReplayTarget> targets;
  for (std::size_t i = 0; i < batch.size(); ++i) targets.push_back({&batch[i], finals[i]});
  const std::string mismatch = engine_mismatch(targets, ec);
  result.check("engine_oracle", mismatch.empty(),
               mismatch.empty() ? "installed heuristics: fast engine == reference engine"
                                : mismatch);

  const double requests = static_cast<double>(sc.requests * names.size());
  const double tune_s = sum_of_step_minima(cold_rounds);
  result.info.emplace_back("served_req_per_s", requests / tune_s);  // raw host seconds
  result.info.emplace_back("p50_cycles", static_cast<double>(merged.p50()));
  result.info.emplace_back("p99_cycles", static_cast<double>(merged.p99()));
  result.info.emplace_back("latency_samples", static_cast<double>(merged.count()));
  result.info.emplace_back("slo_miss_ratio", static_cast<double>(slo_violations) / requests);

  if (o.trace) {
    Layers layers = median_layers(traced);
    layers["workloads.build_s"] = build_s;
    replay_layers(targets, ec, layers, result);
    finish_layers(result, layers);
  } else {
    end_to_end(result, timing, tune_s, sum_of_step_minima(warm_rounds), best_fitness,
               peak_rss_mb());
  }
  return result;
}

// ---------------------------------------------------------------------------
// fleet_shared

constexpr int kFleetClients = 3;

struct FleetRun {
  double seconds = 0.0;
  std::vector<std::string> winners;
  double fitness = 0.0;
  std::uint64_t real_evals = 0;
  svc::DaemonStats daemon;
  Layers layers;  ///< summed over clients
};

/// One fleet campaign against a daemon configured by `dc`, assembled the
/// way svc::run_fleet assembles it: every client runs the same GA campaign
/// through its own evaluator, with a ServiceClient (wrapped in a
/// TimedBackend) as the shared backend. The daemon's start() is timed with
/// the clients, so a warm run includes loading its snapshot.
FleetRun run_fleet_once(const svc::DaemonConfig& dc, const std::vector<wl::Workload>& suite,
                        const tuner::EvalConfig& ec, const ga::GaConfig& ga_cfg, bool traced,
                        const std::string& phase, Result& result) {
  FleetRun run;
  obs::Context client_ctx(nullptr);  // svc.client_* counters only
  const Clock::time_point t0 = Clock::now();
  svc::EvalDaemon daemon(dc);
  daemon.start();

  std::vector<std::unique_ptr<svc::ServiceClient>> clients;
  std::vector<std::unique_ptr<TimedBackend>> backends;
  for (int i = 0; i < kFleetClients; ++i) {
    svc::ClientConfig cc;
    cc.socket_path = dc.socket_path;
    cc.fingerprint = dc.fingerprint;
    cc.client_id = static_cast<std::uint64_t>(i) + 1;
    cc.name = "client-" + std::to_string(i);
    cc.obs = &client_ctx;
    clients.push_back(std::make_unique<svc::ServiceClient>(cc));
    backends.push_back(std::make_unique<TimedBackend>(*clients.back()));
  }

  std::vector<tuner::TuneResult> results(kFleetClients);
  std::vector<std::uint64_t> real(kFleetClients, 0);
  std::vector<Layers> client_layers(kFleetClients);
  std::vector<std::exception_ptr> errors(kFleetClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kFleetClients; ++i) {
    threads.emplace_back([&, i] {
      const std::size_t k = static_cast<std::size_t>(i);
      try {
        tuner::EvalConfig cec = ec;
        cec.backend = backends[k].get();
        tuner::SuiteEvaluator ev(suite, cec);
        std::vector<double> calls;
        results[k] = traced
                         ? composed_tune(ev, tuner::Goal::kTotal, ga_cfg, calls, &client_layers[k])
                         : tuner::tune(ev, tuner::Goal::kTotal, ga_cfg);
        real[k] = ev.evaluations_performed();
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  run.seconds = seconds_since(t0);
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  for (auto& client : clients) {
    for (int attempt = 0; attempt < 8 && client->pending_publishes() > 0; ++attempt) {
      client->reattach();
    }
  }
  daemon.stop();  // graceful: writes the snapshot a warm run reloads
  run.daemon = daemon.stats();

  for (int i = 0; i < kFleetClients; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    run.winners.push_back(results[k].best.to_string());
    run.fitness = results[k].best_fitness;
    run.real_evals += real[k];
    for (const auto& [key, v] : client_layers[k]) run.layers[key] += v;
    const TimedBackend& b = *backends[k];
    run.layers["service.acquire_s"] += b.acquire_s;
    run.layers["service.acquire_calls"] += static_cast<double>(b.acquire_calls);
    run.layers["service.publish_s"] += b.publish_s;
    run.layers["service.publish_calls"] += static_cast<double>(b.publish_calls);
    result.attempted += b.acquire_calls + b.publish_calls;
    result.failed += b.degraded;
  }
  result.failed += client_ctx.counter("svc.client_retries").value() +
                   client_ctx.counter("svc.client_queued").value();
  run.layers["service.daemon_hits"] = static_cast<double>(run.daemon.hits);
  run.layers["service.daemon_waits"] = static_cast<double>(run.daemon.waits);
  // Clients run in parallel: attribute thread-seconds.
  run.layers["unattributed_s"] =
      run.seconds * kFleetClients - sum_of(run.layers, "", kTuneLayers);
  result.check("leases_balanced." + phase, run.daemon.leases_balanced(),
               std::to_string(run.daemon.leases_granted) + " granted, " +
                   std::to_string(run.daemon.leases_published) + " published, " +
                   std::to_string(run.daemon.leases_reclaimed) + " reclaimed, " +
                   std::to_string(run.daemon.leases_outstanding) + " outstanding");
  return run;
}

Result run_fleet(const Options& o) {
  Result result;
  const tuner::EvalConfig ec;  // Pentium-4 model, Adapt, 2 iterations
  const std::string socket = o.scratch + "/fleet-" + std::to_string(getpid()) + ".sock";
  const std::string snapshot = o.scratch + "/fleet-" + std::to_string(getpid()) + ".evc";

  // BENCH_fleet's campaign: population 6, 4 generations, base seed 42.
  ga::GaConfig ga_cfg;
  ga_cfg.population = 6;
  ga_cfg.generations = 4;
  ga_cfg.seed = 42;
  ga_cfg.threads = 1;
  ga_cfg.memoize = true;
  ga_cfg.seed_individuals.push_back(tuner::genome_from_params(heur::default_params(), true));

  // Set-up: build the suite, fingerprint the configuration, start the daemon.
  std::vector<wl::Workload> suite;
  svc::DaemonConfig dc;
  double build_s = std::numeric_limits<double>::infinity();
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    suite = seeded_suite("specjvm98", o.seed);
    build_s = std::min(build_s, seconds_since(t0));
    dc.socket_path = socket;
    dc.fingerprint = tuner::SuiteEvaluator(suite, ec).cache_fingerprint();
    dc.snapshot_path = snapshot;
    dc.snapshot_every = 0;  // only the graceful-stop snapshot
    svc::EvalDaemon probe(dc);
    probe.start();
    probe.stop();
    std::filesystem::remove(snapshot);
  };
  set_up();

  // The standalone reference: every client runs the same campaign, so one
  // solo run stands for each client's solo run.
  tuner::SuiteEvaluator solo(suite, ec);
  const tuner::TuneResult solo_result = tuner::tune(solo, tuner::Goal::kTotal, ga_cfg);
  const std::string solo_winner = solo_result.best.to_string();
  const std::uint64_t solo_real = solo.evaluations_performed() * kFleetClients;

  std::vector<double> cold_s, warm_s;
  std::vector<Layers> traced;
  double fitness = 0.0;
  const RunTiming timing = run_rounds(o, result, set_up, [&] {
    std::filesystem::remove(snapshot);
    FleetRun cold = run_fleet_once(dc, suite, ec, ga_cfg, false, "cold", result);
    cold_s.push_back(cold.seconds);
    FleetRun warm = run_fleet_once(dc, suite, ec, ga_cfg, false, "warm", result);
    warm_s.push_back(warm.seconds);

    bool match = true;
    for (const std::string& w : cold.winners) match = match && w == solo_winner;
    result.check("clients_match_solo", match, "solo winner " + solo_winner);
    result.check("warm_winners_identical", warm.winners == cold.winners,
                 "every client's cold and warm winner");
    // default_results() never consults the backend, so each client still
    // computes its own baseline; everything else must come from the daemon.
    result.check("warm_real_evals_baseline_only", warm.real_evals == kFleetClients,
                 std::to_string(warm.real_evals) + " real evaluations");
    result.check("fleet_fewer_than_solo", cold.real_evals < solo_real,
                 std::to_string(cold.real_evals) + " fleet vs " + std::to_string(solo_real) +
                     " solo");
    result.deterministic_value("winner", cold.winners.front());
    result.deterministic_value("best_fitness", exact(cold.fitness));
    result.deterministic_value("real_evals", std::to_string(cold.real_evals));
    fitness = cold.fitness;

    if (o.trace) {
      std::filesystem::remove(snapshot);
      FleetRun t = run_fleet_once(dc, suite, ec, ga_cfg, true, "traced", result);
      result.check("traced_winner_matches_tune", t.winners == cold.winners,
                   "traced " + t.winners.front() + " tune() " + cold.winners.front());
      Layers& l = t.layers;
      l["trace.overhead_s"] = t.seconds - cold.seconds;
      l["service.sharing_ratio"] =
          t.real_evals > 0 ? static_cast<double>(solo_real) / static_cast<double>(t.real_evals)
                           : 0.0;
      l["service.fleet_real_evals"] = static_cast<double>(t.real_evals);
      l["service.solo_real_evals"] = static_cast<double>(solo_real);
      traced.push_back(std::move(l));
    }
  });
  std::filesystem::remove(snapshot);
  result.info.emplace_back("real_evals", std::stod(result.deterministic.at("real_evals")));
  result.info.emplace_back("solo_real_evals", static_cast<double>(solo_real));

  std::vector<ReplayTarget> targets;
  for (const wl::Workload& w : suite) targets.push_back({&w, solo_result.best});
  const std::string mismatch = engine_mismatch(targets, ec);
  result.check("engine_oracle", mismatch.empty(),
               mismatch.empty() ? "winner's suite: fast engine == reference engine" : mismatch);

  if (o.trace) {
    Layers layers = median_layers(traced);
    layers["workloads.build_s"] = build_s;
    replay_layers(targets, ec, layers, result);
    finish_layers(result, layers);
  } else {
    end_to_end(result, timing, *std::min_element(cold_s.begin(), cold_s.end()),
               *std::min_element(warm_s.begin(), warm_s.end()), fitness, peak_rss_mb());
  }
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"tune_adapt", "tune_opt", "serve_retune",
                                                 "fleet_shared"};
  return names;
}

Result run_workload(const Options& o) {
  if (o.workload == "tune_adapt") return run_tune(o, {"specjvm98", vm::Scenario::kAdapt, 3});
  if (o.workload == "tune_opt") return run_tune(o, {"dacapo+jbb", vm::Scenario::kOpt, 24});
  if (o.workload == "serve_retune") return run_serve(o);
  return run_fleet(o);
}

}  // namespace perfbench
