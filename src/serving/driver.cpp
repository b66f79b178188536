#include "serving/driver.hpp"

#include <algorithm>
#include <utility>

#include "ga/ga.hpp"
#include "serving/workloads.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "tuner/parameter_space.hpp"
#include "tuner/tuner.hpp"

namespace ith::serving {

const char* rollout_name(Rollout r) {
  switch (r) {
    case Rollout::kAll: return "all";
    case Rollout::kRolling: return "rolling";
  }
  return "?";
}

namespace {

/// Per-request parameter draws. One dedicated stream per workload keeps the
/// request sequence independent of everything else the seed feeds.
struct RequestStream {
  Pcg32 rng;
  int keyspace;

  Request next(std::uint64_t id, std::uint64_t arrival) {
    Request r;
    r.id = id;
    r.arrival = arrival;
    r.key = rng.bounded(static_cast<std::uint32_t>(keyspace));
    r.op = rng.bounded(1u << 16);
    r.size = rng.bounded(1u << 10);
    return r;
  }
};

struct Fleet {
  std::vector<std::unique_ptr<ServerInstance>> instances;
  /// Parameters the fleet should converge to; rolling installs lag behind.
  heur::InlineParams target;

  /// Brings at most `limit` stale instances in line with `target`.
  /// Returns the number of installs performed.
  std::size_t roll(std::size_t limit) {
    std::size_t done = 0;
    for (auto& inst : instances) {
      if (done >= limit) break;
      if (!(inst->params() == target)) {
        inst->install(target);
        ++done;
      }
    }
    return done;
  }
};

/// Serves records[lo, hi) on the fleet: round-robin dispatch by id, strictly
/// FIFO per instance, instances in parallel. `requests` and `records` are
/// indexed by request id.
void serve_epoch(Fleet& fleet, ThreadPool& pool, const std::vector<Request>& requests,
                 std::vector<RequestRecord>& records, std::size_t lo, std::size_t hi,
                 std::uint64_t penalty_cycles) {
  const std::size_t n = fleet.instances.size();
  pool.parallel_for(n, [&](std::size_t i) {
    ServerInstance& inst = *fleet.instances[i];
    for (std::size_t id = lo + (n + i - lo % n) % n; id < hi; id += n) {
      const Request& req = requests[id];
      const std::uint64_t start = std::max(req.arrival, inst.clock);
      const ServeResult res = inst.serve(req);
      RequestRecord& rec = records[id];
      rec.arrival = req.arrival;
      rec.start = start;
      rec.service = res.ok ? res.service_cycles : penalty_cycles;
      rec.latency = (start - req.arrival) + rec.service;
      rec.instance = static_cast<int>(i);
      rec.ok = res.ok;
      inst.clock = start + rec.service;
    }
  });
}

/// Mean service cycles under `params`, measured on a scratch fault-free
/// instance over the calibration request stream.
std::uint64_t calibrate(const bc::Program& prog, const ServingConfig& config) {
  InstanceOptions opts;
  opts.scenario = config.scenario;
  opts.interp.engine = config.engine;
  opts.budget = config.request_budget;
  // No faults, no obs: the calibration baseline must not depend on the
  // chaos campaign or pollute serving counters.
  ServerInstance scratch(prog, config.machine, config.initial, opts);
  RequestStream stream{Pcg32(config.seed, 0xca11), config.keyspace};
  const std::size_t n = std::max<std::size_t>(config.calibration_requests, 1);
  std::uint64_t total = 0;
  for (std::size_t id = 0; id < n; ++id) {
    const ServeResult res = scratch.serve(stream.next(id, 0));
    ITH_CHECK(res.ok, "calibration request failed: " + res.outcome.to_string());
    total += res.service_cycles;
  }
  return std::max<std::uint64_t>(total / n, 1);
}

}  // namespace

WorkloadServeReport serve_workload(const std::string& name, const ServingConfig& config) {
  ITH_CHECK(config.instances >= 1, "serving needs at least one instance");
  ITH_CHECK(config.requests >= 1, "serving needs at least one request");
  ITH_CHECK(config.load > 0.0, "offered load must be positive");

  const wl::Workload serve_wl = make_serving_workload(name, ServingMode::kServe);
  obs::Context* obs = config.obs;
  obs::ScopedSpan span(obs, obs::Category::kServe, "serve.workload",
                       {{"workload", name}, {"instances", config.instances}});

  WorkloadServeReport report;
  report.name = name;

  // Calibration fixes the time scale: arrival gaps, SLO envelope, and the
  // latency charged to a faulted request all derive from it.
  report.calibrated_service = calibrate(serve_wl.program, config);
  report.mean_gap = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(static_cast<double>(report.calibrated_service) /
                                 (config.load * config.instances)),
      1);
  report.slo_cycles =
      config.slo_multiplier > 0.0
          ? static_cast<std::uint64_t>(config.slo_multiplier *
                                       static_cast<double>(report.calibrated_service))
          : 0;
  const std::uint64_t penalty_cycles =
      report.slo_cycles != 0 ? report.slo_cycles : 8 * report.calibrated_service;

  // The full arrival schedule, generated up front (the arrival process must
  // not depend on service outcomes — open loop).
  std::vector<Request> requests;
  requests.reserve(config.requests);
  {
    RequestStream stream{Pcg32(config.seed, resilience::mix_keys(0xa221, codec::fnv1a(name))),
                         config.keyspace};
    Pcg32 gaps(config.seed, resilience::mix_keys(0x9a95, codec::fnv1a(name)));
    const std::uint32_t g = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(report.mean_gap, 0x7fffffffULL));
    std::uint64_t now = 0;
    for (std::size_t id = 0; id < config.requests; ++id) {
      now += g / 2 + gaps.bounded(std::max<std::uint32_t>(g, 1));
      requests.push_back(stream.next(id, now));
    }
  }

  Fleet fleet;
  fleet.target = config.initial;
  for (int i = 0; i < config.instances; ++i) {
    InstanceOptions opts;
    opts.scenario = config.scenario;
    opts.interp.engine = config.engine;
    opts.budget = config.request_budget;
    opts.faults = config.faults;
    opts.fault_key = resilience::mix_keys(config.fault_seed,
                                          resilience::mix_keys(codec::fnv1a(name),
                                                               static_cast<std::uint64_t>(i)));
    opts.obs = obs;
    fleet.instances.push_back(std::make_unique<ServerInstance>(serve_wl.program, config.machine,
                                                               config.initial, opts));
  }

  ThreadPool pool(config.threads);
  std::vector<RequestRecord> records(config.requests);

  // Epoch plan: one epoch per GA generation plus a closing epoch; a single
  // epoch when online tuning is off.
  const std::size_t epochs =
      config.online_tune ? static_cast<std::size_t>(config.ga_generations) + 1 : 1;
  const std::size_t epoch_len = std::max<std::size_t>(config.requests / epochs, 1);
  std::size_t next_lo = 0;
  int epoch = 0;
  const std::size_t roll_limit = config.rollout == Rollout::kAll
                                     ? fleet.instances.size()
                                     : std::max<std::size_t>(fleet.instances.size() / 2, 1);
  const auto serve_next_epoch = [&](bool last) {
    if (next_lo >= config.requests) return;
    const std::size_t hi = last ? config.requests : std::min(next_lo + epoch_len, config.requests);
    obs::ScopedSpan es(obs, obs::Category::kServe, "serve.epoch",
                      {{"workload", name}, {"epoch", epoch}, {"requests", hi - next_lo}});
    serve_epoch(fleet, pool, requests, records, next_lo, hi, penalty_cycles);
    next_lo = hi;
    ++epoch;
  };

  if (config.online_tune) {
    // Shadow evaluator over this workload's batch twin: the whole offline
    // stack (signature collapse, guarded eval, quarantine) reused as-is.
    tuner::EvalConfig eval_cfg;
    eval_cfg.machine = config.machine;
    eval_cfg.scenario = config.scenario;
    eval_cfg.vm_config.interp_options.engine = config.engine;
    eval_cfg.vm_config.faults = config.faults;
    eval_cfg.vm_config.fault_key = resilience::mix_keys(config.fault_seed, 0x51ad);
    eval_cfg.obs = obs;
    tuner::SuiteEvaluator shadow({make_serving_workload(name, ServingMode::kBatch)}, eval_cfg);

    OnlineTunerConfig oc;
    oc.goal = config.goal;
    oc.slo_cycles = report.slo_cycles;
    oc.retry_quarantined = config.retry_quarantined;
    oc.obs = obs;
    OnlineController controller(shadow, config.initial, oc);

    const bool hot_gene = config.scenario == vm::Scenario::kAdapt;
    ga::GaConfig ga_cfg = tuner::default_ga_config(config.ga_generations, config.ga_seed);
    ga_cfg.population = config.ga_population;
    ga_cfg.patience = 0;  // epoch count must match the generation count
    ga_cfg.seed_individuals = {tuner::genome_from_params(config.initial, hot_gene)};
    ga_cfg.obs = obs;

    tuner::TuneCheckpointOptions hooks;
    hooks.on_generation = [&](const ga::GenerationStats& gen) {
      const heur::InlineParams cand =
          heur::clamp_to_ranges(tuner::params_from_genome(gen.best_genome));
      const RetuneDecision d = controller.consider(cand);
      if (obs != nullptr && obs->enabled(obs::Category::kServe)) {
        obs->instant(obs::Category::kServe, "serve.retune", obs::Domain::kHost, obs->host_now_us(),
                     {{"workload", name},
                      {"generation", gen.generation},
                      {"action", retune_action_name(d.action)},
                      {"fitness", d.fitness},
                      {"signature", static_cast<std::int64_t>(d.signature)}});
      }
      if (d.action == RetuneAction::kInstalled) fleet.target = controller.installed();
      fleet.roll(roll_limit);
      serve_next_epoch(/*last=*/false);
    };

    const tuner::TuneResult tuned = tuner::tune(shadow, config.goal, ga_cfg, hooks);
    // The GA's final best has the lowest fitness the search ever saw, so
    // this either signature-skips (already installed) or installs it —
    // unless the SLO/fault gates veto it, which the report makes visible.
    const RetuneDecision final_d = controller.consider(heur::clamp_to_ranges(tuned.best));
    if (final_d.action == RetuneAction::kInstalled) fleet.target = controller.installed();
    while (fleet.roll(roll_limit) > 0) {
    }
    serve_next_epoch(/*last=*/true);

    report.final_params = controller.installed();
    report.final_signature = controller.installed_signature();
    report.final_fitness = controller.installed_fitness();
    report.retune = controller.stats();
  } else {
    serve_next_epoch(/*last=*/true);
    report.final_params = config.initial;
    tuner::EvalConfig eval_cfg;
    eval_cfg.machine = config.machine;
    eval_cfg.scenario = config.scenario;
    eval_cfg.vm_config.interp_options.engine = config.engine;
    tuner::SuiteEvaluator shadow({make_serving_workload(name, ServingMode::kBatch)}, eval_cfg);
    report.final_signature = shadow.signature_of(config.initial);
  }

  for (const RequestRecord& rec : records) {
    report.digest.add(rec.latency);
    if (!rec.ok) ++report.faulted_requests;
    if (report.slo_cycles != 0 && rec.latency > report.slo_cycles) ++report.slo_violations;
  }
  for (const auto& inst : fleet.instances) report.installs += inst->installs();
  report.records = std::move(records);

  if (obs != nullptr) {
    obs->counter("serve.requests").add(report.records.size());
    obs->counter("serve.slo_violations").add(report.slo_violations);
  }
  span.arg("p99", report.digest.p99());
  span.arg("slo_violations", report.slo_violations);
  return report;
}

ServeReport run_serving(const ServingConfig& config) {
  ServeReport report;
  for (const std::string& name : serving_names()) {
    report.workloads.push_back(serve_workload(name, config));
  }
  return report;
}

}  // namespace ith::serving
