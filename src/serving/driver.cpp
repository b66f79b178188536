#include "serving/driver.hpp"

#include <algorithm>
#include <condition_variable>
#include <future>
#include <mutex>
#include <optional>
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

/// What every instance does at one epoch boundary: the instances marked in
/// `install` install `params`, then each serves its own ids in [lo, hi).
struct EpochPlan {
  std::size_t lo = 0;
  std::size_t hi = 0;
  heur::InlineParams params;
  std::vector<bool> install;  ///< by instance index
};

/// The plans the shadow tuner publishes, in epoch order. Each instance
/// waits only for the next plan it needs, never for another instance.
class Schedule {
 public:
  void publish(EpochPlan plan) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      plans_.push_back(std::move(plan));
    }
    cv_.notify_all();
  }

  /// No more plans: instances return once they served the published ones.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Blocks until plan `epoch` is published; nullopt once the schedule is
  /// closed without it.
  std::optional<EpochPlan> wait(std::size_t epoch) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || epoch < plans_.size(); });
    if (epoch < plans_.size()) return plans_[epoch];
    return std::nullopt;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<EpochPlan> plans_;
  bool closed_ = false;
};

/// What one instance measured, folded on its own worker.
struct InstanceTally {
  LatencyDigest digest;  ///< sorted before the instance's task returns
  std::size_t slo_violations = 0;
  std::size_t faulted = 0;
};

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

  std::vector<std::unique_ptr<ServerInstance>> instances;
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
    instances.push_back(std::make_unique<ServerInstance>(serve_wl.program, config.machine,
                                                         config.initial, opts));
  }
  const std::size_t n = instances.size();

  // One task per instance, started before the shadow GA: it applies its own
  // installs and serves its own ids (round-robin by id, strictly FIFO) from
  // each plan as soon as that plan is published, so instances never wait
  // for each other and the GA runs while they serve.
  const std::uint64_t slo_cycles = report.slo_cycles;
  std::vector<RequestRecord> records(config.requests);
  std::vector<InstanceTally> tallies(n);
  Schedule schedule;
  const auto serve_instance = [&](std::size_t i) {
    ServerInstance& inst = *instances[i];
    InstanceTally& tally = tallies[i];
    for (std::size_t epoch = 0;; ++epoch) {
      const std::optional<EpochPlan> plan = schedule.wait(epoch);
      if (!plan) break;
      if (plan->install[i]) inst.install(plan->params);
      obs::ScopedSpan es(obs, obs::Category::kServe, "serve.epoch",
                        {{"workload", name},
                         {"epoch", static_cast<std::int64_t>(epoch)},
                         {"instance", static_cast<std::int64_t>(i)}});
      std::size_t count = 0;
      for (std::size_t id = plan->lo + (n + i - plan->lo % n) % n; id < plan->hi; id += n) {
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
        tally.digest.add(rec.latency);
        if (!rec.ok) ++tally.faulted;
        if (slo_cycles != 0 && rec.latency > slo_cycles) ++tally.slo_violations;
        ++count;
      }
      es.arg("requests", count);
    }
    tally.digest.sorted_samples();
  };
  ThreadPool pool(config.threads);
  std::vector<std::future<void>> served;
  // On any exit, close the schedule and wait for every instance task, so no
  // task outlives the locals it serves from.
  struct JoinInstances {
    Schedule& schedule;
    std::vector<std::future<void>>& served;
    ~JoinInstances() {
      schedule.close();
      for (std::future<void>& f : served) {
        if (f.valid()) f.wait();
      }
    }
  } join{schedule, served};
  for (std::size_t i = 0; i < n; ++i) served.push_back(pool.submit([&, i] { serve_instance(i); }));

  // The epoch boundaries: one per GA generation plus a closing epoch; a
  // single epoch when online tuning is off. Rollouts are decided here on a
  // model of each instance's parameters; the instances install them.
  const std::size_t epochs =
      config.online_tune ? static_cast<std::size_t>(config.ga_generations) + 1 : 1;
  const std::size_t epoch_len = std::max<std::size_t>(config.requests / epochs, 1);
  std::size_t next_lo = 0;
  std::vector<heur::InlineParams> fleet(n, config.initial);
  heur::InlineParams target = config.initial;
  const std::size_t roll_limit =
      config.rollout == Rollout::kAll ? n : std::max<std::size_t>(n / 2, 1);
  // Publishes the next boundary: at most `limit` stale instances install
  // `target`, then the next slice of ids (the rest of them when `last`).
  const auto publish_epoch = [&](std::size_t limit, bool last) {
    EpochPlan plan;
    plan.params = target;
    plan.install.assign(n, false);
    std::size_t done = 0;
    for (std::size_t i = 0; i < n && done < limit; ++i) {
      if (!(fleet[i] == target)) {
        fleet[i] = target;
        plan.install[i] = true;
        ++done;
      }
    }
    plan.lo = next_lo;
    plan.hi = last ? config.requests : std::min(next_lo + epoch_len, config.requests);
    next_lo = plan.hi;
    schedule.publish(std::move(plan));
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
      if (d.action == RetuneAction::kInstalled) target = controller.installed();
      publish_epoch(roll_limit, /*last=*/false);
    };

    const tuner::TuneResult tuned = tuner::tune(shadow, config.goal, ga_cfg, hooks);
    // The GA's final best has the lowest fitness the search ever saw, so
    // this either signature-skips (already installed) or installs it —
    // unless the SLO/fault gates veto it, which the report makes visible.
    const RetuneDecision final_d = controller.consider(heur::clamp_to_ranges(tuned.best));
    if (final_d.action == RetuneAction::kInstalled) target = controller.installed();
    publish_epoch(n, /*last=*/true);

    report.final_params = controller.installed();
    report.final_signature = controller.installed_signature();
    report.final_fitness = controller.installed_fitness();
    report.retune = controller.stats();
  } else {
    publish_epoch(0, /*last=*/true);
    report.final_params = config.initial;
    tuner::EvalConfig eval_cfg;
    eval_cfg.machine = config.machine;
    eval_cfg.scenario = config.scenario;
    eval_cfg.vm_config.interp_options.engine = config.engine;
    tuner::SuiteEvaluator shadow({make_serving_workload(name, ServingMode::kBatch)}, eval_cfg);
    report.final_signature = shadow.signature_of(config.initial);
  }

  schedule.close();
  for (std::future<void>& f : served) f.get();

  // Each tally is sorted, so merging keeps the digest sorted in linear time.
  for (std::size_t i = 0; i < n; ++i) {
    report.digest.merge(tallies[i].digest);
    tallies[i].digest = LatencyDigest{};
    report.slo_violations += tallies[i].slo_violations;
    report.faulted_requests += tallies[i].faulted;
    report.installs += instances[i]->installs();
  }
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
