#include "service/fleet.hpp"

#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "heuristics/heuristic.hpp"
#include "service/client.hpp"
#include "tuner/eval_cache.hpp"
#include "tuner/parameter_space.hpp"
#include "tuner/tuner.hpp"

namespace ith::svc {

namespace {

/// The daemon instance chain for one fleet run: one entry normally, two
/// when the chaos kill+restart fires. Old instances are kept (dead) so
/// their stats can be summed at the end.
struct DaemonChain {
  std::mutex mu;
  std::vector<std::unique_ptr<EvalDaemon>> instances;

  EvalDaemon& spawn(const DaemonConfig& dc) {
    std::lock_guard<std::mutex> lock(mu);
    instances.push_back(std::make_unique<EvalDaemon>(dc));
    instances.back()->start();
    return *instances.back();
  }
};

ga::GaConfig make_ga(const FleetConfig& config, int client_index) {
  ga::GaConfig ga;
  ga.population = config.population;
  ga.generations = config.generations;
  ga.seed = config.base_seed + static_cast<std::uint64_t>(client_index) * config.seed_stride;
  ga.threads = 1;
  ga.memoize = true;
  ga.obs = config.obs;
  const bool include_hot = config.eval.scenario == vm::Scenario::kAdapt;
  ga.seed_individuals.push_back(
      tuner::genome_from_params(heur::default_params(), include_hot));
  return ga;
}

}  // namespace

FleetReport run_fleet(const FleetConfig& config) {
  ITH_CHECK(config.clients >= 1, "fleet needs at least one client");
  ITH_CHECK(config.kill_daemon_at < config.generations,
            "--kill-daemon-at must name a generation the tune actually reaches");

  FleetReport report;

  // The configuration fingerprint every party must agree on. A throwaway
  // evaluator computes it — no suite run happens, the fingerprint is a pure
  // hash of the configuration.
  tuner::EvalConfig fp_config = config.eval;
  fp_config.backend = nullptr;
  fp_config.obs = nullptr;
  report.fingerprint = tuner::SuiteEvaluator(config.suite, fp_config).cache_fingerprint();

  DaemonConfig dc;
  dc.socket_path = config.socket_path;
  dc.fingerprint = report.fingerprint;
  dc.snapshot_path = config.snapshot_path;
  dc.snapshot_every = config.snapshot_every;
  dc.faults = config.service_faults;
  dc.obs = config.obs;

  DaemonChain chain;
  chain.spawn(dc);
  for (const std::string& path : config.import_paths) {
    chain.instances.back()->import_snapshot(tuner::load_eval_cache(path));
  }

  // Clients live in the main thread's scope (not the tune threads') so the
  // post-join re-federation pass can still reach them.
  std::vector<std::unique_ptr<ServiceClient>> clients;
  for (int i = 0; i < config.clients; ++i) {
    ClientConfig cc;
    cc.socket_path = config.socket_path;
    cc.fingerprint = report.fingerprint;
    cc.client_id = static_cast<std::uint64_t>(i) + 1;
    cc.name = "client-" + std::to_string(i);
    cc.request_timeout_ms = config.request_timeout_ms;
    cc.obs = config.obs;
    clients.push_back(std::make_unique<ServiceClient>(cc));
  }

  report.clients.resize(static_cast<std::size_t>(config.clients));
  std::vector<std::thread> threads;
  bool killed = false;
  bool restarted = false;
  for (int i = 0; i < config.clients; ++i) {
    threads.emplace_back([&, i] {
      tuner::EvalConfig ec = config.eval;
      ec.obs = config.obs;
      ec.backend = clients[static_cast<std::size_t>(i)].get();
      tuner::SuiteEvaluator evaluator(config.suite, ec);

      tuner::TuneCheckpointOptions cp;
      if (i == 0 && config.kill_daemon_at >= 0) {
        // Client 0's generation clock drives the chaos choreography: kill
        // the daemon after generation kill_daemon_at, restart it (same
        // socket, same snapshot file — it reloads its last periodic
        // snapshot) one generation later. Between the two, every client's
        // requests fail and the degradation ladder takes over.
        cp.on_generation = [&](const ga::GenerationStats& stats) {
          if (!killed && stats.generation == config.kill_daemon_at) {
            std::lock_guard<std::mutex> lock(chain.mu);
            chain.instances.back()->kill();
            killed = true;
          } else if (killed && !restarted && config.restart_daemon &&
                     stats.generation > config.kill_daemon_at) {
            chain.spawn(dc);
            restarted = true;
          }
        };
      }

      const tuner::TuneResult result =
          tuner::tune(evaluator, config.goal, make_ga(config, i), cp);

      FleetClientReport& out = report.clients[static_cast<std::size_t>(i)];
      out.winner = result.best.to_string();
      out.fitness = result.best_fitness;
      out.real_evaluations = evaluator.evaluations_performed();
      out.benchmark_runs = evaluator.benchmark_runs();
      out.ga_evaluations = result.ga.evaluations;
    });
  }
  for (std::thread& t : threads) t.join();

  // Re-federation sweep: any client still holding queued publishes (it was
  // degraded when its tune ended) reattaches explicitly, which flushes the
  // queue if a daemon is up. Bounded retries: each attempt is a fresh
  // connection, so an injected accept/write fault on one attempt must not
  // strand the queue for good.
  for (int i = 0; i < config.clients; ++i) {
    ServiceClient& client = *clients[static_cast<std::size_t>(i)];
    for (int attempt = 0; attempt < 8 && client.pending_publishes() > 0; ++attempt) {
      client.reattach();
    }
    FleetClientReport& out = report.clients[static_cast<std::size_t>(i)];
    out.fatally_degraded = client.fatally_degraded();
    out.pending_unflushed = client.pending_publishes();
  }

  {
    std::lock_guard<std::mutex> lock(chain.mu);
    for (auto& d : chain.instances) d->stop();  // graceful: final snapshot
    report.daemon_instances = chain.instances.size();
    for (const auto& d : chain.instances) {
      const DaemonStats s = d->stats();
      report.daemon.connections_accepted += s.connections_accepted;
      report.daemon.connections_dropped += s.connections_dropped;
      report.daemon.hello_rejects += s.hello_rejects;
      report.daemon.requests += s.requests;
      report.daemon.hits += s.hits;
      report.daemon.waits += s.waits;
      report.daemon.leases_granted += s.leases_granted;
      report.daemon.leases_published += s.leases_published;
      report.daemon.leases_reclaimed += s.leases_reclaimed;
      report.daemon.leases_outstanding += s.leases_outstanding;
      report.daemon.publishes_unsolicited += s.publishes_unsolicited;
      report.daemon.publishes_dedup += s.publishes_dedup;
      report.daemon.snapshots_written += s.snapshots_written;
      report.daemon.snapshots_skipped += s.snapshots_skipped;
      report.daemon.imports += s.imports;
      report.daemon.faults_injected += s.faults_injected;
      report.daemon.frames_rejected += s.frames_rejected;
    }
    report.leases_balanced = report.daemon.leases_balanced();
    const tuner::EvalCacheSnapshot final_state = chain.instances.back()->snapshot();
    report.federated_entries = final_state.entries.size();
    report.federated_quarantine = final_state.quarantined.size();
  }

  for (const FleetClientReport& c : report.clients) {
    report.fleet_real_evaluations += c.real_evaluations;
    report.fleet_benchmark_runs += c.benchmark_runs;
  }

  if (config.verify_solo) {
    // The bit-identity check: the same tune with the daemon out of the
    // picture must land on the same winner — results are a pure function of
    // the parameter vector, so which process computed them cannot matter.
    for (int i = 0; i < config.clients; ++i) {
      tuner::EvalConfig ec = config.eval;
      ec.obs = config.obs;
      ec.backend = nullptr;
      tuner::SuiteEvaluator solo(config.suite, ec);
      const tuner::TuneResult result =
          tuner::tune(solo, config.goal, make_ga(config, i), {});
      FleetClientReport& out = report.clients[static_cast<std::size_t>(i)];
      out.solo_winner = result.best.to_string();
      out.solo_real_evaluations = solo.evaluations_performed();
      out.solo_benchmark_runs = solo.benchmark_runs();
      report.solo_benchmark_runs += out.solo_benchmark_runs;
      out.solo_match = out.solo_winner == out.winner;
      report.solo_real_evaluations += out.solo_real_evaluations;
      report.winners_match = report.winners_match && out.solo_match;
    }
  }

  return report;
}

}  // namespace ith::svc
