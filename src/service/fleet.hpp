// Fleet harness: N concurrent tuning clients federated through one
// evaluation daemon — the end-to-end driver behind tools/fleet_tune and
// bench_json --fleet, and the chaos-fleet CI leg.
//
// Each client is a full chaos_tune-style tune: its own SuiteEvaluator, its
// own GA (seeded base_seed + i * seed_stride), plugged into the shared
// daemon via a ServiceClient backend. The daemon keys results by parameter
// vector; under Adapt they carry their compile traces, which each client
// folds into its decision tries. The harness can kill the
// daemon after a chosen client-0 generation and restart it one generation
// later, which exercises the whole degradation ladder: in-flight requests
// fail, clients back off and tune standalone, the restarted daemon reloads
// its last periodic snapshot, reconnecting clients flush their pending
// publishes (re-federation), and the run converges with no leaked lease.
//
// The two fleet-level claims the report carries (and CI asserts):
//   - every client's winner is bit-identical to its standalone run
//     (verify_solo reruns each client without a backend and diffs), and
//   - the fleet's total real suite evaluations are strictly fewer than the
//     sum of the standalone runs' — sharing the repository is what the
//     daemon is *for*. This holds for a fleet sharing one campaign; a
//     heterogeneous fleet (seed_stride != 0) shares only the parameter
//     vectors two clients both try, and CI checks it for winners and
//     leases only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/context.hpp"
#include "resilience/fault.hpp"
#include "service/daemon.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/fitness.hpp"
#include "workloads/suite.hpp"

namespace ith::svc {

struct FleetConfig {
  std::vector<wl::Workload> suite;
  /// Shared evaluator configuration (every client must match, or the
  /// daemon's fingerprint check would — correctly — refuse them). The
  /// backend/obs fields are overwritten per client.
  tuner::EvalConfig eval{};
  int clients = 3;
  int generations = 4;
  int population = 6;
  tuner::Goal goal = tuner::Goal::kTotal;
  /// Client i's GA runs with seed base_seed + i * seed_stride. Stride 0
  /// (the default) is the canonical tuning-as-a-service deployment: every
  /// client runs the *same* campaign, so the shared repository (and the
  /// cross-process single-flight) collapses N clients' suite runs onto
  /// one set of real evaluations. A non-zero stride models a heterogeneous
  /// fleet; sharing then comes only from parameter vectors two clients both
  /// try and, under Adapt, from served traces a client's tries replay.
  std::uint64_t base_seed = 7;
  std::uint64_t seed_stride = 0;
  std::string socket_path = "fleet.sock";
  /// Daemon persistence (ITHEVC3). Empty = in-memory only; the chaos leg
  /// needs it, or there is nothing for the restarted daemon to reload.
  std::string snapshot_path;
  std::uint64_t snapshot_every = 4;
  /// Foreign ITHEVC3 snapshots federated into the daemon before the run.
  std::vector<std::string> import_paths;
  /// Daemon-side infrastructure faults (the kSvc* sites).
  resilience::FaultPlan service_faults{};
  /// Kill the daemon right after client 0 finishes this generation
  /// (-1 = never). With restart_daemon, a fresh daemon (same socket, same
  /// snapshot file) starts one generation later.
  int kill_daemon_at = -1;
  bool restart_daemon = true;
  /// Rerun every client standalone (no backend) and diff the winners.
  bool verify_solo = false;
  /// Shared by the daemon and every client, so svc.* counters accumulate
  /// fleet-wide. Non-owning, may be null.
  obs::Context* obs = nullptr;
  int request_timeout_ms = 30'000;
};

struct FleetClientReport {
  std::string winner;
  double fitness = 0.0;
  std::uint64_t real_evaluations = 0;
  std::uint64_t benchmark_runs = 0;
  std::uint64_t ga_evaluations = 0;
  bool fatally_degraded = false;
  std::size_t pending_unflushed = 0;  ///< publishes never re-federated
  // verify_solo only:
  std::string solo_winner;
  std::uint64_t solo_real_evaluations = 0;
  std::uint64_t solo_benchmark_runs = 0;
  bool solo_match = true;
};

struct FleetReport {
  std::vector<FleetClientReport> clients;
  std::uint64_t fleet_real_evaluations = 0;  ///< sum over clients
  std::uint64_t solo_real_evaluations = 0;   ///< sum; 0 unless verify_solo
  std::uint64_t fleet_benchmark_runs = 0;    ///< sum over clients
  std::uint64_t solo_benchmark_runs = 0;     ///< sum; 0 unless verify_solo
  /// Daemon stats summed over every instance this run started (2 when the
  /// chaos kill+restart fired, else 1).
  DaemonStats daemon;
  std::size_t daemon_instances = 0;
  bool leases_balanced = false;
  bool winners_match = true;  ///< all solo_match (vacuously true otherwise)
  std::size_t federated_entries = 0;   ///< final repository size
  std::size_t federated_quarantine = 0;
  std::uint64_t fingerprint = 0;
};

FleetReport run_fleet(const FleetConfig& config);

}  // namespace ith::svc
