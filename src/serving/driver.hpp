// Serving driver: a deterministic discrete-event simulation of a
// latency-critical serving tier, with optional online re-tuning.
//
// Time is simulated cycles throughout. An open-loop arrival process
// (seeded Pcg32: integer gaps uniform in [g/2, 3g/2) around the calibrated
// mean gap) generates requests that are dispatched round-robin to N
// ServerInstances. Each instance is strictly FIFO: a request starts at
// max(arrival, instance clock) and advances the clock by its service time.
// Instances are independent, so each runs as one task on a ThreadPool, with
// records placed by request id — the per-request latency vector is
// bit-identical regardless of thread count or scheduling (the
// latency-regression tier pins this, across both interpreter engines).
//
// Online re-tuning runs a shadow GA (tuner::tune over the kBatch suite)
// beside the serving instances: after each GA generation the epoch boundary
// runs OnlineController::consider on that generation's best genome, the
// rollout policy picks the instances that swap VMs, and the boundary's plan
// (installs plus the next slice of request ids) is published to a schedule.
// Each instance applies its own installs and serves its own ids of each
// plan as soon as it is published, never waiting for another instance (the
// recompilation storm lands inside the next epoch's latencies, exactly as
// if the fleet stopped at the boundary). Because the shadow GA *is* tune(),
// the final installed genome converges to the offline winner by
// construction — the convergence test re-derives the winner independently
// and compares decision signatures.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "heuristics/inline_params.hpp"
#include "obs/context.hpp"
#include "resilience/budget.hpp"
#include "resilience/fault.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/machine.hpp"
#include "serving/latency.hpp"
#include "serving/online_tuner.hpp"
#include "serving/server.hpp"
#include "tuner/fitness.hpp"
#include "vm/vm.hpp"

namespace ith::serving {

enum class Rollout : std::uint8_t {
  /// Install on every instance at the decision: a fleet-wide recompilation
  /// storm (the worst case the SLO gate must absorb).
  kAll,
  /// Install on at most half the fleet per epoch boundary; the rest follow
  /// at later boundaries, so part of the fleet always serves warm code.
  kRolling,
};

const char* rollout_name(Rollout r);

struct ServingConfig {
  /// Master seed: arrival process and request parameters derive from it.
  std::uint64_t seed = 1;
  int instances = 4;
  /// Measured requests per workload (the latency vector's length).
  std::size_t requests = 1024;
  /// Offered load as a fraction of calibrated fleet capacity (1.0 = mean
  /// arrival rate equals mean service rate).
  double load = 0.7;
  /// Requests used to calibrate mean service time (scratch instance,
  /// faults suppressed) before the measured run.
  std::size_t calibration_requests = 64;
  int keyspace = 4096;

  vm::Scenario scenario = vm::Scenario::kAdapt;
  rt::MachineModel machine = rt::pentium4_model();
  rt::EngineKind engine = rt::EngineKind::kFast;
  heur::InlineParams initial = heur::default_params();
  /// Per-request envelope forwarded to every instance (0 = unlimited).
  resilience::RunBudget request_budget{};

  bool online_tune = false;
  tuner::Goal goal = tuner::Goal::kBalance;
  int ga_generations = 6;
  int ga_population = 12;
  std::uint64_t ga_seed = 7;
  Rollout rollout = Rollout::kRolling;
  /// SLO = slo_multiplier * calibrated mean service time; also the latency
  /// charged to a faulted request. 0 disables the SLO gate and violation
  /// accounting.
  double slo_multiplier = 32.0;
  bool retry_quarantined = true;

  /// Fault plan applied to serving instances AND shadow evaluations
  /// (calibration always runs fault-free). Non-owning, may be null.
  const resilience::FaultPlan* faults = nullptr;
  std::uint64_t fault_seed = 0;
  std::size_t threads = 0;  ///< serving pool; 0 = hardware concurrency
  obs::Context* obs = nullptr;
};

/// One served request, in request-id order.
struct RequestRecord {
  std::uint64_t arrival = 0;
  std::uint64_t start = 0;    ///< max(arrival, instance clock at dequeue)
  std::uint64_t service = 0;  ///< cycles on the instance (penalty if !ok)
  std::uint64_t latency = 0;  ///< (start - arrival) + service
  int instance = 0;
  bool ok = true;
};

struct WorkloadServeReport {
  std::string name;
  LatencyDigest digest;  ///< all measured latencies
  std::vector<RequestRecord> records;

  std::uint64_t calibrated_service = 0;  ///< mean cycles/request at calibration
  std::uint64_t mean_gap = 0;            ///< mean inter-arrival gap used
  std::uint64_t slo_cycles = 0;          ///< 0 = no SLO
  std::size_t slo_violations = 0;
  std::size_t faulted_requests = 0;
  std::size_t installs = 0;  ///< VM swaps across the fleet (excl. fault rebuilds)

  heur::InlineParams final_params;
  std::uint64_t final_signature = 0;  ///< batch-suite decision signature
  double final_fitness = 1.0;         ///< normalized; 1.0 = default params
  OnlineController::Stats retune;     ///< zero when online_tune is off
};

struct ServeReport {
  std::vector<WorkloadServeReport> workloads;
};

/// Serves one workload by name (see workloads.hpp). Deterministic in every
/// field for a fixed config, including across engines and thread counts.
WorkloadServeReport serve_workload(const std::string& name, const ServingConfig& config);

/// All serving workloads in serving_names() order.
ServeReport run_serving(const ServingConfig& config);

}  // namespace ith::serving
