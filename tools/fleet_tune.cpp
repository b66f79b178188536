// fleet_tune: N concurrent tuning clients sharing one evaluation daemon —
// the tuning-as-a-service end-to-end harness (and the CI fleet job's
// driver).
//
//   fleet_tune --clients=3 --verify-solo
//   fleet_tune --clients=3 --fault-rate=0.1 --fault-sites=svc
//   fleet_tune --clients=3 --kill-daemon-at=1 --snapshot=fleet.evc
//
// The daemon is spawned in-process (same binary, own threads) so one
// command orchestrates the whole fleet deterministically. Each client runs
// a full GA tune (seed --seed + client index) with the shared repository as
// its evaluation backend. The tool prints, and its exit code asserts, the
// two fleet-level properties:
//
//   - WINNER lines: with --verify-solo, each client's fleet winner must be
//     bit-identical to the same tune run standalone — sharing results can
//     make tuning cheaper, never different.
//   - FLEET/SOLO lines: the fleet's total real suite evaluations must be
//     strictly fewer than the standalone total.
//   - LEASES line: every lease granted is published or reclaimed (no leaks),
//     even under injected faults and a mid-flight daemon kill.
//
// The flags (chaos_tune-style defaults) are declared once, in kFlags
// below; --help, any undeclared flag, or an integer flag outside its range
// prints the usage generated from them and exits 2.
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/context.hpp"
#include "obs/sink.hpp"
#include "resilience/fault.hpp"
#include "service/fleet.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "tuner/fitness.hpp"
#include "workloads/suite.hpp"

using namespace ith;

namespace {

const std::vector<FlagSpec> kFlags = {
    {"clients", "N", "fleet size (default 3)"},
    {"workloads", "CSV", "benchmark names or a suite name (default compress,db)"},
    {"scenario", "S", "adapt (default) or opt"},
    {"arch", "A", "x86 (default) or ppc"},
    {"goal", "G", "running | total (default) | balance"},
    {"generations", "N", "GA generations per client (default 4)"},
    {"pop", "N", "population per client (default 6)"},
    {"seed", "N", "base GA seed (default 7)"},
    {"seed-stride", "K",
     "client i tunes with seed N+i*K. Default 0: the\n"
     "whole fleet runs one campaign and the daemon\n"
     "collapses its suite runs; non-zero = a\n"
     "heterogeneous fleet (sharing only where\n"
     "signature spaces collide)"},
    {"iterations", "N", "VM iterations per benchmark (default 2)"},
    {"retries", "N", "guarded retries per benchmark (default 2)"},
    {"socket", "PATH", "daemon socket (default fleet_tune.sock)"},
    {"snapshot", "PATH", "daemon ITHEVC2 persistence (default none)"},
    {"snapshot-every", "N", "publishes between periodic snapshots (default 4)"},
    {"import", "CSV", "foreign snapshots federated in at start"},
    {"fault-rate", "R", "fault probability (default 0)"},
    {"fault-seed", "N", "fault-plan seed (default 1)"},
    {"fault-sites", "CSV",
     "any mix of eval sites (vm,compile,eval,sink) and\n"
     "service sites (accept,read,write,dispatch,\n"
     "snapshot / svc / all); the mask is split — eval\n"
     "sites arm the evaluators (identically on every\n"
     "client AND in the solo reruns, so winners stay\n"
     "comparable), service sites arm the daemon\n"
     "(default svc)"},
    {"kill-daemon-at", "G",
     "kill the daemon after client 0's generation G;\n"
     "restart it one generation later (chaos fleet\n"
     "mode; -1 = never)"},
    {"no-restart", "", "degrade-only chaos: never restart after the kill"},
    {"verify-solo", "", "rerun each client standalone and diff winners"},
    {"timeout-ms", "N", "per-request client deadline (default 30000)"},
};

std::vector<wl::Workload> parse_workloads(const std::string& spec) {
  if (spec == "specjvm98" || spec == "dacapo+jbb" || spec == "all") {
    return wl::make_suite(spec);
  }
  std::vector<wl::Workload> suite;
  std::istringstream names(spec);
  std::string name;
  while (std::getline(names, name, ',')) {
    if (!name.empty()) suite.push_back(wl::make_workload(name));
  }
  ITH_CHECK(!suite.empty(), "--workloads named no benchmarks: " + spec);
  return suite;
}

tuner::Goal parse_goal(const std::string& s) {
  if (s == "running") return tuner::Goal::kRunning;
  if (s == "total") return tuner::Goal::kTotal;
  if (s == "balance") return tuner::Goal::kBalance;
  throw Error("--goal must be running, total or balance");
}

std::vector<std::string> split_csv(const std::string& spec) {
  std::vector<std::string> out;
  std::istringstream items(spec);
  std::string item;
  while (std::getline(items, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliParser cli(argc, argv);
    if (!cli.only_declared(kFlags)) {
      std::cerr << usage_text("fleet_tune", kFlags);
      return 2;
    }
    const std::string scenario = cli.get_or("scenario", "adapt");
    const std::string arch = cli.get_or("arch", "x86");
    ITH_CHECK(scenario == "adapt" || scenario == "opt", "--scenario must be adapt or opt");
    ITH_CHECK(arch == "x86" || arch == "ppc", "--arch must be x86 or ppc");
    // Integer flags are range-checked as they are read; nothing below
    // writes before svc::run_fleet. Clients are capped: each is a thread
    // with its own daemon connection.
    constexpr std::int64_t kInt = std::numeric_limits<int>::max();
    constexpr std::int64_t kI64 = std::numeric_limits<std::int64_t>::max();

    // One --fault-* flag set, split across the two independent planes: eval
    // sites change what suite runs *measure* (and are fingerprinted), so
    // they arm every evaluator identically; service sites are pure
    // infrastructure chaos, so they arm only the daemon.
    const double fault_rate = cli.get_double_or("fault-rate", 0.0);
    ITH_CHECK(fault_rate >= 0.0 && fault_rate <= 1.0, "--fault-rate out of [0,1]");
    const auto fault_seed = static_cast<std::uint64_t>(cli.get_int_in("fault-seed", 1, 0, kI64));
    const std::uint32_t sites =
        resilience::FaultPlan::parse_sites(cli.get_or("fault-sites", "svc"));

    resilience::FaultPlan eval_plan;
    eval_plan.rate = fault_rate;
    eval_plan.seed = fault_seed;
    eval_plan.sites = sites & resilience::FaultPlan::eval_sites();

    svc::FleetConfig fc;
    fc.service_faults.rate = fault_rate;
    fc.service_faults.seed = fault_seed;
    fc.service_faults.sites = sites & resilience::FaultPlan::service_sites();

    fc.suite = parse_workloads(cli.get_or("workloads", "compress,db"));
    fc.eval.machine = arch == "ppc" ? rt::ppc_g4_model() : rt::pentium4_model();
    fc.eval.scenario = scenario == "adapt" ? vm::Scenario::kAdapt : vm::Scenario::kOpt;
    fc.eval.iterations = static_cast<int>(cli.get_int_in("iterations", 2, 1, kInt));
    fc.eval.max_retries = static_cast<int>(cli.get_int_in("retries", 2, 0, 100));
    if (eval_plan.armed()) fc.eval.vm_config.faults = &eval_plan;

    fc.clients = static_cast<int>(cli.get_int_in("clients", 3, 1, 64));
    fc.generations = static_cast<int>(cli.get_int_in("generations", 4, 1, kInt));
    fc.population = static_cast<int>(cli.get_int_in("pop", 6, 2, kInt));
    fc.goal = parse_goal(cli.get_or("goal", "total"));
    fc.base_seed = static_cast<std::uint64_t>(cli.get_int_in("seed", 7, 0, kI64));
    fc.seed_stride = static_cast<std::uint64_t>(cli.get_int_in("seed-stride", 0, 0, kI64));
    fc.socket_path = cli.get_or("socket", "fleet_tune.sock");
    fc.snapshot_path = cli.get_or("snapshot", "");
    fc.snapshot_every = static_cast<std::uint64_t>(cli.get_int_in("snapshot-every", 4, 0, kI64));
    fc.import_paths = split_csv(cli.get_or("import", ""));
    fc.kill_daemon_at = static_cast<int>(cli.get_int_in("kill-daemon-at", -1, 0, kInt));
    fc.restart_daemon = !cli.has("no-restart");
    fc.verify_solo = cli.has("verify-solo");
    fc.request_timeout_ms = static_cast<int>(cli.get_int_in("timeout-ms", 30'000, 0, kInt));
    ITH_CHECK(fc.kill_daemon_at < 0 || !fc.snapshot_path.empty() || !fc.restart_daemon,
              "--kill-daemon-at with restart needs --snapshot=PATH (the restarted daemon "
              "reloads its last periodic snapshot)");

    obs::Context ctx(nullptr);  // counters only; shared fleet-wide
    fc.obs = &ctx;

    const svc::FleetReport report = svc::run_fleet(fc);

    std::cout << "fleet: " << fc.clients << " clients x " << fc.generations << " generations, "
              << "fingerprint=" << report.fingerprint << ", daemon instances="
              << report.daemon_instances << "\n";
    for (std::size_t i = 0; i < report.clients.size(); ++i) {
      const svc::FleetClientReport& c = report.clients[i];
      std::cout << "client " << i << ": real_evals=" << c.real_evaluations
                << " ga_evals=" << c.ga_evaluations << " fitness=" << c.fitness
                << (c.fatally_degraded ? " FATALLY-DEGRADED" : "")
                << (c.pending_unflushed > 0
                        ? " pending_unflushed=" + std::to_string(c.pending_unflushed)
                        : "")
                << "\n";
      std::cout << "  best " << c.winner << "\n";
      if (fc.verify_solo) {
        std::cout << "WINNER client=" << i << " match=" << (c.solo_match ? "yes" : "NO")
                  << " solo_real_evals=" << c.solo_real_evaluations << "\n";
        if (!c.solo_match) std::cout << "  solo best " << c.solo_winner << "\n";
      }
    }

    const svc::DaemonStats& d = report.daemon;
    std::cout << "FLEET real_evals=" << report.fleet_real_evaluations
              << " clients=" << fc.clients << " federated_entries=" << report.federated_entries
              << " federated_quarantine=" << report.federated_quarantine << "\n";
    if (fc.verify_solo) {
      std::cout << "SOLO real_evals=" << report.solo_real_evaluations << " winners_match="
                << (report.winners_match ? "yes" : "NO") << "\n";
    }
    std::cout << "LEASES granted=" << d.leases_granted << " published=" << d.leases_published
              << " reclaimed=" << d.leases_reclaimed << " outstanding=" << d.leases_outstanding
              << " balanced=" << (report.leases_balanced ? "yes" : "NO") << "\n";
    std::cout << "daemon: connections=" << d.connections_accepted
              << " (dropped=" << d.connections_dropped << ") requests=" << d.requests
              << " hits=" << d.hits << " waits=" << d.waits
              << " publish_dedup=" << d.publishes_dedup << "\n";
    std::cout << "daemon: snapshots=" << d.snapshots_written
              << " (skipped=" << d.snapshots_skipped << ") imports=" << d.imports
              << " faults_injected=" << d.faults_injected
              << " frames_rejected=" << d.frames_rejected << "\n";
    std::cout << "svc counters:\n";
    for (const auto& [name, value] : ctx.counter_values()) {
      if (name.rfind("svc.", 0) == 0) std::cout << "  " << name << " = " << value << "\n";
    }

    bool ok = report.leases_balanced;
    if (fc.verify_solo) {
      ok = ok && report.winners_match &&
           report.fleet_real_evaluations < report.solo_real_evaluations;
      if (report.fleet_real_evaluations >= report.solo_real_evaluations) {
        std::cout << "FAIL: fleet performed no fewer real evaluations than standalone\n";
      }
      if (!report.winners_match) std::cout << "FAIL: a fleet winner diverged from standalone\n";
    }
    if (!report.leases_balanced) std::cout << "FAIL: lease accounting does not balance\n";
    return ok ? 0 : 1;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n" << usage_text("fleet_tune", kFlags);
    return 2;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
