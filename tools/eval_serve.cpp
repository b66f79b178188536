// eval_serve: run the evaluation daemon standalone.
//
//   eval_serve --socket=eval.sock --snapshot=cache.evc
//   eval_serve --socket=eval.sock --import=a.evc,b.evc   # federate first
//   eval_serve --socket=eval.sock --fault-rate=0.1 --fault-sites=svc
//
// The daemon coordinates a fleet of tuning clients (chaos_tune-compatible
// configuration flags pick the evaluator fingerprint it will accept): it
// answers acquire requests from the shared repository, keyed by a hash of
// the parameter vector, grants leases on misses, parks concurrent askers
// behind the leaseholder (cross-process single-flight), and persists the
// repository — under Adapt with each result's compile trace, which clients
// fold into their decision tries — as an ITHEVC3 snapshot that any tuning
// tool (or another daemon) can import.
//
// Runs until SIGINT/SIGTERM (graceful: final snapshot) or --run-seconds.
//
// The flags are declared once, in kFlags below; --help, any undeclared
// flag, or an integer flag outside its range prints the usage generated
// from them and exits 2.
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/context.hpp"
#include "obs/sink.hpp"
#include "resilience/fault.hpp"
#include "service/daemon.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "tuner/eval_cache.hpp"
#include "tuner/evaluator.hpp"
#include "workloads/suite.hpp"

using namespace ith;

namespace {

const std::vector<FlagSpec> kFlags = {
    {"socket", "PATH", "unix domain socket to bind (required)"},
    {"workloads", "CSV",
     "benchmark names or a suite name (default\n"
     "compress,db). This flag and the next four set the\n"
     "evaluator config, which must match the clients';\n"
     "they default as chaos_tune's do, so default\n"
     "daemons and clients agree on the fingerprint"},
    {"scenario", "S", "adapt (default) or opt"},
    {"arch", "A", "x86 (default) or ppc"},
    {"iterations", "N", "VM iterations per benchmark (default 2)"},
    {"retries", "N", "guarded retries per benchmark (default 2)"},
    {"eval-fault-rate", "R",
     "eval-site fault plan (default 0), part of the\n"
     "fingerprint — must mirror the clients' --fault-*\n"
     "eval settings"},
    {"eval-fault-seed", "N", "eval-site fault-plan seed (default 1)"},
    {"eval-fault-sites", "CSV", "vm,compile,eval,sink"},
    {"snapshot", "PATH", "ITHEVC3 persistence (loaded at start if present)"},
    {"snapshot-every", "N", "publishes between periodic snapshots (default 8)"},
    {"import", "CSV", "foreign snapshots to federate in at start"},
    {"fault-rate", "R",
     "*service*-site fault plan (accept,read,write,\n"
     "dispatch,snapshot) — infrastructure chaos"},
    {"fault-seed", "N", "service fault-plan seed (default 1)"},
    {"fault-sites", "CSV", "service fault sites (default svc)"},
    {"run-seconds", "N", "exit after N seconds (0 = until signal)"},
    {"trace", "PATH", "JSONL trace (svc.* counters for trace_report)"},
};

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

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
      std::cerr << usage_text("eval_serve", kFlags);
      return 2;
    }
    const std::string socket_path = cli.get_or("socket", "");
    ITH_CHECK(!socket_path.empty(), "--socket=PATH is required");

    const std::string scenario = cli.get_or("scenario", "adapt");
    const std::string arch = cli.get_or("arch", "x86");
    ITH_CHECK(scenario == "adapt" || scenario == "opt", "--scenario must be adapt or opt");
    ITH_CHECK(arch == "x86" || arch == "ppc", "--arch must be x86 or ppc");

    // Every integer flag is read here, before anything is opened, bound or
    // written, each within the range its field holds.
    constexpr std::int64_t kInt = std::numeric_limits<int>::max();
    constexpr std::int64_t kI64 = std::numeric_limits<std::int64_t>::max();
    const auto iterations = static_cast<int>(cli.get_int_in("iterations", 2, 1, kInt));
    const auto retries = static_cast<int>(cli.get_int_in("retries", 2, 0, 100));
    const auto eval_fault_seed =
        static_cast<std::uint64_t>(cli.get_int_in("eval-fault-seed", 1, 0, kI64));
    const auto snapshot_every =
        static_cast<std::uint64_t>(cli.get_int_in("snapshot-every", 8, 0, kI64));
    const auto fault_seed = static_cast<std::uint64_t>(cli.get_int_in("fault-seed", 1, 0, kI64));
    const auto run_seconds = static_cast<int>(cli.get_int_in("run-seconds", 0, 0, kInt));

    const std::string trace_path = cli.get_or("trace", "");
    std::ofstream trace_out;
    std::unique_ptr<obs::TraceSink> sink;
    if (!trace_path.empty()) {
      trace_out.open(trace_path);
      ITH_CHECK(trace_out.is_open(), "cannot open " + trace_path);
      sink = std::make_unique<obs::JsonlSink>(trace_out);
    }
    obs::Context ctx(sink.get());

    // The evaluator configuration determines the fingerprint this daemon
    // accepts — it must match the clients' exactly, eval-site fault plan
    // included (that plan changes what suite runs measure, so it is part of
    // the fingerprint; the *service* fault plan below is not).
    resilience::FaultPlan eval_plan;
    eval_plan.rate = cli.get_double_or("eval-fault-rate", 0.0);
    eval_plan.seed = eval_fault_seed;
    eval_plan.sites = resilience::FaultPlan::parse_sites(cli.get_or("eval-fault-sites", ""));

    tuner::EvalConfig ec;
    ec.machine = arch == "ppc" ? rt::ppc_g4_model() : rt::pentium4_model();
    ec.scenario = scenario == "adapt" ? vm::Scenario::kAdapt : vm::Scenario::kOpt;
    ec.iterations = iterations;
    ec.max_retries = retries;
    if (eval_plan.armed()) ec.vm_config.faults = &eval_plan;
    const std::uint64_t fingerprint =
        tuner::SuiteEvaluator(parse_workloads(cli.get_or("workloads", "compress,db")), ec)
            .cache_fingerprint();

    svc::DaemonConfig dc;
    dc.socket_path = socket_path;
    dc.fingerprint = fingerprint;
    dc.snapshot_path = cli.get_or("snapshot", "");
    dc.snapshot_every = snapshot_every;
    dc.faults.rate = cli.get_double_or("fault-rate", 0.0);
    ITH_CHECK(dc.faults.rate >= 0.0 && dc.faults.rate <= 1.0, "--fault-rate out of [0,1]");
    dc.faults.seed = fault_seed;
    dc.faults.sites = resilience::FaultPlan::parse_sites(cli.get_or("fault-sites", "svc"));
    dc.obs = &ctx;

    svc::EvalDaemon daemon(dc);
    daemon.start();
    std::cout << "eval_serve: listening on " << socket_path << " fingerprint=" << fingerprint
              << (dc.snapshot_path.empty() ? "" : " snapshot=" + dc.snapshot_path) << "\n";

    for (const std::string& path : split_csv(cli.get_or("import", ""))) {
      const tuner::SnapshotMergeStats merged =
          daemon.import_snapshot(tuner::load_eval_cache(path));
      std::cout << "import " << path << ": +" << merged.added << " entries, "
                << merged.duplicates << " duplicates, " << merged.conflicts
                << " conflicts resolved\n";
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(run_seconds);
    while (g_stop == 0) {
      if (run_seconds > 0 && std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    daemon.stop();
    const svc::DaemonStats s = daemon.stats();
    std::cout << "eval_serve: connections=" << s.connections_accepted
              << " requests=" << s.requests << " hits=" << s.hits << " waits=" << s.waits
              << "\n"
              << "leases: granted=" << s.leases_granted << " published=" << s.leases_published
              << " reclaimed=" << s.leases_reclaimed << " outstanding=" << s.leases_outstanding
              << " balanced=" << (s.leases_balanced() ? "yes" : "NO") << "\n"
              << "snapshots: written=" << s.snapshots_written
              << " skipped=" << s.snapshots_skipped << " imports=" << s.imports
              << " faults_injected=" << s.faults_injected << "\n";
    ctx.flush();
    return s.leases_balanced() ? 0 : 1;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n" << usage_text("eval_serve", kFlags);
    return 2;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
