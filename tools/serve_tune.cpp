// serve_tune: drive the latency-critical serving tier, optionally re-tuning
// the inline heuristic online while it serves.
//
//   serve_tune --workload=kv_server --requests=512
//   serve_tune --online --generations=4 --latency-out=lat.txt
//   serve_tune --online --fault-rate=0.02 --trace=serve.jsonl
//
// Everything is simulated and seeded, so two invocations with the same
// flags print identical numbers and write byte-identical --latency-out
// files — across thread counts and across both interpreter engines. That
// property is what the CI serving job diffs.
//
// The flags are declared once, in kFlags below; --help, any undeclared
// flag, or an integer flag outside its range prints the usage generated
// from them and exits 2.
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "obs/context.hpp"
#include "obs/sink.hpp"
#include "resilience/fault.hpp"
#include "serving/driver.hpp"
#include "serving/workloads.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"

using namespace ith;

namespace {

const std::vector<FlagSpec> kFlags = {
    {"workload", "NAME", "kv_server | query_dispatch | text_pipe | all (default)"},
    {"seed", "N", "arrival/request seed (default 1)"},
    {"instances", "N", "fleet size (default 4)"},
    {"requests", "N", "measured requests per workload (default 1024)"},
    {"load", "R", "offered load vs calibrated capacity (default 0.7)"},
    {"scenario", "S", "adapt (default) or opt"},
    {"arch", "A", "x86 (default) or ppc"},
    {"engine", "E", "fast (default) or reference"},
    {"threads", "N", "serving worker threads (0 = hardware, default)"},
    {"online", "", "enable online re-tuning (off by default)"},
    {"generations", "N", "shadow GA generations == retune epochs (default 6)"},
    {"pop", "N", "shadow GA population (default 12)"},
    {"ga-seed", "N", "shadow GA seed (default 7)"},
    {"goal", "G", "running | total | balance (default)"},
    {"slo-mult", "X", "SLO = X * calibrated mean service (default 32; 0 = off)"},
    {"rollout", "R", "rolling (default) or all"},
    {"no-quarantine-retry", "", "disable the online quarantine release path"},
    {"fault-rate", "R", "fault probability (default 0); with the next three,\n"
                        "deterministic fault injection as chaos_tune's"},
    {"fault-seed", "N", "fault-plan seed (default 1)"},
    {"fault-sites", "CSV", "vm,compile,eval,sink or all (default all)"},
    {"compile-inflation", "X", "compile-cycle multiplier for compile faults"},
    {"latency-out", "PATH", "per-request latency vector, one \"id latency\" per line"},
    {"json", "PATH", "summary JSON (percentiles, installs, final genome)"},
    {"trace", "PATH", "JSONL trace (feed it to trace_report)"},
};

tuner::Goal parse_goal(const std::string& s) {
  if (s == "running") return tuner::Goal::kRunning;
  if (s == "total") return tuner::Goal::kTotal;
  if (s == "balance") return tuner::Goal::kBalance;
  throw Error("--goal must be running, total or balance");
}

void write_json(std::ostream& out, const serving::ServingConfig& config,
                const serving::ServeReport& report) {
  out << "{\n  \"benchmark\": \"serving\",\n"
      << "  \"config\": {\"seed\": " << config.seed << ", \"instances\": " << config.instances
      << ", \"requests\": " << config.requests << ", \"load\": " << config.load
      << ", \"online\": " << (config.online_tune ? "true" : "false")
      << ", \"engine\": \"" << rt::engine_name(config.engine) << "\"},\n"
      << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < report.workloads.size(); ++i) {
    const serving::WorkloadServeReport& w = report.workloads[i];
    out << "    {\"name\": \"" << w.name << "\", \"requests\": " << w.digest.count()
        << ", \"p50\": " << w.digest.p50() << ", \"p95\": " << w.digest.p95()
        << ", \"p99\": " << w.digest.p99() << ", \"max\": " << w.digest.max()
        << ", \"mean\": " << w.digest.mean() << ", \"slo_cycles\": " << w.slo_cycles
        << ", \"slo_violations\": " << w.slo_violations << ", \"faults\": " << w.faulted_requests
        << ", \"installs\": " << w.installs << ", \"final_fitness\": " << w.final_fitness
        << ", \"final_signature\": " << w.final_signature << ", \"final_params\": \""
        << w.final_params.to_string() << "\"}" << (i + 1 < report.workloads.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliParser cli(argc, argv);
    if (!cli.only_declared(kFlags)) {
      std::cerr << usage_text("serve_tune", kFlags);
      return 2;
    }
    const std::string scenario = cli.get_or("scenario", "adapt");
    const std::string arch = cli.get_or("arch", "x86");
    const std::string engine = cli.get_or("engine", "fast");
    const std::string rollout = cli.get_or("rollout", "rolling");
    ITH_CHECK(scenario == "adapt" || scenario == "opt", "--scenario must be adapt or opt");
    ITH_CHECK(arch == "x86" || arch == "ppc", "--arch must be x86 or ppc");
    ITH_CHECK(engine == "fast" || engine == "reference", "--engine must be fast or reference");
    ITH_CHECK(rollout == "rolling" || rollout == "all", "--rollout must be rolling or all");

    // Every integer flag is read here, before anything is opened or
    // written, each within the range its field holds. Instances (one VM
    // each) and worker threads are capped.
    constexpr std::int64_t kInt = std::numeric_limits<int>::max();
    constexpr std::int64_t kI64 = std::numeric_limits<std::int64_t>::max();
    serving::ServingConfig config;
    config.seed = static_cast<std::uint64_t>(cli.get_int_in("seed", 1, 0, kI64));
    config.instances = static_cast<int>(cli.get_int_in("instances", 4, 1, 256));
    config.requests = static_cast<std::size_t>(cli.get_int_in("requests", 1024, 1, kInt));
    config.threads = static_cast<std::size_t>(cli.get_int_in("threads", 0, 0, 256));
    config.ga_generations = static_cast<int>(cli.get_int_in("generations", 6, 1, kInt));
    config.ga_population = static_cast<int>(cli.get_int_in("pop", 12, 2, kInt));
    config.ga_seed = static_cast<std::uint64_t>(cli.get_int_in("ga-seed", 7, 0, kI64));
    const auto fault_seed = static_cast<std::uint64_t>(cli.get_int_in("fault-seed", 1, 0, kI64));

    const std::string trace_path = cli.get_or("trace", "");
    std::ofstream trace_out;
    std::unique_ptr<obs::TraceSink> sink;
    if (!trace_path.empty()) {
      trace_out.open(trace_path);
      ITH_CHECK(trace_out.is_open(), "cannot open " + trace_path);
      sink = std::make_unique<obs::JsonlSink>(trace_out);
    }
    obs::Context ctx(sink.get());

    resilience::FaultPlan plan;
    plan.rate = cli.get_double_or("fault-rate", 0.0);
    ITH_CHECK(plan.rate >= 0.0 && plan.rate <= 1.0, "--fault-rate out of [0,1]");
    plan.seed = fault_seed;
    plan.sites = resilience::FaultPlan::parse_sites(cli.get_or("fault-sites", "all"));
    plan.compile_inflation = cli.get_double_or("compile-inflation", plan.compile_inflation);

    config.load = cli.get_double_or("load", 0.7);
    config.scenario = scenario == "adapt" ? vm::Scenario::kAdapt : vm::Scenario::kOpt;
    config.machine = arch == "ppc" ? rt::ppc_g4_model() : rt::pentium4_model();
    config.engine = engine == "fast" ? rt::EngineKind::kFast : rt::EngineKind::kReference;
    config.online_tune = cli.get_bool_or("online", false);
    config.goal = parse_goal(cli.get_or("goal", "balance"));
    config.slo_multiplier = cli.get_double_or("slo-mult", 32.0);
    config.rollout = rollout == "all" ? serving::Rollout::kAll : serving::Rollout::kRolling;
    config.retry_quarantined = !cli.get_bool_or("no-quarantine-retry", false);
    if (plan.armed()) config.faults = &plan;
    config.fault_seed = plan.seed;
    config.obs = &ctx;

    const std::string workload = cli.get_or("workload", "all");
    serving::ServeReport report;
    if (workload == "all") {
      report = serving::run_serving(config);
    } else {
      report.workloads.push_back(serving::serve_workload(workload, config));
    }

    for (const serving::WorkloadServeReport& w : report.workloads) {
      std::cout << w.name << ": " << w.digest.count() << " requests, p50=" << w.digest.p50()
                << " p95=" << w.digest.p95() << " p99=" << w.digest.p99()
                << " cycles, slo_violations=" << w.slo_violations << "/" << w.digest.count()
                << ", faults=" << w.faulted_requests << ", installs=" << w.installs << "\n";
      if (config.online_tune) {
        std::cout << "  retune: considered=" << w.retune.considered
                  << " installed=" << w.retune.installed
                  << " skipped_sig=" << w.retune.skipped_signature
                  << " skipped_worse=" << w.retune.skipped_worse
                  << " rejected_slo=" << w.retune.rejected_slo
                  << " rejected_fault=" << w.retune.rejected_fault
                  << " quarantine_released=" << w.retune.quarantine_released << "\n";
      }
      std::cout << "  final: fitness=" << w.final_fitness << " signature=" << w.final_signature
                << " params=" << w.final_params.to_string() << "\n";
    }

    const std::string latency_path = cli.get_or("latency-out", "");
    if (!latency_path.empty()) {
      std::ofstream lat(latency_path);
      ITH_CHECK(lat.is_open(), "cannot open " + latency_path);
      for (const serving::WorkloadServeReport& w : report.workloads) {
        for (std::size_t id = 0; id < w.records.size(); ++id) {
          lat << w.name << " " << id << " " << w.records[id].latency << "\n";
        }
      }
      std::cout << "wrote " << latency_path << "\n";
    }

    const std::string json_path = cli.get_or("json", "");
    if (!json_path.empty()) {
      std::ofstream js(json_path);
      ITH_CHECK(js.is_open(), "cannot open " + json_path);
      write_json(js, config, report);
      std::cout << "wrote " << json_path << "\n";
    }

    ctx.flush();
    return 0;
  } catch (const UsageError& e) {
    std::cerr << "serve_tune: " << e.what() << "\n" << usage_text("serve_tune", kFlags);
    return 2;
  } catch (const Error& e) {
    std::cerr << "serve_tune: " << e.what() << "\n";
    return 1;
  }
}
