// trace_vm: run one workload through the VM with tracing on and write the
// trace — the smallest end-to-end demonstration of the observability layer.
//
//   trace_vm --workload=compress --scenario=adapt --trace=out.json --trace-format=chrome
//
// The chrome format opens directly in chrome://tracing or
// https://ui.perfetto.dev. Process 1 is the simulated-cycle timeline
// (compile spans whose durations sum exactly to the run's compile cycles,
// promotions, hot-site trips, code installs); process 2 is the host
// wall-clock timeline (optimizer passes, inlining decisions).
//
// The flags are declared once, in kFlags below; --help or any undeclared
// flag prints the usage generated from them and exits 2 without running or
// writing anything.
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "heuristics/heuristic.hpp"
#include "obs/context.hpp"
#include "obs/sink.hpp"
#include "opt/pipeline.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "vm/vm.hpp"
#include "workloads/suite.hpp"

using namespace ith;

namespace {

const std::vector<FlagSpec> kFlags = {
    {"workload", "NAME", "workload to run (default compress; see workloads/)"},
    {"scenario", "S", "adapt (default) or opt"},
    {"arch", "A", "x86 (default) or ppc"},
    {"iterations", "N", "VM iterations (default 2)"},
    {"trace", "PATH", "output file (default trace.json)"},
    {"trace-format", "F", "chrome (default) or jsonl"},
    {"trace-cats", "CSV", "category filter (default all)"},
    {"inline-report", "",
     "print the structured inline report (every method\n"
     "compiled once through a cold-profile PassManager)"},
    {"partial", "N",
     "PARTIAL_MAX_HEAD_SIZE for the report's heuristic\n"
     "(default 0 = partial inlining off)"},
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliParser cli(argc, argv);
    if (!cli.only_declared(kFlags)) {
      std::cerr << usage_text("trace_vm", kFlags);
      return 2;
    }
    const std::string workload = cli.get_or("workload", "compress");
    const std::string scenario = cli.get_or("scenario", "adapt");
    const std::string arch = cli.get_or("arch", "x86");
    const int iterations = static_cast<int>(cli.get_int_or("iterations", 2));
    const std::string path = cli.get_or("trace", "trace.json");
    const std::string format = cli.get_or("trace-format", "chrome");
    const std::uint32_t cats = obs::category_mask_from_string(cli.get_or("trace-cats", "all"));

    ITH_CHECK(scenario == "adapt" || scenario == "opt", "--scenario must be adapt or opt");
    ITH_CHECK(arch == "x86" || arch == "ppc", "--arch must be x86 or ppc");
    ITH_CHECK(format == "chrome" || format == "jsonl", "--trace-format must be chrome or jsonl");

    std::ofstream out(path);
    ITH_CHECK(out.is_open(), "cannot open " + path);
    std::unique_ptr<obs::TraceSink> sink;
    if (format == "chrome") {
      sink = std::make_unique<obs::ChromeTraceSink>(out);
    } else {
      sink = std::make_unique<obs::JsonlSink>(out);
    }
    obs::Context ctx(sink.get(), cats);

    const wl::Workload w = wl::make_workload(workload);
    const rt::MachineModel machine = arch == "ppc" ? rt::ppc_g4_model() : rt::pentium4_model();
    heur::JikesHeuristic heuristic(heur::default_params());
    vm::VmConfig cfg;
    cfg.scenario = scenario == "adapt" ? vm::Scenario::kAdapt : vm::Scenario::kOpt;
    cfg.obs = &ctx;

    vm::VirtualMachine machine_vm(w.program, machine, heuristic, cfg);
    const vm::RunResult rr = machine_vm.run(iterations);
    ctx.flush();
    sink.reset();  // chrome sink closes its JSON array here

    std::cout << "workload " << w.name << " (" << scenario << ", " << arch << ", " << iterations
              << " iterations)\n"
              << "  total cycles (iter 1): " << rr.total_cycles << "\n"
              << "  running cycles (best): " << rr.running_cycles << "\n"
              << "  compile cycles (all):  " << rr.compile_cycles_all << "\n"
              << "  compiles: " << rr.methods_baseline_compiled << " baseline, "
              << rr.methods_opt_compiled << " opt (" << rr.recompilations << " recompilations)\n"
              << "trace written to " << path << " (" << format << ")\n";
    if (format == "chrome") {
      std::cout << "open in chrome://tracing or https://ui.perfetto.dev\n";
    }

    if (cli.has("inline-report")) {
      // Structured inline report: one cold-profile compilation per method
      // through a fresh PassManager (profiles from the traced run above do
      // not apply — the report is a static what-would-the-inliner-do dump).
      heur::InlineParams p = heur::default_params();
      p.partial_max_head_size =
          static_cast<int>(cli.get_int_or("partial", p.partial_max_head_size));
      heur::JikesHeuristic h(p);
      opt::PassManager pm(w.program, h);
      opt::InlineReport report;
      for (std::size_t i = 0; i < w.program.num_methods(); ++i) {
        pm.run(static_cast<bc::MethodId>(i), &report);
      }
      std::cout << "\ninline report (" << p.to_string() << "):\n"
                << opt::format_inline_report(w.program, report);
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
