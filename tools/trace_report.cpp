// trace_report: summarize a trace produced by the observability layer.
//
//   trace_report trace.jsonl                  # phase/span/counter summary
//   trace_report trace.json --validate        # schema-check every event
//   trace_report trace.jsonl --ga-csv=ga.csv  # per-generation fitness CSV
//
// Accepts both sink formats: JSONL (one event per line) and the Chrome
// trace_event JSON ({"traceEvents":[...]}). The summary separates the two
// timebases: process 1 events are in simulated cycles (compile-time
// attribution that matches the VM's RunResult exactly), process 2 events
// are host wall-clock microseconds.
//
// The flags are declared once, in kFlags below; --help, any undeclared flag
// or anything but exactly one TRACE prints the usage generated from them and
// exits 2 without reading or writing anything.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/schema.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

using namespace ith;

namespace {

const std::vector<FlagSpec> kFlags = {
    {"validate", "", "check every event against the trace schema (src/obs/schema.hpp)"},
    {"ga-csv", "PATH", "write the per-generation fitness CSV to PATH"},
};

/// Loads every event object from a JSONL or Chrome-format trace file.
std::vector<JsonValue> load_events(const std::string& path) {
  std::ifstream in(path);
  ITH_CHECK(in.is_open(), "cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const std::size_t first = text.find_first_not_of(" \t\r\n");
  ITH_CHECK(first != std::string::npos, path + " is empty");

  std::vector<JsonValue> events;
  if (text.compare(first, 14, "{\"traceEvents\"") == 0) {
    JsonValue doc = parse_json(text);
    for (auto& [key, value] : doc.members) {
      if (key == "traceEvents") {
        ITH_CHECK(value.kind == JsonValue::Kind::kArray, path + ": traceEvents is not an array");
        events = std::move(value.items);
        return events;
      }
    }
    throw Error(path + ": traceEvents missing");
  } else {
    std::istringstream lines(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(lines, line)) {
      ++lineno;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      try {
        events.push_back(parse_json(line));
      } catch (const Error& e) {
        throw Error(path + ":" + std::to_string(lineno) + ": " + e.what());
      }
    }
  }
  return events;
}

std::string get_str(const JsonValue& e, const char* key) {
  const JsonValue* v = e.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->str : std::string();
}

std::int64_t get_int(const JsonValue& e, const char* key) {
  const JsonValue* v = e.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->as_int() : 0;
}

double get_num(const JsonValue& e, const char* key, double fallback) {
  const JsonValue* v = e.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number : fallback;
}

struct SpanAgg {
  std::uint64_t count = 0;
  std::uint64_t total = 0;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliParser cli(argc, argv);
    if (!cli.only_declared(kFlags, 1)) {
      std::cerr << usage_text("trace_report TRACE", kFlags);
      return 2;
    }
    const std::string path = cli.positional().front();
    const std::vector<JsonValue> events = load_events(path);

    if (cli.has("validate")) {
      std::size_t bad = 0;
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (const auto err = obs::validate_event(events[i])) {
          std::cerr << "event " << i << ": " << *err << "\n";
          ++bad;
        }
      }
      if (bad != 0) {
        std::cerr << bad << "/" << events.size() << " events failed schema validation\n";
        return 1;
      }
      std::cout << events.size() << " events OK\n";
      if (!cli.has("ga-csv")) return 0;
    }

    if (cli.has("ga-csv")) {
      const std::string csv_path = cli.get_or("ga-csv", "");
      ITH_CHECK(!csv_path.empty(), "--ga-csv needs a path");
      std::ofstream csv(csv_path);
      ITH_CHECK(csv.is_open(), "cannot open " + csv_path);
      csv << "generation,best,mean,worst,diversity\n";
      std::size_t rows = 0;
      for (const JsonValue& e : events) {
        if (get_str(e, "name") != "ga.generation") continue;
        const JsonValue* args = e.find("args");
        if (args == nullptr) continue;
        csv << get_int(*args, "generation") << "," << get_num(*args, "best", 0.0) << ","
            << get_num(*args, "mean", 0.0) << "," << get_num(*args, "worst", 0.0) << ","
            << get_num(*args, "diversity", 0.0) << "\n";
        ++rows;
      }
      std::cout << rows << " generations written to " << csv_path << "\n";
      return 0;
    }

    // Phase attribution: complete spans by name, split by timebase.
    std::map<std::string, SpanAgg> sim_spans, host_spans;
    std::map<std::string, std::uint64_t> instants;
    std::map<std::string, std::int64_t> counters;
    for (const JsonValue& e : events) {
      const std::string name = get_str(e, "name");
      const std::string ph = get_str(e, "ph");
      if (ph == "X") {
        auto& agg = get_int(e, "pid") == 1 ? sim_spans[name] : host_spans[name];
        ++agg.count;
        agg.total += static_cast<std::uint64_t>(get_int(e, "dur"));
      } else if (ph == "i") {
        ++instants[name];
      } else if (ph == "C") {
        // Counter events carry {counter_name: value} args; the last sample
        // wins (counters are cumulative).
        const JsonValue* args = e.find("args");
        if (args != nullptr) {
          for (const auto& [key, value] : args->members) counters[key] = value.as_int();
        }
      }
    }

    std::cout << events.size() << " events from " << path << "\n\n";

    if (!sim_spans.empty()) {
      std::uint64_t all = 0;
      for (const auto& [_, agg] : sim_spans) all += agg.total;
      Table t({"sim-domain span", "count", "cycles", "share"});
      for (const auto& [name, agg] : sim_spans) {
        t.add_row({name, std::to_string(agg.count), std::to_string(agg.total),
                   cell(100.0 * static_cast<double>(agg.total) / static_cast<double>(all), 1) +
                       "%"});
      }
      std::cout << "Simulated-cycle attribution (pid 1):\n";
      t.render(std::cout);
      std::cout << "\n";
    }

    if (!host_spans.empty()) {
      Table t({"host-domain span", "count", "total us"});
      for (const auto& [name, agg] : host_spans) {
        t.add_row({name, std::to_string(agg.count), std::to_string(agg.total)});
      }
      std::cout << "Host wall-clock spans (pid 2):\n";
      t.render(std::cout);
      std::cout << "\n";
    }

    if (!instants.empty()) {
      Table t({"instant event", "count"});
      for (const auto& [name, n] : instants) t.add_row({name, std::to_string(n)});
      std::cout << "Instant events:\n";
      t.render(std::cout);
      std::cout << "\n";
    }

    if (!counters.empty()) {
      Table t({"counter", "value"});
      for (const auto& [name, v] : counters) t.add_row({name, std::to_string(v)});
      std::cout << "Counters (final values):\n";
      t.render(std::cout);
    }

    // Signature cache: the decision-probe layer's counters (probe activity,
    // hit/miss traffic at the signature-keyed result cache, params restored
    // from a snapshot), the per-benchmark store's runs and reuses, run-level
    // replays, plus the tuner's collapse totals, summarized so a tuning
    // trace answers "how many suite and benchmark runs did the cache save"
    // at a glance.
    std::map<std::string, std::int64_t> sig_counters;
    for (const auto& [name, v] : counters) {
      if (name.rfind("sig.", 0) == 0 || name.rfind("ga.distinct_", 0) == 0 ||
          name.rfind("eval.bench_", 0) == 0 || name.rfind("eval.replay_", 0) == 0 ||
          name == "ga.evaluations_saved") {
        sig_counters[name] = v;
      }
    }
    if (!sig_counters.empty()) {
      Table t({"signature counter", "value"});
      for (const auto& [name, v] : sig_counters) t.add_row({name, std::to_string(v)});
      std::cout << "\nSignature cache (decision-probe collapse):\n";
      t.render(std::cout);
      auto val = [&](const char* k) {
        return sig_counters.count(k) ? sig_counters[k] : std::int64_t{0};
      };
      const std::int64_t hits = val("sig.hits");
      const std::int64_t misses = val("sig.misses");
      if (hits + misses > 0) {
        std::cout << "signature cache hit rate: " << hits << "/" << (hits + misses) << " ("
                  << cell(100.0 * static_cast<double>(hits) / static_cast<double>(hits + misses),
                          1)
                  << "%)\n";
      }
      const std::int64_t dp = val("ga.distinct_params");
      const std::int64_t ds = val("ga.distinct_signatures");
      if (ds > 0) {
        std::cout << "collapse: " << dp << " distinct params -> " << ds << " signatures ("
                  << cell(static_cast<double>(dp) / static_cast<double>(ds), 2)
                  << "x fewer suite runs)\n";
      }
      const std::int64_t reused = val("eval.bench_reused");
      const std::int64_t ran = val("eval.bench_runs");
      const std::int64_t replayed = val("eval.bench_replayed");
      const std::int64_t needed = reused + ran + replayed;
      if (needed > 0) {
        std::cout << "per-benchmark reuse: " << reused << "/" << needed
                  << " benchmark results served by the store ("
                  << cell(100.0 * static_cast<double>(reused) / static_cast<double>(needed), 1)
                  << "%), " << ran << " run\n";
      }
      // Run-level replay: of the benchmarks neither the store nor the
      // backend supplied, how many a decision-trie walk proved identical to
      // a recorded run, and what the walks cost.
      if (sig_counters.count("eval.bench_replayed") != 0 && replayed + ran > 0) {
        std::cout << "run replays: " << replayed << " of " << (replayed + ran)
                  << " missing benchmarks ("
                  << cell(100.0 * static_cast<double>(replayed) /
                              static_cast<double>(replayed + ran),
                          1)
                  << "%), checks " << val("eval.replay_us") << " us, tries "
                  << val("eval.replay_trie_bytes") << " bytes\n";
      }
      const std::int64_t probes = val("sig.probes");
      if (probes > 0) {
        std::cout << "probe cost: " << val("sig.probe_us") << " us wall over " << probes
                  << " probes\n";
      }
    }

    // Passes: the pass manager's per-pass run/change totals, the analysis
    // cache's hit/miss/invalidation traffic and the body memo's hit ratio,
    // so a traced tune answers "which passes do the work, and how much
    // recomputation do the caches avoid" at a glance.
    std::map<std::string, std::int64_t> opt_counters;
    for (const auto& [name, v] : counters) {
      if (name.rfind("opt.", 0) == 0) opt_counters[name] = v;
    }
    if (!opt_counters.empty()) {
      std::cout << "\nPasses (pass manager):\n";
      const std::string pass_prefix = "opt.pass.";
      std::map<std::string, std::pair<std::int64_t, std::int64_t>> per_pass;
      for (const auto& [name, v] : opt_counters) {
        if (name.rfind(pass_prefix, 0) != 0) continue;
        const std::string rest = name.substr(pass_prefix.size());
        const std::size_t dot = rest.rfind('.');
        if (dot == std::string::npos) continue;
        const std::string kind = rest.substr(dot + 1);
        if (kind == "runs") {
          per_pass[rest.substr(0, dot)].first = v;
        } else if (kind == "changes") {
          per_pass[rest.substr(0, dot)].second = v;
        }
      }
      if (!per_pass.empty()) {
        Table t({"pass", "runs", "changes"});
        for (const auto& [name, rc] : per_pass) {
          t.add_row({name, std::to_string(rc.first), std::to_string(rc.second)});
        }
        t.render(std::cout);
      }
      auto oval = [&](const char* k) {
        return opt_counters.count(k) ? opt_counters[k] : std::int64_t{0};
      };
      const std::int64_t ahits = oval("opt.analysis_hits");
      const std::int64_t amisses = oval("opt.analysis_misses");
      if (ahits + amisses > 0) {
        std::cout << "analysis cache: " << ahits << "/" << (ahits + amisses) << " hits ("
                  << cell(100.0 * static_cast<double>(ahits) /
                              static_cast<double>(ahits + amisses),
                          1)
                  << "%), " << oval("opt.analysis_invalidations") << " invalidations\n";
      }
      // The evaluator's memo of optimized bodies: a hit installs a stored
      // body without running any pass, so the per-pass rows above count
      // misses (and VMs outside an evaluator) only.
      if (opt_counters.count("opt.memo_hits") != 0) {
        const std::int64_t mhits = oval("opt.memo_hits");
        const std::int64_t mlookups = mhits + oval("opt.memo_misses");
        std::cout << "body memo: " << mhits << "/" << mlookups << " compiles served";
        if (mlookups > 0) {
          std::cout << " ("
                    << cell(100.0 * static_cast<double>(mhits) / static_cast<double>(mlookups), 1)
                    << "%)";
        }
        std::cout << ", " << oval("opt.memo_evictions") << " evictions\n";
      }
    }

    // Serving: the serving tier's counters (request/SLO accounting, fleet
    // installs) plus the online controller's retune verdicts, aggregated
    // from serve.retune instants so a serving trace answers "did the tuner
    // converge, and what did each proposal cost" at a glance.
    std::map<std::string, std::int64_t> serving;
    for (const auto& [name, v] : counters) {
      if (name.rfind("serve.", 0) == 0) serving[name] = v;
    }
    std::map<std::string, std::int64_t> retune_actions;
    for (const JsonValue& e : events) {
      if (get_str(e, "name") != "serve.retune") continue;
      const JsonValue* args = e.find("args");
      if (args == nullptr) continue;
      const std::string action = get_str(*args, "action");
      if (!action.empty()) ++retune_actions[action];
    }
    if (!serving.empty() || !retune_actions.empty()) {
      std::cout << "\nServing:\n";
      if (!serving.empty()) {
        Table t({"serving counter", "value"});
        for (const auto& [name, v] : serving) t.add_row({name, std::to_string(v)});
        t.render(std::cout);
      }
      if (!retune_actions.empty()) {
        Table t({"retune verdict", "count"});
        for (const auto& [name, n] : retune_actions) t.add_row({name, std::to_string(n)});
        t.render(std::cout);
      }
      const std::int64_t reqs = serving.count("serve.requests") ? serving["serve.requests"] : 0;
      const std::int64_t viol =
          serving.count("serve.slo_violations") ? serving["serve.slo_violations"] : 0;
      if (reqs > 0) {
        std::cout << "SLO: " << (reqs - viol) << "/" << reqs << " requests within envelope ("
                  << cell(100.0 * static_cast<double>(reqs - viol) / static_cast<double>(reqs), 1)
                  << "%)\n";
      }
    }

    // Evaluation service: the daemon's svc.* counters (connection/request
    // traffic, single-flight waits, snapshot activity) plus the lease
    // ledger, with the leak invariant checked inline — a fleet trace
    // answers "did every lease come home" at a glance.
    std::map<std::string, std::int64_t> service;
    for (const auto& [name, v] : counters) {
      if (name.rfind("svc.", 0) == 0) service[name] = v;
    }
    if (!service.empty()) {
      auto sval = [&](const char* k) {
        return service.count(k) ? service[k] : std::int64_t{0};
      };
      std::cout << "\nEvaluation service:\n";
      Table t({"service counter", "value"});
      for (const auto& [name, v] : service) t.add_row({name, std::to_string(v)});
      t.render(std::cout);
      const std::int64_t granted = sval("svc.leases_granted");
      const std::int64_t published = sval("svc.leases_published");
      const std::int64_t reclaimed = sval("svc.leases_reclaimed");
      if (granted > 0) {
        std::cout << "leases: " << granted << " granted = " << published << " published + "
                  << reclaimed << " reclaimed ("
                  << (granted == published + reclaimed ? "balanced, no leaks"
                                                       : "UNBALANCED — leaked leases")
                  << ")\n";
      }
      const std::int64_t hits = sval("svc.hits");
      const std::int64_t remote = sval("svc.client_remote_hits");
      if (hits + granted > 0) {
        std::cout << "sharing: " << hits << " served from the federated repository ("
                  << remote << " landed in clients), " << sval("svc.waits")
                  << " single-flight waits\n";
      }
    }

    // Fusion: the fast engine's superinstruction-fusion counters (bodies
    // rewritten, rules fired, dynamic-stream instructions eliminated) with
    // per-rule hit counts, so a trace answers "which patterns actually fire
    // on this workload" without rerunning the benchmark.
    std::map<std::string, std::int64_t> fusion;
    for (const auto& [name, v] : counters) {
      if (name.rfind("rt.fused", 0) == 0) fusion[name] = v;
    }
    if (!fusion.empty()) {
      auto fval = [&](const char* k) {
        return fusion.count(k) ? fusion[k] : std::int64_t{0};
      };
      std::cout << "\nFusion (superinstruction predecode):\n";
      Table t({"fusion counter", "value"});
      for (const auto& [name, v] : fusion) {
        if (name.rfind("rt.fused_rule.", 0) != 0 && name.rfind("rt.fused_imm_rule.", 0) != 0) {
          t.add_row({name, std::to_string(v)});
        }
      }
      t.render(std::cout);
      // Per-rule table: total sites rewritten alongside the immediate-form
      // subset, so a trace answers "which windows got their operands
      // captured" next to "which patterns fire at all".
      std::map<std::string, std::int64_t> rule_hits, rule_hits_imm;
      for (const auto& [name, v] : fusion) {
        if (name.rfind("rt.fused_imm_rule.", 0) == 0) {
          rule_hits_imm[name.substr(std::string("rt.fused_imm_rule.").size())] = v;
        } else if (name.rfind("rt.fused_rule.", 0) == 0) {
          rule_hits[name.substr(std::string("rt.fused_rule.").size())] = v;
        }
      }
      if (!rule_hits.empty() || !rule_hits_imm.empty()) {
        Table rt_table({"fusion rule", "sites rewritten", "immediate form"});
        for (const auto& [name, v] : rule_hits) {
          const auto imm = rule_hits_imm.find(name);
          rt_table.add_row({name, std::to_string(v),
                            std::to_string(imm == rule_hits_imm.end() ? 0 : imm->second)});
        }
        // Imm-only rules (no pool-less fallback) may publish only the imm
        // counter; surface them too instead of silently dropping the row.
        for (const auto& [name, v] : rule_hits_imm) {
          if (rule_hits.count(name) == 0) rt_table.add_row({name, "0", std::to_string(v)});
        }
        rt_table.render(std::cout);
      }
      const std::int64_t fired = fval("rt.fused_rules_fired");
      const std::int64_t eliminated = fval("rt.fused_insns_eliminated");
      if (fired > 0) {
        std::cout << "fusion: " << fired << " sites rewritten across "
                  << fval("rt.fused_bodies") << " bodies, " << eliminated
                  << " static dispatches eliminated ("
                  << cell(static_cast<double>(eliminated) / static_cast<double>(fired), 2)
                  << " insns folded per site); " << fval("rt.fused_imm_windows")
                  << " windows operand-captured, " << fval("rt.fused_imm_pool_overflows")
                  << " side-pool overflows\n";
      }
    }

    // Failures: the resilience layer's counters (guarded-run outcomes by
    // kind, retries, quarantine activity), pulled out of the counter table
    // into their own section so a chaos campaign's survival story is
    // readable at a glance.
    std::map<std::string, std::int64_t> failures;
    for (const auto& [name, v] : counters) {
      if (name.rfind("resil.", 0) == 0) failures[name] = v;
    }
    if (!failures.empty()) {
      const std::int64_t ok = failures.count("resil.outcome.ok") ? failures["resil.outcome.ok"] : 0;
      std::int64_t failed = 0;
      for (const char* k : {"resil.outcome.budget", "resil.outcome.trap", "resil.outcome.crash"}) {
        if (failures.count(k)) failed += failures[k];
      }
      Table t({"failure counter", "value"});
      for (const auto& [name, v] : failures) t.add_row({name, std::to_string(v)});
      std::cout << "\nFailures (guarded evaluation):\n";
      t.render(std::cout);
      const std::int64_t runs = ok + failed;
      if (runs > 0) {
        std::cout << "survival: " << ok << "/" << runs << " benchmark runs ok ("
                  << cell(100.0 * static_cast<double>(ok) / static_cast<double>(runs), 1)
                  << "%)\n";
      }
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
