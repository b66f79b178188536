// perfbench: runs one benchmark workload and prints one JSON object.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// the per-layer metrics. It also carries every output check, the values
// that must repeat exactly for a seed, and the attempted/failed operation
// counts. run.py builds this binary, runs it and validates the object.
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  if (why != nullptr) std::cerr << "perfbench: " << why << "\n";
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]\n"
               "workloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print(const perfbench::Result& r) {
  std::string out = "{\"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"rounds\": " + std::to_string(r.rounds) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, m] = r.metrics[i];
    out += (i > 0 ? ", " : "") + quote(name) + ": {\"value\": " + perfbench::exact(m.value) +
           ", \"unit\": " + quote(m.unit) + "}";
  }
  out += "}, \"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    out += (i > 0 ? ", " : "") + quote(r.info[i].first) + ": " + perfbench::exact(r.info[i].second);
  }
  out += "}, \"deterministic\": {";
  bool first = true;
  for (const auto& [name, value] : r.deterministic) {
    out += (first ? "" : ", ") + quote(name) + ": " + quote(value);
    first = false;
  }
  out += "}, \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const auto& c = r.checks[i];
    out += (i > 0 ? ", " : "") + std::string("{\"name\": ") + quote(c.name) +
           ", \"ok\": " + (c.ok ? "true" : "false") + ", \"detail\": " + quote(c.detail) + "}";
  }
  out += "], \"compiler\": " + quote(r.compiler) + "}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--help" && arg != "-h") {
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      value = argv[++i];
    }
    try {
      if (arg == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--scratch") {
        o.scratch = value;
      } else if (arg == "--help" || arg == "-h") {
        return usage(nullptr);
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known = known || w == o.workload;
  if (!have_workload || !known) return usage("--workload names no workload");

  try {
    perfbench::Result r = perfbench::run_workload(o);
#if defined(__clang__)
    r.compiler = "Clang " __clang_version__;
#elif defined(__GNUC__)
    r.compiler = "GCC " __VERSION__;
#endif
    print(r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
