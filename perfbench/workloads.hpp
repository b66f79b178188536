// The benchmark's workloads: each turns one Options into one Result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's temporary files (cache snapshots, sockets).
  std::string scratch = ".";
};

const std::vector<std::string>& workload_names();

Result run_workload(const Options& o);

}  // namespace perfbench
