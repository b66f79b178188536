// Online profile data, the adaptive scenario's input: per-method invocation
// and back-edge counters (hot-method detection) and per-call-site execution
// counts (hot-call-site detection for the Figure 4 heuristic path).
#pragma once

#include <cstdint>
#include <vector>

#include "bytecode/method.hpp"

namespace ith::rt {

class ProfileData {
 public:
  explicit ProfileData(std::size_t num_methods);

  void record_invocation(bc::MethodId m) { ++methods_[check(m)].invocations; }
  void record_back_edge(bc::MethodId m) { ++methods_[check(m)].back_edges; }
  /// Counts one execution of the call written at `origin_pc` of
  /// `origin_method`. A synthetic instruction (negative origin) has nothing
  /// to attribute and is ignored.
  void record_call_site(bc::MethodId origin_method, std::int32_t origin_pc);

  std::uint64_t invocations(bc::MethodId m) const { return methods_[check(m)].invocations; }
  std::uint64_t back_edges(bc::MethodId m) const { return methods_[check(m)].back_edges; }

  /// The adaptive controller's hotness score: invocations plus back edges
  /// (a method stuck in one long loop is as hot as one called constantly).
  std::uint64_t hot_score(bc::MethodId m) const;

  std::uint64_t site_count(bc::MethodId origin_method, std::int32_t origin_pc) const;

  /// One call site as a single ordered key: the method in the high word,
  /// the pc in the low word.
  static std::uint64_t site_key(bc::MethodId origin_method, std::int32_t origin_pc) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin_method)) << 32) |
           static_cast<std::uint32_t>(origin_pc);
  }

  /// Overwrites `out` with the site_key of every recorded site whose count
  /// has reached `threshold`, ascending.
  void hot_sites(std::uint64_t threshold, std::vector<std::uint64_t>& out) const;

  void clear();

 private:
  struct MethodCounters {
    std::uint64_t invocations = 0;
    std::uint64_t back_edges = 0;
  };

  std::size_t check(bc::MethodId m) const;

  mutable std::vector<MethodCounters> methods_;
  /// Call-site counts: sites_[method][origin pc], grown on first record.
  /// Every dynamic call lands here, so an index, not a search.
  std::vector<std::vector<std::uint64_t>> sites_;
};

}  // namespace ith::rt
