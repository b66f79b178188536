// Set-associative LRU instruction-cache simulator.
//
// The interpreter probes it on every cache-line transition of the simulated
// instruction pointer; misses add the machine's miss penalty to the cycle
// count. This is the term that penalizes code growth from aggressive
// inlining and drives the architecture-dependent tuning results.
//
// Each set keeps its lines in recency order: way 0 holds the most recently
// used line, the last way the least recently used one, and empty ways sit
// at the tail. A hit on way 0 — most probes of a running loop — is one
// inline load and compare; anything else moves the line to the front, and
// a miss drops the last way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ith::rt {

class ICache {
 public:
  /// Geometry: total bytes, line bytes, associativity. Line bytes, the
  /// associativity and the resulting set count must be powers of two, and
  /// bytes % (line*assoc) == 0.
  ICache(std::size_t total_bytes, std::size_t line_bytes, std::size_t assoc);

  /// Looks up the line containing `address`; fills on miss. Returns true on
  /// hit.
  bool probe(std::uint64_t address) { return probe_line(address >> line_shift_); }

  /// Same as probe() for the line index `address / line_bytes()`.
  bool probe_line(std::uint64_t line) {
    std::uint64_t* const ways = &lines_[(static_cast<std::size_t>(line) & set_mask_) << assoc_shift_];
    return ways[0] == line || probe_older(ways, line);
  }

  /// Invalidates everything (used between cold-start experiments).
  void flush();

  std::size_t num_sets() const { return set_mask_ + 1; }
  std::size_t associativity() const { return assoc_; }
  std::size_t line_bytes() const { return std::size_t{1} << line_shift_; }

 private:
  /// The way-0 miss: scans ways 1.. of the set, then makes `line` its MRU.
  bool probe_older(std::uint64_t* ways, std::uint64_t line);

  std::size_t assoc_;
  std::size_t assoc_shift_ = 0;  ///< log2(assoc_): a set's first way, without a multiply
  std::size_t set_mask_ = 0;
  std::uint64_t line_shift_ = 0;
  // lines_[set*assoc + rank] = line index, rank 0 most recent (kInvalid
  // when empty). Comparing whole line indices within a set is comparing
  // tags.
  std::vector<std::uint64_t> lines_;

  static constexpr std::uint64_t kInvalid = ~0ULL;
};

}  // namespace ith::rt
