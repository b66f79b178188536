// LatencyDigest: exact per-request latency percentiles.
//
// The serving tier's latencies are *simulated cycles* — deterministic
// integers, a few thousand to a few million per request — so there is no
// reason to pay an approximation (t-digest, HDR buckets) anywhere: the
// digest simply keeps every sample and sorts lazily. Quantiles are exact
// nearest-rank, merge is concatenation (a linear merge of two sorted
// digests), and both are associative and
// order-independent, which is what lets per-instance shards be merged into
// one suite-wide digest regardless of how the thread pool interleaved the
// instances (tested by tests/serving/latency_digest_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ith::serving {

class LatencyDigest {
 public:
  void add(std::uint64_t cycles);

  /// Absorbs every sample of `other`. Associative and commutative up to
  /// sample multiset equality: quantiles of (a+b)+c equal a+(b+c) for any
  /// grouping, so worker shards can merge in any order. When both digests
  /// are sorted (see sorted_samples()), the merge is linear and the result
  /// stays sorted.
  void merge(const LatencyDigest& other);

  /// Exact nearest-rank quantile: the ceil(q*n)-th smallest sample (q in
  /// [0,1]; q=0 yields the minimum, q=1 the maximum). Requires count() > 0.
  std::uint64_t quantile(double q) const;

  std::uint64_t p50() const { return quantile(0.50); }
  std::uint64_t p95() const { return quantile(0.95); }
  std::uint64_t p99() const { return quantile(0.99); }

  std::size_t count() const { return samples_.size(); }
  std::uint64_t min() const { return quantile(0.0); }
  std::uint64_t max() const { return quantile(1.0); }
  /// Arithmetic mean, rounded down. Requires count() > 0.
  std::uint64_t mean() const;
  /// Sum of all samples (exact; throws ith::Error on overflow).
  std::uint64_t total() const { return total_; }

  /// All samples in ascending order (sorts on first access after a mutation).
  const std::vector<std::uint64_t>& sorted_samples() const;

 private:
  mutable std::vector<std::uint64_t> samples_;
  mutable bool sorted_ = true;
  std::uint64_t total_ = 0;
};

}  // namespace ith::serving
