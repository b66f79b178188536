#include "serving/latency.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace ith::serving {

void LatencyDigest::add(std::uint64_t cycles) {
  samples_.push_back(cycles);
  sorted_ = samples_.size() <= 1;
  ITH_CHECK(total_ + cycles >= total_, "latency digest total overflow");
  total_ += cycles;
}

void LatencyDigest::merge(const LatencyDigest& other) {
  if (other.samples_.empty()) return;
  const std::size_t mid = samples_.size();
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  // Two sorted digests merge in linear time and stay sorted.
  sorted_ = sorted_ && other.sorted_;
  if (sorted_) {
    std::inplace_merge(samples_.begin(), samples_.begin() + static_cast<std::ptrdiff_t>(mid),
                       samples_.end());
  }
  ITH_CHECK(total_ + other.total_ >= total_, "latency digest total overflow");
  total_ += other.total_;
}

const std::vector<std::uint64_t>& LatencyDigest::sorted_samples() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return samples_;
}

std::uint64_t LatencyDigest::quantile(double q) const {
  ITH_CHECK(!samples_.empty(), "quantile of an empty digest");
  ITH_CHECK(q >= 0.0 && q <= 1.0, "quantile out of [0,1]");
  const std::vector<std::uint64_t>& s = sorted_samples();
  // Nearest rank: the smallest sample with at least q*n samples <= it.
  const double exact = q * static_cast<double>(s.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact));
  if (rank == 0) rank = 1;
  if (rank > s.size()) rank = s.size();
  return s[rank - 1];
}

std::uint64_t LatencyDigest::mean() const {
  ITH_CHECK(!samples_.empty(), "mean of an empty digest");
  return total_ / samples_.size();
}

}  // namespace ith::serving
