#include "support/rng.hpp"

#include <cmath>

#include "support/error.hpp"

namespace ith {

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t seq) : state_(0), inc_((seq << 1u) | 1u) {
  operator()();
  state_ += seed;
  operator()();
}

void Pcg32::zero_bound() {
  detail::raise(__FILE__, __LINE__, "Pcg32::bounded requires bound > 0");
}

std::int64_t Pcg32::range(std::int64_t lo, std::int64_t hi) {
  ITH_CHECK(lo <= hi, "Pcg32::range requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit span: combine two 32-bit draws
    const std::uint64_t v = (static_cast<std::uint64_t>(operator()()) << 32) | operator()();
    return static_cast<std::int64_t>(v);
  }
  if (span <= std::numeric_limits<std::uint32_t>::max()) {
    return lo + static_cast<std::int64_t>(bounded(static_cast<std::uint32_t>(span)));
  }
  // Wide span: draw 64 bits and reject the biased tail.
  const std::uint64_t threshold = (0ULL - span) % span;
  for (;;) {
    const std::uint64_t v = (static_cast<std::uint64_t>(operator()()) << 32) | operator()();
    if (v >= threshold) return lo + static_cast<std::int64_t>(v % span);
  }
}

double Pcg32::uniform() {
  return static_cast<double>(operator()()) * 0x1.0p-32;
}

double Pcg32::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

bool Pcg32::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Pcg32::gaussian() {
  // Box-Muller; u1 is kept away from 0 so log() is finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-12);
  const double u2 = uniform();
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

Pcg32 Pcg32::split() {
  const std::uint64_t seed = (static_cast<std::uint64_t>(operator()()) << 32) | operator()();
  const std::uint64_t seq = (static_cast<std::uint64_t>(operator()()) << 32) | operator()();
  return Pcg32(seed, seq);
}

}  // namespace ith
