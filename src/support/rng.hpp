// Deterministic pseudo-random number generation.
//
// All stochastic components (workload generators, GA operators) draw from
// Pcg32 so that every experiment is exactly reproducible from a seed. PCG is
// used instead of std::mt19937 because its output is specified (portable
// across standard libraries) and its state is two 64-bit words, making
// fork()-style splitting for parallel evaluation cheap.
#pragma once

#include <cstdint>
#include <limits>

namespace ith {

/// PCG-XSH-RR 64/32 generator (O'Neill 2014). Satisfies
/// std::uniform_random_bit_generator.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  /// Seeds the generator. `seq` selects one of 2^63 independent streams.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL, std::uint64_t seq = 0xda3e39cb94b95bdbULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform integer in [0, bound), bias-free (rejection sampling). Throws
  /// ith::Error for a zero bound.
  std::uint32_t bounded(std::uint32_t bound) {
    if (bound == 0) [[unlikely]] zero_bound();
    // Rejection sampling: discard the non-multiple-of-bound tail of the range.
    const std::uint32_t threshold = static_cast<std::uint32_t>(-bound) % bound;
    for (;;) {
      const std::uint32_t r = operator()();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool chance(double p);

  /// Standard normal deviate (Box-Muller, one value per call).
  double gaussian();

  /// Returns a new independent generator derived from this one's stream.
  /// Used to hand child components their own deterministic streams.
  Pcg32 split();

  /// Raw generator state, for checkpoint/resume: restoring (state, inc)
  /// continues the stream bit-identically. `inc` must come from a prior
  /// raw_inc() (the constructor guarantees it is odd).
  std::uint64_t raw_state() const { return state_; }
  std::uint64_t raw_inc() const { return inc_; }
  void restore(std::uint64_t state, std::uint64_t inc) {
    state_ = state;
    inc_ = inc | 1u;  // an even increment would degrade the LCG
  }

 private:
  [[noreturn]] static void zero_bound();

  std::uint64_t state_;
  std::uint64_t inc_;
};

}  // namespace ith
