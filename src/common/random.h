// Deterministic pseudo-random number generation.
//
// Every experiment owns a seeded `Rng`; all stochastic choices (failure
// sites, workload permutations, LDP position proposals) flow from it so
// runs are exactly reproducible. The generator is xoshiro256**, seeded via
// SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace portland {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform in [0, 2^64).
  [[nodiscard]] std::uint64_t next();

  /// Uniform in [0, bound); bound must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double();

  /// Bernoulli trial with probability p of returning true.
  [[nodiscard]] bool chance(double p);

  /// Exponentially distributed value with the given mean (> 0).
  [[nodiscard]] double exponential(double mean);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Picks `count` distinct indices from [0, n). Throws
  /// std::invalid_argument when count > n.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n,
                                                        std::size_t count);

  /// Derives an independent child generator (for subsystems that must not
  /// perturb each other's streams).
  [[nodiscard]] Rng fork();

  /// Raw generator state, for checkpoint/restore. A generator with its
  /// state restored continues the exact sequence the saved one would have
  /// produced.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    s_[0] = s[0];
    s_[1] = s[1];
    s_[2] = s[2];
    s_[3] = s[3];
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace portland
