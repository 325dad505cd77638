#ifndef NLIDB_COMMON_RNG_H_
#define NLIDB_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nlidb {

/// Deterministic pseudo-random number generator (splitmix64 + xoshiro256**).
///
/// Every stochastic component in the library (weight init, data generation,
/// dropout, sampling) draws from an explicitly seeded `Rng` so that all
/// experiments are bit-for-bit reproducible across runs.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextUint64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int NextInt(int lo, int hi);

  /// Uniform float in [0, 1).
  float NextFloat();

  /// Uniform float in [lo, hi).
  float NextFloat(float lo, float hi);

  /// Standard normal via Box-Muller.
  float NextGaussian();

  /// Bernoulli draw with probability `p` of true.
  bool NextBool(float p = 0.5f);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.empty()) return;
    for (size_t i = items.size() - 1; i > 0; --i) {
      size_t j = NextUint64(i + 1);
      std::swap(items[i], items[j]);
    }
  }

  /// Returns a reference to an element chosen uniformly at random.
  template <typename T>
  const T& Choice(const std::vector<T>& items) {
    return items[NextUint64(items.size())];
  }

 private:
  uint64_t s_[4];
  bool has_spare_gaussian_ = false;
  float spare_gaussian_ = 0.0f;
};

}  // namespace nlidb

#endif  // NLIDB_COMMON_RNG_H_
