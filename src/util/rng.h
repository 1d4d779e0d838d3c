// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library takes an explicit seed so that
// experiments are reproducible bit-for-bit across runs. The generator is
// xoshiro256**, seeded via SplitMix64 (both public-domain algorithms).
#ifndef DUST_UTIL_RNG_H_
#define DUST_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dust {

/// Deterministic 64-bit PRNG (xoshiro256** seeded via SplitMix64).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextBelow(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Standard normal variate (Box-Muller).
  double NextGaussian();

  /// Returns true with probability p.
  bool NextBernoulli(double p);

  /// Fisher-Yates shuffle of [0, n) indices.
  std::vector<std::size_t> Permutation(std::size_t n);

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n, std::size_t k);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = NextBelow(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool have_gauss_ = false;
  double cached_gauss_ = 0.0;
};

/// SplitMix64 single step; also usable as a cheap 64-bit mixer/hash.
/// Inline: the feature hashers call it once per feature.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace dust

#endif  // DUST_UTIL_RNG_H_
