#include "util/rng.h"

#include <cmath>

#include "util/status.h"

namespace dust {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    s = SplitMix64(s);
    word = s;
  }
  // Avoid the (astronomically unlikely) all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBelow(uint64_t n) {
  DUST_CHECK(n > 0);
  // Lemire-style rejection to avoid modulo bias.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = (0 - n) % n;
    while (l < t) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  DUST_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBelow(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextGaussian() {
  if (have_gauss_) {
    have_gauss_ = false;
    return cached_gauss_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gauss_ = r * std::sin(theta);
  have_gauss_ = true;
  return r * std::cos(theta);
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  Shuffle(&idx);
  return idx;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  DUST_CHECK(k <= n);
  // Partial Fisher-Yates over an index vector; O(n) setup, O(k) draws.
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + NextBelow(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace dust
