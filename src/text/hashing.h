// 64-bit string hashing for the feature-hashing trick.
//
// The hashed encoders (DESIGN.md §1) replace pre-trained transformer weights
// with deterministic token hashing: each token is mapped to a dimension and a
// sign, and a text is the sum of its token features. Different "models" use
// different hash seeds, so their embedding spaces are independent — mirroring
// the fact that BERT and RoBERTa embed text into unrelated spaces.
//
// The incremental form (HashBasis / HashByte / HashBytes / HashFinish) lets a
// feature's bytes be fed in pieces straight from the text being tokenized, so
// the encoders hash features without building them as strings
// (embed::ForEachFeatureHash).
#ifndef DUST_TEXT_HASHING_H_
#define DUST_TEXT_HASHING_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace dust::text {

/// Starting state of a hash with `seed`; compute once, reuse per feature.
inline uint64_t HashBasis(uint64_t seed) {
  return 14695981039346656037ULL ^ SplitMix64(seed);
}

/// One FNV-1a step.
inline uint64_t HashByte(uint64_t h, unsigned char c) {
  return (h ^ c) * 1099511628211ULL;
}

inline uint64_t HashBytes(uint64_t h, std::string_view s) {
  for (char c : s) h = HashByte(h, static_cast<unsigned char>(c));
  return h;
}

/// Final avalanche so low bits are well mixed for modulo indexing.
inline uint64_t HashFinish(uint64_t h) { return SplitMix64(h); }

/// Feature-hashing slot of hash `h` in `dim` dimensions: h % dim, taken
/// with a mask when dim is a power of two (no 64-bit division per feature).
inline size_t HashIndex(uint64_t h, size_t dim) {
  return (dim & (dim - 1)) == 0 ? h & (dim - 1) : h % dim;
}

/// Feature-hashing sign of hash `h`: its top bit.
inline float HashSign(uint64_t h) { return (h >> 63) ? 1.0f : -1.0f; }

/// FNV-1a 64-bit hash, optionally mixed with a seed:
/// HashFinish(HashBytes(HashBasis(seed), s)).
uint64_t HashString(std::string_view s, uint64_t seed = 0);

/// Sparse feature view: index/value pairs, indices ascending and unique,
/// no zero values. The frozen features of the trainable DUST model
/// (nn::DustModel::Featurize).
struct SparseVector {
  std::vector<uint32_t> indices;
  std::vector<float> values;
};

}  // namespace dust::text

#endif  // DUST_TEXT_HASHING_H_
