#include "la/distance.h"

#include <algorithm>
#include <cmath>

#include "la/simd/kernels.h"
#include "util/status.h"
#include "util/string_util.h"

namespace dust::la {

Result<Metric> MetricFromName(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "cosine") return Metric::kCosine;
  if (lower == "euclidean" || lower == "l2") return Metric::kEuclidean;
  if (lower == "manhattan" || lower == "l1") return Metric::kManhattan;
  return Status::InvalidArgument(
      "unknown metric \"" + name +
      "\" (expected cosine, euclidean/l2, or manhattan/l1)");
}

const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kCosine:
      return "cosine";
    case Metric::kEuclidean:
      return "euclidean";
    case Metric::kManhattan:
      return "manhattan";
  }
  // A value outside the enum means a corrupted tag (bad snapshot bytes, a
  // memcpy'd struct); naming it "?" would let it keep flowing. Abort.
  DUST_CHECK(false && "invalid Metric enum value");
  return "";
}

float CosineSimilarity(const Vec& a, const Vec& b) {
  DUST_CHECK(a.size() == b.size());
  float dot = 0.0f, a2 = 0.0f, b2 = 0.0f;
  simd::Active().cosine_terms(a.data(), b.data(), a.size(), &dot, &a2, &b2);
  float na = std::sqrt(a2);
  float nb = std::sqrt(b2);
  if (na == 0.0f && nb == 0.0f) return 1.0f;  // identical zero vectors
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  float sim = dot / (na * nb);
  if (sim > 1.0f) sim = 1.0f;
  if (sim < -1.0f) sim = -1.0f;
  return sim;
}

float CosineDistance(const Vec& a, const Vec& b) {
  return 1.0f - CosineSimilarity(a, b);
}

float SquaredEuclideanDistance(const Vec& a, const Vec& b) {
  DUST_CHECK(a.size() == b.size());
  return simd::Active().squared_l2(a.data(), b.data(), a.size());
}

float EuclideanDistance(const Vec& a, const Vec& b) {
  return std::sqrt(SquaredEuclideanDistance(a, b));
}

float ManhattanDistance(const Vec& a, const Vec& b) {
  DUST_CHECK(a.size() == b.size());
  return simd::Active().l1(a.data(), b.data(), a.size());
}

float Distance(Metric metric, const Vec& a, const Vec& b) {
  switch (metric) {
    case Metric::kCosine:
      return CosineDistance(a, b);
    case Metric::kEuclidean:
      return EuclideanDistance(a, b);
    case Metric::kManhattan:
      return ManhattanDistance(a, b);
  }
  // Returning 0.0f here would report every pair as identical under a
  // corrupted metric tag — the worst possible silent failure for a
  // distance function. Abort instead.
  DUST_CHECK(false && "invalid Metric enum value");
  return 0.0f;
}

std::vector<float> NormsOf(const std::vector<Vec>& base) {
  const simd::Kernels& ops = simd::Active();
  std::vector<float> norms(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    norms[i] = std::sqrt(ops.norm_squared(base[i].data(), base[i].size()));
  }
  return norms;
}

namespace {

/// Shared one-to-many loop: the metric switch, backend lookup, and query
/// norm are hoisted out; `id_of(i)` maps output slot i to an index into
/// `base`. With `base_norms` cosine is one fused dot per candidate;
/// without, one fused pass computing dot and candidate norm together.
template <typename IdOf>
void DistanceToManyImpl(Metric metric, const Vec& query,
                        const std::vector<Vec>& base, const float* base_norms,
                        size_t count, float* out, IdOf id_of) {
  const simd::Kernels& ops = simd::Active();
  const float* q = query.data();
  const size_t dim = query.size();
  switch (metric) {
    case Metric::kCosine: {
      const float query_norm = std::sqrt(ops.norm_squared(q, dim));
      for (size_t i = 0; i < count; ++i) {
        const size_t id = id_of(i);
        const Vec& v = base[id];
        DUST_CHECK(v.size() == dim);
        if (base_norms != nullptr) {
          out[i] = CosineDistanceFromDot(ops.dot(q, v.data(), dim),
                                         query_norm, base_norms[id]);
        } else {
          // cosine_terms redundantly re-reduces |q|^2 here, but the single
          // fused pass still beats two separate passes (dot + |v|^2): one
          // extra FMA stream costs less than re-streaming v from memory.
          float dot = 0.0f, q2 = 0.0f, v2 = 0.0f;
          ops.cosine_terms(q, v.data(), dim, &dot, &q2, &v2);
          out[i] = CosineDistanceFromDot(dot, query_norm, std::sqrt(v2));
        }
      }
      return;
    }
    case Metric::kEuclidean:
      for (size_t i = 0; i < count; ++i) {
        const Vec& v = base[id_of(i)];
        DUST_CHECK(v.size() == dim);
        out[i] = std::sqrt(ops.squared_l2(q, v.data(), dim));
      }
      return;
    case Metric::kManhattan:
      for (size_t i = 0; i < count; ++i) {
        const Vec& v = base[id_of(i)];
        DUST_CHECK(v.size() == dim);
        out[i] = ops.l1(q, v.data(), dim);
      }
      return;
  }
  DUST_CHECK(false && "invalid Metric enum value");
}

}  // namespace

void DistanceToMany(Metric metric, const Vec& query,
                    const std::vector<Vec>& base, std::vector<float>* out) {
  out->resize(base.size());
  DistanceToManyImpl(metric, query, base, nullptr, base.size(), out->data(),
                     [](size_t i) { return i; });
}

void DistanceToMany(Metric metric, const Vec& query,
                    const std::vector<Vec>& base,
                    const std::vector<float>& base_norms,
                    std::vector<float>* out) {
  DUST_CHECK(base_norms.size() == base.size());
  out->resize(base.size());
  DistanceToManyImpl(metric, query, base, base_norms.data(), base.size(),
                     out->data(), [](size_t i) { return i; });
}

void DistanceToMany(Metric metric, const Vec& query,
                    const std::vector<Vec>& base, const float* base_norms,
                    const uint32_t* ids, size_t count, float* out) {
  DistanceToManyImpl(metric, query, base, base_norms, count, out,
                     [ids](size_t i) { return static_cast<size_t>(ids[i]); });
}

void DistanceToMany(Metric metric, const Vec& query,
                    const std::vector<Vec>& base, const float* base_norms,
                    const size_t* ids, size_t count, float* out) {
  DistanceToManyImpl(metric, query, base, base_norms, count, out,
                     [ids](size_t i) { return ids[i]; });
}

DistanceMatrix::DistanceMatrix(const std::vector<Vec>& points, Metric metric)
    : n_(points.size()), data_(points.size() * points.size(), 0.0f) {
  if (n_ < 2) return;
  const simd::Kernels& ops = simd::Active();
  // One contiguous row-major block, so a tile's candidates are a strided
  // run for dot_rows instead of n separate heap vectors.
  const size_t dim = points[0].size();
  std::vector<float> packed(n_ * dim);
  for (size_t i = 0; i < n_; ++i) {
    DUST_CHECK(points[i].size() == dim);
    std::copy(points[i].begin(), points[i].end(), packed.begin() + i * dim);
  }
  auto point = [&](size_t i) { return packed.data() + i * dim; };
  // Only cosine reads the norm cache; with it each entry is one dot.
  std::vector<float> norms;
  if (metric == Metric::kCosine) norms = NormsOf(points);
  // out[c] = Distance(point(i), point(j + c)) for c in [0, count), with
  // the row point first, exactly as a one-to-many scan from point(i).
  auto fill_row = [&](size_t i, size_t j, size_t count, float* out) {
    switch (metric) {
      case Metric::kCosine:
        ops.dot_rows(point(i), point(j), dim, count, dim, out);
        for (size_t c = 0; c < count; ++c) {
          out[c] = CosineDistanceFromDot(out[c], norms[i], norms[j + c]);
        }
        return;
      case Metric::kEuclidean:
        for (size_t c = 0; c < count; ++c) {
          out[c] = std::sqrt(ops.squared_l2(point(i), point(j + c), dim));
        }
        return;
      case Metric::kManhattan:
        for (size_t c = 0; c < count; ++c) {
          out[c] = ops.l1(point(i), point(j + c), dim);
        }
        return;
    }
    DUST_CHECK(false && "invalid Metric enum value");
  };
  // Strict upper triangle in kTile x kTile tiles. Each tile's mirror goes
  // into the lower triangle while the tile is still in L1, as contiguous
  // runs rather than one n-float stride per entry.
  constexpr size_t kTile = 64;
  for (size_t i0 = 0; i0 < n_; i0 += kTile) {
    const size_t i1 = std::min(i0 + kTile, n_);
    for (size_t j0 = i0; j0 < n_; j0 += kTile) {
      const size_t j1 = std::min(j0 + kTile, n_);
      for (size_t i = i0; i < i1; ++i) {
        const size_t j = std::max(j0, i + 1);
        if (j < j1) fill_row(i, j, j1 - j, &data_[i * n_ + j]);
      }
      for (size_t j = j0; j < j1; ++j) {
        for (size_t i = i0; i < std::min(i1, j); ++i) {
          data_[j * n_ + i] = data_[i * n_ + j];
        }
      }
    }
  }
}

}  // namespace dust::la
