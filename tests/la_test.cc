// Unit + property tests for src/la: vector ops, distances, matrices, PCA,
// and the runtime-dispatched SIMD kernel backends.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "la/distance.h"
#include "la/matrix.h"
#include "la/pca.h"
#include "la/simd/kernels.h"
#include "la/vector_ops.h"
#include "util/rng.h"

namespace dust::la {
namespace {

TEST(VectorOpsTest, DotAndNorm) {
  Vec a = {1, 2, 3};
  Vec b = {4, -5, 6};
  EXPECT_FLOAT_EQ(Dot(a, b), 4 - 10 + 18);
  EXPECT_FLOAT_EQ(NormSquared(a), 14.0f);
  EXPECT_FLOAT_EQ(Norm(a), std::sqrt(14.0f));
}

TEST(VectorOpsTest, AddSubScale) {
  Vec a = {1, 2};
  Vec b = {3, 4};
  EXPECT_EQ(Add(a, b), (Vec{4, 6}));
  EXPECT_EQ(Sub(b, a), (Vec{2, 2}));
  Vec c = a;
  ScaleInPlace(&c, 2.0f);
  EXPECT_EQ(c, (Vec{2, 4}));
}

TEST(VectorOpsTest, NormalizeUnitLength) {
  Vec a = {3, 4};
  NormalizeInPlace(&a);
  EXPECT_NEAR(Norm(a), 1.0f, 1e-6);
  EXPECT_NEAR(a[0], 0.6f, 1e-6);
}

TEST(VectorOpsTest, NormalizeZeroVectorIsNoop) {
  Vec z = {0, 0, 0};
  NormalizeInPlace(&z);
  EXPECT_EQ(z, (Vec{0, 0, 0}));
}

TEST(VectorOpsTest, MeanOfVectors) {
  std::vector<Vec> vs = {{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(Mean(vs), (Vec{3, 4}));
  EXPECT_EQ(MeanOf(vs, {0, 2}), (Vec{3, 4}));
  EXPECT_EQ(MeanOf(vs, {1}), (Vec{3, 4}));
}

TEST(DistanceTest, CosineIdenticalIsZero) {
  Vec a = {1, 2, 3};
  EXPECT_NEAR(CosineDistance(a, a), 0.0f, 1e-6);
}

TEST(DistanceTest, CosineOrthogonalIsOne) {
  Vec a = {1, 0};
  Vec b = {0, 1};
  EXPECT_NEAR(CosineDistance(a, b), 1.0f, 1e-6);
}

TEST(DistanceTest, CosineOppositeIsTwo) {
  Vec a = {1, 0};
  Vec b = {-2, 0};
  EXPECT_NEAR(CosineDistance(a, b), 2.0f, 1e-6);
}

TEST(DistanceTest, CosineScaleInvariant) {
  Vec a = {1, 2, 3};
  Vec b = {2, 1, 0};
  Vec b10 = b;
  ScaleInPlace(&b10, 10.0f);
  EXPECT_NEAR(CosineDistance(a, b), CosineDistance(a, b10), 1e-6);
}

TEST(DistanceTest, ZeroVectorConventions) {
  Vec z = {0, 0};
  Vec a = {1, 1};
  EXPECT_NEAR(CosineDistance(z, z), 0.0f, 1e-6);  // delta(t,t)=0
  EXPECT_NEAR(CosineDistance(z, a), 1.0f, 1e-6);
}

TEST(DistanceTest, EuclideanAndManhattan) {
  Vec a = {0, 0};
  Vec b = {3, 4};
  EXPECT_FLOAT_EQ(EuclideanDistance(a, b), 5.0f);
  EXPECT_FLOAT_EQ(SquaredEuclideanDistance(a, b), 25.0f);
  EXPECT_FLOAT_EQ(ManhattanDistance(a, b), 7.0f);
}

TEST(DistanceTest, MetricNameRoundTrip) {
  EXPECT_EQ(MetricFromName("cosine").ValueOrDie(), Metric::kCosine);
  EXPECT_EQ(MetricFromName("Euclidean").ValueOrDie(), Metric::kEuclidean);
  EXPECT_EQ(MetricFromName("L1").ValueOrDie(), Metric::kManhattan);
  EXPECT_STREQ(MetricName(Metric::kCosine), "cosine");
}

TEST(DistanceTest, MetricFromNameRejectsUnknownSpellings) {
  // The old behavior silently mapped typos to cosine — an index built with
  // "euclidian" would serve cosine distances without anyone noticing.
  for (const char* bad : {"euclidian", "cos", "L3", "", "manhatan"}) {
    Result<Metric> parsed = MetricFromName(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// Property suite: metric axioms (identity, symmetry, triangle inequality
// for the true metrics) hold on random vectors for every distance.
class MetricPropertyTest : public ::testing::TestWithParam<Metric> {};

TEST_P(MetricPropertyTest, IdentityAndSymmetry) {
  Metric metric = GetParam();
  dust::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    Vec a(8), b(8);
    for (float& x : a) x = static_cast<float>(rng.NextGaussian());
    for (float& x : b) x = static_cast<float>(rng.NextGaussian());
    EXPECT_NEAR(Distance(metric, a, a), 0.0f, 1e-5);
    EXPECT_NEAR(Distance(metric, a, b), Distance(metric, b, a), 1e-5);
    EXPECT_GE(Distance(metric, a, b), -1e-6f);
  }
}

TEST_P(MetricPropertyTest, TriangleInequalityForTrueMetrics) {
  Metric metric = GetParam();
  if (metric == Metric::kCosine) GTEST_SKIP() << "cosine is not a metric";
  dust::Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    Vec a(6), b(6), c(6);
    for (float& x : a) x = static_cast<float>(rng.NextGaussian());
    for (float& x : b) x = static_cast<float>(rng.NextGaussian());
    for (float& x : c) x = static_cast<float>(rng.NextGaussian());
    EXPECT_LE(Distance(metric, a, c),
              Distance(metric, a, b) + Distance(metric, b, c) + 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricPropertyTest,
                         ::testing::Values(Metric::kCosine, Metric::kEuclidean,
                                           Metric::kManhattan));

// --- SIMD kernel backends ---------------------------------------------------

Vec RandomVec(size_t dim, dust::Rng* rng) {
  Vec v(dim);
  for (float& x : v) x = static_cast<float>(rng->NextGaussian());
  return v;
}

/// SIMD-vs-scalar parity over random vectors at awkward sizes: empty, below
/// one SIMD lane, straddling the 8-lane and 2x8 unrolled boundaries, and a
/// realistic embedding width.
class KernelParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelParityTest, BackendsAgreeWithinTolerance) {
  const size_t dim = GetParam();
  const simd::Kernels& scalar = simd::ScalarKernels();
  // Active() may itself be scalar (DUST_FORCE_SCALAR or no AVX2); also pit
  // the AVX2 backend against scalar explicitly whenever the CPU has it.
  std::vector<const simd::Kernels*> backends = {&simd::Active()};
  if (simd::Avx2Available()) backends.push_back(&simd::Avx2Kernels());

  dust::Rng rng(1234 + dim);
  for (int trial = 0; trial < 20; ++trial) {
    Vec a = RandomVec(dim, &rng);
    Vec b = RandomVec(dim, &rng);
    const float want_dot = scalar.dot(a.data(), b.data(), dim);
    const float want_norm = scalar.norm_squared(a.data(), dim);
    const float want_l2 = scalar.squared_l2(a.data(), b.data(), dim);
    const float want_l1 = scalar.l1(a.data(), b.data(), dim);
    for (const simd::Kernels* ops : backends) {
      // 1e-5 relative: different accumulation orders legitimately differ in
      // the last float bits on long vectors.
      auto tol = [](float want) { return 1e-5f * (1.0f + std::fabs(want)); };
      EXPECT_NEAR(ops->dot(a.data(), b.data(), dim), want_dot, tol(want_dot))
          << ops->name << " dim " << dim;
      EXPECT_NEAR(ops->norm_squared(a.data(), dim), want_norm,
                  tol(want_norm))
          << ops->name << " dim " << dim;
      EXPECT_NEAR(ops->squared_l2(a.data(), b.data(), dim), want_l2,
                  tol(want_l2))
          << ops->name << " dim " << dim;
      EXPECT_NEAR(ops->l1(a.data(), b.data(), dim), want_l1, tol(want_l1))
          << ops->name << " dim " << dim;
      float dot = 0.0f, a2 = 0.0f, b2 = 0.0f;
      ops->cosine_terms(a.data(), b.data(), dim, &dot, &a2, &b2);
      EXPECT_NEAR(dot, want_dot, tol(want_dot)) << ops->name;
      EXPECT_NEAR(a2, scalar.norm_squared(a.data(), dim), tol(a2))
          << ops->name;
      EXPECT_NEAR(b2, scalar.norm_squared(b.data(), dim), tol(b2))
          << ops->name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AwkwardDims, KernelParityTest,
                         ::testing::Values(0, 1, 7, 31, 33, 1024));

/// Both backends, whether or not DUST_FORCE_SCALAR pins Active().
std::vector<const simd::Kernels*> AllBackends() {
  std::vector<const simd::Kernels*> backends = {&simd::ScalarKernels()};
  if (simd::Avx2Available()) backends.push_back(&simd::Avx2Kernels());
  return backends;
}

uint32_t Bits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

TEST(KernelDotRowsTest, BitIdenticalToOneDotPerCandidate) {
  dust::Rng rng(4242);
  for (const simd::Kernels* ops : AllBackends()) {
    for (size_t n = 0; n <= 40; ++n) {
      for (size_t count = 0; count <= 9; ++count) {
        // A stride past n, so the kernel must not assume packed rows.
        const size_t stride = n + 3;
        Vec a = RandomVec(n, &rng);
        Vec base = RandomVec(count * stride, &rng);
        std::vector<float> out(count, -1.0f);
        ops->dot_rows(a.data(), base.data(), stride, count, n, out.data());
        for (size_t c = 0; c < count; ++c) {
          const float want = ops->dot(a.data(), base.data() + c * stride, n);
          EXPECT_EQ(Bits(out[c]), Bits(want))
              << ops->name << " n " << n << " count " << count << " c " << c;
        }
      }
    }
  }
}

/// First index of the minimum of row + mask below +inf, n if none.
size_t ReferenceMaskedArgmin(const std::vector<float>& row,
                             const std::vector<float>& mask, float* best) {
  *best = std::numeric_limits<float>::infinity();
  size_t arg = row.size();
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i] + mask[i] < *best) {
      *best = row[i] + mask[i];
      arg = i;
    }
  }
  return arg;
}

TEST(KernelMaskedArgminTest, FirstMinimumWithTiesMasksAndTails) {
  const float inf = std::numeric_limits<float>::infinity();
  dust::Rng rng(777);
  for (const simd::Kernels* ops : AllBackends()) {
    for (size_t n = 0; n <= 40; ++n) {
      for (int trial = 0; trial < 20; ++trial) {
        // Values from {0, 1, 2, 3} force ties; about a third are masked.
        std::vector<float> row(n), mask(n);
        for (size_t i = 0; i < n; ++i) {
          row[i] = static_cast<float>(rng.NextBelow(4));
          mask[i] = rng.NextBelow(3) == 0 ? inf : 0.0f;
        }
        float want_best = 0.0f, best = -1.0f;
        const size_t want = ReferenceMaskedArgmin(row, mask, &want_best);
        EXPECT_EQ(ops->masked_argmin(row.data(), mask.data(), n, &best),
                  want)
            << ops->name << " n " << n;
        EXPECT_EQ(best, want_best) << ops->name << " n " << n;
      }
    }
  }
}

TEST(KernelMaskedArgminTest, EdgeCases) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const simd::Kernels* ops : AllBackends()) {
    for (size_t n : {1u, 7u, 8u, 9u, 16u, 17u, 33u}) {
      float best = 0.0f;
      // Everything masked, or everything at +inf: no winner.
      std::vector<float> row(n, 1.0f), mask(n, inf);
      EXPECT_EQ(ops->masked_argmin(row.data(), mask.data(), n, &best), n);
      EXPECT_EQ(best, inf);
      std::vector<float> far(n, inf), live(n, 0.0f);
      EXPECT_EQ(ops->masked_argmin(far.data(), live.data(), n, &best), n);
      // The minimum in the last lane, behind a masked smaller value and a
      // NaN, wins over every earlier entry.
      row.assign(n, 5.0f);
      row[n - 1] = 2.0f;
      row[0] = nan;
      mask.assign(n, 0.0f);
      if (n > 2) {
        row[1] = -1.0f;
        mask[1] = inf;
      }
      const size_t want = n == 1 ? n : n - 1;
      EXPECT_EQ(ops->masked_argmin(row.data(), mask.data(), n, &best), want)
          << ops->name << " n " << n;
      if (want < n) {
        EXPECT_EQ(best, 2.0f);
      }
      // Every entry tied: the first live one wins.
      std::vector<float> tied(n, 3.0f);
      mask.assign(n, 0.0f);
      mask[0] = inf;
      EXPECT_EQ(ops->masked_argmin(tied.data(), mask.data(), n, &best),
                n == 1 ? n : 1u);
    }
  }
}

TEST(SimdDispatchTest, ForceScalarSwapsBackend) {
  simd::ForceScalar(true);
  EXPECT_STREQ(simd::ActiveName(), "scalar");
  simd::ForceScalar(false);  // back to the startup selection
  const std::string name = simd::ActiveName();
  EXPECT_TRUE(name == "scalar" || name == "avx2") << name;
}

TEST(DistanceToManyTest, MatchesPairwiseDistanceAcrossOverloads) {
  dust::Rng rng(77);
  for (size_t dim : {1u, 7u, 33u, 128u}) {
    std::vector<Vec> base;
    for (int i = 0; i < 17; ++i) base.push_back(RandomVec(dim, &rng));
    Vec query = RandomVec(dim, &rng);
    const std::vector<float> norms = NormsOf(base);
    ASSERT_EQ(norms.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_NEAR(norms[i], Norm(base[i]), 1e-5f);
    }

    for (Metric metric :
         {Metric::kCosine, Metric::kEuclidean, Metric::kManhattan}) {
      std::vector<float> plain, cached;
      DistanceToMany(metric, query, base, &plain);
      DistanceToMany(metric, query, base, norms, &cached);
      ASSERT_EQ(plain.size(), base.size());
      ASSERT_EQ(cached.size(), base.size());
      for (size_t i = 0; i < base.size(); ++i) {
        const float want = Distance(metric, query, base[i]);
        EXPECT_NEAR(plain[i], want, 1e-5f) << MetricName(metric);
        EXPECT_NEAR(cached[i], want, 1e-5f) << MetricName(metric);
      }

      // Gathered overloads (both id widths), against the same references.
      const std::vector<uint32_t> ids32 = {3, 0, 16, 7, 7};
      const std::vector<size_t> ids64 = {5, 11, 2};
      std::vector<float> out32(ids32.size()), out64(ids64.size());
      DistanceToMany(metric, query, base, norms.data(), ids32.data(),
                     ids32.size(), out32.data());
      DistanceToMany(metric, query, base, nullptr, ids64.data(), ids64.size(),
                     out64.data());
      for (size_t i = 0; i < ids32.size(); ++i) {
        EXPECT_NEAR(out32[i], Distance(metric, query, base[ids32[i]]), 1e-5f);
      }
      for (size_t i = 0; i < ids64.size(); ++i) {
        EXPECT_NEAR(out64[i], Distance(metric, query, base[ids64[i]]), 1e-5f);
      }
    }
  }
}

TEST(DistanceToManyTest, ZeroAndEmptyEdgeCases) {
  // Zero-dimensional vectors are all "the zero vector": cosine distance 0
  // (delta(t,t)=0), L1/L2 distance 0.
  std::vector<Vec> base = {{}, {}};
  std::vector<float> out;
  for (Metric metric :
       {Metric::kCosine, Metric::kEuclidean, Metric::kManhattan}) {
    DistanceToMany(metric, Vec{}, base, &out);
    EXPECT_EQ(out, (std::vector<float>{0.0f, 0.0f})) << MetricName(metric);
  }
  // Empty base: no output, no crash.
  DistanceToMany(Metric::kCosine, Vec{1.0f}, {}, &out);
  EXPECT_TRUE(out.empty());
  // Zero vectors inside a non-trivial base follow the cosine conventions.
  std::vector<Vec> mixed = {{0.0f, 0.0f}, {1.0f, 1.0f}};
  DistanceToMany(Metric::kCosine, Vec{0.0f, 0.0f}, mixed, &out);
  EXPECT_NEAR(out[0], 0.0f, 1e-6f);  // zero vs zero
  EXPECT_NEAR(out[1], 1.0f, 1e-6f);  // zero vs non-zero
}

TEST(DistanceTest, CosineDistanceFromDotConventionsAndClamping) {
  EXPECT_EQ(CosineDistanceFromDot(0.0f, 0.0f, 0.0f), 0.0f);
  EXPECT_EQ(CosineDistanceFromDot(0.0f, 1.0f, 0.0f), 1.0f);
  EXPECT_EQ(CosineDistanceFromDot(0.0f, 0.0f, 1.0f), 1.0f);
  // Accumulated error past ±1 clamps instead of going negative / above 2.
  EXPECT_EQ(CosineDistanceFromDot(10.0f, 1.0f, 1.0f), 0.0f);
  EXPECT_EQ(CosineDistanceFromDot(-10.0f, 1.0f, 1.0f), 2.0f);
  // Fused form agrees with the reference three-pass computation.
  dust::Rng rng(88);
  for (int trial = 0; trial < 20; ++trial) {
    Vec a = RandomVec(24, &rng);
    Vec b = RandomVec(24, &rng);
    EXPECT_NEAR(CosineDistanceFromDot(Dot(a, b), Norm(a), Norm(b)),
                CosineDistance(a, b), 1e-5f);
  }
}

TEST(DistanceTest, CosineDistanceFromDotMatchesClampThenSubtract) {
  // The clamp-sim-then-subtract form with early returns for zero norms,
  // which the branch-free CosineDistanceFromDot replaced bit for bit.
  auto reference = [](float dot, float norm_a, float norm_b) {
    if (norm_a == 0.0f && norm_b == 0.0f) return 0.0f;
    if (norm_a == 0.0f || norm_b == 0.0f) return 1.0f;
    float sim = dot / (norm_a * norm_b);
    if (sim > 1.0f) sim = 1.0f;
    if (sim < -1.0f) sim = -1.0f;
    return 1.0f - sim;
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float one_up = std::nextafter(1.0f, 2.0f);
  const float one_down = std::nextafter(1.0f, 0.0f);
  std::vector<float> values = {0.0f,   -0.0f,  1.0f,     -1.0f,   one_up,
                               -one_up, one_down, -one_down, 2.0f, 0.5f,
                               1e-30f, 1e30f,  -1e30f,   inf,     -inf,
                               nan,    1e-45f, 3.0f,     -7.25f};
  dust::Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    values.push_back(static_cast<float>(rng.NextGaussian()) * 3.0f);
  }
  for (float dot : values) {
    for (float norm_a : values) {
      for (float norm_b : values) {
        const float got = CosineDistanceFromDot(dot, norm_a, norm_b);
        const float want = reference(dot, norm_a, norm_b);
        uint32_t got_bits, want_bits;
        std::memcpy(&got_bits, &got, sizeof(got));
        std::memcpy(&want_bits, &want, sizeof(want));
        // Every NaN has to stay a NaN; its payload is not part of the
        // contract.
        if (std::isnan(want)) {
          ASSERT_TRUE(std::isnan(got)) << dot << " " << norm_a << " " << norm_b;
        } else {
          ASSERT_EQ(got_bits, want_bits)
              << dot << " " << norm_a << " " << norm_b;
        }
      }
    }
  }
}

TEST(DistanceMatrixTest, MatchesPairwiseDistances) {
  std::vector<Vec> points = {{0, 0}, {3, 4}, {6, 8}};
  DistanceMatrix m(points, Metric::kEuclidean);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_FLOAT_EQ(m.at(0, 1), 5.0f);
  EXPECT_FLOAT_EQ(m.at(1, 0), 5.0f);
  EXPECT_FLOAT_EQ(m.at(0, 2), 10.0f);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(DistanceMatrixTest, SetKeepsSymmetry) {
  DistanceMatrix m(std::vector<Vec>{{0.f}, {1.f}}, Metric::kEuclidean);
  m.set(0, 1, 9.0f);
  EXPECT_FLOAT_EQ(m.at(1, 0), 9.0f);
}

TEST(MatrixTest, MatVec) {
  Matrix m(2, 3);
  // [[1 2 3], [4 5 6]]
  for (size_t c = 0; c < 3; ++c) {
    m.at(0, c) = static_cast<float>(c + 1);
    m.at(1, c) = static_cast<float>(c + 4);
  }
  Vec y = m.MatVec({1, 1, 1});
  EXPECT_EQ(y, (Vec{6, 15}));
}

TEST(MatrixTest, TransposeMatVec) {
  Matrix m(2, 3);
  for (size_t c = 0; c < 3; ++c) {
    m.at(0, c) = static_cast<float>(c + 1);
    m.at(1, c) = static_cast<float>(c + 4);
  }
  Vec y = m.TransposeMatVec({1, 1});
  EXPECT_EQ(y, (Vec{5, 7, 9}));
}

TEST(PcaTest, RecoversDominantDirection) {
  // Points stretched along (1,1)/sqrt(2) with small orthogonal noise.
  dust::Rng rng(5);
  std::vector<Vec> points;
  for (int i = 0; i < 200; ++i) {
    float t = static_cast<float>(rng.NextGaussian()) * 10.0f;
    float n = static_cast<float>(rng.NextGaussian()) * 0.1f;
    points.push_back({t + n, t - n});
  }
  PcaResult pca = ComputePca(points, 1);
  float c = std::fabs(pca.components[0][0] * pca.components[0][1]);
  // Both components of the direction should be ~1/sqrt(2): product ~0.5.
  EXPECT_NEAR(c, 0.5f, 0.02f);
  EXPECT_GT(pca.explained_variance[0], 50.0f);
}

TEST(PcaTest, ComponentsAreOrthonormal) {
  dust::Rng rng(6);
  std::vector<Vec> points;
  for (int i = 0; i < 100; ++i) {
    Vec p(5);
    for (float& x : p) x = static_cast<float>(rng.NextGaussian());
    points.push_back(p);
  }
  PcaResult pca = ComputePca(points, 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(Norm(pca.components[i]), 1.0f, 1e-3);
    for (size_t j = i + 1; j < 3; ++j) {
      EXPECT_NEAR(Dot(pca.components[i], pca.components[j]), 0.0f, 1e-3);
    }
  }
}

TEST(PcaTest, VarianceIsNonIncreasing) {
  dust::Rng rng(7);
  std::vector<Vec> points;
  for (int i = 0; i < 150; ++i) {
    Vec p(4);
    p[0] = static_cast<float>(rng.NextGaussian()) * 5.0f;
    p[1] = static_cast<float>(rng.NextGaussian()) * 2.0f;
    p[2] = static_cast<float>(rng.NextGaussian()) * 1.0f;
    p[3] = static_cast<float>(rng.NextGaussian()) * 0.2f;
    points.push_back(p);
  }
  PcaResult pca = ComputePca(points, 3);
  EXPECT_GE(pca.explained_variance[0], pca.explained_variance[1] - 1e-3);
  EXPECT_GE(pca.explained_variance[1], pca.explained_variance[2] - 1e-3);
}

TEST(PcaTest, ProjectionMatchesStoredProjection) {
  std::vector<Vec> points = {{1, 0}, {0, 1}, {2, 2}, {3, 1}};
  PcaResult pca = ComputePca(points, 2);
  for (size_t i = 0; i < points.size(); ++i) {
    Vec p = PcaProject(pca, points[i]);
    ASSERT_EQ(p.size(), 2u);
    EXPECT_NEAR(p[0], pca.projected[i][0], 1e-5);
    EXPECT_NEAR(p[1], pca.projected[i][1], 1e-5);
  }
}

TEST(PcaTest, DeterministicAcrossRuns) {
  std::vector<Vec> points = {{1, 2}, {3, 1}, {0, 5}, {2, 2}, {4, 0}};
  PcaResult a = ComputePca(points, 2, 17);
  PcaResult b = ComputePca(points, 2, 17);
  EXPECT_EQ(a.components[0], b.components[0]);
  EXPECT_EQ(a.projected[3], b.projected[3]);
}

}  // namespace
}  // namespace dust::la
