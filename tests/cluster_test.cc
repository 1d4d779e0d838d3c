// Unit + property tests for src/cluster: linkages, NN-chain agglomerative,
// constrained clustering, Silhouette, medoids, k-means.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "cluster/agglomerative.h"
#include "cluster/constrained.h"
#include "cluster/kmeans.h"
#include "cluster/medoid.h"
#include "cluster/silhouette.h"
#include "la/simd/kernels.h"
#include "util/rng.h"

namespace dust::cluster {
namespace {

using la::DistanceMatrix;
using la::Metric;
using la::Vec;

// Two well-separated blobs of 2D points.
std::vector<Vec> TwoBlobs(size_t per_blob, uint64_t seed = 99) {
  dust::Rng rng(seed);
  std::vector<Vec> points;
  for (size_t i = 0; i < per_blob; ++i) {
    points.push_back({static_cast<float>(rng.NextGaussian()) * 0.2f,
                      static_cast<float>(rng.NextGaussian()) * 0.2f});
  }
  for (size_t i = 0; i < per_blob; ++i) {
    points.push_back({10.0f + static_cast<float>(rng.NextGaussian()) * 0.2f,
                      10.0f + static_cast<float>(rng.NextGaussian()) * 0.2f});
  }
  return points;
}

TEST(LinkageTest, NamesRoundTrip) {
  for (Linkage linkage : {Linkage::kSingle, Linkage::kComplete,
                          Linkage::kAverage, Linkage::kWard}) {
    Result<Linkage> parsed = LinkageFromName(LinkageName(linkage));
    ASSERT_TRUE(parsed.ok()) << LinkageName(linkage);
    EXPECT_EQ(parsed.value(), linkage);
  }
  EXPECT_EQ(LinkageFromName("Single").value(), Linkage::kSingle);
  EXPECT_STREQ(LinkageName(Linkage::kComplete), "complete");
}

TEST(LinkageTest, UnknownNameIsInvalidArgument) {
  for (const char* typo : {"avg", "wrad", "", "average "}) {
    Result<Linkage> parsed = LinkageFromName(typo);
    ASSERT_FALSE(parsed.ok()) << typo;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << typo;
  }
}

TEST(LinkageDeathTest, CorruptTagAborts) {
  EXPECT_DEATH(LinkageName(static_cast<Linkage>(99)), "invalid Linkage");
}

TEST(LinkageTest, LanceWilliamsSingleComplete) {
  EXPECT_FLOAT_EQ(LanceWilliams(Linkage::kSingle, 2, 5, 1, 1, 1, 1), 2.0f);
  EXPECT_FLOAT_EQ(LanceWilliams(Linkage::kComplete, 2, 5, 1, 1, 1, 1), 5.0f);
}

TEST(LinkageTest, LanceWilliamsAverageWeightsBySize) {
  // Cluster a has 3 members, b has 1: average = (3*2 + 1*6)/4 = 3.
  EXPECT_FLOAT_EQ(LanceWilliams(Linkage::kAverage, 2, 6, 1, 3, 1, 2), 3.0f);
}

TEST(AgglomerativeTest, TwoBlobsSplitAtK2) {
  std::vector<Vec> points = TwoBlobs(10);
  Dendrogram d = AgglomerativeCluster(points, Metric::kEuclidean,
                                      Linkage::kAverage);
  EXPECT_EQ(d.num_leaves, 20u);
  EXPECT_EQ(d.merges.size(), 19u);
  std::vector<size_t> labels = CutDendrogram(d, 2);
  // All of blob 1 shares a label; all of blob 2 shares the other.
  for (size_t i = 1; i < 10; ++i) EXPECT_EQ(labels[i], labels[0]);
  for (size_t i = 11; i < 20; ++i) EXPECT_EQ(labels[i], labels[10]);
  EXPECT_NE(labels[0], labels[10]);
}

TEST(AgglomerativeTest, MergeDistancesSortedAscending) {
  std::vector<Vec> points = TwoBlobs(8, 123);
  Dendrogram d =
      AgglomerativeCluster(points, Metric::kEuclidean, Linkage::kAverage);
  for (size_t i = 1; i < d.merges.size(); ++i) {
    EXPECT_GE(d.merges[i].distance, d.merges[i - 1].distance);
  }
}

TEST(AgglomerativeTest, MergeIdsReferenceOnlyEarlierClusters) {
  std::vector<Vec> points = TwoBlobs(6, 7);
  Dendrogram d =
      AgglomerativeCluster(points, Metric::kEuclidean, Linkage::kComplete);
  size_t n = d.num_leaves;
  for (size_t i = 0; i < d.merges.size(); ++i) {
    EXPECT_LT(d.merges[i].a, n + i);
    EXPECT_LT(d.merges[i].b, n + i);
    EXPECT_NE(d.merges[i].a, d.merges[i].b);
  }
  EXPECT_EQ(d.merges.back().size, n);
}

TEST(AgglomerativeTest, CutK1AndKn) {
  std::vector<Vec> points = TwoBlobs(5, 11);
  Dendrogram d =
      AgglomerativeCluster(points, Metric::kEuclidean, Linkage::kAverage);
  std::vector<size_t> one = CutDendrogram(d, 1);
  for (size_t label : one) EXPECT_EQ(label, 0u);
  std::vector<size_t> all = CutDendrogram(d, 10);
  std::set<size_t> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(AgglomerativeTest, SingletonAndEmptyInputs) {
  Dendrogram empty = AgglomerativeCluster(std::vector<Vec>{},
                                          Metric::kEuclidean, Linkage::kAverage);
  EXPECT_EQ(empty.num_leaves, 0u);
  Dendrogram one = AgglomerativeCluster(std::vector<Vec>{{1.0f, 2.0f}},
                                        Metric::kEuclidean, Linkage::kAverage);
  EXPECT_EQ(one.num_leaves, 1u);
  EXPECT_TRUE(one.merges.empty());
  EXPECT_EQ(CutDendrogram(one, 1), (std::vector<size_t>{0}));
}

// Property suite across linkages: cuts are valid partitions at every k.
class LinkagePropertyTest : public ::testing::TestWithParam<Linkage> {};

TEST_P(LinkagePropertyTest, CutsAreValidPartitionsAtEveryK) {
  std::vector<Vec> points = TwoBlobs(7, 5);
  Dendrogram d = AgglomerativeCluster(points, Metric::kEuclidean, GetParam());
  for (size_t k = 1; k <= points.size(); ++k) {
    std::vector<size_t> labels = CutDendrogram(d, k);
    ASSERT_EQ(labels.size(), points.size());
    std::set<size_t> unique(labels.begin(), labels.end());
    EXPECT_EQ(unique.size(), k);
    EXPECT_EQ(*unique.rbegin(), k - 1);  // dense labels
  }
}

TEST_P(LinkagePropertyTest, CutsAreNested) {
  // Coarser cuts only merge (never split) finer cuts.
  std::vector<Vec> points = TwoBlobs(6, 17);
  Dendrogram d = AgglomerativeCluster(points, Metric::kEuclidean, GetParam());
  for (size_t k = points.size(); k > 1; --k) {
    std::vector<size_t> fine = CutDendrogram(d, k);
    std::vector<size_t> coarse = CutDendrogram(d, k - 1);
    // Same fine label => same coarse label.
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = i + 1; j < points.size(); ++j) {
        if (fine[i] == fine[j]) {
          EXPECT_EQ(coarse[i], coarse[j]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, LinkagePropertyTest,
                         ::testing::Values(Linkage::kSingle, Linkage::kComplete,
                                           Linkage::kAverage, Linkage::kWard));

// --- Exact oracle -------------------------------------------------------
//
// The tiled DistanceMatrix fill and the masked-argmin NN-chain against the
// row-at-a-time fill and the scan-based NN-chain they replaced, kept here
// verbatim as references. Every float must match bit for bit.
// (The reference fill converts dots with today's CosineDistanceFromDot;
// la_test checks that one bit for bit against the form it replaced.)

/// Pins one kernel backend for its scope. Pinning AVX2 re-runs the startup
/// selection with DUST_FORCE_SCALAR cleared, so a run under that variable
/// still covers both backends.
class ScopedBackend {
 public:
  explicit ScopedBackend(bool scalar) {
    if (scalar) {
      la::simd::ForceScalar(true);
      return;
    }
    const char* env = std::getenv("DUST_FORCE_SCALAR");
    const std::string saved = env == nullptr ? "" : env;
    unsetenv("DUST_FORCE_SCALAR");
    la::simd::ForceScalar(false);
    if (env != nullptr) setenv("DUST_FORCE_SCALAR", saved.c_str(), 1);
  }
  ~ScopedBackend() { la::simd::ForceScalar(false); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
};

/// The reference fill: one gathered DistanceToMany per row over the strict
/// upper triangle (norm-cached for cosine), mirrored entry by entry.
std::vector<float> ReferenceDistances(const std::vector<Vec>& points,
                                      Metric metric) {
  const size_t n = points.size();
  std::vector<float> d(n * n, 0.0f);
  std::vector<float> norms;
  if (metric == Metric::kCosine) norms = la::NormsOf(points);
  const float* norms_data = norms.empty() ? nullptr : norms.data();
  std::vector<size_t> ids;
  std::vector<float> row;
  for (size_t i = 0; i + 1 < n; ++i) {
    ids.resize(n - i - 1);
    std::iota(ids.begin(), ids.end(), i + 1);
    row.resize(ids.size());
    la::DistanceToMany(metric, points[i], points, norms_data, ids.data(),
                       ids.size(), row.data());
    for (size_t j = i + 1; j < n; ++j) {
      d[i * n + j] = row[j - i - 1];
      d[j * n + i] = row[j - i - 1];
    }
  }
  return d;
}

/// The reference NN-chain: a linear nearest-active scan with a
/// std::vector<bool> of live clusters and a Lance-Williams update that
/// skips merged clusters, followed by the sort-and-relabel step.
Dendrogram ReferenceCluster(std::vector<float> d, size_t n, Linkage linkage) {
  Dendrogram dendrogram;
  dendrogram.num_leaves = n;
  if (n <= 1) return dendrogram;
  auto at = [&](size_t i, size_t j) { return d[i * n + j]; };
  std::vector<bool> active(n, true);
  std::vector<size_t> size(n, 1);
  std::vector<size_t> chain;
  struct RawMerge {
    size_t slot_a, slot_b;
    float distance;
  };
  std::vector<RawMerge> raw;
  size_t remaining = n;
  auto nearest_active = [&](size_t x) {
    float best = std::numeric_limits<float>::infinity();
    size_t arg = x;
    for (size_t y = 0; y < n; ++y) {
      if (!active[y] || y == x) continue;
      float dist = at(x, y);
      if (dist < best || (dist == best && y < arg)) {
        best = dist;
        arg = y;
      }
    }
    return std::make_pair(arg, best);
  };
  while (remaining > 1) {
    if (chain.empty()) {
      for (size_t x = 0; x < n; ++x) {
        if (active[x]) {
          chain.push_back(x);
          break;
        }
      }
    }
    while (true) {
      size_t top = chain.back();
      auto [nn, dist] = nearest_active(top);
      if (chain.size() >= 2) {
        size_t prev = chain[chain.size() - 2];
        if (at(top, prev) == dist) nn = prev;
      }
      if (chain.size() >= 2 && nn == chain[chain.size() - 2]) {
        size_t a = top;
        size_t b = nn;
        chain.pop_back();
        chain.pop_back();
        float d_ab = at(a, b);
        size_t new_size = size[a] + size[b];
        raw.push_back({a, b, d_ab});
        for (size_t c = 0; c < n; ++c) {
          if (!active[c] || c == a || c == b) continue;
          float updated = LanceWilliams(linkage, at(a, c), at(b, c), d_ab,
                                        size[a], size[b], size[c]);
          d[a * n + c] = updated;
          d[c * n + a] = updated;
        }
        active[b] = false;
        size[a] = new_size;
        --remaining;
        break;
      }
      chain.push_back(nn);
    }
  }
  std::vector<size_t> order(raw.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return raw[x].distance < raw[y].distance;
  });
  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x];
    return x;
  };
  std::vector<size_t> root_id(n);
  std::iota(root_id.begin(), root_id.end(), 0);
  std::vector<size_t> root_size(n, 1);
  for (size_t i = 0; i < order.size(); ++i) {
    const RawMerge& m = raw[order[i]];
    size_t ra = find(m.slot_a);
    size_t rb = find(m.slot_b);
    Merge merge;
    merge.a = std::min(root_id[ra], root_id[rb]);
    merge.b = std::max(root_id[ra], root_id[rb]);
    merge.distance = m.distance;
    merge.size = root_size[ra] + root_size[rb];
    parent[ra] = rb;
    root_id[rb] = n + i;
    root_size[rb] = merge.size;
    dendrogram.merges.push_back(merge);
  }
  return dendrogram;
}

uint32_t Bits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

::testing::AssertionResult SameDendrogram(const Dendrogram& got,
                                          const Dendrogram& want) {
  if (got.num_leaves != want.num_leaves ||
      got.merges.size() != want.merges.size()) {
    return ::testing::AssertionFailure() << "shape differs";
  }
  for (size_t i = 0; i < got.merges.size(); ++i) {
    const Merge& g = got.merges[i];
    const Merge& w = want.merges[i];
    if (g.a != w.a || g.b != w.b || g.size != w.size ||
        Bits(g.distance) != Bits(w.distance)) {
      return ::testing::AssertionFailure()
             << "merge " << i << ": got (" << g.a << ", " << g.b << ", "
             << g.distance << ", " << g.size << "), want (" << w.a << ", "
             << w.b << ", " << w.distance << ", " << w.size << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Gaussian points with every 7th a zero vector, every 5th an exact copy
/// of an earlier point (distances tie at 0 and elsewhere) and every 6th a
/// scaled negation of one (cosine similarity at or just past -1).
std::vector<Vec> OraclePoints(size_t n, size_t dim, uint64_t seed) {
  dust::Rng rng(seed);
  std::vector<Vec> points;
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) {
      points.push_back(Vec(dim, 0.0f));
    } else if (i % 5 == 4) {
      points.push_back(points[i / 2]);
    } else if (i % 6 == 5) {
      Vec v = points[i / 3];
      for (float& x : v) x *= -3.0f;
      points.push_back(v);
    } else {
      Vec v(dim);
      for (float& x : v) x = static_cast<float>(rng.NextGaussian());
      points.push_back(v);
    }
  }
  return points;
}

class ExactOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(ExactOracleTest, MatrixAndDendrogramsAreBitIdentical) {
  ScopedBackend backend(GetParam());
  ASSERT_STREQ(la::simd::ActiveName(),
               GetParam() || !la::simd::Avx2Available() ? "scalar" : "avx2");
  for (Metric metric :
       {Metric::kCosine, Metric::kEuclidean, Metric::kManhattan}) {
    for (size_t n : {0u, 1u, 2u, 3u, 5u, 63u, 64u, 65u, 129u, 300u}) {
      for (size_t dim : {1u, 5u, 13u, 24u, 64u, 70u}) {
        const std::string where = std::string(la::MetricName(metric)) +
                                  " n=" + std::to_string(n) +
                                  " dim=" + std::to_string(dim);
        std::vector<Vec> points = OraclePoints(n, dim, n * 100 + dim);
        DistanceMatrix matrix(points, metric);
        const std::vector<float> want = ReferenceDistances(points, metric);
        ASSERT_EQ(matrix.size(), n) << where;
        ASSERT_TRUE(n == 0 || std::memcmp(matrix.row(0), want.data(),
                                          n * n * sizeof(float)) == 0)
            << where;
        for (Linkage linkage : {Linkage::kSingle, Linkage::kComplete,
                                Linkage::kAverage, Linkage::kWard}) {
          EXPECT_TRUE(SameDendrogram(AgglomerativeCluster(matrix, linkage),
                                     ReferenceCluster(want, n, linkage)))
              << where << " " << LinkageName(linkage);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ExactOracleTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Scalar" : "Dispatched";
                         });

TEST_P(ExactOracleTest, MatrixWithExtremeValuesIsBitIdentical) {
  ScopedBackend backend(GetParam());
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Norms that underflow to 0 or overflow to inf, non-finite coordinates,
  // and exact multiples, where the cosine clamps and zero-norm cases act.
  std::vector<Vec> points = {
      {0.0f, 0.0f, 0.0f},    {1e-30f, 2e-30f, 0.0f}, {1e30f, -1e30f, 3e30f},
      {nan, 1.0f, 2.0f},     {inf, 1.0f, 0.0f},      {1.0f, 2.0f, 3.0f},
      {-1.0f, -2.0f, -3.0f}, {-3.0f, -6.0f, -9.0f},  {0.1f, 0.2f, 0.3f},
      {-0.3f, 0.7f, 1e-7f},
  };
  for (Metric metric :
       {Metric::kCosine, Metric::kEuclidean, Metric::kManhattan}) {
    DistanceMatrix matrix(points, metric);
    const std::vector<float> want = ReferenceDistances(points, metric);
    EXPECT_EQ(std::memcmp(matrix.row(0), want.data(),
                          want.size() * sizeof(float)),
              0)
        << la::MetricName(metric);
  }
}

TEST_P(ExactOracleTest, InfiniteEntriesAreNeverNearest) {
  // Points on a line 1e19 apart: squared Euclidean distances between
  // non-neighbours overflow, so most of the matrix is +inf, yet single
  // linkage always has a finite neighbour to merge with.
  ScopedBackend backend(GetParam());
  std::vector<Vec> points;
  for (size_t i = 0; i < 70; ++i) {
    points.push_back({static_cast<float>((i * 37) % 70) * 1e19f, 0.0f});
  }
  DistanceMatrix matrix(points, Metric::kEuclidean);
  const std::vector<float> want = ReferenceDistances(points, Metric::kEuclidean);
  ASSERT_EQ(std::memcmp(matrix.row(0), want.data(),
                        want.size() * sizeof(float)),
            0);
  ASSERT_TRUE(std::isinf(matrix.at(0, 2)));
  EXPECT_TRUE(SameDendrogram(AgglomerativeCluster(matrix, Linkage::kSingle),
                             ReferenceCluster(want, points.size(),
                                              Linkage::kSingle)));
}

/// A dendrogram over n leaves with n - 1 merges that only reference earlier
/// clusters, in ascending order of distance, ending in one cluster.
::testing::AssertionResult WellFormed(const Dendrogram& d, size_t n) {
  if (d.num_leaves != n || d.merges.size() + 1 != n) {
    return ::testing::AssertionFailure() << "shape";
  }
  for (size_t i = 0; i < d.merges.size(); ++i) {
    const Merge& m = d.merges[i];
    if (m.a >= m.b || m.b >= n + i || std::isnan(m.distance) ||
        (i > 0 && m.distance < d.merges[i - 1].distance)) {
      return ::testing::AssertionFailure() << "merge " << i;
    }
  }
  if (d.merges.back().size != n) {
    return ::testing::AssertionFailure() << "final size";
  }
  for (size_t k = 1; k <= n; ++k) {
    const std::vector<size_t> labels = CutDendrogram(d, k);
    if (std::set<size_t>(labels.begin(), labels.end()).size() != k) {
      return ::testing::AssertionFailure() << "cut at " << k;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(AgglomerativeTest, NonFiniteRowsJoinLastAtInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<Vec> base = TwoBlobs(5, 21);
  const size_t n = base.size();
  struct Case {
    std::string name;
    DistanceMatrix matrix;
    size_t bad;  // the point with no finite distance
  };
  std::vector<Case> cases;
  // A NaN coordinate makes that point's cosine row NaN.
  for (size_t bad : {size_t{0}, size_t{4}, n - 1}) {
    std::vector<Vec> points = base;
    points[bad][0] = nan;
    cases.push_back({"nan row " + std::to_string(bad),
                     DistanceMatrix(points, Metric::kCosine), bad});
  }
  // A point near 1e30 is at +inf from every other.
  for (size_t bad : {size_t{0}, size_t{6}}) {
    std::vector<Vec> points = base;
    points[bad] = {1e30f, -1e30f};
    cases.push_back({"inf row " + std::to_string(bad),
                     DistanceMatrix(points, Metric::kEuclidean), bad});
  }
  for (const Case& c : cases) {
    for (Linkage linkage : {Linkage::kSingle, Linkage::kComplete,
                            Linkage::kAverage, Linkage::kWard}) {
      const Dendrogram d = AgglomerativeCluster(c.matrix, linkage);
      ASSERT_TRUE(WellFormed(d, n)) << c.name << " " << LinkageName(linkage);
      // The other points cluster among themselves at finite distances; the
      // bad one is a singleton until the last merge.
      for (size_t i = 0; i + 1 < d.merges.size(); ++i) {
        EXPECT_LT(d.merges[i].distance, inf) << c.name << " merge " << i;
      }
      EXPECT_EQ(d.merges.back().a, c.bad) << c.name;
      EXPECT_EQ(d.merges.back().distance, inf) << c.name;
    }
  }
  // Everything near 1e30: every off-diagonal entry is +inf.
  std::vector<Vec> points = base;
  for (Vec& v : points) v = {v[0] * 1e30f, v[1] * 1e30f};
  const DistanceMatrix all_inf(points, Metric::kEuclidean);
  for (Linkage linkage : {Linkage::kSingle, Linkage::kComplete,
                          Linkage::kAverage, Linkage::kWard}) {
    const Dendrogram d = AgglomerativeCluster(all_inf, linkage);
    ASSERT_TRUE(WellFormed(d, n)) << LinkageName(linkage);
    for (const Merge& m : d.merges) EXPECT_EQ(m.distance, inf);
  }
}

TEST(AgglomerativeTest, LeavesTheInputMatrixUnchanged) {
  std::vector<Vec> points = TwoBlobs(9, 4);
  DistanceMatrix matrix(points, Metric::kEuclidean);
  const size_t n = points.size();
  const std::vector<float> before(matrix.row(0), matrix.row(0) + n * n);
  AgglomerativeCluster(matrix, Linkage::kAverage);
  EXPECT_EQ(std::memcmp(matrix.row(0), before.data(),
                        before.size() * sizeof(float)),
            0);
}

TEST(ConstrainedTest, CannotLinkIsRespected) {
  // 4 points, two groups: {0,1} same group, {2,3} same group. Even though
  // 0 and 1 are closest, they must never merge.
  std::vector<Vec> points = {{0, 0}, {0.1f, 0}, {5, 5}, {5.1f, 5}};
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> groups = {0, 0, 1, 1};
  ConstrainedDendrogram cd =
      ConstrainedAgglomerative(d, groups, Linkage::kAverage);
  for (const FlatClustering& level : cd.levels) {
    EXPECT_NE(level.labels[0], level.labels[1]);
    EXPECT_NE(level.labels[2], level.labels[3]);
  }
}

TEST(ConstrainedTest, UnconstrainedMergesFully) {
  std::vector<Vec> points = {{0, 0}, {1, 0}, {2, 0}};
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> groups = {0, 1, 2};  // all distinct: no constraints
  ConstrainedDendrogram cd =
      ConstrainedAgglomerative(d, groups, Linkage::kAverage);
  EXPECT_EQ(cd.levels.front().num_clusters, 3u);
  EXPECT_EQ(cd.levels.back().num_clusters, 1u);
}

TEST(ConstrainedTest, StopsWhenOnlyViolatingMergesRemain) {
  std::vector<Vec> points = {{0, 0}, {0.1f, 0}};
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> groups = {7, 7};
  ConstrainedDendrogram cd =
      ConstrainedAgglomerative(d, groups, Linkage::kAverage);
  EXPECT_EQ(cd.levels.back().num_clusters, 2u);
}

TEST(ConstrainedTest, ClosestAdmissiblePairMergesFirst) {
  // Points: a(0), b(0.2), c(10). a-b same group. First merge must join c
  // with one of a/b rather than a-b.
  std::vector<Vec> points = {{0, 0}, {0.2f, 0}, {10, 0}};
  DistanceMatrix d(points, Metric::kEuclidean);
  ConstrainedDendrogram cd =
      ConstrainedAgglomerative(d, {1, 1, 2}, Linkage::kAverage);
  ASSERT_GE(cd.levels.size(), 2u);
  const FlatClustering& after_first = cd.levels[1];
  EXPECT_EQ(after_first.num_clusters, 2u);
  EXPECT_NE(after_first.labels[0], after_first.labels[1]);
  EXPECT_EQ(after_first.labels[1], after_first.labels[2]);  // b merged with c
}

TEST(SilhouetteTest, PerfectSeparationNearOne) {
  std::vector<Vec> points = TwoBlobs(10, 3);
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> labels(20, 0);
  for (size_t i = 10; i < 20; ++i) labels[i] = 1;
  EXPECT_GT(SilhouetteScore(d, labels), 0.9);
}

TEST(SilhouetteTest, BadSplitScoresLower) {
  std::vector<Vec> points = TwoBlobs(10, 3);
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> good(20, 0);
  for (size_t i = 10; i < 20; ++i) good[i] = 1;
  // Bad: split across the blobs (even/odd).
  std::vector<size_t> bad(20);
  for (size_t i = 0; i < 20; ++i) bad[i] = i % 2;
  EXPECT_GT(SilhouetteScore(d, good), SilhouetteScore(d, bad));
}

TEST(SilhouetteTest, SingletonsContributeZero) {
  std::vector<Vec> points = {{0, 0}, {1, 1}, {2, 2}};
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> labels = {0, 1, 2};  // all singletons
  EXPECT_DOUBLE_EQ(SilhouetteScore(d, labels), 0.0);
}

TEST(SilhouetteTest, ValuesWithinBounds) {
  std::vector<Vec> points = TwoBlobs(6, 31);
  DistanceMatrix d(points, Metric::kEuclidean);
  std::vector<size_t> labels(12);
  for (size_t i = 0; i < 12; ++i) labels[i] = i % 3;
  for (double s : SilhouetteSamples(d, labels)) {
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(MedoidTest, CenterOfLineIsMedoid) {
  std::vector<Vec> points = {{0, 0}, {1, 0}, {2, 0}, {10, 0}};
  DistanceMatrix d(points, Metric::kEuclidean);
  EXPECT_EQ(MedoidOf({0, 1, 2, 3}, d), 1u);  // closest to all others: x=1? sum
  // sums: 0:13, 1:1+1+9=11? -> compute: |1-0|+|2-0|+|10-0|=13; from 1: 1+1+9=11;
  // from 2: 2+1+8=11; tie -> lowest index 1.
}

TEST(MedoidTest, MedoidIsAMember) {
  dust::Rng rng(77);
  std::vector<Vec> points;
  for (int i = 0; i < 30; ++i) {
    points.push_back({static_cast<float>(rng.NextGaussian()),
                      static_cast<float>(rng.NextGaussian())});
  }
  std::vector<size_t> members = {3, 7, 11, 20, 25};
  size_t medoid = MedoidOfPoints(points, members, Metric::kEuclidean);
  EXPECT_NE(std::find(members.begin(), members.end(), medoid), members.end());
}

TEST(MedoidTest, ClusterMedoidsOnePerCluster) {
  std::vector<Vec> points = TwoBlobs(5, 53);
  std::vector<size_t> labels(10, 0);
  for (size_t i = 5; i < 10; ++i) labels[i] = 1;
  std::vector<size_t> medoids =
      ClusterMedoids(points, labels, Metric::kEuclidean);
  ASSERT_EQ(medoids.size(), 2u);
  EXPECT_LT(medoids[0], 5u);
  EXPECT_GE(medoids[1], 5u);
}

TEST(KmeansTest, TwoBlobsRecovered) {
  std::vector<Vec> points = TwoBlobs(15, 8);
  KmeansResult result = Kmeans(points, 2);
  // All of blob 1 assigned together, blob 2 together.
  for (size_t i = 1; i < 15; ++i) {
    EXPECT_EQ(result.assignments[i], result.assignments[0]);
  }
  for (size_t i = 16; i < 30; ++i) {
    EXPECT_EQ(result.assignments[i], result.assignments[15]);
  }
  EXPECT_NE(result.assignments[0], result.assignments[15]);
  EXPECT_LT(result.inertia, 10.0);
}

TEST(KmeansTest, KGreaterThanNClamps) {
  std::vector<Vec> points = {{0, 0}, {1, 1}};
  KmeansResult result = Kmeans(points, 10);
  EXPECT_EQ(result.centroids.size(), 2u);
  EXPECT_NEAR(result.inertia, 0.0, 1e-9);
}

TEST(KmeansTest, DeterministicWithSeed) {
  std::vector<Vec> points = TwoBlobs(10, 9);
  KmeansOptions options;
  options.seed = 123;
  KmeansResult a = Kmeans(points, 3, options);
  KmeansResult b = Kmeans(points, 3, options);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KmeansTest, AssignmentsMatchNearestCentroid) {
  std::vector<Vec> points = TwoBlobs(8, 10);
  KmeansResult result = Kmeans(points, 4);
  for (size_t i = 0; i < points.size(); ++i) {
    double own = la::SquaredEuclideanDistance(
        points[i], result.centroids[result.assignments[i]]);
    for (const Vec& c : result.centroids) {
      EXPECT_LE(own, la::SquaredEuclideanDistance(points[i], c) + 1e-5);
    }
  }
}

}  // namespace
}  // namespace dust::cluster
