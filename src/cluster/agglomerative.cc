#include "cluster/agglomerative.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "la/simd/kernels.h"
#include "util/status.h"

namespace dust::cluster {

namespace {

// Union-find with path compression used to replay merges when cutting.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// row_a[c] = LanceWilliams(d(a, c), d(b, c)) for every c, live or not: a
/// straight loop with the linkage fixed at compile time, which the compiler
/// vectorises for average linkage. Entries of merged clusters come out as
/// garbage that the argmin mask hides.
template <Linkage kLinkage>
void LanceWilliamsRow(float* row_a, const float* row_b, float d_ab,
                      size_t size_a, size_t size_b, const size_t* sizes,
                      size_t n) {
  for (size_t c = 0; c < n; ++c) {
    row_a[c] = LanceWilliams(kLinkage, row_a[c], row_b[c], d_ab, size_a,
                             size_b, sizes[c]);
  }
}

}  // namespace

Dendrogram AgglomerativeCluster(const la::DistanceMatrix& distances,
                                Linkage linkage) {
  const size_t n = distances.size();
  Dendrogram dendrogram;
  dendrogram.num_leaves = n;
  if (n <= 1) return dendrogram;

  // The one working copy. Cluster slots reuse the row of one member (so a
  // slot index is always a leaf index belonging to that cluster); +inf on
  // the diagonal keeps a cluster from being its own nearest neighbour.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> work(distances.row(0), distances.row(0) + n * n);
  for (size_t x = 0; x < n; ++x) work[x * n + x] = inf;
  auto row = [&](size_t x) { return work.data() + x * n; };
  // 0 for live clusters, +inf for merged ones: added to a row, it hides
  // merged clusters from the SIMD argmin.
  std::vector<float> mask(n, 0.0f);
  std::vector<size_t> size(n, 1);
  const la::simd::Kernels& ops = la::simd::Active();

  // NN-chain stack.
  std::vector<size_t> chain;
  chain.reserve(n);

  struct RawMerge {
    size_t slot_a, slot_b;  // slot == a leaf index belonging to each cluster
    float distance;
  };
  std::vector<RawMerge> raw;
  raw.reserve(n - 1);

  // Column a of every other row goes stale when a merge rewrites row a.
  // Rather than write that column into every live row at each merge (a
  // cache miss per row), a row pulls its stale entries, from the merge
  // targets logged since its last update, just before it is read. That
  // trades scattered writes for fewer scattered reads.
  std::vector<size_t> rewritten;
  rewritten.reserve(n - 1);
  std::vector<size_t> synced(n, 0);  // rewritten.size() at x's last update
  auto bring_up_to_date = [&](size_t x) {
    float* row_x = row(x);
    for (size_t k = synced[x]; k < rewritten.size(); ++k) {
      const size_t a = rewritten[k];
      if (mask[a] == 0.0f) row_x[a] = row(a)[x];
    }
    synced[x] = rewritten.size();
  };

  // Clusters set aside because they have no finite distance to any other.
  std::vector<size_t> isolated;

  size_t remaining = n;
  size_t first_live = 0;
  while (remaining > 1) {
    if (chain.empty()) {
      // Start a new chain from the lowest-index live cluster.
      while (mask[first_live] != 0.0f) ++first_live;
      chain.push_back(first_live);
    }
    while (true) {
      size_t top = chain.back();
      bring_up_to_date(top);
      // Ties go to the lowest index.
      float d = inf;
      size_t nn = ops.masked_argmin(row(top), mask.data(), n, &d);
      // Prefer the chain predecessor on ties so reciprocity is detected.
      if (chain.size() >= 2) {
        size_t prev = chain[chain.size() - 2];
        if (row(top)[prev] == d) nn = prev;
      }
      if (nn == n) {
        // No finite distance from top to any live cluster (a NaN or +inf
        // row). Set it aside; it joins the rest at +inf once they are one.
        chain.pop_back();
        mask[top] = inf;
        isolated.push_back(top);
        --remaining;
        break;
      }
      if (chain.size() >= 2 && nn == chain[chain.size() - 2]) {
        // Reciprocal nearest neighbors: merge top and nn.
        size_t a = top;
        size_t b = nn;
        chain.pop_back();
        chain.pop_back();

        float d_ab = row(a)[b];
        raw.push_back({a, b, d_ab});

        // Merge b's slot into a's slot: Lance-Williams rewrites row a from
        // rows a and b. Row b may predate a merge further up the chain.
        bring_up_to_date(b);
        switch (linkage) {
          case Linkage::kSingle:
            LanceWilliamsRow<Linkage::kSingle>(row(a), row(b), d_ab, size[a],
                                               size[b], size.data(), n);
            break;
          case Linkage::kComplete:
            LanceWilliamsRow<Linkage::kComplete>(row(a), row(b), d_ab,
                                                 size[a], size[b],
                                                 size.data(), n);
            break;
          case Linkage::kAverage:
            LanceWilliamsRow<Linkage::kAverage>(row(a), row(b), d_ab,
                                                size[a], size[b], size.data(),
                                                n);
            break;
          case Linkage::kWard:
            LanceWilliamsRow<Linkage::kWard>(row(a), row(b), d_ab, size[a],
                                             size[b], size.data(), n);
            break;
        }
        row(a)[a] = inf;
        mask[b] = inf;
        size[a] += size[b];
        rewritten.push_back(a);
        synced[a] = rewritten.size();
        --remaining;
        break;
      }
      chain.push_back(nn);
    }
  }

  while (mask[first_live] != 0.0f) ++first_live;
  for (size_t x : isolated) raw.push_back({first_live, x, inf});

  // NN-chain emits merges out of distance order. Sort ascending (stable for
  // determinism on ties) and re-derive cluster ids with a union-find over
  // leaf representatives (scipy's "label" step): merge i in sorted order
  // creates id n+i and can only reference earlier ids.
  std::vector<size_t> order(raw.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return raw[x].distance < raw[y].distance;
  });

  UnionFind uf(n);
  std::vector<size_t> root_dendro_id(n);
  std::iota(root_dendro_id.begin(), root_dendro_id.end(), 0);
  std::vector<size_t> root_size(n, 1);

  dendrogram.merges.reserve(raw.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const RawMerge& m = raw[order[i]];
    size_t ra = uf.Find(m.slot_a);
    size_t rb = uf.Find(m.slot_b);
    DUST_CHECK(ra != rb);
    Merge merge;
    merge.a = root_dendro_id[ra];
    merge.b = root_dendro_id[rb];
    if (merge.a > merge.b) std::swap(merge.a, merge.b);
    merge.distance = m.distance;
    merge.size = root_size[ra] + root_size[rb];
    uf.Union(ra, rb);
    size_t root = uf.Find(ra);
    root_dendro_id[root] = n + i;
    root_size[root] = merge.size;
    dendrogram.merges.push_back(merge);
  }
  return dendrogram;
}

Dendrogram AgglomerativeCluster(const std::vector<la::Vec>& points,
                                la::Metric metric, Linkage linkage) {
  return AgglomerativeCluster(la::DistanceMatrix(points, metric), linkage);
}

std::vector<size_t> CutDendrogram(const Dendrogram& dendrogram, size_t k) {
  const size_t n = dendrogram.num_leaves;
  DUST_CHECK(k >= 1 && k <= std::max<size_t>(n, 1));
  std::vector<size_t> labels(n, 0);
  if (n == 0) return labels;

  UnionFind uf(n);
  // Track, for each dendrogram node id, a representative leaf.
  std::vector<size_t> rep(n + dendrogram.merges.size());
  std::iota(rep.begin(), rep.begin() + n, 0);

  size_t merges_to_apply = n - k;
  for (size_t i = 0; i < dendrogram.merges.size(); ++i) {
    const Merge& m = dendrogram.merges[i];
    size_t ra = rep[m.a];
    size_t rb = rep[m.b];
    if (i < merges_to_apply) uf.Union(ra, rb);
    rep[n + i] = ra;
  }

  // Dense relabeling ordered by first occurrence.
  std::vector<int> root_to_label(n, -1);
  size_t next_label = 0;
  for (size_t x = 0; x < n; ++x) {
    size_t root = uf.Find(x);
    if (root_to_label[root] < 0) {
      root_to_label[root] = static_cast<int>(next_label++);
    }
    labels[x] = static_cast<size_t>(root_to_label[root]);
  }
  DUST_CHECK(next_label == k);
  return labels;
}

std::vector<std::vector<size_t>> GroupByLabel(const std::vector<size_t>& labels) {
  size_t k = 0;
  for (size_t label : labels) k = std::max(k, label + 1);
  std::vector<std::vector<size_t>> groups(k);
  for (size_t i = 0; i < labels.size(); ++i) groups[labels[i]].push_back(i);
  return groups;
}

}  // namespace dust::cluster
