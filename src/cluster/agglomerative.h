// Agglomerative hierarchical clustering via the nearest-neighbor-chain
// algorithm: O(n^2) time on top of the pairwise distance matrix, which is
// what lets DUST's diversification cluster thousands of tuples (Sec. 5.2)
// while IR baselines stall.
#ifndef DUST_CLUSTER_AGGLOMERATIVE_H_
#define DUST_CLUSTER_AGGLOMERATIVE_H_

#include <cstddef>
#include <vector>

#include "cluster/linkage.h"
#include "la/distance.h"

namespace dust::cluster {

/// One dendrogram merge: clusters `a` and `b` (ids < n are leaves; id n+i is
/// the cluster created by merge i) joined at `distance`.
struct Merge {
  size_t a;
  size_t b;
  float distance;
  size_t size;  // leaves in the merged cluster
};

/// Full dendrogram over n leaves (n-1 merges, sorted by merge distance).
struct Dendrogram {
  size_t num_leaves = 0;
  std::vector<Merge> merges;
};

/// Builds the dendrogram over the points of `distances` under `linkage`.
/// The matrix is left as it is: clustering works on one internal copy.
/// NaN and +inf entries are never chosen as nearest. A cluster with no
/// finite distance to any other (a NaN point, say) is left out until all
/// the rest are one cluster and then merged with it at +inf, so the
/// dendrogram stays well formed and the other points cluster as usual.
Dendrogram AgglomerativeCluster(const la::DistanceMatrix& distances,
                                Linkage linkage);

/// Convenience overload: computes the distance matrix first. It holds that
/// matrix and the working copy at once, two n x n buffers at the peak.
Dendrogram AgglomerativeCluster(const std::vector<la::Vec>& points,
                                la::Metric metric, Linkage linkage);

/// Cuts the dendrogram into exactly `k` clusters (1 <= k <= n) by applying
/// the first n-k merges in distance order. Returns cluster labels in
/// [0, k), relabeled to be dense and ordered by first occurrence.
std::vector<size_t> CutDendrogram(const Dendrogram& dendrogram, size_t k);

/// Groups point indices by label: result[c] lists the members of cluster c.
std::vector<std::vector<size_t>> GroupByLabel(const std::vector<size_t>& labels);

}  // namespace dust::cluster

#endif  // DUST_CLUSTER_AGGLOMERATIVE_H_
