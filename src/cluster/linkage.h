// Linkage criteria for agglomerative clustering, updated with the
// Lance-Williams recurrence so cluster-cluster distances never require
// revisiting the raw points.
#ifndef DUST_CLUSTER_LINKAGE_H_
#define DUST_CLUSTER_LINKAGE_H_

#include <algorithm>
#include <cstddef>
#include <string>

#include "util/status.h"

namespace dust::cluster {

/// Linkage criterion. The paper's experiments use average linkage
/// (Sec. 6.2.1); the others support the linkage ablation bench.
/// kWard expects squared-Euclidean input distances.
enum class Linkage { kSingle, kComplete, kAverage, kWard };

/// Aborts on a value outside the enum (a corrupted tag), like
/// la::MetricName.
const char* LinkageName(Linkage linkage);

/// Parses "single" / "complete" / "average" / "ward", case-insensitively.
/// Any other spelling is InvalidArgument: a typo must not silently become
/// average linkage.
Result<Linkage> LinkageFromName(const std::string& name);

/// Lance-Williams update: distance between cluster (a ∪ b) and cluster c,
/// given d(a,c), d(b,c), d(a,b) and the cluster sizes. Inline so a row
/// update over a compile-time linkage folds the switch away and the
/// average-linkage loop vectorises.
inline float LanceWilliams(Linkage linkage, float d_ac, float d_bc, float d_ab,
                           size_t size_a, size_t size_b, size_t size_c) {
  float na = static_cast<float>(size_a);
  float nb = static_cast<float>(size_b);
  float nc = static_cast<float>(size_c);
  switch (linkage) {
    case Linkage::kSingle:
      return std::min(d_ac, d_bc);
    case Linkage::kComplete:
      return std::max(d_ac, d_bc);
    case Linkage::kAverage:
      return (na * d_ac + nb * d_bc) / (na + nb);
    case Linkage::kWard: {
      float total = na + nb + nc;
      return ((na + nc) * d_ac + (nb + nc) * d_bc - nc * d_ab) / total;
    }
  }
  return 0.0f;
}

}  // namespace dust::cluster

#endif  // DUST_CLUSTER_LINKAGE_H_
