// The benchmark's workloads. Each builds its inputs from the seed before
// any timing, measures with tracing off (trace = false) or runs the traced
// per-layer measurement (trace = true), checks every answer, and returns
// the metrics named in BENCHMARK.json.
#ifndef DUST_E2EBENCH_WORKLOADS_H_
#define DUST_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "e2ebench/harness.h"

namespace dust::e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace file written by a traced run ("" = none).
  std::string trace_out;
};

/// alg1_dense, alg1_wide, alg1_concurrent: DustPipeline::Run end to end.
Report RunAlg1(const RunOptions& options);

/// tuple_serve: open-loop traffic into serve::QueryServer.
Report RunTupleServe(const RunOptions& options);

/// Seed-derived stream for one named input, so each input changes with the
/// seed argument independently of the others.
uint64_t DeriveSeed(uint64_t seed, const std::string& stream);

}  // namespace dust::e2e

#endif  // DUST_E2EBENCH_WORKLOADS_H_
