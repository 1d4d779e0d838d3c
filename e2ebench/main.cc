// e2e_bench — the repository's end-to-end benchmark.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome-trace.json>]
//   e2e_bench --list-metrics
//
// Workloads: alg1_dense, alg1_wide, alg1_concurrent, tuple_serve (see
// README.md beside this file). --trace 0 measures with tracing off and
// prints every end-to-end metric; --trace 1 runs the traced per-layer
// measurement and prints every per-layer metric. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is non-zero when any output check or request failed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "e2ebench/workloads.h"
#include "text/hashing.h"

namespace dust::e2e {

uint64_t DeriveSeed(uint64_t seed, const std::string& stream) {
  return text::HashString(stream, seed * 0x9E3779B97F4A7C15ULL + 1);
}

namespace {

// Must list exactly the names and units of BENCHMARK.json (run.py checks
// every result line against it).
const std::vector<MetricSpec> kEndToEnd = {
    {"latency_p50_ms", "ms"},  {"latency_p90_ms", "ms"},
    {"throughput_qps", "1/s"},
    {"slo_attainment", "ratio"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},    {"avg_diversity", "score"},
    {"recall_at_10", "ratio"}, {"ok_ratio", "ratio"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"search.search_tables_ms", "ms"},
    {"search.tables_scored", "count"},
    {"search.tables_kept", "count"},
    {"embed.column_embed_ms", "ms"},
    {"embed.columns_embedded", "count"},
    {"align.align_ms", "ms"},
    {"align.tuple_build_ms", "ms"},
    {"align.unionable_tuples", "count"},
    {"embed.tuple_embed_ms", "ms"},
    {"embed.tuples_encoded", "count"},
    {"diversify.prune_ms", "ms"},
    {"diversify.kept", "count"},
    {"la.distance_matrix_ms", "ms"},
    {"la.distance_pairs", "count"},
    {"la.ns_per_pair", "ns"},
    {"cluster.agglomerative_ms", "ms"},
    {"cluster.cut_ms", "ms"},
    {"cluster.medoid_ms", "ms"},
    {"diversify.rerank_ms", "ms"},
    {"core.glue_ms", "ms"},
    {"core.run_ms", "ms"},
    {"core.coverage", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"obs.spans_dropped", "count"},
    {"serve.latency_p99_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.cache_evictions", "count"},
    {"search.encode_ms", "ms"},
    {"index.search_ms", "ms"},
    {"shard.scatter_ms", "ms"},
    {"search.fuse_ms", "ms"},
    {"loadgen.late_p99_ms", "ms"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "alg1_dense|alg1_wide|alg1_concurrent|tuple_serve --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace dust::e2e

int main(int argc, char** argv) {
  using namespace dust::e2e;
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    // For the self-test that compares these tables with BENCHMARK.json.
    for (const auto* list : {&kEndToEnd, &kPerLayer}) {
      for (const MetricSpec& m : *list) {
        std::printf("%s %s %s\n", list == &kEndToEnd ? "end_to_end" : "per_layer",
                    m.name, m.unit);
      }
    }
    return 0;
  }
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (!have_workload) return Usage("--workload is required");

  Report report;
  if (options.workload == "tuple_serve") {
    report = RunTupleServe(options);
  } else if (options.workload == "alg1_dense" || options.workload == "alg1_wide" ||
             options.workload == "alg1_concurrent") {
    report = RunAlg1(options);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (!options.trace) {
    for (const MetricSpec& m : kEndToEnd) {
      report.Check(report.values.count(m.name) == 1,
                   std::string("workload did not measure ") + m.name);
    }
  }
  std::printf("%s\n", report.Json(options.trace ? kPerLayer : kEndToEnd).c_str());
  std::fflush(stdout);
  return report.correct && report.failed == 0 ? 0 : 1;
}
