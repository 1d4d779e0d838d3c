// bench_shard — build/query scaling of the sharded lake index vs shard
// count (google-benchmark). The CI bench-smoke job runs BM_Shard* with
// --benchmark_out=BENCH_shard.json and uploads the JSON as a per-PR
// artifact, so the scatter-gather overhead and build scaling are tracked
// across revisions. Shard count 1 is the unsharded baseline: the gap to it
// at a given lake size is the price of the merge + routing layers, and the
// per-shard build speedup (smaller HNSW graphs are cheaper to build) is
// the win.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "bench/bench_util.h"
#include "io/index_io.h"
#include "shard/sharded_index.h"

using namespace dust;

namespace {

constexpr const char* kChildTypes[] = {"flat", "hnsw"};
constexpr size_t kDim = 64;

shard::ShardedIndexConfig BenchShardConfig(size_t shards, const char* child) {
  shard::ShardedIndexConfig config;
  config.child_type = child;
  config.num_shards = shards;
  return config;
}

std::string BenchShardPath() {
  return (std::filesystem::temp_directory_path() / "dust_bench_shard.bin")
      .string();
}

/// Offline ingest: one AddAll over the whole cloud (routing + per-shard
/// bulk load, and for HNSW children the graph constructions themselves).
void BM_ShardBuild(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const char* child = kChildTypes[state.range(1)];
  const size_t n = 8192;
  auto points = bench::SyntheticTupleCloud(n, kDim, 16, 4);
  for (auto _ : state) {
    shard::ShardedIndex index(kDim, la::Metric::kCosine,
                              BenchShardConfig(shards, child));
    index.AddAll(points);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(std::string(child) + " x" + std::to_string(shards));
}
BENCHMARK(BM_ShardBuild)->ArgsProduct({{1, 2, 4, 8}, {0, 1}});

/// Single-query scatter-gather: the shards answer top-k in parallel on the
/// default executor, hits are remapped and k-way merged.
void BM_ShardSearch(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const char* child = kChildTypes[state.range(1)];
  auto points = bench::SyntheticTupleCloud(8192, kDim, 16, 4);
  shard::ShardedIndex index(kDim, la::Metric::kCosine,
                            BenchShardConfig(shards, child));
  index.AddAll(points);
  la::Vec query = bench::SyntheticTupleCloud(1, kDim, 1, 5)[0];
  benchmark::DoNotOptimize(index.Search(query, 10).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(query, 10).size());
  }
  state.SetLabel(std::string(child) + " x" + std::to_string(shards));
}
BENCHMARK(BM_ShardSearch)->ArgsProduct({{1, 2, 4, 8}, {0, 1}});

/// Batched scatter-gather — the tuple-search serving shape: shards answer
/// the whole batch sequentially with their internally-parallel SearchBatch,
/// then per-query hits merge.
void BM_ShardSearchBatch(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const char* child = kChildTypes[state.range(1)];
  auto points = bench::SyntheticTupleCloud(8192, kDim, 16, 4);
  shard::ShardedIndex index(kDim, la::Metric::kCosine,
                            BenchShardConfig(shards, child));
  index.AddAll(points);
  std::vector<la::Vec> queries = bench::SyntheticTupleCloud(64, kDim, 8, 5);
  benchmark::DoNotOptimize(index.SearchBatch(queries, 10).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.SearchBatch(queries, 10).size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
  state.SetLabel(std::string(child) + " x" + std::to_string(shards));
}
BENCHMARK(BM_ShardSearchBatch)->ArgsProduct({{1, 2, 4, 8}, {0, 1}});

/// Manifest + per-shard persistence round trip (the offline/online split
/// for sharded lakes).
void BM_ShardSaveLoad(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  auto points = bench::SyntheticTupleCloud(8192, kDim, 16, 4);
  shard::ShardedIndex index(kDim, la::Metric::kCosine,
                            BenchShardConfig(shards, "flat"));
  index.AddAll(points);
  const std::string path = BenchShardPath();
  for (auto _ : state) {
    if (!index.Save(path).ok()) {
      state.SkipWithError("cannot write bench shard file");
      return;
    }
    auto loaded = io::LoadIndex(path);
    benchmark::DoNotOptimize(loaded.ok());
  }
  std::error_code ec;
  state.counters["file_bytes"] =
      static_cast<double>(std::filesystem::file_size(path, ec));
  std::filesystem::remove(path, ec);
  state.SetLabel("flat x" + std::to_string(shards));
}
BENCHMARK(BM_ShardSaveLoad)->Arg(1)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
