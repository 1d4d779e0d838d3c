// Micro-benchmarks (google-benchmark) for the hot kernels: distance
// computations, NN-chain clustering, the vector indexes (build, save, load,
// query), and tuple and column embedding. The CI bench-smoke job runs the
// BM_Index*, BM_Kernel*, diversification (BM_DistanceMatrix,
// BM_NnChainClustering) and embedding (BM_HashedEncoderEmbed,
// BM_ColumnEmbedTables) benchmarks into BENCH_index.json,
// BENCH_kernels.json, BENCH_diversify.json and BENCH_embed.json and uploads
// them as per-PR artifacts, so the timings are tracked across revisions.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "bench/bench_util.h"
#include "cluster/agglomerative.h"
#include "datagen/tus_generator.h"
#include "embed/column_embedder.h"
#include "embed/embedder.h"
#include "index/flat_index.h"
#include "index/ivf_index.h"
#include "io/index_io.h"
#include "la/distance.h"
#include "la/simd/kernels.h"
#include "table/serialize.h"
#include "util/string_util.h"

using namespace dust;

namespace {

// --- SIMD kernel benchmarks (BM_Kernel*, exported as BENCH_kernels.json) ---
//
// Each benchmark runs once on the scalar backend (arg 1 == 0) and once on
// the dispatched backend (arg 1 == 1; "avx2" on AVX2 hardware, scalar
// otherwise — the label records which). The acceptance gate for this layer
// is >= 2x for AVX2 Dot / DistanceToMany over scalar at dim >= 128.

const la::simd::Kernels& BenchKernels(bool dispatched) {
  return dispatched ? la::simd::Active() : la::simd::ScalarKernels();
}

void BM_KernelDot(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const la::simd::Kernels& ops = BenchKernels(state.range(1) != 0);
  auto points = bench::SyntheticTupleCloud(2, dim, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops.dot(points[0].data(), points[1].data(), dim));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dim));
  state.SetLabel(ops.name);
}
BENCHMARK(BM_KernelDot)->ArgsProduct({{64, 128, 256, 768, 1024}, {0, 1}});

void BM_KernelCosineTerms(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const la::simd::Kernels& ops = BenchKernels(state.range(1) != 0);
  auto points = bench::SyntheticTupleCloud(2, dim, 1, 1);
  float dot = 0.0f, a2 = 0.0f, b2 = 0.0f;
  for (auto _ : state) {
    ops.cosine_terms(points[0].data(), points[1].data(), dim, &dot, &a2, &b2);
    benchmark::DoNotOptimize(dot);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dim));
  state.SetLabel(ops.name);
}
BENCHMARK(BM_KernelCosineTerms)->ArgsProduct({{128, 768}, {0, 1}});

/// One row of a distance-matrix tile: 64 packed candidates per dot_rows
/// call, the shape la::DistanceMatrix issues.
void BM_KernelDotRows(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t count = 64;
  const la::simd::Kernels& ops = BenchKernels(state.range(1) != 0);
  auto points = bench::SyntheticTupleCloud(count + 1, dim, 4, 1);
  std::vector<float> packed;
  for (size_t c = 1; c <= count; ++c) {
    packed.insert(packed.end(), points[c].begin(), points[c].end());
  }
  std::vector<float> out(count);
  for (auto _ : state) {
    ops.dot_rows(points[0].data(), packed.data(), dim, count, dim,
                 out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
  state.SetLabel(ops.name);
}
BENCHMARK(BM_KernelDotRows)->ArgsProduct({{64, 128, 768}, {0, 1}});

/// One-to-many batch kernel over an 8k-vector base with cached norms — the
/// exact shape of a FlatIndex scan / IVF probe.
void BM_KernelDistanceToMany(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t n = 8192;
  la::simd::ForceScalar(state.range(1) == 0);
  auto base = bench::SyntheticTupleCloud(n, dim, 16, 2);
  la::Vec query = bench::SyntheticTupleCloud(1, dim, 1, 3)[0];
  const std::vector<float> norms = la::NormsOf(base);
  std::vector<float> out;
  for (auto _ : state) {
    la::DistanceToMany(la::Metric::kCosine, query, base, norms, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(la::simd::ActiveName());
  la::simd::ForceScalar(false);
}
BENCHMARK(BM_KernelDistanceToMany)->ArgsProduct({{128, 256}, {0, 1}});

/// Per-candidate baseline for the same scan: one la::Distance call per
/// vector (three passes per cosine pair, no norm cache, no hoisted query
/// norm). The gap to BM_KernelDistanceToMany is the one-vs-many win.
void BM_KernelDistancePairLoop(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t n = 8192;
  la::simd::ForceScalar(state.range(1) == 0);
  auto base = bench::SyntheticTupleCloud(n, dim, 16, 2);
  la::Vec query = bench::SyntheticTupleCloud(1, dim, 1, 3)[0];
  std::vector<float> out(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = la::Distance(la::Metric::kCosine, query, base[i]);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(la::simd::ActiveName());
  la::simd::ForceScalar(false);
}
BENCHMARK(BM_KernelDistancePairLoop)->ArgsProduct({{128, 256}, {0, 1}});

void BM_CosineDistance(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  auto points = bench::SyntheticTupleCloud(2, dim, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::CosineDistance(points[0], points[1]));
  }
}
BENCHMARK(BM_CosineDistance)->Arg(64)->Arg(256)->Arg(768);

void BM_DistanceMatrix(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto points = bench::SyntheticTupleCloud(n, 64, 8, 2);
  for (auto _ : state) {
    la::DistanceMatrix m(points, la::Metric::kCosine);
    benchmark::DoNotOptimize(m.at(0, n - 1));
  }
}
// 2500 is the paper's pruning size s (Sec. 5.2), the n DUST clusters at.
BENCHMARK(BM_DistanceMatrix)->Arg(200)->Arg(500)->Arg(1000)->Arg(2500);

void BM_NnChainClustering(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto points = bench::SyntheticTupleCloud(n, 64, 10, 3);
  la::DistanceMatrix matrix(points, la::Metric::kCosine);
  for (auto _ : state) {
    cluster::Dendrogram d =
        cluster::AgglomerativeCluster(matrix, cluster::Linkage::kAverage);
    benchmark::DoNotOptimize(d.merges.size());
  }
}
BENCHMARK(BM_NnChainClustering)->Arg(200)->Arg(500)->Arg(1000)->Arg(2500);

constexpr const char* kIndexTypes[] = {"flat", "ivf", "lsh", "hnsw"};

/// Fraction of the exact top-10 the index reproduces, over 20 held-out
/// queries (the acceptance gate for approximate shortlists is >= 0.95).
double RecallAt10(const index::VectorIndex& idx,
                  const std::vector<la::Vec>& points) {
  index::FlatIndex exact(idx.dim(), la::Metric::kCosine);
  exact.AddAll(points);
  size_t found = 0, total = 0;
  for (uint64_t q = 0; q < 20; ++q) {
    la::Vec query = bench::SyntheticTupleCloud(1, idx.dim(), 1, 900 + q)[0];
    std::set<size_t> approx_ids;
    for (const auto& h : idx.Search(query, 10)) approx_ids.insert(h.id);
    for (const auto& h : exact.Search(query, 10)) {
      ++total;
      found += approx_ids.count(h.id);
    }
  }
  return static_cast<double>(found) / static_cast<double>(total);
}

/// Factory wrapper keeping the IVF parameters this benchmark has always
/// used (nlist=32, nprobe=4) instead of IvfConfig's defaults, so timings
/// stay comparable across revisions.
std::unique_ptr<index::VectorIndex> MakeBenchIndex(const std::string& type) {
  if (type == "ivf") {
    index::IvfConfig config;
    config.nlist = 32;
    config.nprobe = 4;
    return std::make_unique<index::IvfFlatIndex>(64, la::Metric::kCosine,
                                                 config);
  }
  return index::MakeVectorIndex(type, 64, la::Metric::kCosine);
}

/// Scratch file shared by the save/load benchmarks.
std::string BenchIndexPath() {
  return (std::filesystem::temp_directory_path() / "dust_bench_index.bin")
      .string();
}

void BM_IndexBuild(benchmark::State& state) {
  const char* type = kIndexTypes[state.range(0)];
  size_t n = static_cast<size_t>(state.range(1));
  auto points = bench::SyntheticTupleCloud(n, 64, 16, 4);
  for (auto _ : state) {
    auto idx = MakeBenchIndex(type);
    idx->AddAll(points);
    // Include IVF's k-means in the offline build cost instead of deferring
    // it to the first (timed) query.
    if (auto* ivf = dynamic_cast<index::IvfFlatIndex*>(idx.get())) {
      ivf->Train();
    }
    benchmark::DoNotOptimize(idx->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(type);
}
BENCHMARK(BM_IndexBuild)->ArgsProduct({{0, 1, 2, 3}, {2000, 10000}});

void BM_IndexSave(benchmark::State& state) {
  const char* type = kIndexTypes[state.range(0)];
  auto points = bench::SyntheticTupleCloud(10000, 64, 16, 4);
  auto idx = MakeBenchIndex(type);
  idx->AddAll(points);
  // Warm IVF's lazy training outside the timed loop (Save would otherwise
  // fold the one-time k-means into the first iteration).
  benchmark::DoNotOptimize(idx->Search(points[0], 1).size());
  const std::string path = BenchIndexPath();
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx->Save(path).ok());
  }
  std::error_code ec;
  state.counters["file_bytes"] = static_cast<double>(
      std::filesystem::file_size(path, ec));
  std::filesystem::remove(path, ec);
  state.SetLabel(type);
}
BENCHMARK(BM_IndexSave)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_IndexLoad(benchmark::State& state) {
  const char* type = kIndexTypes[state.range(0)];
  auto points = bench::SyntheticTupleCloud(10000, 64, 16, 4);
  auto idx = MakeBenchIndex(type);
  idx->AddAll(points);
  const std::string path = BenchIndexPath();
  if (!idx->Save(path).ok()) {
    state.SkipWithError("cannot write bench index file");
    return;
  }
  for (auto _ : state) {
    auto loaded = io::LoadIndex(path);
    benchmark::DoNotOptimize(loaded.ok());
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  state.SetLabel(type);
}
BENCHMARK(BM_IndexLoad)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_IndexSearch(benchmark::State& state) {
  const char* type = kIndexTypes[state.range(0)];
  size_t n = static_cast<size_t>(state.range(1));
  auto points = bench::SyntheticTupleCloud(n, 64, 16, 4);
  auto idx = MakeBenchIndex(type);
  idx->AddAll(points);
  la::Vec query = bench::SyntheticTupleCloud(1, 64, 1, 5)[0];
  // Warm any lazy training outside the timed loop.
  benchmark::DoNotOptimize(idx->Search(query, 10).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx->Search(query, 10).size());
  }
  state.counters["recall@10"] = RecallAt10(*idx, points);
  state.SetLabel(type);
}
BENCHMARK(BM_IndexSearch)
    ->ArgsProduct({{0, 1, 2, 3}, {2000, 10000}});  // flat, ivf, lsh, hnsw

void BM_IndexSearchBatch(benchmark::State& state) {
  const char* type = kIndexTypes[state.range(0)];
  auto points = bench::SyntheticTupleCloud(10000, 64, 16, 4);
  auto idx = MakeBenchIndex(type);
  idx->AddAll(points);
  std::vector<la::Vec> queries = bench::SyntheticTupleCloud(64, 64, 8, 5);
  benchmark::DoNotOptimize(idx->SearchBatch(queries, 10).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx->SearchBatch(queries, 10).size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
  state.SetLabel(type);
}
BENCHMARK(BM_IndexSearchBatch)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_TupleEncoding(benchmark::State& state) {
  auto encoder = bench::MakeBenchEncoder(64);
  std::string serialized =
      "[CLS] Park Name Chippewa Park [SEP] City Brandon, MN [SEP] Country "
      "USA [SEP] Supervisor Tim Erickson [SEP]";
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder->EncodeSerialized(serialized).size());
  }
}
BENCHMARK(BM_TupleEncoding);

// --- Embedding (BM_HashedEncoderEmbed, BM_ColumnEmbedTables; exported as
// BENCH_embed.json) ---
//
// The slice Algorithm 1 embeds per query at its defaults: a query table and
// the 20 tables retrieved for it (num_tables=20), 400 base rows, so some
// columns exceed the 512-token cap.
const datagen::Benchmark& EmbedSlice() {
  static const datagen::Benchmark* slice = [] {
    datagen::TusConfig config;
    config.num_queries = 1;
    config.unionable_per_query = 20;
    config.distractors_per_base = 0;
    config.base_rows = 400;
    config.seed = 1;
    return new datagen::Benchmark(datagen::GenerateTus(config));
  }();
  return *slice;
}

// Arg 0: family (embed::ModelFamily order). Arg 1: 0 = a serialized tuple,
// 1 = a 512-token column text. Arg 2: 0 = no noise, 1 = the family's
// DefaultConfigFor noise.
void BM_HashedEncoderEmbed(benchmark::State& state) {
  const auto family = static_cast<embed::ModelFamily>(state.range(0));
  const datagen::Benchmark& slice = EmbedSlice();
  std::string text = table::SerializeTableRow(slice.lake[0].data, 0);
  if (state.range(1) == 1) {
    for (const table::Column& c : slice.lake[0].data.columns()) {
      std::vector<std::string> tokens = embed::ColumnTokens(c);
      if (tokens.size() < 512) continue;
      tokens.resize(512);
      text = Join(tokens, " ");
      break;
    }
  }
  embed::EmbedderConfig config = embed::DefaultConfigFor(family, 64);
  if (state.range(2) == 0) config.noise_level = 0.0f;
  auto encoder = embed::MakeEmbedder(family, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder->Embed(text).data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
  state.SetLabel(std::string(embed::ModelFamilyName(family)) +
                 (state.range(1) == 1 ? " column" : " tuple") +
                 (state.range(2) == 1 ? " noisy" : " noiseless"));
}
BENCHMARK(BM_HashedEncoderEmbed)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}, {0, 1}});

void BM_ColumnEmbedTables(benchmark::State& state) {
  const datagen::Benchmark& slice = EmbedSlice();
  std::vector<const table::Table*> tables = {&slice.queries[0].data};
  for (size_t idx : slice.unionable[0]) tables.push_back(&slice.lake[idx].data);
  embed::ColumnEmbedder embedder(
      embed::MakeEmbedder(embed::ModelFamily::kRoberta,
                          embed::DefaultConfigFor(embed::ModelFamily::kRoberta,
                                                  64)),
      embed::ColumnSerialization::kColumnLevel);
  size_t columns = 0;
  for (const table::Table* t : tables) columns += t->num_columns();
  for (auto _ : state) {
    benchmark::DoNotOptimize(embedder.EmbedTables(tables).size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(columns));
  state.counters["tables"] = static_cast<double>(tables.size());
  state.counters["columns"] = static_cast<double>(columns);
}
BENCHMARK(BM_ColumnEmbedTables);

}  // namespace

BENCHMARK_MAIN();
