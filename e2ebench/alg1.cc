// Algorithm 1 workloads: closed-loop clients calling core::DustPipeline::Run
// over a generated TUS lake.
//
// The traced run cannot put spans inside Run, so it replays Run from the
// outside: TracedRun below calls the same public layer functions in the
// same order with the same arguments, with an obs::Span around each phase,
// on a search engine built from the same config over the same lake. Every
// run checks that each timed Run selects exactly the tuples the replay
// selects; a replay that drifted from Run would time the wrong program.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "align/holistic_aligner.h"
#include "align/tuple_builder.h"
#include "cluster/agglomerative.h"
#include "cluster/medoid.h"
#include "core/pipeline.h"
#include "datagen/tus_generator.h"
#include "diversify/dust_diversifier.h"
#include "diversify/metrics.h"
#include "e2ebench/workloads.h"
#include "embed/column_embedder.h"
#include "embed/tuple_encoder.h"
#include "obs/trace_export.h"
#include "search/embedding_search.h"

namespace dust::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kQueryColumns = 3;

struct Alg1Workload {
  const char* name;
  datagen::TusConfig lake;
  core::PipelineConfig pipeline;
  size_t k = 30;
  size_t clients = 1;
  /// IndexLake repetitions; setup_s is their median.
  size_t setup_repeats = 5;
  /// Latency limit for slo_attainment, fixed per workload (about twice the
  /// median measured when the benchmark was written).
  double slo_ms = 0.0;
};

Alg1Workload MakeWorkload(const std::string& name) {
  Alg1Workload w;
  // Nine queries, an odd number, timed equally often: the median then falls
  // inside one query's latency distribution instead of on the boundary
  // between two queries of different cost, where it swings with noise.
  w.lake.num_queries = 9;
  w.lake.distractors_per_base = 2;
  w.pipeline.search_index = "flat";
  w.pipeline.diversifier.prune_s = 2500;
  w.pipeline.diversifier.p = 2;
  if (name == "alg1_wide") {
    // Search-heavy: many small tables, few unionable tuples per query.
    w.name = "alg1_wide";
    w.lake.unionable_per_query = 1000;
    w.lake.distractors_per_base = 100;
    w.lake.base_rows = 40;
    w.pipeline.num_tables = 5;
    w.k = 10;
    w.slo_ms = 60.0;
  } else {
    // Diversification-heavy: the paper's default configuration, about 3,600
    // unionable tuples per query pruned to s = 2500.
    w.name = name == "alg1_concurrent" ? "alg1_concurrent" : "alg1_dense";
    w.lake.unionable_per_query = 50;
    w.lake.base_rows = 400;
    w.pipeline.num_tables = 20;
    w.k = 30;
    w.clients = name == "alg1_concurrent" ? 4 : 1;
    w.slo_ms = name == "alg1_concurrent" ? 1000.0 : 600.0;
  }
  return w;
}

/// The search-engine config DustPipeline's constructor derives from a
/// PipelineConfig (starmie engine), so the replay searches an identical
/// engine.
search::EmbeddingSearchConfig SearchConfigOf(const core::PipelineConfig& c) {
  search::EmbeddingSearchConfig config;
  const std::string index_spec = c.EffectiveSearchIndex();
  config.encoder.dim = c.embedding_dim;
  config.encoder.seed = c.seed;
  config.index_type = index_spec;
  config.index_options.hnsw_m = c.hnsw_m;
  config.index_options.hnsw_ef_search = c.hnsw_ef_search;
  config.shortlist = c.search_shortlist;
  if (index_spec != "flat" && c.search_shortlist == 0) {
    config.shortlist = core::PipelineConfig::DefaultShortlist(c.num_tables);
  }
  config.cascade = c.cascade;
  return config;
}

/// Everything Run reads.
struct Engine {
  const core::PipelineConfig* config = nullptr;
  const search::EmbeddingUnionSearch* search = nullptr;
  const std::vector<const table::Table*>* lake = nullptr;
  const embed::TupleEncoder* encoder = nullptr;
};

/// Work counts of one replayed query.
struct Counts {
  double tables_scored = 0;
  double tables_kept = 0;
  double columns_embedded = 0;
  double unionable_tuples = 0;
  double tuples_encoded = 0;
  double kept = 0;
  double distance_pairs = 0;

  Counts& operator+=(const Counts& o) {
    tables_scored += o.tables_scored;
    tables_kept += o.tables_kept;
    columns_embedded += o.columns_embedded;
    unionable_tuples += o.unionable_tuples;
    tuples_encoded += o.tuples_encoded;
    kept += o.kept;
    distance_pairs += o.distance_pairs;
    return *this;
  }
};

struct Replay {
  std::vector<table::TupleRef> provenance;
  std::vector<la::Vec> query_embeddings;
  std::vector<la::Vec> selected_embeddings;
  Counts counts;
};

/// DustPipeline::Run, phase by phase, with one span per phase recorded into
/// `spans` when the calling thread's trace context is sampled.
Result<Replay> TracedRun(const Engine& e, const table::Table& query,
                         size_t k, obs::SpanCollector* spans) {
  const core::PipelineConfig& config = *e.config;
  Replay replay;
  obs::Span root("alg1", spans);

  std::vector<search::TableHit> tables;
  {
    obs::Span span("search", spans);
    tables = e.search->SearchTables(query, config.num_tables);
    for (const search::cascade::StageStats& s : e.search->last_stage_stats()) {
      if (s.stage == "rerank") replay.counts.tables_scored = static_cast<double>(s.in);
    }
    if (tables.empty()) return Status::NotFound("no unionable tables found");
    while (tables.size() > 1 && tables.back().score < config.min_table_score) {
      tables.pop_back();
    }
  }
  replay.counts.tables_kept = static_cast<double>(tables.size());

  std::vector<const table::Table*> retrieved;
  for (const search::TableHit& hit : tables) {
    retrieved.push_back((*e.lake)[hit.table_index]);
  }
  align::AlignmentResult alignment;
  Result<align::UnionableTuples> tuples = Status::Internal("not built");
  {
    obs::Span align_columns("align_columns", spans);
    std::vector<std::vector<la::Vec>> column_embeddings;
    {
      obs::Span span("column_embed", spans);
      auto encoder = embed::MakeEmbedder(
          config.column_model,
          embed::DefaultConfigFor(config.column_model, config.embedding_dim,
                                  config.seed));
      embed::ColumnEmbedder column_embedder(std::move(encoder),
                                            config.column_serialization);
      std::vector<const table::Table*> all_tables;
      all_tables.push_back(&query);
      for (const table::Table* t : retrieved) all_tables.push_back(t);
      column_embeddings = column_embedder.EmbedTables(all_tables);
    }
    for (const auto& columns : column_embeddings) {
      replay.counts.columns_embedded += static_cast<double>(columns.size());
    }
    {
      obs::Span span("align", spans);
      align::HolisticAligner aligner(config.aligner);
      alignment = aligner.Align(query, retrieved, column_embeddings);
    }
    {
      obs::Span span("tuple_build", spans);
      tuples = align::BuildUnionableTuples(query, retrieved, alignment);
    }
  }
  if (!tuples.ok()) return tuples.status();
  const align::UnionableTuples& unionable = tuples.value();
  if (unionable.unioned.num_rows() == 0) {
    return Status::NotFound("alignment produced no unionable tuples");
  }
  replay.counts.unionable_tuples = static_cast<double>(unionable.unioned.num_rows());

  std::vector<la::Vec> lake_embeddings;
  {
    obs::Span span("tuple_embed", spans);
    lake_embeddings.reserve(unionable.serialized.size());
    for (const std::string& ser : unionable.serialized) {
      lake_embeddings.push_back(e.encoder->EncodeSerialized(ser));
    }
    replay.query_embeddings.reserve(unionable.query_serialized.size());
    for (const std::string& ser : unionable.query_serialized) {
      replay.query_embeddings.push_back(e.encoder->EncodeSerialized(ser));
    }
  }
  replay.counts.tuples_encoded =
      static_cast<double>(lake_embeddings.size() + replay.query_embeddings.size());

  // DustDiversifier::SelectDiverse, phase by phase.
  std::vector<size_t> selected;
  {
    obs::Span diversify("diversify", spans);
    std::vector<size_t> table_of(unionable.provenance.size());
    for (size_t i = 0; i < unionable.provenance.size(); ++i) {
      table_of[i] = unionable.provenance[i].table_index;
    }
    diversify::DiversifyInput input;
    input.query = &replay.query_embeddings;
    input.lake = &lake_embeddings;
    input.metric = config.metric;
    input.table_of = &table_of;
    const diversify::DustDiversifierConfig& dc = config.diversifier;
    diversify::DustDiversifier diversifier(dc);
    const size_t k_eff = std::min(k, lake_embeddings.size());
    if (k_eff > 0) {
      std::vector<size_t> kept;
      {
        obs::Span span("prune", spans);
        if (dc.enable_pruning) {
          kept = diversifier.PruneTuples(input, std::max(dc.prune_s, k_eff));
        } else {
          kept.resize(lake_embeddings.size());
          std::iota(kept.begin(), kept.end(), 0);
        }
      }
      replay.counts.kept = static_cast<double>(kept.size());
      std::vector<size_t> candidates;
      const size_t num_clusters =
          std::min(kept.size(), k_eff * std::max<size_t>(1, dc.p));
      if (kept.size() <= num_clusters) {
        candidates = kept;
      } else {
        std::vector<la::Vec> pruned_points;
        pruned_points.reserve(kept.size());
        for (size_t i : kept) pruned_points.push_back(lake_embeddings[i]);
        const double n = static_cast<double>(kept.size());
        replay.counts.distance_pairs = n * (n - 1.0) / 2.0;
        la::DistanceMatrix distances;
        {
          obs::Span span("distance_matrix", spans);
          distances = la::DistanceMatrix(pruned_points, input.metric);
        }
        cluster::Dendrogram dendrogram;
        {
          obs::Span span("cluster", spans);
          dendrogram = cluster::AgglomerativeCluster(distances, dc.linkage);
        }
        std::vector<std::vector<size_t>> groups;
        {
          obs::Span span("cut", spans);
          groups = cluster::GroupByLabel(
              cluster::CutDendrogram(dendrogram, num_clusters));
        }
        {
          obs::Span span("medoid", spans);
          for (const auto& members : groups) {
            if (members.empty()) continue;
            candidates.push_back(kept[cluster::MedoidOf(members, distances)]);
          }
        }
      }
      {
        obs::Span span("rerank", spans);
        selected = diversify::RankCandidatesAgainstQuery(input, candidates);
        if (selected.size() > k_eff) selected.resize(k_eff);
      }
    }
  }

  table::Table output = unionable.unioned.SelectRows(selected);
  output.set_name("dust_output");
  for (size_t i : selected) {
    table::TupleRef ref = unionable.provenance[i];
    ref.table_index = tables[ref.table_index].table_index;
    replay.provenance.push_back(ref);
    replay.selected_embeddings.push_back(lake_embeddings[i]);
  }
  return replay;
}

bool DistinctRows(const std::vector<table::TupleRef>& refs) {
  std::set<std::pair<size_t, size_t>> seen;
  for (const table::TupleRef& r : refs) seen.insert({r.table_index, r.row_index});
  return seen.size() == refs.size();
}

/// The leaf phases of TracedRun, with the per-layer metric each feeds.
struct Phase {
  const char* span;
  const char* metric;
};
constexpr Phase kPhases[] = {
    {"search", "search.search_tables_ms"},
    {"column_embed", "embed.column_embed_ms"},
    {"align", "align.align_ms"},
    {"tuple_build", "align.tuple_build_ms"},
    {"tuple_embed", "embed.tuple_embed_ms"},
    {"prune", "diversify.prune_ms"},
    {"distance_matrix", "la.distance_matrix_ms"},
    {"cluster", "cluster.agglomerative_ms"},
    {"cut", "cluster.cut_ms"},
    {"medoid", "cluster.medoid_ms"},
    {"rerank", "diversify.rerank_ms"},
};

}  // namespace

Report RunAlg1(const RunOptions& options) {
  const Alg1Workload w = MakeWorkload(options.workload);
  Report report;

  // Inputs, before any timing.
  datagen::TusConfig lake_config = w.lake;
  lake_config.seed = DeriveSeed(options.seed, "lake");
  const datagen::Benchmark bench = datagen::GenerateTus(lake_config);
  std::vector<const table::Table*> lake;
  for (const datagen::GeneratedTable& t : bench.lake) lake.push_back(&t.data);
  // Query tables are cut to a fixed shape: the fewest rows the generator
  // ever samples (a quarter of the base table) and the fewest columns it
  // keeps (three, entity column first). Per-query work, and Eq. 1's (n + k)
  // normalisation, then do not swing with the seed.
  std::vector<table::Table> queries;
  for (const datagen::GeneratedTable& q : bench.queries) {
    std::vector<size_t> rows(std::min(q.data.num_rows(), w.lake.base_rows / 4));
    std::iota(rows.begin(), rows.end(), 0);
    std::vector<size_t> columns(std::min<size_t>(q.data.num_columns(), kQueryColumns));
    std::iota(columns.begin(), columns.end(), 0);
    queries.push_back(q.data.SelectRows(rows).ProjectColumns(columns));
    queries.back().set_name(q.data.name());
  }
  const size_t num_queries = queries.size();
  embed::EmbedderConfig encoder_config;
  encoder_config.dim = w.pipeline.embedding_dim;
  encoder_config.noise_level = 0.0f;
  auto encoder = std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, encoder_config)));

  // Set-up: IndexLake, several times; the median is setup_s.
  std::unique_ptr<core::DustPipeline> pipeline;
  std::vector<double> setup_s;
  for (size_t r = 0; r < w.setup_repeats; ++r) {
    pipeline.reset();
    pipeline = std::make_unique<core::DustPipeline>(w.pipeline, encoder);
    const auto t0 = Clock::now();
    pipeline->IndexLake(lake);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }
  search::EmbeddingUnionSearch replay_search(SearchConfigOf(w.pipeline));
  replay_search.IndexLake(lake);
  // Peak memory through set-up, before any query. A query's transient
  // buffers (two 25 MB distance matrices on the dense lake) would add 0, 22
  // or more MB depending on where the allocator happened to place them.
  const double peak_rss_mb = PeakRssMb();
  const Engine engine{&w.pipeline, &replay_search, &lake, encoder.get()};

  // Reference answers, untimed: the replay once per query. Every Run must
  // select exactly the replay's tuples, which must be min(k, unionable
  // tuples) distinct rows.
  std::vector<std::vector<table::TupleRef>> expected(num_queries);
  std::vector<size_t> expected_rows(num_queries, 0);
  double diversity_sum = 0.0;
  double recall_sum = 0.0;
  for (size_t q = 0; q < num_queries; ++q) {
    const table::Table& query = queries[q];
    Result<Replay> replay = TracedRun(engine, query, w.k, nullptr);
    const std::string label = std::string(w.name) + " query " + std::to_string(q);
    report.Check(replay.ok(), label + ": replay failed");
    if (!replay.ok()) continue;
    expected[q] = replay.value().provenance;
    expected_rows[q] = std::min<size_t>(
        w.k, static_cast<size_t>(replay.value().counts.unionable_tuples));
    report.Check(expected[q].size() == expected_rows[q] && DistinctRows(expected[q]),
                 label + ": replay did not select min(k, tuples) distinct rows");
    diversity_sum += diversify::AverageDiversity(
        replay.value().query_embeddings, replay.value().selected_embeddings,
        w.pipeline.metric);
    // Search quality against the generator's ground truth.
    const std::vector<size_t>& truth = bench.unionable[q];
    std::set<size_t> truth_set(truth.begin(), truth.end());
    size_t found = 0;
    for (const search::TableHit& hit : replay_search.SearchTables(query, 10)) {
      found += truth_set.count(hit.table_index);
    }
    recall_sum += static_cast<double>(found) /
                  static_cast<double>(std::max<size_t>(1, std::min<size_t>(10, truth.size())));
  }

  // Warm-up, untimed: one Run per query, which must match the replay too.
  for (size_t q = 0; q < num_queries; ++q) {
    Result<core::PipelineResult> run = pipeline->Run(queries[q], w.k);
    report.Check(run.ok() && run.value().provenance == expected[q] &&
                     run.value().output.num_rows() == expected_rows[q],
                 std::string(w.name) + " query " + std::to_string(q) +
                     ": Run selected other tuples than the replay");
  }

  // Closed loop: each client sends its next query when the previous one
  // returns. An untraced run lasts at least `seconds` and at least until
  // p90 has ten samples beyond it; a traced run alternates an untraced Run
  // with a traced replay of the same query.
  const size_t min_samples = options.trace ? num_queries : MinSamplesFor(0.9);
  const double max_seconds = std::max(options.seconds, 120.0);
  obs::SpanCollector spans(size_t{1} << 16, 1);
  std::mutex mu;
  std::vector<double> latencies_ms;
  std::vector<char> answered;  // per request: ok and equal to the reference
  std::vector<double> traced_ms;
  Counts traced_counts;  // summed over the traced replays
  std::atomic<size_t> done{0};
  const auto start = Clock::now();
  auto client = [&](size_t c) {
    for (size_t i = c;; i += w.clients) {
      const double elapsed = MsBetween(start, Clock::now()) / 1000.0;
      if ((elapsed >= options.seconds && done.load() >= min_samples) ||
          elapsed >= max_seconds) {
        return;
      }
      const size_t q = i % num_queries;
      const table::Table& query = queries[q];
      const auto t0 = Clock::now();
      Result<core::PipelineResult> run = pipeline->Run(query, w.k);
      const double ms = MsBetween(t0, Clock::now());
      const bool ok = run.ok() && run.value().provenance == expected[q] &&
                      run.value().output.num_rows() == expected_rows[q];
      if (!options.trace) {
        std::lock_guard<std::mutex> lock(mu);
        latencies_ms.push_back(ms);
        answered.push_back(ok);
        done.fetch_add(1);
        continue;
      }
      obs::ScopedTraceContext trace({obs::NewTraceId(), 0, true});
      const auto t1 = Clock::now();
      Result<Replay> replay = TracedRun(engine, query, w.k, &spans);
      const double replay_ms = MsBetween(t1, Clock::now());
      const bool replay_ok = replay.ok() && replay.value().provenance == expected[q];
      std::lock_guard<std::mutex> lock(mu);
      latencies_ms.push_back(ms);
      answered.push_back(ok);
      traced_ms.push_back(replay_ms);
      answered.push_back(replay_ok);
      if (replay_ok) traced_counts += replay.value().counts;
      done.fetch_add(1);
    }
  };
  std::vector<std::thread> fleet;
  for (size_t c = 0; c < w.clients; ++c) fleet.emplace_back(client, c);
  for (std::thread& t : fleet) t.join();
  const double wall_s = MsBetween(start, Clock::now()) / 1000.0;

  report.attempted = answered.size();
  report.failed = static_cast<uint64_t>(std::count(answered.begin(), answered.end(), 0));
  report.Check(report.failed == 0, std::string(w.name) +
                                       ": a timed answer failed or differed from the reference");
  const size_t n = latencies_ms.size();
  std::printf("%s: %zu requests, %zu beyond p90\n", w.name, n, SamplesBeyond(n, 0.9));

  if (!options.trace) {
    size_t within = 0;
    for (size_t i = 0; i < n; ++i) within += answered[i] && latencies_ms[i] <= w.slo_ms;
    report.Set("latency_p50_ms", Percentile(latencies_ms, 0.5));
    report.Set("latency_p90_ms", Percentile(latencies_ms, 0.9));
    report.Set("throughput_qps", static_cast<double>(n) / wall_s);
    report.Set("slo_attainment", static_cast<double>(within) / static_cast<double>(n));
    report.Set("setup_s", Median(setup_s));
    report.Set("peak_rss_mb", peak_rss_mb);
    report.Set("avg_diversity", diversity_sum / static_cast<double>(num_queries));
    report.Set("recall_at_10", recall_sum / static_cast<double>(num_queries));
    report.Set("ok_ratio", 1.0 - static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted));
    return report;
  }

  // Per-layer split of the traced replays: self time per phase, per query.
  const std::vector<obs::SpanRecord> records = spans.Snapshot();
  const std::map<std::string, LayerTime> layers = SelfTimes(records);
  const double traced = static_cast<double>(traced_ms.size());
  auto per_query_ms = [&](const char* span) {
    auto it = layers.find(span);
    return it == layers.end() ? 0.0 : it->second.self_us / 1000.0 / traced;
  };
  double phases_ms = 0.0;
  for (const Phase& phase : kPhases) {
    report.Set(phase.metric, per_query_ms(phase.span));
    phases_ms += per_query_ms(phase.span);
  }
  report.Set("core.glue_ms", per_query_ms("alg1") + per_query_ms("align_columns") +
                                 per_query_ms("diversify"));
  const double run_ms = Mean(latencies_ms);
  report.Set("core.run_ms", run_ms);
  report.Set("core.coverage", phases_ms / run_ms);
  report.Set("obs.trace_overhead", Mean(traced_ms) / run_ms);
  report.Set("obs.spans_dropped", static_cast<double>(spans.dropped_total()));
  report.Set("search.tables_scored", traced_counts.tables_scored / traced);
  report.Set("search.tables_kept", traced_counts.tables_kept / traced);
  report.Set("embed.columns_embedded", traced_counts.columns_embedded / traced);
  report.Set("align.unionable_tuples", traced_counts.unionable_tuples / traced);
  report.Set("embed.tuples_encoded", traced_counts.tuples_encoded / traced);
  report.Set("diversify.kept", traced_counts.kept / traced);
  report.Set("la.distance_pairs", traced_counts.distance_pairs / traced);
  if (traced_counts.distance_pairs > 0.0) {
    report.Set("la.ns_per_pair", per_query_ms("distance_matrix") * 1e6 /
                                     (traced_counts.distance_pairs / traced));
  }

  if (!options.trace_out.empty()) {
    // The search engine's own cascade stage spans land in the global
    // collector under this run's search spans; export both.
    std::vector<obs::SpanRecord> all = records;
    for (obs::SpanRecord& r : obs::SpanCollector::Global().Snapshot()) {
      all.push_back(std::move(r));
    }
    Status written = obs::WriteChromeTrace(options.trace_out, all, w.name);
    if (!written.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", written.ToString().c_str());
    }
  }
  return report;
}

}  // namespace dust::e2e
