// tuple_serve: open-loop traffic into serve::QueryServer over a sharded HNSW
// TupleSearch. One generator sends zipfian-drawn query tables at a fixed
// rate below capacity, with the result cache on; latency runs from each
// request's due time. Every answer is checked bit for bit against a
// sequential TupleSearch::SearchTuplesChecked, and recall is measured
// against an exact flat TupleSearch over the same lake.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>

#include "datagen/tus_generator.h"
#include "diversify/metrics.h"
#include "e2ebench/workloads.h"
#include "embed/tuple_encoder.h"
#include "obs/trace_export.h"
#include "search/tuple_search.h"
#include "serve/executor.h"
#include "serve/query_server.h"
#include "table/serialize.h"
#include "util/rng.h"

namespace dust::e2e {
namespace {

using Clock = std::chrono::steady_clock;
using Answer = serve::QueryServer::TupleResult;

constexpr size_t kK = 10;
constexpr size_t kPoolSize = 2048;
constexpr size_t kRowsPerQuery = 2;
constexpr double kZipfS = 1.1;
/// Offered load, below the server's capacity on this lake.
constexpr double kRateQps = 100.0;
/// Latency limit for slo_attainment, from the due time.
constexpr double kSloMs = 25.0;
/// Result-cache entries, one per lock stripe; about 0.3 of requests hit
/// at steady state. Well below one half, so the median stays a cache
/// miss's latency instead of flipping between the two modes from run to
/// run.
constexpr size_t kCacheEntries = 16;
constexpr size_t kSetupRepeats = 3;
constexpr size_t kWaiters = 8;
/// Requests in a traced phase: few enough that the server's spans (about
/// eight per cache miss on the dispatcher thread) fit the global span ring.
constexpr size_t kTracedRequests = 200;

/// Zipfian ranks over [0, n): P(rank) ~ 1 / (rank + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s, uint64_t seed) : rng_(seed) {
    double total = 0.0;
    for (size_t rank = 1; rank <= n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Next() {
    const double u = rng_.NextDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(rank, cdf_.size() - 1);
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

serve::QueryServerOptions ServerOptions(bool traced) {
  serve::QueryServerOptions options;
  options.threads = 4;
  options.queue_capacity = 1024;
  options.max_batch = 32;
  options.batch_window_us = 200;
  options.cache_entries = kCacheEntries;
  options.trace_sample_rate = traced ? 1.0 : 0.0;
  return options;
}

/// One traffic phase: warm the server's cache with its own zipfian stream,
/// then run the timed open loop. answers[i] keeps request i's hits.
struct Phase {
  std::vector<OpenLoopSample> samples;
  std::vector<std::vector<search::TupleHit>> answers;
  serve::QueryServerStats stats;
};

Phase RunPhase(const search::TupleSearch& search,
               const std::vector<table::Table>& pool,
               const std::vector<size_t>& warm_draws,
               const std::vector<size_t>& draws, bool traced) {
  Phase phase;
  serve::QueryServer server(&search, ServerOptions(traced));
  // Warm-up: one closed-loop client, so the queue's lifetime high-water
  // mark is the timed phase's.
  for (size_t d : warm_draws) server.Submit(pool[d], kK).get();
  if (traced) obs::SpanCollector::Global().Clear();
  const serve::QueryServerStats warm = server.stats();

  phase.answers.resize(draws.size());
  const std::function<std::future<Answer>(size_t)> send = [&](size_t i) {
    return server.Submit(pool[draws[i]], kK);
  };
  const std::function<bool(size_t, const Answer&)> keep = [&](size_t i, const Answer& answer) {
    if (!answer.ok()) return false;
    phase.answers[i] = answer.value();
    return true;
  };
  phase.samples = RunOpenLoop<Answer>(draws.size(), 1000.0 / kRateQps, send,
                                      keep, kWaiters);
  server.Shutdown();
  phase.stats = server.stats();
  // Cache counters of the timed phase alone.
  phase.stats.cache_hits -= warm.cache_hits;
  phase.stats.cache_misses -= warm.cache_misses;
  phase.stats.cache_evictions -= warm.cache_evictions;
  phase.stats.served -= warm.served;
  phase.stats.batches -= warm.batches;
  phase.stats.mean_batch_size =
      phase.stats.batches > 0 ? static_cast<double>(phase.stats.served) /
                                    static_cast<double>(phase.stats.batches)
                              : 0.0;
  const double probes =
      static_cast<double>(phase.stats.cache_hits + phase.stats.cache_misses);
  phase.stats.cache_hit_rate =
      probes > 0 ? static_cast<double>(phase.stats.cache_hits) / probes : 0.0;
  return phase;
}

std::vector<double> Latencies(const std::vector<OpenLoopSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const OpenLoopSample& s : samples) out.push_back(s.latency_ms());
  return out;
}

/// The p-th percentile of each of kWindows consecutive, equal slices of the
/// schedule, and the median of those. A host hiccup confined to one slice
/// (neighbour load on a shared machine) then does not move the figure.
constexpr size_t kWindows = 3;
double WindowedPercentile(const std::vector<double>& latencies, double p) {
  std::vector<double> per_window;
  const size_t n = latencies.size();
  for (size_t w = 0; w < kWindows; ++w) {
    per_window.push_back(Percentile(
        std::vector<double>(latencies.begin() + n * w / kWindows,
                            latencies.begin() + n * (w + 1) / kWindows),
        p));
  }
  return Median(per_window);
}

bool SameHits(const std::vector<search::TupleHit>& a,
              const std::vector<search::TupleHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].ref == b[i].ref) || a[i].similarity != b[i].similarity) return false;
  }
  return true;
}

}  // namespace

Report RunTupleServe(const RunOptions& options) {
  Report report;

  // Inputs, before any timing: the lake, a pool of small query tables cut
  // from it, the warm-up and timed zipfian draws, and the schedule.
  datagen::TusConfig lake_config;
  lake_config.num_queries = 8;
  lake_config.unionable_per_query = 50;
  lake_config.distractors_per_base = 2;
  lake_config.base_rows = 150;
  lake_config.seed = DeriveSeed(options.seed, "lake");
  const datagen::Benchmark bench = datagen::GenerateTus(lake_config);
  std::vector<const table::Table*> lake;
  for (const datagen::GeneratedTable& t : bench.lake) lake.push_back(&t.data);

  std::vector<table::Table> pool;
  Rng pool_rng(DeriveSeed(options.seed, "query_pool"));
  while (pool.size() < kPoolSize) {
    const table::Table& source = *lake[pool_rng.NextBelow(lake.size())];
    if (source.num_rows() < kRowsPerQuery) continue;
    table::Table query =
        source.SelectRows(pool_rng.SampleWithoutReplacement(source.num_rows(), kRowsPerQuery));
    query.set_name("q" + std::to_string(pool.size()));
    pool.push_back(std::move(query));
  }
  // Which pool entries are popular changes with the seed too.
  Rng rank_rng(DeriveSeed(options.seed, "zipf_ranks"));
  const std::vector<size_t> by_rank = rank_rng.Permutation(kPoolSize);
  auto draw = [&](const std::string& stream, size_t n) {
    Zipf zipf(kPoolSize, kZipfS, DeriveSeed(options.seed, stream));
    std::vector<size_t> out(n);
    for (size_t& d : out) d = by_rank[zipf.Next()];
    return out;
  };

  embed::EmbedderConfig encoder_config;
  encoder_config.dim = 64;
  encoder_config.noise_level = 0.0f;
  auto encoder = std::make_shared<embed::PretrainedTupleEncoder>(
      std::shared_ptr<embed::TextEmbedder>(
          embed::MakeEmbedder(embed::ModelFamily::kRoberta, encoder_config)));

  // Set-up: TupleSearch::IndexLake, several times; the median is setup_s.
  search::TupleSearchConfig config;
  config.index_type = "sharded:hnsw:4";
  std::unique_ptr<search::TupleSearch> search;
  std::vector<double> setup_s;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    search.reset();
    search = std::make_unique<search::TupleSearch>(encoder, config);
    const auto t0 = Clock::now();
    search->IndexLake(lake);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }
  search::TupleSearch exact(encoder, search::TupleSearchConfig{});
  exact.IndexLake(lake);
  const double peak_rss_mb = PeakRssMb();  // through set-up, before traffic

  // Traffic. A traced run adds a short traced phase that replays the
  // start of the same schedule.
  const double phase_seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  const size_t requests =
      std::max<size_t>(MinSamplesFor(0.99), static_cast<size_t>(phase_seconds * kRateQps));
  const std::vector<size_t> warm_draws = draw("warm_draws", 16 * kCacheEntries);
  const std::vector<size_t> draws = draw("draws", requests);
  Phase phase = RunPhase(*search, pool, warm_draws, draws, false);
  Phase traced_phase;
  if (options.trace) {
    const std::vector<size_t> traced_draws(draws.begin(), draws.begin() + kTracedRequests);
    traced_phase = RunPhase(*search, pool, warm_draws, traced_draws, true);
  }

  // Output checks, untimed: one sequential reference per distinct query.
  std::vector<size_t> distinct(draws.begin(), draws.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  struct Reference {
    std::vector<search::TupleHit> hits;
    double recall = 0.0;
    double diversity = 0.0;
    bool ok = false;
  };
  std::vector<Reference> reference(kPoolSize);
  {
    serve::Executor executor(4);
    executor.ParallelFor(distinct.size(), [&](size_t d) {
      const table::Table& query = pool[distinct[d]];
      Reference& ref = reference[distinct[d]];
      Result<std::vector<search::TupleHit>> hits = search->SearchTuplesChecked(query, kK);
      Result<std::vector<search::TupleHit>> truth = exact.SearchTuplesChecked(query, kK);
      if (!hits.ok() || !truth.ok()) return;
      ref.ok = true;
      ref.hits = hits.value();
      std::set<std::pair<size_t, size_t>> truth_refs;
      for (const search::TupleHit& h : truth.value()) {
        truth_refs.insert({h.ref.table_index, h.ref.row_index});
      }
      size_t found = 0;
      std::vector<la::Vec> selected;
      for (const search::TupleHit& h : ref.hits) {
        found += truth_refs.count({h.ref.table_index, h.ref.row_index});
        selected.push_back(encoder->EncodeSerialized(
            table::SerializeTableRow(*lake[h.ref.table_index], h.ref.row_index)));
      }
      ref.recall = static_cast<double>(found) /
                   static_cast<double>(std::max<size_t>(1, truth_refs.size()));
      ref.diversity = diversify::AverageDiversity(encoder->EncodeTableRows(query),
                                                  selected, la::Metric::kCosine);
    });
  }

  size_t mismatches = 0;
  auto check_phase = [&](Phase& p) {
    for (size_t i = 0; i < p.samples.size(); ++i) {
      const Reference& ref = reference[draws[i]];
      if (p.samples[i].ok && !(ref.ok && SameHits(p.answers[i], ref.hits))) {
        p.samples[i].ok = false;
        ++mismatches;
      }
      report.attempted += 1;
      report.failed += p.samples[i].ok ? 0 : 1;
    }
  };
  check_phase(phase);
  if (options.trace) check_phase(traced_phase);
  report.Check(mismatches == 0, "tuple_serve: " + std::to_string(mismatches) +
                                    " served answers differ from sequential search");
  report.Check(report.failed == 0, "tuple_serve: " + std::to_string(report.failed) +
                                       " requests failed");

  const std::vector<double> latencies = Latencies(phase.samples);
  std::printf("tuple_serve: %zu requests, %zu beyond p99, cache hit rate %.3f\n",
              latencies.size(), SamplesBeyond(latencies.size(), 0.99),
              phase.stats.cache_hit_rate);

  if (!options.trace) {
    size_t within = 0;
    for (size_t i = 0; i < phase.samples.size(); ++i) {
      within += phase.samples[i].ok && latencies[i] <= kSloMs;
    }
    // Quality per distinct query: a mean over requests would be dominated
    // by the few most popular queries, which change with the seed.
    double recall = 0.0, diversity = 0.0;
    for (size_t d : distinct) {
      recall += reference[d].recall;
      diversity += reference[d].diversity;
    }
    const double n = static_cast<double>(phase.samples.size());
    const double num_distinct = static_cast<double>(distinct.size());
    double last_done_ms = 0.0;
    for (const OpenLoopSample& s : phase.samples) last_done_ms = std::max(last_done_ms, s.done_ms);
    size_t completed = 0;
    for (const OpenLoopSample& s : phase.samples) completed += s.ok;
    report.Set("latency_p50_ms", WindowedPercentile(latencies, 0.5));
    report.Set("latency_p90_ms", WindowedPercentile(latencies, 0.9));
    report.Set("throughput_qps", static_cast<double>(completed) / (last_done_ms / 1000.0));
    report.Set("slo_attainment", static_cast<double>(within) / n);
    report.Set("setup_s", Median(setup_s));
    report.Set("peak_rss_mb", peak_rss_mb);
    report.Set("avg_diversity", diversity / num_distinct);
    report.Set("recall_at_10", recall / num_distinct);
    report.Set("ok_ratio", 1.0 - static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted));
    return report;
  }

  // Per-layer: the server's own spans and stats from the traced phase.
  const std::vector<obs::SpanRecord> records = obs::SpanCollector::Global().Snapshot();
  const std::map<std::string, LayerTime> layers = SelfTimes(records);
  auto mean_ms = [&](const char* span) {
    auto it = layers.find(span);
    return it == layers.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / 1000.0 / static_cast<double>(it->second.count);
  };
  const serve::QueryServerStats& stats = traced_phase.stats;
  // Too noisy run to run on a shared host to gate on (see README.md);
  // reported here, from the untraced phase, to show where the tail sits.
  report.Set("serve.latency_p99_ms", Percentile(latencies, 0.99));
  report.Set("serve.queue_wait_ms", mean_ms("queue_wait"));
  report.Set("serve.batch_size_mean", stats.mean_batch_size);
  report.Set("serve.queue_depth_max", static_cast<double>(stats.max_queue_depth));
  report.Set("serve.cache_hit_rate", stats.cache_hit_rate);
  report.Set("serve.cache_evictions", static_cast<double>(stats.cache_evictions));
  report.Set("search.encode_ms", mean_ms("encode"));
  report.Set("index.search_ms", mean_ms("index_search"));
  // Per batch: the scatter over every shard (one span per shard).
  auto total_ms = [&](const char* span) {
    auto it = layers.find(span);
    return it == layers.end() ? 0.0 : it->second.total_us / 1000.0;
  };
  const auto searches = layers.find("index_search");
  report.Set("shard.scatter_ms",
             searches == layers.end()
                 ? 0.0
                 : total_ms("scatter_batch") / static_cast<double>(searches->second.count));
  report.Set("search.fuse_ms", mean_ms("fuse"));
  // The generator's lateness does not depend on tracing; the untraced phase
  // has the samples for a p99.
  std::vector<double> late;
  for (const OpenLoopSample& s : phase.samples) late.push_back(s.late_ms());
  report.Set("loadgen.late_p99_ms", Percentile(late, 0.99));
  const std::vector<double> untraced_head(latencies.begin(),
                                          latencies.begin() + kTracedRequests);
  report.Set("obs.trace_overhead", Percentile(Latencies(traced_phase.samples), 0.5) /
                                       Percentile(untraced_head, 0.5));
  report.Set("obs.spans_dropped",
             static_cast<double>(obs::SpanCollector::Global().dropped_total()));
  if (!options.trace_out.empty()) {
    Status written = obs::WriteChromeTrace(options.trace_out, records, "tuple_serve");
    if (!written.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", written.ToString().c_str());
    }
  }
  return report;
}

}  // namespace dust::e2e
