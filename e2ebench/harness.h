// Shared pieces of the end-to-end benchmark: the result report and its JSON
// line, percentiles under the ten-samples-beyond rule, open-loop request
// accounting, per-span self time, and peak memory. Kept header-only so the
// self-test binary checks exactly the code the benchmark runs.
#ifndef DUST_E2EBENCH_HARNESS_H_
#define DUST_E2EBENCH_HARNESS_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "serve/bounded_queue.h"

namespace dust::e2e {

/// A metric's printed name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What one benchmark run measured, printed as the run's last stdout line.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;

  void Set(const std::string& name, double value) { values[name] = value; }
  /// Records one output check; a failed check fails the run.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "output check failed: %s\n", what.c_str());
  }

  /// The result line: exactly the metrics in `specs`, in that order. A
  /// metric this run did not set reads 0 (a layer the workload never runs).
  std::string Json(const std::vector<MetricSpec>& specs) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < specs.size(); ++i) {
      auto it = values.find(specs[i].name);
      double v = it == values.end() ? 0.0 : it->second;
      if (!std::isfinite(v)) v = 0.0;
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", v);
      if (i > 0) out += ", ";
      out += std::string("\"") + specs[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + specs[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }
};

/// Milliseconds between two steady-clock points.
inline double MsBetween(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Number of samples that lie strictly above the p-th percentile of `n`
/// samples under linear interpolation (the rank-(n-1)p convention used by
/// Percentile): every sample ranked after floor((n-1)p).
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - static_cast<size_t>(std::floor(static_cast<double>(n - 1) * p));
}

/// Fewest samples for which a p-th percentile has ten samples beyond it —
/// the rule for reporting a tail percentile at all.
inline size_t MinSamplesFor(double p) {
  size_t n = 1;
  while (SamplesBeyond(n, p) < 10) ++n;
  return n;
}

/// p-th percentile (p in [0, 1]) with linear interpolation between ranks.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = static_cast<double>(samples.size() - 1) * p;
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// One open-loop request, in milliseconds from the schedule's start.
struct OpenLoopSample {
  double due_ms = 0.0;   ///< when the schedule said to send it
  double sent_ms = 0.0;  ///< when the generator actually sent it
  double done_ms = 0.0;  ///< when its answer was ready
  bool ok = false;       ///< answered without error and passed `keep`
  double latency_ms() const { return done_ms - due_ms; }
  double late_ms() const { return sent_ms - due_ms; }
};

/// Open loop: sends request i at start + i * period whether or not earlier
/// requests have finished, so a stall in the server (or in `send` itself,
/// as backpressure) makes later requests late and is charged to their
/// latency, which runs from the due time. `send(i)` issues request i and
/// returns its future; an answer already ready when `send` returns is
/// timed on the generator thread, the rest by a fleet of `waiters` threads
/// that block on them. `keep(i, answer)` checks an answer; false marks
/// the request failed.
template <typename T>
std::vector<OpenLoopSample> RunOpenLoop(
    size_t n, double period_ms,
    const std::function<std::future<T>(size_t)>& send,
    const std::function<bool(size_t, const T&)>& keep, size_t waiters) {
  using Clock = std::chrono::steady_clock;
  struct Pending {
    size_t index = 0;
    std::future<T> future;
  };
  std::vector<OpenLoopSample> samples(n);
  serve::BoundedQueue<Pending> pending(n == 0 ? 1 : n);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> fleet;
  fleet.reserve(waiters);
  for (size_t w = 0; w < waiters; ++w) {
    fleet.emplace_back([&] {
      Pending p;
      while (pending.Pop(&p)) {
        p.future.wait();
        samples[p.index].done_ms = MsBetween(start, Clock::now());
        samples[p.index].ok = keep(p.index, p.future.get());
      }
    });
  }
  for (size_t i = 0; i < n; ++i) {
    const double due_ms = period_ms * static_cast<double>(i);
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(due_ms));
    std::this_thread::sleep_until(due);
    samples[i].due_ms = due_ms;
    samples[i].sent_ms = MsBetween(start, Clock::now());
    std::future<T> future = send(i);
    if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      samples[i].done_ms = MsBetween(start, Clock::now());
      samples[i].ok = keep(i, future.get());
      continue;
    }
    pending.Push(Pending{i, std::move(future)});
  }
  pending.Close();
  for (std::thread& t : fleet) t.join();
  return samples;
}

/// Busy and self time of every span name. A span's self time is its
/// duration minus the part of it that its children's intervals cover.
struct LayerTime {
  double total_us = 0.0;
  double self_us = 0.0;
  size_t count = 0;
};

inline std::map<std::string, LayerTime> SelfTimes(
    const std::vector<obs::SpanRecord>& records) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const obs::SpanRecord& r : records) {
    if (r.parent_span_id != 0) {
      children[r.parent_span_id].push_back({r.start_us, r.start_us + r.duration_us});
    }
  }
  std::map<std::string, LayerTime> layers;
  for (const obs::SpanRecord& r : records) {
    const int64_t begin = r.start_us;
    const int64_t end = r.start_us + r.duration_us;
    int64_t covered = 0;
    auto it = children.find(r.span_id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> spans = it->second;
      std::sort(spans.begin(), spans.end());
      int64_t reach = begin;
      for (const auto& [child_begin, child_end] : spans) {
        const int64_t from = std::max(child_begin, reach);
        const int64_t to = std::min(child_end, end);
        if (to > from) {
          covered += to - from;
          reach = to;
        }
      }
    }
    LayerTime& layer = layers[r.name];
    layer.total_us += static_cast<double>(r.duration_us);
    layer.self_us += static_cast<double>(r.duration_us - covered);
    ++layer.count;
  }
  return layers;
}

/// Peak resident set size of this process so far, in MiB.
inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace dust::e2e

#endif  // DUST_E2EBENCH_HARNESS_H_
