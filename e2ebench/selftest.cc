// Self-tests of the benchmark's own arithmetic: the percentile helper and
// its ten-samples-beyond rule, open-loop accounting under an injected
// stall, and per-span self time. Exits non-zero on the first failure.
// Run through `python3 e2ebench/run.py --selftest`, which also checks the
// metric names against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "e2ebench/harness.h"
#include "util/rng.h"

namespace {

using namespace dust::e2e;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void TestPercentileRule() {
  dust::Rng rng(7);
  for (double p : {0.5, 0.9, 0.99}) {
    for (size_t n : {1, 2, 10, 91, 92, 100, 999, 1000, 1001}) {
      std::vector<double> samples(n);
      for (double& s : samples) s = rng.NextDouble();  // distinct w.p. 1
      const double value = Percentile(samples, p);
      size_t beyond = 0;
      for (double s : samples) beyond += s > value;
      Expect(beyond == SamplesBeyond(n, p),
             "SamplesBeyond(" + std::to_string(n) + ", " + std::to_string(p) +
                 ") counts the samples above Percentile");
    }
    const size_t min_n = MinSamplesFor(p);
    Expect(SamplesBeyond(min_n, p) >= 10 && SamplesBeyond(min_n - 1, p) < 10,
           "MinSamplesFor(" + std::to_string(p) + ") is the fewest samples with ten beyond");
  }
  Expect(MinSamplesFor(0.9) <= 100 && MinSamplesFor(0.99) <= 1000,
         "p90 needs at most 100 samples and p99 at most 1000");
  Expect(Percentile({1, 2, 3, 4}, 0.5) == 2.5, "median interpolates");
  Expect(Percentile({5}, 0.99) == 5, "one sample is every percentile");
}

/// A generator-side stall (Submit blocking under backpressure) must be
/// charged to every request due while it lasted, timed from the due time.
void TestStallInSend() {
  constexpr size_t kN = 24;
  constexpr double kPeriod = 5.0;
  constexpr double kStall = 60.0;
  const std::function<std::future<int>(size_t)> send = [&](size_t i) {
    if (i == 4) std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kStall));
    std::promise<int> done;
    done.set_value(static_cast<int>(i));
    return done.get_future();
  };
  const std::function<bool(size_t, const int&)> keep = [](size_t i, const int& v) {
    return static_cast<size_t>(v) == i;
  };
  const std::vector<OpenLoopSample> s = RunOpenLoop<int>(kN, kPeriod, send, keep, 2);
  const double stall_end = 4 * kPeriod + kStall;
  for (size_t i = 0; i < kN; ++i) {
    Expect(s[i].ok, "request " + std::to_string(i) + " answered");
    Expect(s[i].due_ms == kPeriod * static_cast<double>(i), "due times follow the schedule");
    if (i >= 5 && s[i].due_ms < stall_end) {
      Expect(s[i].latency_ms() >= stall_end - s[i].due_ms - 0.5,
             "request " + std::to_string(i) + " is charged the stall from its due time");
      Expect(s[i].late_ms() >= stall_end - s[i].due_ms - 0.5,
             "request " + std::to_string(i) + " is reported late");
    }
  }
  Expect(s[4].latency_ms() >= kStall - 0.5, "the stalled request carries the stall");
}

/// A slow answer must not hold back later sends: they go out on time.
void TestSlowAnswer() {
  constexpr size_t kN = 16;
  constexpr double kPeriod = 5.0;
  std::vector<std::thread> servers;
  std::mutex mu;
  const std::function<std::future<int>(size_t)> send = [&](size_t i) {
    auto done = std::make_shared<std::promise<int>>();
    std::future<int> future = done->get_future();
    std::lock_guard<std::mutex> lock(mu);
    servers.emplace_back([done, i] {
      if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      done->set_value(static_cast<int>(i));
    });
    return future;
  };
  const std::function<bool(size_t, const int&)> keep = [](size_t, const int&) { return true; };
  const std::vector<OpenLoopSample> s = RunOpenLoop<int>(kN, kPeriod, send, keep, 4);
  for (std::thread& t : servers) t.join();
  Expect(s[2].latency_ms() >= 50.0, "the slow answer's latency includes its wait");
  double worst_late = 0.0;
  for (const OpenLoopSample& x : s) worst_late = std::max(worst_late, x.late_ms());
  Expect(worst_late < 20.0, "a slow answer does not delay later sends");
}

void TestSelfTime() {
  using dust::obs::SpanRecord;
  std::vector<SpanRecord> records(4);
  records[0].span_id = 1;  // root [0, 100)
  records[0].name = "root";
  records[0].duration_us = 100;
  records[1].span_id = 2;  // child [10, 40)
  records[1].parent_span_id = 1;
  records[1].name = "a";
  records[1].start_us = 10;
  records[1].duration_us = 30;
  records[2].span_id = 3;  // child [30, 60), overlaps a by 10
  records[2].parent_span_id = 1;
  records[2].name = "b";
  records[2].start_us = 30;
  records[2].duration_us = 30;
  records[3].span_id = 4;  // grandchild under a, [15, 25)
  records[3].parent_span_id = 2;
  records[3].name = "c";
  records[3].start_us = 15;
  records[3].duration_us = 10;
  const auto layers = SelfTimes(records);
  Expect(layers.at("root").self_us == 50, "root self time excludes the union of children");
  Expect(layers.at("a").self_us == 20, "a's self time excludes its child");
  Expect(layers.at("b").self_us == 30 && layers.at("c").self_us == 10,
         "leaf self time is the duration");
  Expect(layers.at("root").total_us == 100 && layers.at("root").count == 1,
         "total time and count");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestStallInSend();
  TestSlowAnswer();
  TestSelfTime();
  if (failures > 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
    return 1;
  }
  std::printf("e2e_selftest: all checks passed\n");
  return 0;
}
