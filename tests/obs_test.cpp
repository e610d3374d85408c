// The observability layer in isolation: sharded counters summing exactly
// under thread contention, log-bucket histogram quantiles against known
// sample sets, registry snapshots and Prometheus exposition, the runtime
// enable switch, and per-request traces (stamp/append/snapshot and the
// failure-report table). The serving-path integration — traced requests
// over the wire, the metrics request kind — lives in serve_test.cpp and
// fleet_test.cpp; the overhead contract in bench/perf_stack.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ro = repro::obs;

namespace {

/// Restores the global runtime switch no matter how the test exits.
struct EnabledGuard {
  ~EnabledGuard() { ro::set_enabled(true); }
};

double value_of(const std::vector<std::pair<std::string, double>>& values,
                const std::string& name) {
  for (const auto& [n, v] : values) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "metric " << name << " missing from snapshot";
  return -1.0;
}

}  // namespace

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  ro::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(CounterTest, DeltaIncrements) {
  ro::Counter counter;
  counter.inc(5);
  counter.inc();
  counter.inc(0);
  EXPECT_EQ(counter.value(), 6u);
}

TEST(GaugeTest, StoresLastValue) {
  ro::Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  gauge.set(-2.0);
  EXPECT_EQ(gauge.value(), -2.0);
}

TEST(GaugeTest, SetMaxKeepsTheHighWaterMarkUnderContention) {
  ro::Gauge gauge;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int i = 0; i < 1000; ++i) gauge.set_max(static_cast<double>(t * 1000 + i));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(gauge.value(), kThreads * 1000.0 - 1.0);
  gauge.set_max(5.0);  // lower values never pull the mark down
  EXPECT_EQ(gauge.value(), kThreads * 1000.0 - 1.0);
}

TEST(HistogramTest, QuantilesOnKnownSamples) {
  // 90 samples at ~3 µs (bucket [2,4)), 9 at ~100 µs ([64,128)), 1 at
  // ~5000 µs ([4096,8192)). Quantiles report the holding bucket's upper
  // edge, clamped to the observed max — the documented <=2x bound.
  ro::Histogram h;
  for (int i = 0; i < 90; ++i) h.observe_us(3.0);
  for (int i = 0; i < 9; ++i) h.observe_us(100.0);
  h.observe_us(5000.0);

  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.sum_us, 90 * 3.0 + 9 * 100.0 + 5000.0, 1.0);
  EXPECT_DOUBLE_EQ(snap.max_us, 5000.0);
  EXPECT_DOUBLE_EQ(snap.quantile_us(0.50), 4.0);     // inside the 3 µs mass
  EXPECT_DOUBLE_EQ(snap.quantile_us(0.95), 128.0);   // the 100 µs bucket
  EXPECT_DOUBLE_EQ(snap.quantile_us(0.99), 128.0);
  EXPECT_DOUBLE_EQ(snap.quantile_us(1.0), 5000.0);   // clamped to max
}

TEST(HistogramTest, SubMicrosecondAndNegativeSamplesLandInBucketZero) {
  ro::Histogram h;
  h.observe_us(0.25);
  h.observe_us(-7.0);  // clamped, never UB
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.buckets[0], 2u);
  // Bucket 0's upper edge bounds both; max is the clamped true max.
  EXPECT_LE(snap.quantile_us(1.0), ro::Histogram::bucket_upper_us(0));
}

TEST(HistogramTest, ConcurrentObservationsKeepCountAndMaxCoherent) {
  ro::Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe_us(static_cast<double>(1 + ((t * kPerThread + i) % 1000)));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_DOUBLE_EQ(snap.max_us, 1000.0);  // samples span 1..1000
}

TEST(RegistryTest, LookupIsIdempotentAndPointersStayValid) {
  ro::Registry registry;
  ro::Counter* a = registry.counter("x_total");
  ro::Counter* b = registry.counter("x_total");
  EXPECT_EQ(a, b);
  // Registering more instruments must not invalidate handed-out pointers.
  for (int i = 0; i < 100; ++i) {
    registry.counter("c" + std::to_string(i));
  }
  a->inc(3);
  EXPECT_EQ(registry.counter("x_total")->value(), 3u);
  EXPECT_NE(static_cast<void*>(registry.gauge("x_total")),
            static_cast<void*>(a));  // per-kind namespaces
}

TEST(RegistryTest, SnapshotExpandsHistogramsAndSortsNames) {
  ro::Registry registry;
  registry.counter("b_total")->inc(2);
  registry.gauge("a_gauge")->set(1.5);
  registry.gauge_fn("z_depth", [] { return 7.0; });
  ro::Histogram* h = registry.histogram("lat_us");
  h->observe_us(10.0);
  h->observe_us(20.0);

  const auto values = registry.snapshot_values();
  EXPECT_TRUE(std::is_sorted(
      values.begin(), values.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
  EXPECT_EQ(value_of(values, "b_total"), 2.0);
  EXPECT_EQ(value_of(values, "a_gauge"), 1.5);
  EXPECT_EQ(value_of(values, "z_depth"), 7.0);  // callback ran at snapshot
  EXPECT_EQ(value_of(values, "lat_us_count"), 2.0);
  EXPECT_NEAR(value_of(values, "lat_us_sum_us"), 30.0, 0.01);
  EXPECT_GT(value_of(values, "lat_us_p50_us"), 0.0);
  EXPECT_GT(value_of(values, "lat_us_p95_us"), 0.0);
  EXPECT_GT(value_of(values, "lat_us_p99_us"), 0.0);
  EXPECT_DOUBLE_EQ(value_of(values, "lat_us_max_us"), 20.0);
}

TEST(RegistryTest, PrometheusTextCarriesFlatLinesAndBucketSeries) {
  ro::Registry registry;
  registry.counter("req_total")->inc(4);
  registry.histogram("lat_us")->observe_us(3.0);

  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("req_total 4\n"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_us_count 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 1\n"), std::string::npos) << text;
}

TEST(RegistryTest, SnapshotRunsWhileWritersRun) {
  ro::Registry registry;
  ro::Counter* c = registry.counter("hot_total");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) c->inc();
  });
  // On a single-CPU box the snapshot loop below can finish before the
  // writer thread is ever scheduled — yield until it has visibly run so the
  // snapshots genuinely race live increments.
  while (c->value() == 0) std::this_thread::yield();
  for (int i = 0; i < 50; ++i) {
    const auto values = registry.snapshot_values();
    EXPECT_EQ(values.size(), 1u);
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(c->value(), 0u);
}

TEST(EnabledSwitchTest, DisabledEventsAreDropped) {
  EnabledGuard guard;
  ro::Counter counter;
  ro::Histogram h;
  ro::set_enabled(false);
  EXPECT_FALSE(ro::enabled());
  counter.inc(100);
  h.observe_us(50.0);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  ro::set_enabled(true);
  counter.inc();
  EXPECT_EQ(counter.value(), 1u);
}

// Traces are orthogonal to the metrics switch: a request that asked to be
// traced is timed regardless (tracing is already opt-in per request).
TEST(TraceTest, StampAppendSnapshot) {
  ro::RequestTrace trace(42);
  EXPECT_EQ(trace.id(), 42u);
  trace.stamp("parse");
  trace.stamp("admission");
  trace.append({{"worker.execute", 12.5}, {"worker.reply", 13.0}});
  trace.stamp("reply");

  const ro::Trace snap = trace.snapshot();
  EXPECT_EQ(snap.id, 42u);
  ASSERT_EQ(snap.stages.size(), 5u);
  EXPECT_EQ(snap.stages[0].stage, "parse");
  EXPECT_EQ(snap.stages[1].stage, "admission");
  EXPECT_EQ(snap.stages[2].stage, "worker.execute");
  EXPECT_DOUBLE_EQ(snap.stages[2].us, 12.5);
  EXPECT_EQ(snap.stages[3].stage, "worker.reply");
  EXPECT_EQ(snap.stages[4].stage, "reply");
  // Local stamps are monotone against this hop's own t0.
  EXPECT_GE(snap.stages[1].us, snap.stages[0].us);
  EXPECT_GE(snap.stages[4].us, snap.stages[1].us);
}

TEST(TraceTest, NullPointerStampIsANoOp) {
  ro::RequestTracePtr null_trace;
  ro::stamp(null_trace, "parse");  // must not crash
  auto trace = std::make_shared<ro::RequestTrace>(7);
  ro::stamp(trace, "parse");
  EXPECT_EQ(trace->snapshot().stages.size(), 1u);
}

TEST(TraceTest, FormatTableListsEveryStage) {
  ro::Trace trace;
  trace.id = 0xabcd;
  trace.stages = {{"parse", 1.25}, {"balancer.dispatch", 330.0}};
  const std::string table = ro::format_trace_table(trace);
  EXPECT_NE(table.find("parse"), std::string::npos) << table;
  EXPECT_NE(table.find("balancer.dispatch"), std::string::npos) << table;
  EXPECT_NE(table.find("000000000000abcd"), std::string::npos) << table;
}

TEST(TraceTest, ConcurrentStampsNeverLoseStages) {
  auto trace = std::make_shared<ro::RequestTrace>(1);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([trace] {
      for (int i = 0; i < kPerThread; ++i) trace->stamp("s");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(trace->snapshot().stages.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}
