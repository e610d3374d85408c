// The benchmark's own tests: its statistics, span arithmetic, request
// determinism, and that every metric BENCHMARK.json names is reported with
// its unit.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "report.hpp"
#include "requests.hpp"
#include "serve/protocol.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "system.hpp"

namespace e2e {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(nearest_rank(100, 50.0), 50u);
  EXPECT_EQ(nearest_rank(100, 99.0), 99u);
  EXPECT_EQ(nearest_rank(101, 50.0), 51u);
  EXPECT_EQ(nearest_rank(10, 99.0), 10u);
  EXPECT_EQ(nearest_rank(1, 1.0), 1u);
  const Summary s = summarize(one_to(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail, 990.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p99 of 1000 samples has exactly 10 beyond it: supported.
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_TRUE(summarize(one_to(1000)).tail_supported);
  // 999 samples leave only 9 beyond: the report falls back to the highest
  // percentile that has 10 beyond it.
  EXPECT_FALSE(percentile_supported(999, 99.0));
  const Summary s = summarize(one_to(999));
  EXPECT_FALSE(s.tail_supported);
  EXPECT_EQ(s.tail, 989.0);
  EXPECT_LT(s.tail_p, 99.0);
  EXPECT_EQ(samples_beyond(0, 99.0), 0u);
}

TEST(Spans, SelfTimeIsSpanMinusChildCover) {
  const Span parent{"p", 1, -1, 0.0, 100.0};
  EXPECT_DOUBLE_EQ(self_time(parent, {}), 100.0);
  const std::vector<Span> disjoint = {{"a", 1, 0, 10.0, 20.0}, {"b", 1, 0, 50.0, 80.0}};
  EXPECT_DOUBLE_EQ(self_time(parent, disjoint), 60.0);
  // Overlapping children count once; parts outside the parent do not count.
  const std::vector<Span> overlap = {
      {"a", 1, 0, 10.0, 40.0}, {"b", 1, 0, 30.0, 50.0}, {"c", 1, 0, 90.0, 130.0}};
  EXPECT_DOUBLE_EQ(self_time(parent, overlap), 50.0);

  SpanLog log;
  const int p = log.add("outer", 7, -1, 0.0, 10.0);
  const int c = log.add("inner", 7, p, 2.0, 6.0);
  log.add("leaf", 7, c, 2.0, 3.0);
  EXPECT_EQ(log.self_times("outer"), std::vector<double>{6.0});
  EXPECT_EQ(log.self_times("inner"), std::vector<double>{3.0});
  EXPECT_EQ(log.self_times("leaf"), std::vector<double>{1.0});
}

/// Every request a workload's open-loop phase would send, encoded.
std::string encoded_stream(Pool& pool, bool binary, std::uint64_t seed) {
  const auto due = poisson_schedule(phase_seed(seed, 1), 5000.0, 0.2);
  const auto items = draw(pool, phase_seed(seed, 2), due.size());
  std::ostringstream out;
  std::string bytes;
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto& request = pool.items[items[i]].request;
    request.id = i + 1;
    bytes.clear();
    encode_request(binary, request, bytes);
    out << due[i] << ':' << bytes;
  }
  return out.str();
}

TEST(Requests, SameSeedSameBytes) {
  auto features = feature_pool();
  ASSERT_TRUE(features.ok());
  auto sources = source_pool();
  ASSERT_TRUE(sources.ok());
  EXPECT_EQ(features.value().items.size(), 12u + 106u);
  EXPECT_EQ(sources.value().items.size() - sources.value().small, 4u);
  for (auto* pool : {&features.value(), &sources.value()}) {
    for (bool binary : {true, false}) {
      const std::string a = encoded_stream(*pool, binary, 42);
      EXPECT_FALSE(a.empty());
      EXPECT_EQ(a, encoded_stream(*pool, binary, 42));
      EXPECT_NE(a, encoded_stream(*pool, binary, 43));
    }
  }
}

TEST(Requests, LargeSourcesAreAFewPercent) {
  auto pool = source_pool();
  ASSERT_TRUE(pool.ok());
  const auto items = draw(pool.value(), 9, 20000);
  std::size_t large = 0;
  for (auto i : items) large += i >= pool.value().small ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(large) / 20000.0, kLargeShare, 0.01);
  const std::string big = large_source(50 * 1024, 0);
  EXPECT_GE(big.size(), 50u * 1024);
  EXPECT_LT(big.size(), 60u * 1024);
}

TEST(Blocks, SplitKeepsEveryRequestInOrder) {
  const auto due = poisson_schedule(3, 1000.0, 2.9);
  std::vector<std::uint32_t> items(due.size());
  for (std::size_t i = 0; i < items.size(); ++i) items[i] = static_cast<std::uint32_t>(i);
  const auto blocks = split_blocks(items, due, 2.9);
  ASSERT_EQ(blocks.size(), static_cast<std::size_t>(std::round(2.9 / kBlockSeconds)));
  const double block_us = 2.9e6 / static_cast<double>(blocks.size());
  std::vector<std::uint32_t> joined;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    ASSERT_EQ(blocks[k].items.size(), blocks[k].due_us.size());
    for (std::size_t i = 0; i < blocks[k].items.size(); ++i) {
      EXPECT_GE(blocks[k].due_us[i], 0.0);
      EXPECT_LT(blocks[k].due_us[i], block_us);
      EXPECT_DOUBLE_EQ(blocks[k].due_us[i] + static_cast<double>(k) * block_us,
                       due[blocks[k].items[i]]);
    }
    joined.insert(joined.end(), blocks[k].items.begin(), blocks[k].items.end());
  }
  EXPECT_EQ(joined, items);
}

TEST(Blocks, AbsorbPoolsSamplesAndKeepsEachBlockMedian) {
  PhaseResult phase;
  for (double base : {1.0, 100.0, 2.0}) {
    PhaseResult block;
    block.sent = block.correct = 3;
    block.latency_us = {base, base + 1.0, base + 2.0};
    phase.absorb(block);
  }
  EXPECT_EQ(phase.sent, 9u);
  EXPECT_EQ(phase.latency_us.size(), 9u);
  EXPECT_EQ(phase.block_p50_us, (std::vector<double>{2.0, 101.0, 3.0}));
  // One disturbed block does not move the median of the block medians.
  EXPECT_EQ(median(phase.block_p50_us), 3.0);
  EXPECT_DOUBLE_EQ(rate_within({0.1, 0.2, 0.6, 0.9}, 0.5), 4.0);
}

/// The metrics of one BENCHMARK.json section as name → unit.
std::map<std::string, std::string> benchmark_section(const std::string& key) {
  std::ifstream in(E2E_BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  auto doc = serve::parse_json(text.str());
  EXPECT_TRUE(doc.ok()) << E2E_BENCHMARK_JSON;
  std::map<std::string, std::string> out;
  if (!doc.ok()) return out;
  const auto* section = doc.value().find(key);
  EXPECT_NE(section, nullptr) << key;
  if (section == nullptr) return out;
  for (const auto& m : section->as_array()) {
    out[std::string(m.find("name")->as_string())] = std::string(m.find("unit")->as_string());
  }
  return out;
}

void expect_reported(std::span<const MetricDef> defs, const std::string& section) {
  const auto listed = benchmark_section(section);
  std::map<std::string, std::string> ours;
  Report report;
  report.attempted = 1;
  for (const auto& d : defs) {
    ours[std::string(d.name)] = std::string(d.unit);
    report.set(d.name, 1.5);
  }
  EXPECT_EQ(ours, listed) << section << " differs from BENCHMARK.json";
  ASSERT_TRUE(report.missing(defs).empty());
  const std::string json = report.json(defs);
  auto doc = serve::parse_json(json);
  ASSERT_TRUE(doc.ok()) << json;
  std::set<std::string> keys;
  for (const auto& [k, v] : doc.value().as_object()) keys.insert(std::string(k));
  EXPECT_EQ(keys, (std::set<std::string>{"correct", "attempted", "failed", "metrics"}));
  const auto* metrics = doc.value().find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->as_object().size(), listed.size());
  for (const auto& [name, unit] : listed) {
    const auto* m = metrics->find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->find("unit")->as_string(), unit) << name;
    EXPECT_EQ(m->find("value")->as_number(), 1.5) << name;
  }
}

TEST(Metrics, EveryEndToEndMetricIsReportedWithItsUnit) {
  expect_reported(kEndToEnd, "end_to_end");
}

TEST(Metrics, EveryPerLayerMetricIsReportedWithItsUnit) {
  expect_reported(kPerLayer, "per_layer");
}

TEST(Metrics, AMissingValueIsCaught) {
  Report report;
  report.set("setup_s", 1.0);
  EXPECT_EQ(report.missing(kEndToEnd).size(), std::size(kEndToEnd) - 1);
}

}  // namespace
}  // namespace e2e
