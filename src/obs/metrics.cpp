#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace repro::obs {

namespace {

std::atomic<bool> g_enabled{true};

void append_number(std::string& out, double v) {
  std::array<char, 64> buf;
  const auto [ptr, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), v);
  if (ec == std::errc()) {
    out.append(buf.data(), static_cast<std::size_t>(ptr - buf.data()));
  } else {
    out += "0";
  }
}

}  // namespace

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

namespace detail {

std::size_t thread_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace detail

void Histogram::observe_us(double us) noexcept {
  if (!enabled()) return;
  if (!(us >= 0.0)) us = 0.0;  // also catches NaN
  // Bucket i covers [2^i, 2^(i+1)) µs; sub-µs samples land in bucket 0.
  const auto whole_us = static_cast<std::uint64_t>(us);
  std::size_t bucket = 0;
  if (whole_us >= 1) {
    bucket = 63u - static_cast<std::size_t>(__builtin_clzll(whole_us));
    bucket = std::min(bucket, kBuckets - 1);
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const auto ns = static_cast<std::uint64_t>(us * 1000.0);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

double Histogram::bucket_upper_us(std::size_t i) noexcept {
  return std::ldexp(1.0, static_cast<int>(i) + 1);
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot snap;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_us =
      static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1000.0;
  snap.max_us =
      static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1000.0;
  return snap;
}

double Histogram::Snapshot::quantile_us(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Upper bucket edge, but never past the observed maximum.
      return std::min(Histogram::bucket_upper_us(i), max_us);
    }
  }
  return max_us;
}

Counter* Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (NamedCounter& c : counters_) {
    if (c.name == name) return &c.counter;
  }
  counters_.emplace_back();
  counters_.back().name.assign(name);
  return &counters_.back().counter;
}

Gauge* Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (NamedGauge& g : gauges_) {
    if (g.name == name) return &g.gauge;
  }
  gauges_.emplace_back();
  gauges_.back().name.assign(name);
  return &gauges_.back().gauge;
}

Histogram* Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (NamedHistogram& h : histograms_) {
    if (h.name == name) return &h.histogram;
  }
  histograms_.emplace_back();
  histograms_.back().name.assign(name);
  return &histograms_.back().histogram;
}

void Registry::gauge_fn(std::string_view name, std::function<double()> fn) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (NamedGaugeFn& g : gauge_fns_) {
    if (g.name == name) {
      g.fn = std::move(fn);
      return;
    }
  }
  gauge_fns_.emplace_back();
  gauge_fns_.back().name.assign(name);
  gauge_fns_.back().fn = std::move(fn);
}

std::vector<std::pair<std::string, double>> Registry::snapshot_values() const {
  std::vector<std::pair<std::string, double>> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const NamedCounter& c : counters_) {
      out.emplace_back(c.name, static_cast<double>(c.counter.value()));
    }
    for (const NamedGauge& g : gauges_) {
      out.emplace_back(g.name, g.gauge.value());
    }
    for (const NamedGaugeFn& g : gauge_fns_) {
      out.emplace_back(g.name, g.fn ? g.fn() : 0.0);
    }
    for (const NamedHistogram& h : histograms_) {
      const Histogram::Snapshot snap = h.histogram.snapshot();
      out.emplace_back(h.name + "_count", static_cast<double>(snap.count));
      out.emplace_back(h.name + "_sum_us", snap.sum_us);
      out.emplace_back(h.name + "_p50_us", snap.quantile_us(0.50));
      out.emplace_back(h.name + "_p95_us", snap.quantile_us(0.95));
      out.emplace_back(h.name + "_p99_us", snap.quantile_us(0.99));
      out.emplace_back(h.name + "_max_us", snap.max_us);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::string Registry::prometheus_text() const {
  std::string out;
  for (const auto& [name, value] : snapshot_values()) {
    out += name;
    out += ' ';
    append_number(out, value);
    out += '\n';
  }
  // Histogram bucket detail rides after the flat view so the flat form
  // stays mergeable across workers.
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const NamedHistogram& h : histograms_) {
    const Histogram::Snapshot snap = h.histogram.snapshot();
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      cum += snap.buckets[i];
      if (snap.buckets[i] == 0 && cum != snap.count) continue;
      out += h.name;
      out += "_bucket{le=\"";
      append_number(out, Histogram::bucket_upper_us(i));
      out += "\"} ";
      append_number(out, static_cast<double>(cum));
      out += '\n';
    }
    out += h.name;
    out += "_bucket{le=\"+Inf\"} ";
    append_number(out, static_cast<double>(snap.count));
    out += '\n';
  }
  return out;
}

}  // namespace repro::obs
