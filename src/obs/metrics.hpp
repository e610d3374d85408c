// Low-overhead metrics registry: sharded relaxed-atomic counters, gauges
// (stored or callback), and fixed log-bucket latency histograms whose
// p50/p95/p99/max are derivable at snapshot time without storing samples.
// Hot-path cost is one relaxed atomic add per event; snapshots never stop
// writers. Instruments are registered by name and owned by a Registry
// (each serve::Service owns one, and so does each fleet::Balancer); callers
// cache the returned pointers at construction so the name lookup happens
// once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace repro::obs {

/// Global runtime kill switch for counters and histograms. Defaults to on;
/// the disabled path is one relaxed load per event.
void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

namespace detail {
/// Stable small integer for the calling thread, used to pick a counter
/// shard. Dense (an incrementing counter, not a hash of thread::id), so
/// a handful of threads spread over distinct shards.
[[nodiscard]] std::size_t thread_slot() noexcept;
}  // namespace detail

/// Monotonic counter, sharded across cache lines so concurrent writers
/// on different threads do not bounce one line.
class Counter {
 public:
  static constexpr std::size_t kShards = 8;

  void inc(std::uint64_t delta = 1) noexcept {
    if (!enabled()) return;
    shards_[detail::thread_slot() & (kShards - 1)].cell.fetch_add(
        delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.cell.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> cell{0};
  };
  Shard shards_[kShards];
};

/// Last-value gauge (stored form; callback gauges live on the Registry).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Raise the gauge to v if v is larger: a high-water mark that
  /// concurrent writers can feed without a lock.
  void set_max(double v) noexcept {
    double seen = value_.load(std::memory_order_relaxed);
    while (v > seen &&
           !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Latency histogram over fixed log2 buckets of microseconds: bucket i
/// counts samples in [2^i, 2^(i+1)) µs (bucket 0 also takes < 1 µs).
/// Quantiles are read off the bucket counts at snapshot time — an upper
/// bound within 2x of the true sample, which is the standard trade for
/// not storing samples. Recording is one relaxed add plus a relaxed
/// count/sum update and a CAS-loop max.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void observe_us(double us) noexcept;

  struct Snapshot {
    std::uint64_t buckets[kBuckets] = {};
    std::uint64_t count = 0;
    double sum_us = 0.0;
    double max_us = 0.0;

    /// Upper edge (in µs) of the bucket holding quantile q in [0, 1].
    [[nodiscard]] double quantile_us(double q) const noexcept;
  };
  [[nodiscard]] Snapshot snapshot() const noexcept;

  /// Upper edge of bucket i in µs (2^(i+1), capped for the last bucket).
  [[nodiscard]] static double bucket_upper_us(std::size_t i) noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};  // integral ns: relaxed add stays exact
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Named instruments, snapshot-able while writers run. Registration and
/// snapshotting take a mutex; inc()/set()/observe_us() never do. Entries
/// live in deques so pointers handed out stay valid for the Registry's
/// lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Look up or create. Repeated calls with one name return one instrument.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);
  /// Callback gauge: fn() is evaluated at snapshot time (e.g. queue depth).
  void gauge_fn(std::string_view name, std::function<double()> fn);

  /// Flat name -> value view. Histograms expand to `<name>_count`,
  /// `<name>_sum_us`, `<name>_p50_us`, `<name>_p95_us`, `<name>_p99_us`,
  /// `<name>_max_us`. Names come out sorted.
  [[nodiscard]] std::vector<std::pair<std::string, double>> snapshot_values() const;

  /// Prometheus text exposition: `name value` lines, histograms as
  /// cumulative `<name>_bucket{le="..."}` series plus _count/_sum.
  [[nodiscard]] std::string prometheus_text() const;

 private:
  struct Named {
    std::string name;
  };
  struct NamedCounter : Named {
    Counter counter;
  };
  struct NamedGauge : Named {
    Gauge gauge;
  };
  struct NamedGaugeFn : Named {
    std::function<double()> fn;
  };
  struct NamedHistogram : Named {
    Histogram histogram;
  };

  mutable std::mutex mutex_;
  std::deque<NamedCounter> counters_;
  std::deque<NamedGauge> gauges_;
  std::deque<NamedGaugeFn> gauge_fns_;
  std::deque<NamedHistogram> histograms_;
};

}  // namespace repro::obs
