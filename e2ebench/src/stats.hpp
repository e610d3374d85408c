// Sample statistics and the seeded random source of the benchmark.
//
// Percentiles are nearest-rank: the p-th percentile of n samples is the
// sample at rank ceil(p/100 * n) in ascending order. A percentile is only
// *supported* by a sample when at least kMinBeyond samples lie beyond it;
// otherwise the report falls back to the highest percentile that is.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of the p-th percentile among n samples (n >= 1).
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the p-th percentile by nearest rank.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

[[nodiscard]] inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinBeyond;
}

/// A timing distribution: sample count, median, and the requested tail
/// percentile — or, when the sample cannot support it, the highest
/// percentile that has kMinBeyond samples beyond it (tail_supported false).
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_p = 0.0;  // the percentile `tail` actually is
  bool tail_supported = false;
};

[[nodiscard]] inline Summary summarize(std::vector<double> samples, double tail_p = 99.0) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = samples[nearest_rank(s.n, 50.0) - 1];
  s.tail_supported = percentile_supported(s.n, tail_p);
  if (s.tail_supported) {
    s.tail_p = tail_p;
    s.tail = samples[nearest_rank(s.n, tail_p) - 1];
  } else {
    // Highest rank with kMinBeyond samples above it (the maximum when the
    // sample is tiny).
    const std::size_t rank = s.n > kMinBeyond ? s.n - kMinBeyond : s.n;
    s.tail = samples[rank - 1];
    s.tail_p = 100.0 * static_cast<double>(rank) / static_cast<double>(s.n);
  }
  return s;
}

/// Completions per second over the first `seconds` of a phase, from the
/// completion times `done_s` (seconds from the phase start).
[[nodiscard]] inline double rate_within(const std::vector<double>& done_s, double seconds) {
  const auto done = std::count_if(done_s.begin(), done_s.end(),
                                  [&](double t) { return t >= 0 && t < seconds; });
  return static_cast<double>(done) / seconds;
}

/// Median of a small set of repeated measurements (setup times).
[[nodiscard]] inline double median(std::vector<double> v) {
  return v.empty() ? 0.0 : summarize(std::move(v)).p50;
}

/// splitmix64: a tiny, fully specified generator, so a seed yields the same
/// request stream on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform index in [0, n).
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Exponential inter-arrival gap for a Poisson process of `rate` per unit.
  double exponential(double rate) { return -std::log1p(-uniform()) / rate; }

 private:
  std::uint64_t state_;
};

}  // namespace e2e
