// The two kinds of run: end-to-end (tracing off) and traced (per layer).
#pragma once

#include <cstdint>

#include "report.hpp"
#include "requests.hpp"

namespace e2e {

struct Options {
  Workload workload = Workload::kFleetFeatures;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

/// Shares of Options::seconds: the light and the heavy open loop each get
/// kOpenLoopShare, the capacity closed loop kCapacityShare.
inline constexpr double kOpenLoopShare = 0.3;
inline constexpr double kCapacityShare = 0.4;

/// Cold starts timed for setup_s; the median is reported.
inline constexpr int kSetups = 3;

/// The light, heavy and capacity phases run interleaved, in rounds of one
/// light block of about this length, one heavy block and one capacity
/// slice, so each phase spans the whole run. A latency metric is the median
/// of its blocks' medians and capacity the median of the slices' rates: a
/// host stall shorter than half the run cannot move them far.
inline constexpr double kBlockSeconds = 0.5;

/// Counts heap allocations when the binary installs the counting hook
/// (the traced binary); null otherwise.
using AllocCounter = std::uint64_t (*)();

/// Start the workload's system cold kSetups times, then drive the last one
/// through a warm-up and the interleaved light, heavy and capacity rounds;
/// every end-to-end metric of kEndToEnd.
[[nodiscard]] Report run_end_to_end(const Options& options);

/// Replay the workload's request stream through each layer's public entry
/// point with spans, plus the traced light/heavy phases; every metric of
/// kPerLayer.
[[nodiscard]] Report run_traced(const Options& options, AllocCounter allocations);

}  // namespace e2e
