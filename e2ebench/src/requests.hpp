// The benchmark's workloads and their seeded request streams.
//
// A workload draws every request from a fixed pool of distinct items (a
// feature vector or an OpenCL-C source), so each reply can be checked
// against a reference prediction computed once per item. The seed picks
// which items are sent and when; the programs under test see only the
// encoded requests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "core/predictor.hpp"
#include "serve/protocol.hpp"
#include "repro_names.hpp"

namespace e2e {

enum class Workload { kFleetFeatures, kWorkerSource, kLibraryBatch };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// Fixed parameters of a workload. The open-loop rates were set once from
/// the capacity the seed commit reached on a 4-vCPU x86-64 VM (light about
/// 20-25% of it, heavy 30-50%; e2ebench/README.md says why not 70%) and are
/// never recalibrated: a faster commit must not be offered more load.
struct WorkloadSpec {
  Workload workload;
  bool binary = true;        // request framing on the wire
  double light_rate = 0.0;   // requests/s (library: predict_pareto calls/s)
  double heavy_rate = 0.0;
  double slo_ms = 0.0;       // heavy-phase latency limit behind slo_frac.heavy
  /// In-process Service replay of the traced run (requests/s into one
  /// worker-sized Service).
  double service_rate = 0.0;
};

[[nodiscard]] const WorkloadSpec& spec_for(Workload w);

/// Generator connections, and the requests each keeps outstanding in the
/// capacity phase (at least the servers' 16-request batch cap).
inline constexpr std::size_t kConnections = 4;
inline constexpr std::size_t kWindow = 32;
/// Kernels per predict_batch call in library_batch's capacity phase.
inline constexpr std::size_t kLibraryBatchSize = 64;

/// One distinct request.
struct Item {
  serve::WireRequest request;   // id and trace are set per send
  std::string source;           // the OpenCL-C the item's features come from
  std::string kernel;           // kernel to featurize (empty = first __kernel)
  clfront::StaticFeatures features;  // what a feature request carries
};

struct Pool {
  std::vector<Item> items;
  std::size_t small = 0;  // items [small, size) are the large translation units
};

/// The 12 test kernels and the 106 generated micro-benchmarks, as feature
/// vectors (fleet_features and library_batch).
[[nodiscard]] common::Result<Pool> feature_pool();
/// The 12 test kernels, benchgen::pattern_source at every pattern and
/// intensity, and four ~50 KB many-function translation units (worker_source).
[[nodiscard]] common::Result<Pool> source_pool();

/// A many-function translation unit of roughly `bytes` bytes: helper
/// functions plus one kernel calling into them. `variant` changes the
/// constants, so distinct variants are distinct sources.
[[nodiscard]] std::string large_source(std::size_t bytes, std::size_t variant);

/// Share of worker_source requests that carry a large translation unit.
inline constexpr double kLargeShare = 0.03;

/// Seeded draw of `count` pool indices; large items are drawn with
/// probability kLargeShare when the pool has any.
[[nodiscard]] std::vector<std::uint32_t> draw(const Pool& pool, std::uint64_t seed,
                                              std::size_t count);

/// Poisson arrival offsets (µs from the phase start) at `rate` per second
/// over `seconds`.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                                   double seconds);

/// A derived seed for one phase of one run, so phases do not replay each
/// other's streams.
[[nodiscard]] std::uint64_t phase_seed(std::uint64_t seed, std::uint64_t phase);

/// Encode one request in the given framing (JSON lines get their '\n').
void encode_request(bool binary, const serve::WireRequest& request, std::string& out);

/// The reference reply of every pool item, from a direct Predictor call.
[[nodiscard]] common::Result<std::vector<core::Predictor::KernelPrediction>> reference_replies(
    const core::Predictor& predictor, const Pool& pool);

/// Bit-for-bit reply comparison: kernel name, then per point the config,
/// the heuristic flag and the two doubles with memcmp.
[[nodiscard]] bool identical(const core::Predictor::KernelPrediction& a,
                             const core::Predictor::KernelPrediction& b);

}  // namespace e2e
