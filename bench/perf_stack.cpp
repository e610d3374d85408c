// perf_stack — microbenchmark for the parallel + vectorized prediction
// stack. Times the hot paths this layer optimizes, serial (1 thread /
// reference algorithm / sequential scalar kernel) against the optimized
// path (thread pool / blocked kernels / O(n log n) skyline / SIMD inner
// kernels), at several problem sizes, and emits the results as
// BENCH_perf_stack.json — the measurement baseline future perf PRs are
// judged against. The simd_kernels cases (simd_dot, simd_squared_distance,
// simd_kernel_matrix) compare the pre-SIMD sequential loops against the
// common::simd layer, and their bit_identical field checks the std-simd
// backend against the unrolled fallback (the determinism contract of
// docs/DETERMINISM.md). The serving section has one row, obs-overhead: the
// CPU cost per request of the metrics registry on serve::Service under
// concurrent clients, with bit_identical comparing every response against
// direct predict_batch.
//
//   perf_stack [--smoke] [--threads N] [--out PATH]
//
// --smoke shrinks every case to seconds-total (CI; its output, committed
// as BENCH_perf_stack_smoke.json, is scripts/perf_gate.sh's baseline);
// --threads overrides the parallel thread count (default:
// ThreadPool::default_thread_count(), which itself honours
// REPRO_THREADS). Every timed pair also verifies that the
// optimized output is bit-identical to its reference and records the
// verdict in the JSON.
#include "common/alloc_hook.hpp"  // this binary's one hook TU (--alloc-report)

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <string_view>

#include <sys/resource.h>

#include "common/arena.hpp"
#include "common/buffer_pool.hpp"

#include "benchgen/benchgen.hpp"
#include "clfront/features.hpp"
#include "clfront/stream.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "core/measurement.hpp"
#include "core/model.hpp"
#include "core/predictor.hpp"
#include "ml/kernel.hpp"
#include "ml/matrix.hpp"
#include "ml/svr.hpp"
#include "ml/synthetic.hpp"
#include "obs/metrics.hpp"
#include "pareto/pareto.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

using namespace repro;

namespace {

struct CaseResult {
  std::string name;
  std::size_t size = 0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool bit_identical = false;
};

double time_ms(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

constexpr auto make_dataset = ml::make_synthetic_regression;

std::vector<pareto::Point> make_points(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<pareto::Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = {rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5),
              static_cast<std::uint32_t>(i)};
  }
  return pts;
}

ml::SvrParams rbf_params() {
  ml::SvrParams params;
  params.kernel = ml::KernelFunction::rbf(0.5);
  params.c = 10.0;
  params.epsilon = 0.05;
  params.max_iter = 20'000;  // cap SMO so the timed cost is cache + solve
  return params;
}

/// SVR training at one thread and at `threads`. The fit is serial — it
/// reads K through ml::KernelRowCache and never calls the pool — so both
/// legs time the same work, and bit_identical pins the model against the
/// global thread count.
CaseResult bench_svr_train(std::size_t n, std::size_t threads, int reps) {
  constexpr std::size_t kDim = 12;
  ml::Matrix x;
  std::vector<double> y;
  make_dataset(n, kDim, 0x5EED0000 + n, x, y);

  std::string serial_model;
  std::string parallel_model;
  common::ThreadPool::set_global_threads(1);
  const double serial_ms = time_ms(
      [&] {
        ml::Svr svr(rbf_params());
        svr.fit(x, y);
        serial_model = svr.serialize();
      },
      reps);
  common::ThreadPool::set_global_threads(threads);
  const double parallel_ms = time_ms(
      [&] {
        ml::Svr svr(rbf_params());
        svr.fit(x, y);
        parallel_model = svr.serialize();
      },
      reps);
  return {"svr_train", n, serial_ms, parallel_ms, serial_model == parallel_model};
}

/// Batched SVR inference over m test points (one blocked pass, parallel
/// across points) against the same path pinned to one thread.
CaseResult bench_batch_predict(std::size_t m, std::size_t threads, int reps) {
  constexpr std::size_t kDim = 12;
  constexpr std::size_t kTrain = 384;
  ml::Matrix x_train;
  std::vector<double> y_train;
  make_dataset(kTrain, kDim, 0xBA7C4ED, x_train, y_train);
  common::ThreadPool::set_global_threads(threads);
  ml::Svr svr(rbf_params());
  svr.fit(x_train, y_train);

  ml::Matrix x_test;
  std::vector<double> y_unused;
  make_dataset(m, kDim, 0x7E57 + m, x_test, y_unused);

  std::vector<double> serial_pred;
  std::vector<double> parallel_pred;
  common::ThreadPool::set_global_threads(1);
  const double serial_ms = time_ms([&] { serial_pred = svr.predict(x_test); }, reps);
  common::ThreadPool::set_global_threads(threads);
  const double parallel_ms = time_ms([&] { parallel_pred = svr.predict(x_test); }, reps);
  const bool identical =
      serial_pred.size() == parallel_pred.size() &&
      std::memcmp(serial_pred.data(), parallel_pred.data(),
                  serial_pred.size() * sizeof(double)) == 0;
  return {"svr_batch_predict", m, serial_ms, parallel_ms, identical};
}

/// The served prediction shape: kKernels kernels' static features against
/// the default frequency grid (34 modeled rows plus the mem-L row) of a
/// FrequencyModel whose linear and RBF (gamma 0.1) SVRs hold `n_sv`
/// synthetic support vectors each — the paper's model pair (the served
/// model holds 1,569 and 937). serial = per-configuration
/// predict_speedup/predict_energy; parallel = predict_all over the grid,
/// which pays the RBF's static exponentials once per kernel.
CaseResult bench_model_grid_predict(std::size_t n_sv, int reps) {
  constexpr std::size_t kKernels = 512;
  const std::string text =
      "gpufreq_model v2\ndevice Titan X\nbounds 135 1196 405 3505\ntraining_configs 0\n"
      "training_samples 0\n=== speedup ===\nregressor v1 svr-linear\n" +
      ml::make_synthetic_svr_text("linear", n_sv, core::kFeatureDim, 0x611D + n_sv) +
      "=== energy ===\nregressor v1 svr-rbf\n" +
      ml::make_synthetic_svr_text("rbf", n_sv, core::kFeatureDim, 0x611E + n_sv);
  const auto model = core::FrequencyModel::deserialize(text).take();
  // The rows predict_pareto(features) evaluates: the sampled grid's modeled
  // rows, then its highest-core mem-L row.
  const int mem_L = model.domain().find_domain(gpusim::MemLevel::kL)->mem_mhz;
  std::vector<gpusim::FrequencyConfig> grid;
  gpusim::FrequencyConfig mem_L_row{0, mem_L};
  for (const auto& c : model.domain().sample_configs(40)) {
    if (c.mem_mhz != mem_L) {
      grid.push_back(c);
    } else if (c.core_mhz > mem_L_row.core_mhz) {
      mem_L_row = c;
    }
  }
  grid.push_back(mem_L_row);
  common::Xoshiro256 rng(0x6A1D);
  std::vector<clfront::StaticFeatures> kernels(kKernels);
  for (auto& f : kernels) {
    for (double& c : f.counts) c = rng.uniform(0.0, 100.0);
  }

  std::vector<double> serial_out;
  std::vector<double> parallel_out;
  const double serial_ms = time_ms(
      [&] {
        serial_out.clear();
        for (const auto& f : kernels) {
          for (const auto& c : grid) {
            serial_out.push_back(model.predict_speedup(f, c));
            serial_out.push_back(model.predict_energy(f, c));
          }
        }
      },
      reps);
  const double parallel_ms = time_ms(
      [&] {
        parallel_out.clear();
        for (const auto& f : kernels) {
          for (const auto& p : model.predict_all(f, grid)) {
            parallel_out.push_back(p.speedup);
            parallel_out.push_back(p.energy);
          }
        }
      },
      reps);
  const bool identical =
      serial_out.size() == parallel_out.size() &&
      std::memcmp(serial_out.data(), parallel_out.data(), serial_out.size() * sizeof(double)) ==
          0;
  return {"model_grid_predict", n_sv, serial_ms, parallel_ms, identical};
}

/// O(n^2) Algorithm 1 vs the O(n log n) skyline on the same point cloud.
CaseResult bench_pareto(std::size_t n, int reps) {
  const auto pts = make_points(n, 0xFA57 + n);
  std::vector<pareto::Point> naive;
  std::vector<pareto::Point> fast;
  const double serial_ms = time_ms([&] { naive = pareto::pareto_set_naive(pts); }, reps);
  const double parallel_ms = time_ms([&] { fast = pareto::pareto_set_fast(pts); }, reps);
  return {"pareto_front", n, serial_ms, parallel_ms, pareto::same_front(naive, fast)};
}

/// The acceptance path: batch-predict a frequency-grid-shaped problem for
/// both objectives, then take the Pareto set of the predictions. Serial
/// baseline = 1-thread prediction + Algorithm 1; parallel = pooled batched
/// prediction + skyline. Fronts must agree point for point.
CaseResult bench_predict_pareto(std::size_t m, std::size_t threads, int reps) {
  constexpr std::size_t kDim = 12;
  constexpr std::size_t kTrain = 384;
  ml::Matrix x_train;
  std::vector<double> y_speedup;
  std::vector<double> y_energy;
  make_dataset(kTrain, kDim, 0xBA7C4ED, x_train, y_speedup);
  make_dataset(kTrain, kDim, 0xE4E26, x_train, y_energy);
  common::ThreadPool::set_global_threads(threads);
  ml::Svr speedup_model(rbf_params());
  speedup_model.fit(x_train, y_speedup);
  ml::Svr energy_model(rbf_params());
  energy_model.fit(x_train, y_energy);

  ml::Matrix x_test;
  std::vector<double> unused;
  make_dataset(m, kDim, 0x6A1D + m, x_test, unused);

  const auto to_points = [](const std::vector<double>& s, const std::vector<double>& e) {
    std::vector<pareto::Point> pts(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      pts[i] = {s[i], e[i], static_cast<std::uint32_t>(i)};
    }
    return pts;
  };

  std::vector<pareto::Point> serial_front;
  std::vector<pareto::Point> parallel_front;
  common::ThreadPool::set_global_threads(1);
  const double serial_ms = time_ms(
      [&] {
        const auto s = speedup_model.predict(x_test);
        const auto e = energy_model.predict(x_test);
        serial_front = pareto::pareto_set_naive(to_points(s, e));
      },
      reps);
  common::ThreadPool::set_global_threads(threads);
  const double parallel_ms = time_ms(
      [&] {
        const auto s = speedup_model.predict(x_test);
        const auto e = energy_model.predict(x_test);
        parallel_front = pareto::pareto_set_fast(to_points(s, e));
      },
      reps);
  return {"predict_plus_pareto", m, serial_ms, parallel_ms,
          pareto::same_front(serial_front, parallel_front)};
}

/// Blocked, transposed-B, parallel matrix multiply vs one thread.
CaseResult bench_matmul(std::size_t n, std::size_t threads, int reps) {
  ml::Matrix a;
  ml::Matrix b;
  std::vector<double> unused;
  make_dataset(n, n, 0xA0 + n, a, unused);
  make_dataset(n, n, 0xB0 + n, b, unused);

  ml::Matrix serial_out;
  ml::Matrix parallel_out;
  common::ThreadPool::set_global_threads(1);
  const double serial_ms = time_ms([&] { serial_out = a.multiply(b); }, reps);
  common::ThreadPool::set_global_threads(threads);
  const double parallel_ms = time_ms([&] { parallel_out = a.multiply(b); }, reps);
  const bool identical =
      serial_out.data() == parallel_out.data();  // vector<double> operator==
  return {"matrix_multiply", n, serial_ms, parallel_ms, identical};
}

// --- simd_kernels section ----------------------------------------------------
//
// Scalar vs SIMD inner kernels. "serial" is the pre-SIMD sequential scalar
// loop (kept as common::simd::detail::*_sequential), "parallel" is the
// dispatched common::simd path; bit_identical verifies the determinism
// contract — the std-simd backend against the 4-wide unrolled fallback on
// the *production* path, which must match bit for bit (the sequential
// baseline intentionally has a different summation order).

/// Batched reductions, one vector against many rows — the shape every
/// production caller has (kernel rows, the matmul micro-kernel, the blocked
/// SVR decision function). serial = the pre-SIMD sequential loop per row;
/// SIMD = the batched dot_rows / squared_distance_rows entry points. The
/// working set stays cache-resident (~128 KiB) so the measurement shows the
/// arithmetic, not DRAM bandwidth; each timed pass sweeps the rows 16x.
CaseResult bench_simd_reduce(bool sqd, std::size_t dim, int reps) {
  const std::size_t rows = 16384 / std::max<std::size_t>(dim, 1) + 1;
  ml::Matrix a;
  ml::Matrix b;
  std::vector<double> unused;
  make_dataset(1, dim, 0x51A + dim, a, unused);
  make_dataset(rows, dim, 0x51B + dim, b, unused);
  const auto x = a.row(0);
  std::vector<double> out(rows);

  const double serial_ms = time_ms(
      [&] {
        for (int pass = 0; pass < 16; ++pass) {
          for (std::size_t j = 0; j < rows; ++j) {
            const double* y = b.row(j).data();
            out[j] = sqd ? common::simd::detail::squared_distance_sequential(x.data(), y, dim)
                         : common::simd::detail::dot_sequential(x.data(), y, dim);
          }
        }
      },
      reps);
  // Timed on whatever backend the run dispatches to (REPRO_SIMD honored) —
  // the JSON's simd_backend field records which.
  const double simd_ms = time_ms(
      [&] {
        for (int pass = 0; pass < 16; ++pass) {
          if (sqd) {
            common::simd::squared_distance_rows(out, x, b.row(0).data(), dim, 1.0);
          } else {
            common::simd::dot_rows(out, x, b.row(0).data(), dim);
          }
        }
      },
      reps);
  // Contract check: vector backend vs unrolled fallback, element by element.
  bool identical = true;
  for (std::size_t j = 0; j < rows && identical; ++j) {
    const double* y = b.row(j).data();
    const double v = sqd ? common::simd::detail::squared_distance_vector(x.data(), y, dim)
                         : common::simd::detail::dot_vector(x.data(), y, dim);
    const double u = sqd ? common::simd::detail::squared_distance_unrolled(x.data(), y, dim)
                         : common::simd::detail::dot_unrolled(x.data(), y, dim);
    identical = std::memcmp(&v, &u, sizeof(double)) == 0;
  }
  return {sqd ? "simd_squared_distance" : "simd_dot", dim, serial_ms, simd_ms, identical};
}

/// The dense SVR kernel-matrix build (ml::build_kernel_matrix_f32: upper
/// triangle + mirror, float storage; the reference the trainer's row cache
/// is tested against), pinned to one thread so the A/B isolates the SIMD
/// effect from the thread pool.
CaseResult bench_simd_kernel_matrix(std::size_t n, int reps) {
  constexpr std::size_t kDim = 12;
  ml::Matrix x;
  std::vector<double> unused;
  make_dataset(n, kDim, 0x5EED2 + n, x, unused);
  const ml::KernelFunction kernel = ml::KernelFunction::rbf(0.5);
  const double gamma = 0.5;
  common::ThreadPool::set_global_threads(1);

  std::vector<float> k;
  // The pre-SIMD path: one kernel evaluation per pair, sequential scalar
  // reduction plus libm exp. Allocates its matrix inside the timed region,
  // exactly like the dense builder below — both sides include the
  // allocation.
  const auto fill_scalar = [&] {
    std::vector<float> kk(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto xi = x.row(i);
      for (std::size_t j = i; j < n; ++j) {
        const auto xj = x.row(j);
        const auto v = static_cast<float>(
            std::exp(-gamma * common::simd::detail::squared_distance_sequential(
                                  xi.data(), xj.data(), xi.size())));
        kk[i * n + j] = v;
        kk[j * n + i] = v;
      }
    }
    k = std::move(kk);
  };
  // The optimized side runs ml::build_kernel_matrix_f32 itself (batched
  // SIMD evaluate_row, block-tiled mirror) — pinned to one thread above so
  // the A/B isolates vectorization, and on whatever backend the run
  // dispatches to (REPRO_SIMD honored).
  const double serial_ms = time_ms(fill_scalar, reps);
  const double simd_ms =
      time_ms([&] { k = ml::build_kernel_matrix_f32(x, kernel); }, reps);
  // Contract check: the two backends must build the same bytes.
  const bool was_enabled = common::simd::enabled();
  common::simd::set_enabled(true);
  const std::vector<float> k_on = ml::build_kernel_matrix_f32(x, kernel);
  common::simd::set_enabled(false);
  k = ml::build_kernel_matrix_f32(x, kernel);
  common::simd::set_enabled(was_enabled);
  const bool identical = std::memcmp(k.data(), k_on.data(), n * n * sizeof(float)) == 0;
  return {"simd_kernel_matrix", n, serial_ms, simd_ms, identical};
}

// --- streaming featurization --------------------------------------------------

/// Whole-string featurization vs the chunked SourceFeeder on a synthetic
/// many-function OpenCL source (`n` helper functions + one kernel calling
/// into them). The interesting number is not the speedup — both paths do
/// the same lexing/parsing/lowering work — but bit_identical, which checks
/// the chunk-size-invariance contract on a source far larger than any chunk,
/// and the bounded pending buffer the streamed side keeps.
CaseResult bench_stream_featurize(std::size_t n_functions, int reps) {
  std::string source;
  source.reserve(n_functions * 160);
  for (std::size_t i = 0; i < n_functions; ++i) {
    const std::string id = std::to_string(i);
    source += "float helper" + id + "(float v) { /* synthetic filler " + id +
              " */ return v * " + id + ".25f + native_sin(v) - " + id + "; }\n";
  }
  source += "kernel void chain(global float* x) {\n  float v = x[get_global_id(0)];\n";
  for (std::size_t i = 0; i < n_functions; i += 7) {
    source += "  v = helper" + std::to_string(i) + "(v);\n";
  }
  source += "  x[get_global_id(0)] = v;\n}\n";

  repro::clfront::StaticFeatures whole;
  repro::clfront::StaticFeatures streamed;
  const double whole_ms = time_ms(
      [&] {
        whole = clfront::extract_features_from_source(source).value();
      },
      reps);
  const double streamed_ms = time_ms(
      [&] {
        streamed = clfront::extract_features_chunked(source, 64 * 1024).value();
      },
      reps);
  const bool identical =
      whole.kernel_name == streamed.kernel_name &&
      std::memcmp(whole.counts.data(), streamed.counts.data(),
                  sizeof(double) * clfront::kNumFeatures) == 0;
  return {"stream_featurize", source.size(), whole_ms, streamed_ms, identical};
}

// --- protocol codec: JSON lines vs binary frames ------------------------------
//
// One batch of wire messages encoded and decoded through the JSON framing
// (serial_ms) and the binary framing (parallel_ms) — the wire-level cost a
// negotiated connection saves. bit_identical cross-checks the codecs
// against each other: both decoded forms must carry the same bytes (ids,
// kernels, and every double compared by bit pattern).

bool wire_doubles_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

CaseResult bench_protocol_request_codec(std::size_t n, int reps) {
  common::Xoshiro256 rng(99);
  std::vector<serve::WireRequest> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& request = requests[i];
    request.id = i + 1;
    request.kernel = "kernel_" + std::to_string(i % 17);
    request.deadline_ms = 50.0 + rng.uniform(0.0, 10.0);
    if (i % 3 == 0) {
      request.kind = serve::RequestKind::kPredictSource;
      request.source = std::string(200, 'k');
    } else {
      request.kind = serve::RequestKind::kPredict;
      std::array<double, clfront::kNumFeatures> features{};
      for (auto& f : features) f = rng.uniform(0.0, 64.0);
      request.features = features;
    }
  }

  std::vector<serve::WireRequest> via_json(n);
  std::vector<serve::WireRequest> via_binary(n);
  const double json_ms = time_ms(
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          via_json[i] = serve::parse_request(serve::format_request(requests[i])).value();
        }
      },
      reps);
  const double binary_ms = time_ms(
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          const std::string framed = serve::binary::format_request_frame(requests[i]);
          via_binary[i] = serve::binary::parse_request(
                              std::string_view(framed).substr(serve::binary::kHeaderBytes))
                              .value();
        }
      },
      reps);

  bool identical = true;
  for (std::size_t i = 0; i < n && identical; ++i) {
    const auto& a = via_json[i];
    const auto& b = via_binary[i];
    identical = a.id == b.id && a.kind == b.kind && a.kernel == b.kernel &&
                a.source == b.source &&
                a.features.has_value() == b.features.has_value() &&
                a.deadline_ms.has_value() == b.deadline_ms.has_value();
    if (identical && a.deadline_ms) {
      identical = wire_doubles_equal(*a.deadline_ms, *b.deadline_ms);
    }
    if (identical && a.features) {
      for (std::size_t f = 0; f < a.features->size() && identical; ++f) {
        identical = wire_doubles_equal((*a.features)[f], (*b.features)[f]);
      }
    }
  }
  return {"protocol_request_codec", n, json_ms, binary_ms, identical};
}

CaseResult bench_protocol_response_codec(std::size_t n, int reps) {
  common::Xoshiro256 rng(101);
  std::vector<core::Predictor::KernelPrediction> predictions(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& p = predictions[i];
    p.kernel = "kernel_" + std::to_string(i % 17);
    p.pareto.resize(5);
    for (auto& point : p.pareto) {
      point.config.core_mhz = static_cast<int>(500 + rng.uniform_index(1000));
      point.config.mem_mhz = static_cast<int>(3000 + rng.uniform_index(1000));
      point.speedup = rng.uniform(0.5, 1.5);
      point.energy = rng.uniform(0.5, 1.5);
      point.heuristic = rng.uniform_index(2) == 1;
    }
  }

  std::vector<serve::WireResponse> via_json(n);
  std::vector<serve::WireResponse> via_binary(n);
  const double json_ms = time_ms(
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          via_json[i] =
              serve::parse_response(serve::format_response(i + 1, predictions[i]))
                  .value();
        }
      },
      reps);
  const double binary_ms = time_ms(
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          const std::string framed =
              serve::binary::format_prediction_frame(i + 1, predictions[i]);
          via_binary[i] = serve::binary::parse_response(
                              std::string_view(framed).substr(serve::binary::kHeaderBytes))
                              .value();
        }
      },
      reps);

  bool identical = true;
  for (std::size_t i = 0; i < n && identical; ++i) {
    const auto& a = via_json[i];
    const auto& b = via_binary[i];
    identical = a.id == b.id && a.prediction.has_value() && b.prediction.has_value() &&
                a.prediction->kernel == b.prediction->kernel &&
                a.prediction->pareto.size() == b.prediction->pareto.size();
    for (std::size_t k = 0; identical && k < a.prediction->pareto.size(); ++k) {
      const auto& pa = a.prediction->pareto[k];
      const auto& pb = b.prediction->pareto[k];
      identical = pa.config == pb.config && pa.heuristic == pb.heuristic &&
                  wire_doubles_equal(pa.speedup, pb.speedup) &&
                  wire_doubles_equal(pa.energy, pb.energy);
    }
  }
  return {"protocol_response_codec", n, json_ms, binary_ms, identical};
}

// --- zero-allocation serve hot path ------------------------------------------
//
// The per-connection protocol loop the arena/pool work targets: split →
// parse → serialize the reply. "serial" is the pre-pooling shape (fresh
// heap strings per message: a copied payload, a heap-backed JSON document,
// a returned reply string); "parallel" is the production path (payload
// views, arena-backed parse reset per message, reply serialized _into a
// pooled buffer). bit_identical compares the reply bytes of both paths.

/// One representative predict request + its reply content.
struct HotpathFixture {
  std::string json_request;    // newline-terminated wire line
  std::string binary_request;  // full binary frame
  core::Predictor::KernelPrediction prediction;
};

HotpathFixture make_hotpath_fixture() {
  HotpathFixture fx;
  serve::WireRequest request;
  request.id = 42;
  request.kind = serve::RequestKind::kPredict;
  request.kernel = "k0";
  std::array<double, clfront::kNumFeatures> features{};
  for (std::size_t i = 0; i < features.size(); ++i) {
    features[i] = static_cast<double>(i) * 3.25 + 0.5;
  }
  request.features = features;
  fx.json_request = serve::format_request(request);
  fx.json_request.push_back('\n');
  fx.binary_request = serve::binary::format_request_frame(request);
  fx.prediction.kernel = "k0";
  for (int i = 0; i < 6; ++i) {
    core::PredictedPoint point;
    point.config = {500 + 100 * i, 3505};
    point.speedup = 1.0 + 0.125 * i;
    point.energy = 1.0 - 0.0625 * i;
    point.heuristic = i == 5;
    fx.prediction.pareto.push_back(point);
  }
  return fx;
}

/// JSON parse with and without a per-message arena behind the document.
CaseResult bench_protocol_parse_arena(std::size_t n, int reps) {
  const HotpathFixture fx = make_hotpath_fixture();
  const std::string_view line(fx.json_request.data(), fx.json_request.size() - 1);

  std::uint64_t heap_ids = 0;
  const double heap_ms = time_ms(
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          heap_ids += serve::parse_request(line).value().id;
        }
      },
      reps);
  std::uint64_t arena_ids = 0;
  common::Arena arena;
  const double arena_ms = time_ms(
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          arena_ids += serve::parse_request(line, &arena).value().id;
          arena.reset();
        }
      },
      reps);
  // Same requests decoded either way — the id sums must agree across every
  // rep (reps * n * 42 each), and one decoded pair is compared field-level.
  const auto heap_decoded = serve::parse_request(line).value();
  const auto arena_decoded = serve::parse_request(line, &arena).value();
  const bool identical =
      heap_ids == arena_ids && heap_decoded.id == arena_decoded.id &&
      heap_decoded.kernel == arena_decoded.kernel &&
      heap_decoded.features.has_value() && arena_decoded.features.has_value() &&
      std::memcmp(heap_decoded.features->data(), arena_decoded.features->data(),
                  sizeof(double) * clfront::kNumFeatures) == 0;
  return {"protocol_parse_arena", n, heap_ms, arena_ms, identical};
}

CaseResult bench_serving_hotpath(std::size_t n, int reps) {
  const HotpathFixture fx = make_hotpath_fixture();

  // Pre-pooling shape: payload copied to a fresh string, heap-backed JSON
  // document, reply returned as a new string — one message at a time
  // through a pool-less splitter.
  std::string last_alloc_reply;
  serve::MessageSplitter alloc_splitter(1 << 20);
  const double alloc_ms = time_ms(
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          alloc_splitter.feed(fx.json_request);
          for (;;) {
            auto next = alloc_splitter.next();
            if (!next.ok() || !next.value().has_value()) break;
            const std::string payload(next.value()->payload);
            auto request = serve::parse_request(payload);
            std::string reply =
                serve::format_response(request.value().id, fx.prediction);
            reply.push_back('\n');
            last_alloc_reply = std::move(reply);
          }
        }
      },
      reps);

  // Production path: pooled splitter buffer, payload stays a view, the
  // document lives in a per-connection arena reset after each message, and
  // the reply is serialized _into one pooled buffer.
  common::BufferPool pool;
  serve::MessageSplitter pooled_splitter(1 << 20, &pool);
  common::Arena arena;
  auto reply_lease = pool.acquire();
  std::string& reply = *reply_lease;
  const double pooled_ms = time_ms(
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          pooled_splitter.feed(fx.json_request);
          for (;;) {
            auto next = pooled_splitter.next();
            if (!next.ok() || !next.value().has_value()) break;
            auto request = serve::parse_request(next.value()->payload, &arena);
            reply.clear();
            serve::format_response_into(reply, request.value().id, fx.prediction);
            reply.push_back('\n');
            arena.reset();
          }
        }
      },
      reps);

  return {"serving_hotpath", n, alloc_ms, pooled_ms, last_alloc_reply == reply};
}

/// --alloc-report: count heap allocations across a steady-state hot-path
/// loop (the measurement AllocationRegressionTest gates at zero) and print
/// allocs/request per framing. Returns false if any steady-state request
/// allocated.
bool run_alloc_report() {
  namespace hook = repro::common::alloc_hook;
  const HotpathFixture fx = make_hotpath_fixture();
  bool clean = true;
  for (const bool binary : {false, true}) {
    const std::string& wire = binary ? fx.binary_request : fx.json_request;
    common::BufferPool pool;
    serve::MessageSplitter splitter(1 << 20, &pool);
    common::Arena arena;
    auto reply_lease = pool.acquire();
    std::string& reply = *reply_lease;
    const auto pump = [&] {
      splitter.feed(wire);
      for (;;) {
        auto next = splitter.next();
        if (!next.ok() || !next.value().has_value()) break;
        auto request = binary
                           ? serve::binary::parse_request(next.value()->payload)
                           : serve::parse_request(next.value()->payload, &arena);
        reply.clear();
        if (binary) {
          serve::binary::format_prediction_frame_into(reply, request.value().id,
                                                      fx.prediction);
        } else {
          serve::format_response_into(reply, request.value().id, fx.prediction);
          reply.push_back('\n');
        }
        arena.reset();
      }
    };
    for (int i = 0; i < 64; ++i) pump();  // warm capacities
    constexpr int kIters = 1024;
    const std::uint64_t before = hook::allocations();
    for (int i = 0; i < kIters; ++i) pump();
    const std::uint64_t allocs = hook::allocations() - before;
    std::printf("alloc-report  framing=%-6s  requests=%d  heap_allocs=%llu  "
                "allocs/request=%.4f\n",
                binary ? "binary" : "json", kIters,
                static_cast<unsigned long long>(allocs),
                static_cast<double>(allocs) / kIters);
    clean = clean && allocs == 0;
  }
  std::printf("alloc-report  steady-state %s\n",
              clean ? "allocation-free" : "ALLOCATES (regression)");
  return clean;
}

// --- serving section ----------------------------------------------------------
//
// One row, obs-overhead: the CPU cost of the metrics registry on
// serve::Service — sharded workers that pull batches from one admission
// queue, above Predictor::predict_batch — under concurrent client threads.
// bit_identical checks the serving determinism contract: every response
// must equal the direct predict_batch output for the same kernel, byte for
// byte. End-to-end throughput, latency, overload and fleet behaviour are
// e2ebench's to measure, from outside the process.

struct ServingResult {
  const char* mode = "obs-overhead";
  std::size_t shards = 0;
  std::size_t clients = 0;
  std::size_t requests = 0;
  std::size_t batches = 0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  bool bit_identical = false;
  // Instrumented-vs-disabled CPU cost per request in percent (median over
  // ABBA pairs; may be negative).
  double overhead_pct = 0.0;
};

/// Percentile by nearest-rank; the caller sorts once.
double percentile_ms(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(rank, sorted_ms.size() - 1)];
}

/// Sorts `latencies_ms` and fills the result's p50/p95/p99 from it.
void fill_percentiles(ServingResult& result, std::vector<double>& latencies_ms) {
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = percentile_ms(latencies_ms, 50.0);
  result.p95_ms = percentile_ms(latencies_ms, 95.0);
  result.p99_ms = percentile_ms(latencies_ms, 99.0);
}

bool points_bit_identical(const std::vector<core::PredictedPoint>& a,
                          const std::vector<core::PredictedPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].config == b[i].config) || a[i].heuristic != b[i].heuristic ||
        std::memcmp(&a[i].speedup, &b[i].speedup, sizeof(double)) != 0 ||
        std::memcmp(&a[i].energy, &b[i].energy, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Closed loop: `clients` threads each issue `per_client` blocking predicts
/// against `service`, cycling through `mix`. Appends one latency per
/// request to `latencies_ms`; returns whether every reply was bit-identical
/// to `reference`.
bool run_closed_loop(serve::Service& service,
                     const std::vector<clfront::StaticFeatures>& mix,
                     const std::vector<core::Predictor::KernelPrediction>& reference,
                     std::size_t clients, std::size_t per_client,
                     std::vector<double>& latencies_ms) {
  const std::size_t offset = latencies_ms.size();
  latencies_ms.resize(offset + clients * per_client, 0.0);
  std::vector<char> identical(clients * per_client, 0);
  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::size_t slot = c * per_client + i;
        const std::size_t kernel = slot % mix.size();
        const auto r0 = std::chrono::steady_clock::now();
        auto response = service.predict(mix[kernel]);
        const auto r1 = std::chrono::steady_clock::now();
        latencies_ms[offset + slot] =
            std::chrono::duration<double, std::milli>(r1 - r0).count();
        identical[slot] = response.ok() && points_bit_identical(
                                               response.value().pareto,
                                               reference[kernel].pareto)
                              ? 1
                              : 0;
      }
    });
  }
  for (auto& t : workers) t.join();
  return std::all_of(identical.begin(), identical.end(), [](char ok) { return ok != 0; });
}

/// User + system CPU time of this whole process (every thread), in µs.
double process_cpu_us() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

/// The obs-overhead contract (docs/OBSERVABILITY.md): the CPU cost per
/// request of the metrics registry, live vs runtime-disabled, on one
/// Service under `clients` closed-loop client threads. Blocks of `block`
/// requests alternate on and off in ABBA order (on/off, off/on, ...), so
/// drift in machine speed hits both sides alike. A block's cost is the
/// process's CPU time from getrusage, which counts every thread (clients,
/// shards, pool) and none of the time they spend waiting. The overhead is
/// the MEDIAN over pairs of (on - off) / off, negative when noise favours
/// the instrumented side. Tracing is off on both sides — it is off by
/// default per request — and the disabled side still pays one relaxed load
/// per event. Every reply is checked bit for bit. The registry is the
/// service's only count, so the disabled blocks leave Service::stats()
/// alone; requests and batches are the instrumented side's.
ServingResult bench_serving_obs_overhead(
    const std::shared_ptr<const core::FrequencyModel>& model,
    const std::vector<clfront::StaticFeatures>& mix, std::size_t shards,
    std::size_t clients, std::size_t block, int pairs) {
  ServingResult result;
  result.shards = shards;
  result.clients = clients;

  auto direct = core::Predictor::from_model(model);
  const auto reference = direct.value().predict_batch(mix);
  serve::ServiceOptions options;
  options.shards = shards;
  options.max_batch = 16;
  auto service = serve::Service::from_model(model, options);
  if (!service.ok()) {
    std::fprintf(stderr, "obs-overhead bench: %s\n",
                 service.error().to_string().c_str());
    return result;
  }

  const std::size_t per_client = block / clients;
  std::vector<double> scratch_ms;
  result.bit_identical = run_closed_loop(*service.value(), mix, reference.value(),
                                         clients, per_client, scratch_ms);  // warm-up
  const auto warm = service.value()->stats();
  // Reserved up front, so neither side's timed blocks reallocate.
  std::vector<double> on_latencies_ms;
  on_latencies_ms.reserve(static_cast<std::size_t>(pairs) * clients * per_client);
  std::vector<double> pair_pct;
  double on_wall_s = 0.0;
  for (int pair = 0; pair < pairs; ++pair) {
    double cpu_us[2] = {0.0, 0.0};  // [0] disabled, [1] instrumented
    for (int leg = 0; leg < 2; ++leg) {
      const bool on = (leg == 0) == (pair % 2 == 0);
      obs::set_enabled(on);
      scratch_ms.clear();
      const double c0 = process_cpu_us();
      const auto t0 = std::chrono::steady_clock::now();
      result.bit_identical =
          run_closed_loop(*service.value(), mix, reference.value(), clients,
                          per_client, on ? on_latencies_ms : scratch_ms) &&
          result.bit_identical;
      const auto t1 = std::chrono::steady_clock::now();
      cpu_us[on ? 1 : 0] = process_cpu_us() - c0;
      if (on) on_wall_s += std::chrono::duration<double>(t1 - t0).count();
    }
    obs::set_enabled(true);
    if (cpu_us[0] > 0.0) pair_pct.push_back((cpu_us[1] - cpu_us[0]) / cpu_us[0] * 100.0);
  }
  service.value()->stop();

  if (!pair_pct.empty()) {
    std::sort(pair_pct.begin(), pair_pct.end());
    const std::size_t mid = pair_pct.size() / 2;
    result.overhead_pct = pair_pct.size() % 2 == 1
                              ? pair_pct[mid]
                              : (pair_pct[mid - 1] + pair_pct[mid]) / 2.0;
  }
  result.requests = on_latencies_ms.size();
  result.throughput_rps =
      on_wall_s > 0.0 ? static_cast<double>(result.requests) / on_wall_s : 0.0;
  fill_percentiles(result, on_latencies_ms);
  result.batches = service.value()->stats().batches - warm.batches;
  return result;
}

/// Train the serving model on a reduced suite (every 4th micro-benchmark,
/// 16 configurations) — representative shape, seconds-scale training.
std::shared_ptr<const core::FrequencyModel> serving_model(
    std::vector<clfront::StaticFeatures>& mix_out) {
  auto full = benchgen::generate_training_suite();
  if (!full.ok()) return nullptr;
  std::vector<benchgen::MicroBenchmark> subset;
  for (std::size_t i = 0; i < full.value().size(); i += 4) {
    subset.push_back(full.value()[i]);
  }
  for (std::size_t i = 0; i < subset.size(); ++i) {
    mix_out.push_back(subset[i].features);
  }
  core::TrainingOptions options;
  options.num_configs = 16;
  const core::SimulatorBackend backend(gpusim::DeviceModel::titan_x());
  auto model = core::FrequencyModel::train(backend, subset, options);
  if (!model.ok()) return nullptr;
  return std::make_shared<const core::FrequencyModel>(std::move(model).take());
}

void write_json(const std::string& path, bool smoke, std::size_t threads,
                const std::vector<CaseResult>& results,
                const std::vector<ServingResult>& serving) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"perf_stack\",\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  std::fprintf(f, "  \"threads\": %zu,\n  \"simd_backend\": \"%s\",\n  \"cases\": [\n",
               threads, common::simd::backend_name());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double speedup = r.parallel_ms > 0.0 ? r.serial_ms / r.parallel_ms : 0.0;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"size\": %zu, \"serial_ms\": %.3f, "
                 "\"parallel_ms\": %.3f, \"speedup\": %.3f, \"bit_identical\": %s}%s\n",
                 r.name.c_str(), r.size, r.serial_ms, r.parallel_ms, speedup,
                 r.bit_identical ? "true" : "false", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"serving\": [\n");
  for (std::size_t i = 0; i < serving.size(); ++i) {
    const auto& s = serving[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"shards\": %zu, \"clients\": %zu, "
                 "\"requests\": %zu, \"batches\": %zu, \"throughput_rps\": %.1f, "
                 "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"overhead_pct\": %.2f, \"bit_identical\": %s}%s\n",
                 s.mode, s.shards, s.clients, s.requests, s.batches, s.throughput_rps,
                 s.p50_ms, s.p95_ms, s.p99_ms, s.overhead_pct,
                 s.bit_identical ? "true" : "false", i + 1 < serving.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t threads = common::ThreadPool::default_thread_count();
  std::string out = "BENCH_perf_stack.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--alloc-report") {
      // Count steady-state heap allocations on the serve hot path (the
      // contract AllocationRegressionTest locks at zero) and exit.
      return run_alloc_report() ? 0 : 1;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--threads N] [--out PATH] "
                   "[--alloc-report]\n",
                   argv[0]);
      return 2;
    }
  }
  if (threads == 0) threads = 1;
  // Best of 3 in both modes: a smoke run is also the perf gate's committed
  // baseline (BENCH_perf_stack_smoke.json), and a single repetition is too
  // noisy to compare against a 25% bound.
  const int reps = 3;

  std::printf("perf_stack: serial (1 thread / reference) vs parallel (%zu threads)%s\n\n",
              threads, smoke ? " [smoke]" : "");

  std::vector<CaseResult> results;
  const auto run = [&](CaseResult r) {
    std::printf("%-18s n=%-8zu serial %9.3f ms   parallel %9.3f ms   x%.2f   %s\n",
                r.name.c_str(), r.size, r.serial_ms, r.parallel_ms,
                r.parallel_ms > 0.0 ? r.serial_ms / r.parallel_ms : 0.0,
                r.bit_identical ? "bit-identical" : "OUTPUT MISMATCH");
    results.push_back(std::move(r));
  };

  const std::vector<std::size_t> train_sizes = smoke ? std::vector<std::size_t>{48}
                                                     : std::vector<std::size_t>{128, 256, 512};
  for (std::size_t n : train_sizes) run(bench_svr_train(n, threads, reps));

  const std::vector<std::size_t> predict_sizes =
      smoke ? std::vector<std::size_t>{256} : std::vector<std::size_t>{2000, 10000, 40000};
  for (std::size_t m : predict_sizes) run(bench_batch_predict(m, threads, reps));

  // model_grid_predict: "size" is the support-vector count of each SVR. Its
  // smoke row takes milliseconds, so the gate's ratio (not its absolute
  // slack) decides it; best of 10 keeps shared-machine noise under that.
  const std::vector<std::size_t> grid_sv_counts =
      smoke ? std::vector<std::size_t>{256} : std::vector<std::size_t>{1024, 2048};
  for (std::size_t n_sv : grid_sv_counts) run(bench_model_grid_predict(n_sv, 10));

  const std::vector<std::size_t> pareto_sizes =
      smoke ? std::vector<std::size_t>{500} : std::vector<std::size_t>{2000, 8000, 20000};
  for (std::size_t n : pareto_sizes) run(bench_pareto(n, reps));

  const std::vector<std::size_t> combined_sizes =
      smoke ? std::vector<std::size_t>{256} : std::vector<std::size_t>{2000, 10000, 40000};
  for (std::size_t m : combined_sizes) run(bench_predict_pareto(m, threads, reps));

  const std::vector<std::size_t> matmul_sizes =
      smoke ? std::vector<std::size_t>{48} : std::vector<std::size_t>{128, 256, 384};
  for (std::size_t n : matmul_sizes) run(bench_matmul(n, threads, reps));

  // simd_kernels: scalar (sequential) vs SIMD inner kernels. The reduction
  // sweeps are sub-millisecond, so give them extra repetitions.
  const int reduce_reps = smoke ? 3 : 10;
  const std::vector<std::size_t> simd_dims =
      smoke ? std::vector<std::size_t>{12} : std::vector<std::size_t>{12, 64, 1024};
  for (std::size_t dim : simd_dims) run(bench_simd_reduce(false, dim, reduce_reps));
  for (std::size_t dim : simd_dims) run(bench_simd_reduce(true, dim, reduce_reps));

  const std::vector<std::size_t> kmat_sizes =
      smoke ? std::vector<std::size_t>{96} : std::vector<std::size_t>{500, 2000};
  for (std::size_t n : kmat_sizes) run(bench_simd_kernel_matrix(n, reps));

  // stream_featurize: whole-string vs chunked SourceFeeder on a synthetic
  // many-function source; "size" is the source length in bytes. The smoke
  // source (~200 KB) takes milliseconds, so the gate's ratio decides it.
  const std::vector<std::size_t> stream_fns =
      smoke ? std::vector<std::size_t>{2000} : std::vector<std::size_t>{500, 4000};
  for (std::size_t n : stream_fns) run(bench_stream_featurize(n, reps));

  // protocol_codec: JSON-line framing vs negotiated binary frames, encode +
  // decode per message batch; "size" is the number of messages per rep.
  const int codec_reps = smoke ? 3 : 10;
  const std::vector<std::size_t> codec_sizes =
      smoke ? std::vector<std::size_t>{500} : std::vector<std::size_t>{2000, 10000};
  for (std::size_t n : codec_sizes) run(bench_protocol_request_codec(n, codec_reps));
  for (std::size_t n : codec_sizes) run(bench_protocol_response_codec(n, codec_reps));

  // protocol_parse_arena / serving_hotpath: heap-per-message vs arena/pool
  // protocol paths; "size" is messages per rep.
  for (std::size_t n : codec_sizes) run(bench_protocol_parse_arena(n, codec_reps));
  for (std::size_t n : codec_sizes) run(bench_serving_hotpath(n, codec_reps));

  // serving: the one remaining row, obs-overhead. Restoring the pool here
  // also keeps any later library use on the expected thread count.
  common::ThreadPool::set_global_threads(threads);
  std::vector<ServingResult> serving;
  std::vector<clfront::StaticFeatures> mix;
  const auto model = serving_model(mix);
  if (model != nullptr) {
    // obs-overhead: the observability tax — instrumented vs runtime-
    // disabled metrics, CPU per request over ABBA blocks of 2,000 requests
    // from 4 client threads on 2 shards. perf_gate.sh enforces the <= 3%
    // contract on this row's overhead_pct.
    auto s = bench_serving_obs_overhead(model, mix, 2, 4, 2000, 80);
    std::printf("serving-obs        shards=%zu  %8.0f req/s   overhead %5.2f%%   %s\n",
                s.shards, s.throughput_rps, s.overhead_pct,
                s.bit_identical ? "bit-identical" : "OUTPUT MISMATCH");
    serving.push_back(s);
  } else {
    std::fprintf(stderr, "serving bench: model training failed, section skipped\n");
  }

  write_json(out, smoke, threads, results, serving);
  std::printf("\nwritten to %s\n", out.c_str());

  bool ok = true;
  for (const auto& r : results) ok = ok && r.bit_identical;
  for (const auto& s : serving) ok = ok && s.bit_identical;
  return ok ? 0 : 1;
}
