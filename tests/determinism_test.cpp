// Determinism guarantees of the parallel prediction stack: every parallel
// path (thread pool sizes 1, 2 and 8) must produce bit-identical output to
// the serial path — predictions, cross-validation scores, matrix products
// and Pareto fronts. FrequencyModel's single-point, grid and Pareto entry
// points must agree bit for bit, on and off its default grid. Also
// property-tests the O(n log n) skyline against the paper's O(n^2)
// Algorithm 1 on random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "core/model.hpp"
#include "kernels/kernels.hpp"
#include "ml/dataset.hpp"
#include "ml/matrix.hpp"
#include "ml/model_selection.hpp"
#include "ml/svr.hpp"
#include "ml/synthetic.hpp"
#include "pareto/pareto.hpp"

namespace rc = repro::common;
namespace rs = repro::common::simd;
namespace rco = repro::core;
namespace rg = repro::gpusim;
namespace rm = repro::ml;
namespace rp = repro::pareto;

namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

constexpr auto make_dataset = rm::make_synthetic_regression;

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Restores the default global pool when the test scope ends.
struct PoolGuard {
  ~PoolGuard() { rc::ThreadPool::set_global_threads(0); }
};

/// Restores the runtime SIMD toggle when the test scope ends.
struct SimdGuard {
  bool saved = rs::enabled();
  ~SimdGuard() { rs::set_enabled(saved); }
};

const rm::KernelFunction kKernels[] = {rm::KernelFunction::linear(),
                                       rm::KernelFunction::rbf(0.5),
                                       rm::KernelFunction::polynomial(3, 0.5, 1.0)};

/// Rows in a grid large enough that rows × support vectors (the fixtures
/// keep >= 64) is above Svr::predict's serial cutoff, so it fans out.
constexpr std::size_t kLargeGrid = 4096;

rm::Svr fit_svr(const rm::KernelFunction& kernel, const rm::Matrix& x,
                const std::vector<double>& y) {
  rm::SvrParams params;
  params.kernel = kernel;
  params.c = 10.0;
  params.epsilon = 0.01;  // a narrow tube keeps most samples as support vectors
  params.max_iter = 50'000;
  rm::Svr svr(params);
  svr.fit(x, y);
  EXPECT_GE(svr.num_support_vectors(), 64u) << rm::to_string(kernel.type);
  return svr;
}

/// The per-point reference path.
std::vector<double> predict_each(const rm::Svr& svr, const rm::Matrix& x) {
  std::vector<double> out;
  out.reserve(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out.push_back(svr.predict_one(x.row(r)));
  return out;
}

/// A grid-shaped batch: every row repeats `base`'s first `p` columns bit for
/// bit and draws the rest — a frequency grid is p = dim - 2 (one kernel's
/// static features, then two clock columns).
rm::Matrix grid(std::span<const double> base, std::size_t p, std::size_t rows,
                std::uint64_t seed) {
  rc::Xoshiro256 rng(seed);
  rm::Matrix x(rows, base.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < base.size(); ++c) {
      x(r, c) = c < p ? base[c] : rng.uniform(-1.0, 1.0);
    }
  }
  return x;
}

/// A FrequencyModel of the paper's shape (linear-kernel speedup SVR, RBF
/// energy SVR) over synthetic support vectors on the Titan X domain — no
/// training run, so it stays cheap under TSan. `n_configs` sizes the
/// default grid: two models that differ only there share every prediction
/// but hold clock-factor tables for different rows.
rco::FrequencyModel synthetic_model(std::size_t n_configs) {
  std::string text =
      "gpufreq_model v2\ndevice Titan X\nbounds 135 1196 405 3505\ntraining_configs " +
      std::to_string(n_configs) + '\n';
  for (std::size_t i = 0; i < n_configs; ++i) text += "1001 3505\n";
  text += "training_samples 0\n=== speedup ===\nregressor v1 svr-linear\n" +
          rm::make_synthetic_svr_text("linear", 300, rco::kFeatureDim, 0x5D1) +
          "=== energy ===\nregressor v1 svr-rbf\n" +
          rm::make_synthetic_svr_text("rbf", 200, rco::kFeatureDim, 0x5D2);
  auto model = rco::FrequencyModel::deserialize(text);
  EXPECT_TRUE(model.ok()) << (model.ok() ? "" : model.error().message);
  return std::move(model).take();
}

std::vector<repro::clfront::StaticFeatures> test_kernel_features() {
  std::vector<repro::clfront::StaticFeatures> out;
  for (const auto& b : repro::kernels::test_suite()) {
    out.push_back(repro::kernels::benchmark_features(b).value());
  }
  return out;
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_points(const std::vector<rco::PredictedPoint>& a,
                 const std::vector<rco::PredictedPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].config != b[i].config || a[i].heuristic != b[i].heuristic ||
        !bits_equal(a[i].speedup, b[i].speedup) || !bits_equal(a[i].energy, b[i].energy)) {
      return false;
    }
  }
  return true;
}

}  // namespace

TEST(DeterminismTest, SvrTrainingIsThreadCountInvariant) {
  PoolGuard guard;
  rm::Matrix x;
  std::vector<double> y;
  make_dataset(120, 8, 0xD373C7, x, y);

  rm::SvrParams params;
  params.kernel = rm::KernelFunction::rbf(0.5);
  params.c = 10.0;
  params.max_iter = 50'000;

  std::string reference;
  for (std::size_t threads : kThreadCounts) {
    rc::ThreadPool::set_global_threads(threads);
    rm::Svr svr(params);
    svr.fit(x, y);
    const auto serialized = svr.serialize();
    if (reference.empty()) {
      reference = serialized;
    } else {
      EXPECT_EQ(serialized, reference) << "threads=" << threads;
    }
  }
}

// The trainer reads K only through KernelRowCache. Under a 3-row budget
// nearly every request evicts, and each row computed alone must still equal
// the dense reference bit for bit — including the row held from the previous
// request, as SMO holds row i while it fetches row j.
TEST(DeterminismTest, KernelRowCacheMatchesDenseMatrixUnderEviction) {
  SimdGuard simd_guard;
  constexpr std::size_t kRows = 200;
  constexpr std::size_t kRequests = 2400;
  constexpr std::size_t kRowBytes = kRows * sizeof(float);
  rm::Matrix x;
  std::vector<double> y;
  make_dataset(kRows, 8, 0x4C2C, x, y);

  for (const auto& kernel : kKernels) {
    for (bool simd : {true, false}) {
      rs::set_enabled(simd);
      const std::string where =
          std::string(rm::to_string(kernel.type)) + " simd=" + (simd ? "1" : "0");
      const std::vector<float> dense = rm::build_kernel_matrix_f32(x, kernel);
      rm::KernelRowCache cache(x, kernel, 3 * kRowBytes);
      for (std::size_t i = 0; i < kRows; ++i) {
        const float d = cache.diag(i);
        ASSERT_EQ(std::memcmp(&dense[i * kRows + i], &d, sizeof d), 0)
            << where << " diag " << i;
      }

      // Every row once in shuffled order, then uniform draws mixed with
      // re-requests of the last three rows (cache hits).
      std::vector<std::size_t> order(kRows);
      for (std::size_t i = 0; i < kRows; ++i) order[i] = i;
      rc::Xoshiro256 rng(0x5EC5);
      rng.shuffle(order);
      std::array<std::size_t, 3> recent{};
      const float* held = nullptr;
      std::size_t held_row = 0;
      for (std::size_t step = 0; step < kRequests; ++step) {
        std::size_t i = 0;
        if (step < kRows) {
          i = order[step];
        } else if (rng.uniform() < 0.3) {
          i = recent[rng.uniform_index(recent.size())];
        } else {
          i = static_cast<std::size_t>(rng.uniform_index(kRows));
        }
        const float* current = cache.row(i);
        ASSERT_EQ(std::memcmp(current, &dense[i * kRows], kRowBytes), 0)
            << where << " step " << step << " row " << i;
        if (held != nullptr) {
          ASSERT_EQ(std::memcmp(held, &dense[held_row * kRows], kRowBytes), 0)
              << where << " step " << step << " held row " << held_row;
        }
        held = current;
        held_row = i;
        recent[step % recent.size()] = i;
      }
      EXPECT_GT(cache.rows_computed(), kRows) << where;
      EXPECT_EQ(cache.peak_bytes(), 3 * kRowBytes) << where;
    }
  }
}

TEST(DeterminismTest, SvrBatchPredictMatchesPredictOneBitForBit) {
  PoolGuard guard;
  SimdGuard simd_guard;
  rm::Matrix x;
  std::vector<double> y;
  make_dataset(150, 8, 0xABCDEF, x, y);
  rm::Matrix x_test;
  std::vector<double> unused;
  make_dataset(257, 8, 0x7E57, x_test, unused);

  // Random rows (no shared prefix), then grids whose rows share a leading
  // prefix of every length p = 0..dim. 35 rows stay on the calling thread;
  // kLargeGrid rows fan out at 2 and 8 threads.
  std::vector<rm::Matrix> inputs{x_test};
  for (std::size_t p = 0; p <= x_test.cols(); ++p) {
    inputs.push_back(grid(x_test.row(p), p, 35, 0x6A1D + p));
    inputs.push_back(grid(x_test.row(p), p, kLargeGrid, 0x6A1E + p));
  }

  for (const auto& kernel : kKernels) {
    rm::Svr svr = fit_svr(kernel, x, y);
    for (const auto& in : inputs) {
      const auto reference = predict_each(svr, in);
      for (std::size_t threads : kThreadCounts) {
        rc::ThreadPool::set_global_threads(threads);
        for (bool simd : {true, false}) {
          rs::set_enabled(simd);
          EXPECT_TRUE(bitwise_equal(svr.predict(in), reference))
              << rm::to_string(kernel.type) << " rows=" << in.rows()
              << " threads=" << threads << " simd=" << simd;
        }
      }
    }
  }
}

TEST(DeterminismTest, ConcurrentGridPredictsMatchPredictOne) {
  // Four non-pool threads predict grids above the fan-out cutoff at once,
  // directly and as a two-grid parallel_for batch. A caller waiting on its
  // latch runs other callers' queued chunks on its own thread, so predict
  // re-enters there mid-call: scratch reached through the thread (a
  // thread_local buffer) would be overwritten while this call's chunks
  // still read it.
  PoolGuard guard;
  rc::ThreadPool::set_global_threads(4);
  rm::Matrix x;
  std::vector<double> y;
  make_dataset(150, 8, 0xC0C0, x, y);
  const rm::Svr svrs[] = {fit_svr(kKernels[0], x, y), fit_svr(kKernels[1], x, y)};

  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kPrefix = 6;  // the two trailing columns vary, as clocks do
  std::vector<std::array<rm::Matrix, 2>> grids;
  std::vector<std::array<std::vector<double>, 2>> refs;
  for (std::size_t t = 0; t < kCallers; ++t) {
    const rm::Svr& svr = svrs[t % 2];
    grids.push_back({grid(x.row(2 * t), kPrefix, kLargeGrid, 0xCA11 + 2 * t),
                     grid(x.row(2 * t + 1), kPrefix, kLargeGrid, 0xCA12 + 2 * t)});
    refs.push_back({predict_each(svr, grids[t][0]), predict_each(svr, grids[t][1])});
  }

  std::vector<int> mismatches(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      const rm::Svr& svr = svrs[t % 2];
      std::array<std::vector<double>, 2> batch;
      for (int iter = 0; iter < 8; ++iter) {
        if (!bitwise_equal(svr.predict(grids[t][0]), refs[t][0])) ++mismatches[t];
        rc::ThreadPool::global().parallel_for(0, 2, 1, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t g = lo; g < hi; ++g) batch[g] = svr.predict(grids[t][g]);
        });
        for (std::size_t g = 0; g < 2; ++g) {
          if (!bitwise_equal(batch[g], refs[t][g])) ++mismatches[t];
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  for (std::size_t t = 0; t < kCallers; ++t) EXPECT_EQ(mismatches[t], 0) << "caller " << t;
}

TEST(DeterminismTest, ModelEntryPointsAgreeBitForBitOnAndOffTheGrid) {
  // predict_speedup/predict_energy, the matching predict_all row and the
  // matching predict_pareto entry are one expression: on the default grid
  // (clock factors from the plan's table) and at every core clock of all
  // four memory levels (most computed on the fly), at any thread count and
  // on either SIMD backend. A model with a 20-config default grid holds
  // table rows for other configurations, so agreeing with it shows that a
  // table row equals the same row computed on the fly.
  PoolGuard guard;
  SimdGuard simd_guard;
  const rco::FrequencyModel model = synthetic_model(40);
  const rco::FrequencyModel other_grid = synthetic_model(20);
  const auto& domain = model.domain();
  const auto grid = domain.sample_configs(40);
  std::vector<rg::FrequencyConfig> every_clock;
  for (auto level : {rg::MemLevel::kL, rg::MemLevel::kLow, rg::MemLevel::kHigh, rg::MemLevel::kH}) {
    const auto* d = domain.find_domain(level);
    ASSERT_NE(d, nullptr);
    for (int core : d->actual_core_mhz) every_clock.push_back({core, d->mem_mhz});
  }
  const auto all_features = test_kernel_features();
  std::vector<repro::clfront::StaticFeatures> features;  // 4 of the 12 keep TSan runs short
  for (std::size_t k = 0; k < all_features.size(); k += 3) features.push_back(all_features[k]);

  rs::set_enabled(true);
  rc::ThreadPool::set_global_threads(1);
  std::vector<std::array<std::vector<rco::PredictedPoint>, 2>> reference;
  for (const auto& f : features) {
    reference.push_back({model.predict_all(f, grid), model.predict_all(f, every_clock)});
  }

  for (std::size_t threads : kThreadCounts) {
    rc::ThreadPool::set_global_threads(threads);
    for (bool simd : {true, false}) {
      rs::set_enabled(simd);
      for (std::size_t k = 0; k < features.size(); ++k) {
        const auto& f = features[k];
        const std::span<const rg::FrequencyConfig> sets[] = {grid, every_clock};
        for (std::size_t g = 0; g < 2; ++g) {
          const auto& configs = sets[g];
          const auto& ref = reference[k][g];
          const auto where = [&](const std::string& what) {
            return what + " kernel=" + std::to_string(k) + " set=" + std::to_string(g) +
                   " threads=" + std::to_string(threads) + " simd=" + std::to_string(simd);
          };
          EXPECT_TRUE(same_points(model.predict_all(f, configs), ref)) << where("predict_all");
          EXPECT_TRUE(same_points(other_grid.predict_all(f, configs), ref))
              << where("other grid");
          for (std::size_t i = 0; i < configs.size(); ++i) {
            EXPECT_TRUE(bits_equal(model.predict_speedup(f, configs[i]), ref[i].speedup))
                << where("predict_speedup") << " row=" << i;
            EXPECT_TRUE(bits_equal(model.predict_energy(f, configs[i]), ref[i].energy))
                << where("predict_energy") << " row=" << i;
          }
          auto pareto = model.predict_pareto(f, configs);
          if (g == 0) {
            EXPECT_TRUE(same_points(model.predict_pareto(f), pareto)) << where("default");
          }
          for (auto p : pareto) {
            const auto it = std::find_if(ref.begin(), ref.end(),
                                         [&](const auto& r) { return r.config == p.config; });
            ASSERT_NE(it, ref.end()) << where("pareto config");
            p.heuristic = false;
            EXPECT_TRUE(same_points({p}, {*it})) << where("predict_pareto");
          }
        }
      }
    }
  }
}

TEST(DeterminismTest, ConcurrentModelParetoMatchesSerial) {
  // Four threads share one model and its evaluation plan, as a server's
  // shards do; each must reproduce the serial replies bit for bit.
  PoolGuard guard;
  rc::ThreadPool::set_global_threads(4);
  const rco::FrequencyModel model = synthetic_model(40);
  const auto features = test_kernel_features();
  std::vector<std::vector<rco::PredictedPoint>> serial;
  for (const auto& f : features) serial.push_back(model.predict_pareto(f));

  constexpr std::size_t kCallers = 4;
  std::vector<int> mismatches(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int iter = 0; iter < 8; ++iter) {
        for (std::size_t k = 0; k < features.size(); ++k) {
          const std::size_t i = (k + t) % features.size();
          if (!same_points(model.predict_pareto(features[i]), serial[i])) ++mismatches[t];
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  for (std::size_t t = 0; t < kCallers; ++t) EXPECT_EQ(mismatches[t], 0) << "caller " << t;
}

TEST(DeterminismTest, MatrixMultiplyIsThreadCountInvariant) {
  PoolGuard guard;
  rm::Matrix a;
  rm::Matrix b;
  std::vector<double> unused;
  make_dataset(70, 45, 0xAA, a, unused);
  make_dataset(45, 33, 0xBB, b, unused);

  rc::ThreadPool::set_global_threads(1);
  const rm::Matrix reference = a.multiply(b);
  for (std::size_t threads : kThreadCounts) {
    rc::ThreadPool::set_global_threads(threads);
    const rm::Matrix out = a.multiply(b);
    ASSERT_EQ(out.rows(), reference.rows());
    ASSERT_EQ(out.cols(), reference.cols());
    EXPECT_TRUE(bitwise_equal(out.data(), reference.data())) << "threads=" << threads;
  }
}

TEST(DeterminismTest, CrossValidationScoreIsThreadCountInvariant) {
  PoolGuard guard;
  rm::Dataset data;
  rm::Matrix x;
  std::vector<double> y;
  make_dataset(90, 6, 0xCF01D, x, y);
  for (std::size_t r = 0; r < x.rows(); ++r) data.add(x.row(r), y[r]);

  const auto factory = [] {
    rm::SvrParams params;
    params.kernel = rm::KernelFunction::rbf(0.5);
    params.c = 10.0;
    return std::make_unique<rm::Svr>(params);
  };

  double reference = 0.0;
  for (std::size_t threads : kThreadCounts) {
    rc::ThreadPool::set_global_threads(threads);
    const double rmse = rm::cross_val_rmse(data, 5, 0x5EED, factory);
    if (threads == 1) {
      reference = rmse;
    } else {
      EXPECT_EQ(rmse, reference) << "threads=" << threads;
    }
  }
}

TEST(DeterminismTest, ParetoFrontIdenticalAcrossThreadCountsAndAlgorithms) {
  PoolGuard guard;
  rc::Xoshiro256 rng(0xF207);
  std::vector<rp::Point> pts(4000);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    pts[i] = {rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5),
              static_cast<std::uint32_t>(i)};
  }
  const auto naive = rp::pareto_set_naive(pts);
  for (std::size_t threads : kThreadCounts) {
    rc::ThreadPool::set_global_threads(threads);
    const auto fast = rp::pareto_set_fast(pts);
    EXPECT_TRUE(rp::same_front(naive, fast)) << "threads=" << threads;
  }
}

TEST(DeterminismTest, SkylineMatchesNaiveOnRandomInputs) {
  // Property test over many random clouds, including heavy duplicate and
  // collinear cases (quantized coordinates force objective ties).
  rc::Xoshiro256 rng(0x5C11E);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(300);
    const bool quantize = trial % 2 == 0;
    std::vector<rp::Point> pts(n);
    for (std::size_t i = 0; i < n; ++i) {
      double s = rng.uniform(0.5, 1.5);
      double e = rng.uniform(0.5, 1.5);
      if (quantize) {
        s = std::round(s * 8.0) / 8.0;
        e = std::round(e * 8.0) / 8.0;
      }
      pts[i] = {s, e, static_cast<std::uint32_t>(i)};
    }
    const auto naive = rp::pareto_set_naive(pts);
    const auto fast = rp::pareto_set_fast(pts);
    EXPECT_TRUE(rp::same_front(naive, fast))
        << "trial " << trial << " n=" << n << " quantize=" << quantize;
    EXPECT_EQ(naive.size(), fast.size()) << "trial " << trial;
  }
}
