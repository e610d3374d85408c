// The common::simd determinism contract: the std-simd backend and the
// 4-wide unrolled fallback must return bit-identical results for every
// operation, at every length (aligned, unaligned, and all tail remainders),
// and flipping the runtime toggle must never change the output of any
// production path — reductions, kernel matrices, scaler passes, or a full
// SVR training run.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "ml/kernel.hpp"
#include "ml/matrix.hpp"
#include "ml/scaler.hpp"
#include "ml/svr.hpp"
#include "ml/synthetic.hpp"

namespace rc = repro::common;
namespace rs = repro::common::simd;
namespace rm = repro::ml;

namespace {

// The lengths the issue calls out: every tail remainder (1..9), a
// mid-sized odd length, and a long vector.
const std::vector<std::size_t> kLengths = {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 1000};

/// Restores the runtime SIMD toggle when the test scope ends.
struct SimdGuard {
  bool saved = rs::enabled();
  ~SimdGuard() { rs::set_enabled(saved); }
};

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  rc::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::bit_cast<std::uint64_t>(a) << " vs "
         << std::bit_cast<std::uint64_t>(b) << ")";
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

TEST(SimdTest, DotVectorMatchesUnrolledAtEveryLength) {
  for (std::size_t n : kLengths) {
    const auto a = random_vector(n, 0xA0 + n);
    const auto b = random_vector(n, 0xB0 + n);
    EXPECT_TRUE(bits_equal(rs::detail::dot_vector(a.data(), b.data(), n),
                           rs::detail::dot_unrolled(a.data(), b.data(), n)))
        << "n=" << n;
  }
}

TEST(SimdTest, SquaredDistanceVectorMatchesUnrolledAtEveryLength) {
  for (std::size_t n : kLengths) {
    const auto a = random_vector(n, 0xC0 + n);
    const auto b = random_vector(n, 0xD0 + n);
    EXPECT_TRUE(
        bits_equal(rs::detail::squared_distance_vector(a.data(), b.data(), n),
                   rs::detail::squared_distance_unrolled(a.data(), b.data(), n)))
        << "n=" << n;
  }
}

TEST(SimdTest, UnalignedOperandsMatch) {
  // Offset both operands by one double so neither is 32-byte aligned; the
  // backends use element-aligned loads, so the bits must not change.
  for (std::size_t n : kLengths) {
    const auto a = random_vector(n + 1, 0xE0 + n);
    const auto b = random_vector(n + 1, 0xF0 + n);
    EXPECT_TRUE(bits_equal(rs::detail::dot_vector(a.data() + 1, b.data() + 1, n),
                           rs::detail::dot_unrolled(a.data() + 1, b.data() + 1, n)))
        << "n=" << n;
    EXPECT_TRUE(bits_equal(
        rs::detail::squared_distance_vector(a.data() + 1, b.data() + 1, n),
        rs::detail::squared_distance_unrolled(a.data() + 1, b.data() + 1, n)))
        << "n=" << n;
  }
}

TEST(SimdTest, RuntimeToggleNeverChangesDispatchedResults) {
  SimdGuard guard;
  for (std::size_t n : kLengths) {
    const auto a = random_vector(n, 0x1A + n);
    const auto b = random_vector(n, 0x2B + n);
    rs::set_enabled(true);
    const double dot_on = rs::dot(a, b);
    const double sqd_on = rs::squared_distance(a, b);
    rs::set_enabled(false);
    EXPECT_TRUE(bits_equal(dot_on, rs::dot(a, b))) << "n=" << n;
    EXPECT_TRUE(bits_equal(sqd_on, rs::squared_distance(a, b))) << "n=" << n;
  }
}

TEST(SimdTest, ExpOneTracksLibmAndHandlesEdges) {
  EXPECT_EQ(rs::exp_one(0.0), 1.0);
  EXPECT_EQ(rs::exp_one(-0.0), 1.0);
  EXPECT_EQ(rs::exp_one(-800.0), 0.0);
  EXPECT_TRUE(std::isinf(rs::exp_one(800.0)));
  EXPECT_TRUE(std::isnan(rs::exp_one(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(rs::exp_one(-std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_TRUE(std::isinf(rs::exp_one(std::numeric_limits<double>::infinity())));
  // The k = 1024 band just below true overflow must stay finite (regression:
  // the 2^k scale used to hit the Inf exponent pattern for x > ~709.44).
  for (double x : {709.4, 709.5, 709.7}) {
    const double ours = rs::exp_one(x);
    const double libm = std::exp(x);
    EXPECT_TRUE(std::isfinite(ours)) << "x=" << x;
    EXPECT_NEAR(ours, libm, 4.0 * libm * 2.2e-16) << "x=" << x;
  }
  rc::Xoshiro256 rng(0xE4B);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-700.0, 700.0);
    const double ours = rs::exp_one(x);
    const double libm = std::exp(x);
    EXPECT_NEAR(ours, libm, 4.0 * std::abs(libm) * 2.2e-16) << "x=" << x;
  }
}

TEST(SimdTest, ExpBatchBitIdenticalToExpOneAcrossBackends) {
  SimdGuard guard;
  for (std::size_t n : kLengths) {
    std::vector<double> x(n);
    rc::Xoshiro256 rng(0xEB + n);
    for (auto& v : x) v = rng.uniform(-80.0, 0.0);

    std::vector<double> loop(n);
    for (std::size_t i = 0; i < n; ++i) loop[i] = rs::exp_one(x[i]);

    std::vector<double> batch_on(n);
    std::vector<double> batch_off(n);
    rs::set_enabled(true);
    rs::exp_batch(batch_on, x);
    rs::set_enabled(false);
    rs::exp_batch(batch_off, x);
    EXPECT_TRUE(bitwise_equal(batch_on, loop)) << "n=" << n;
    EXPECT_TRUE(bitwise_equal(batch_off, loop)) << "n=" << n;
  }
}

TEST(SimdTest, BatchedKernelRowMatchesSingleEvaluations) {
  SimdGuard guard;
  rm::Matrix x;
  std::vector<double> unused;
  rm::make_synthetic_regression(53, 7, 0xBA7C, x, unused);
  const rm::KernelFunction kernels[] = {rm::KernelFunction::linear(),
                                        rm::KernelFunction::rbf(0.37),
                                        rm::KernelFunction::polynomial(3, 0.5, 1.0)};
  for (const auto& kernel : kernels) {
    for (bool on : {true, false}) {
      rs::set_enabled(on);
      std::vector<double> batch(x.rows());
      kernel.evaluate_row(x.row(3), x, 0, x.rows(), batch);
      for (std::size_t j = 0; j < x.rows(); ++j) {
        EXPECT_TRUE(bits_equal(batch[j], kernel(x.row(3), x.row(j))))
            << rm::to_string(kernel.type) << " simd=" << on << " j=" << j;
      }
    }
  }
}

TEST(SimdTest, MlDotForwardsToSimdLayer) {
  const auto a = random_vector(13, 0x3C);
  const auto b = random_vector(13, 0x4D);
  EXPECT_TRUE(bits_equal(rm::dot(a, b), rs::dot(a, b)));
  EXPECT_TRUE(bits_equal(rm::squared_distance(a, b), rs::squared_distance(a, b)));
}

TEST(SimdTest, KernelMatrixBitIdenticalAcrossBackends) {
  SimdGuard guard;
  constexpr std::size_t kN = 37;  // deliberately not a multiple of the lane width
  constexpr std::size_t kDim = 9;
  rm::Matrix x;
  std::vector<double> unused;
  rm::make_synthetic_regression(kN, kDim, 0x51D, x, unused);

  const rm::KernelFunction kernels[] = {rm::KernelFunction::linear(),
                                        rm::KernelFunction::rbf(0.37),
                                        rm::KernelFunction::polynomial(3, 0.5, 1.0)};
  for (const auto& kernel : kernels) {
    const auto build = [&] {
      std::vector<double> k;
      k.reserve(kN * kN);
      for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t j = 0; j < kN; ++j) k.push_back(kernel(x.row(i), x.row(j)));
      }
      return k;
    };
    rs::set_enabled(true);
    const auto k_simd = build();
    rs::set_enabled(false);
    const auto k_scalar = build();
    EXPECT_TRUE(bitwise_equal(k_simd, k_scalar))
        << "kernel=" << rm::to_string(kernel.type);
  }
}

TEST(SimdTest, MinMaxScalerBitIdenticalAcrossBackends) {
  SimdGuard guard;
  rm::Matrix x;
  std::vector<double> unused;
  rm::make_synthetic_regression(41, 7, 0x5CA1E, x, unused);

  rs::set_enabled(true);
  rm::MinMaxScaler scaler_on;
  const rm::Matrix t_on = scaler_on.fit_transform(x);
  rs::set_enabled(false);
  rm::MinMaxScaler scaler_off;
  const rm::Matrix t_off = scaler_off.fit_transform(x);

  EXPECT_TRUE(bitwise_equal(scaler_on.mins(), scaler_off.mins()));
  EXPECT_TRUE(bitwise_equal(scaler_on.maxs(), scaler_off.maxs()));
  EXPECT_TRUE(bitwise_equal(t_on.data(), t_off.data()));

  const auto row = random_vector(7, 0x11);
  rs::set_enabled(true);
  const auto inv_on = scaler_on.inverse_transform(row);
  rs::set_enabled(false);
  const auto inv_off = scaler_off.inverse_transform(row);
  EXPECT_TRUE(bitwise_equal(inv_on, inv_off));
}

TEST(SimdTest, MinMaxHandlesSignedZeroTiesIdentically) {
  // std::min(+0.0, -0.0) keeps the first argument; the vector backend must
  // reproduce that tie-breaking bit for bit (regression: stdx::min keeps
  // the second argument, minpd-style).
  SimdGuard guard;
  rm::Matrix x(2, 5);
  for (std::size_t c = 0; c < 5; ++c) {
    x(0, c) = (c % 2 == 0) ? 0.0 : -0.0;
    x(1, c) = (c % 2 == 0) ? -0.0 : 0.0;
  }
  const auto signs = [](const std::vector<double>& v) {
    std::vector<bool> s(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) s[i] = std::signbit(v[i]);
    return s;
  };
  rs::set_enabled(true);
  rm::MinMaxScaler on;
  on.fit(x);
  rs::set_enabled(false);
  rm::MinMaxScaler off;
  off.fit(x);
  EXPECT_EQ(signs(on.mins()), signs(off.mins()));
  EXPECT_EQ(signs(on.maxs()), signs(off.maxs()));
  EXPECT_TRUE(bitwise_equal(on.mins(), off.mins()));
  EXPECT_TRUE(bitwise_equal(on.maxs(), off.maxs()));
}

TEST(SimdTest, GradientUpdateBitIdenticalAcrossBackends) {
  SimdGuard guard;
  for (std::size_t n : kLengths) {
    std::vector<float> a(n);
    std::vector<float> b(n);
    rc::Xoshiro256 rng(0x6EAD + n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      b[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    auto grad_on = random_vector(n, 0x77 + n);
    auto grad_off = grad_on;
    rs::set_enabled(true);
    rs::add_scaled_pair_f32(grad_on, a.data(), b.data(), 0.3, -1.7, -1.0);
    rs::set_enabled(false);
    rs::add_scaled_pair_f32(grad_off, a.data(), b.data(), 0.3, -1.7, -1.0);
    EXPECT_TRUE(bitwise_equal(grad_on, grad_off)) << "n=" << n;
  }
}

TEST(SimdTest, SvrTrainingBitIdenticalAcrossBackends) {
  // End to end: a full SMO training run (kernel cache, gradient updates,
  // prediction) must serialize to the same bytes with the vector backend on
  // and off.
  SimdGuard guard;
  rm::Matrix x;
  std::vector<double> y;
  rm::make_synthetic_regression(90, 9, 0x57E9, x, y);
  rm::SvrParams params;
  params.kernel = rm::KernelFunction::rbf(0.5);
  params.c = 10.0;

  const auto train = [&] {
    rm::Svr svr(params);
    svr.fit(x, y);
    return svr.serialize();
  };
  rs::set_enabled(true);
  const auto model_on = train();
  rs::set_enabled(false);
  const auto model_off = train();
  EXPECT_EQ(model_on, model_off);
}
