// Deterministic synthetic regression problems, shared by the determinism
// tests and the perf_stack benchmark so both exercise the exact same data.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/matrix.hpp"

namespace repro::ml {

/// n samples of d features uniform in [0,1) with a smooth nonlinear target
/// (alternating-sign quadratic) plus mild Gaussian noise. Bit-reproducible
/// from the seed.
inline void make_synthetic_regression(std::size_t n, std::size_t d, std::uint64_t seed,
                                      Matrix& x, std::vector<double>& y) {
  common::Xoshiro256 rng(seed);
  x = Matrix(n, d);
  y.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double v = rng.uniform();
      x(i, j) = v;
      acc += (j % 2 == 0 ? 1.0 : -0.5) * v * v;
    }
    y[i] = acc + 0.05 * rng.gaussian();
  }
}

/// An SVR in ml::Svr's text format ("linear", "rbf" or "polynomial"
/// kernel, gamma 0.1) with `n_sv` support vectors uniform in [0,1)^dim and
/// coefficients in the C = 1000 box. Prediction cost depends only on the
/// kernel and the support-vector count, so this stands in for a fitted
/// model of any size without an SMO run. Bit-reproducible from the seed.
inline std::string make_synthetic_svr_text(const std::string& kernel, std::size_t n_sv,
                                           std::size_t dim, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::string text = "svr " + kernel + " 0.1 0 3 1000 0.1 0.25 " + std::to_string(n_sv) +
                     ' ' + std::to_string(dim) + '\n';
  char num[32];
  for (std::size_t i = 0; i < n_sv; ++i) {
    std::snprintf(num, sizeof num, "%.17g", rng.uniform(-1000.0, 1000.0));
    text += num;
    for (std::size_t d = 0; d < dim; ++d) {
      std::snprintf(num, sizeof num, " %.17g", rng.uniform(0.0, 1.0));
      text += num;
    }
    text += '\n';
  }
  return text;
}

}  // namespace repro::ml
