/// \file kernel.hpp
/// \brief SVR kernel functions (paper §3.4): linear kernel for the speedup
/// model, RBF kernel (gamma = 0.1) for the normalized-energy model. A
/// polynomial kernel is provided for the ablation study.
///
/// Kernel evaluations reduce their operands through common::simd (dot /
/// squared_distance under the fixed 4-lane contract) and apply exp/pow as
/// scalar functions of the reduced value, so an evaluation is bit-identical
/// across SIMD backends and thread counts.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "common/status.hpp"
#include "ml/matrix.hpp"

namespace repro::ml {

enum class KernelType { kLinear, kRbf, kPolynomial };

[[nodiscard]] const char* to_string(KernelType t) noexcept;
[[nodiscard]] common::Result<KernelType> kernel_type_from_string(const std::string& s);

/// \brief Parameterised kernel function object.
///
/// Evaluates k(a, b) for the configured kernel family:
///  - linear:      `<a, b>`
///  - rbf:         `exp(-gamma * |a - b|^2)`
///  - polynomial:  `(gamma * <a, b> + coef0)^degree`
struct KernelFunction {
  KernelType type = KernelType::kLinear;
  double gamma = 0.1;   ///< RBF / polynomial scale.
  double coef0 = 1.0;   ///< Polynomial shift.
  int degree = 3;       ///< Polynomial degree.

  /// \brief Evaluate the kernel on two equal-length feature vectors.
  /// \pre a.size() == b.size().
  /// \return k(a, b); bit-identical across SIMD backends and thread counts.
  [[nodiscard]] double operator()(std::span<const double> a,
                                  std::span<const double> b) const noexcept;

  /// \brief Batched row evaluation: `out[j - j_lo] = k(x, data.row(j))` for
  /// `j` in `[j_lo, j_hi)`.
  ///
  /// The hot path of the SVR kernel-matrix build and of batched prediction:
  /// the reductions run on common::simd and the RBF exponentials go through
  /// the batched deterministic common::simd::exp_batch, so each output
  /// element is bit-identical to `operator()(x, data.row(j))` — at any
  /// batch boundary, SIMD backend, or thread count.
  /// \pre x.size() == data.cols(); out.size() >= j_hi - j_lo.
  void evaluate_row(std::span<const double> x, const Matrix& data, std::size_t j_lo,
                    std::size_t j_hi, std::span<double> out) const noexcept;

  /// \brief The paper's speedup-model kernel.
  [[nodiscard]] static KernelFunction linear() { return {KernelType::kLinear, 0.0, 0.0, 0}; }
  /// \brief The paper's energy-model kernel (\p gamma = 0.1 in §3.4).
  [[nodiscard]] static KernelFunction rbf(double gamma) {
    return {KernelType::kRbf, gamma, 0.0, 0};
  }
  /// \brief Polynomial kernel for the ablation study.
  [[nodiscard]] static KernelFunction polynomial(int degree, double gamma = 1.0,
                                                 double coef0 = 1.0) {
    return {KernelType::kPolynomial, gamma, coef0, degree};
  }
};

}  // namespace repro::ml
