#include "ml/kernel.hpp"

#include <cmath>

#include "common/simd.hpp"

namespace repro::ml {

const char* to_string(KernelType t) noexcept {
  switch (t) {
    case KernelType::kLinear: return "linear";
    case KernelType::kRbf: return "rbf";
    case KernelType::kPolynomial: return "polynomial";
  }
  return "?";
}

common::Result<KernelType> kernel_type_from_string(const std::string& s) {
  if (s == "linear") return KernelType::kLinear;
  if (s == "rbf") return KernelType::kRbf;
  if (s == "polynomial") return KernelType::kPolynomial;
  return common::parse_error("unknown kernel type: " + s);
}

double KernelFunction::operator()(std::span<const double> a,
                                  std::span<const double> b) const noexcept {
  // The reductions run on the SIMD layer, and RBF uses the deterministic
  // common::simd::exp_one (the scalar core of exp_batch) rather than libm,
  // so a single evaluation is bit-identical to the batched evaluate_row
  // path on any SIMD backend.
  switch (type) {
    case KernelType::kLinear:
      return common::simd::dot(a, b);
    case KernelType::kRbf:
      return common::simd::exp_one(-gamma * common::simd::squared_distance(a, b));
    case KernelType::kPolynomial:
      return std::pow(gamma * common::simd::dot(a, b) + coef0, degree);
  }
  return 0.0;
}

void KernelFunction::evaluate_row(std::span<const double> x, const Matrix& data,
                                  std::size_t j_lo, std::size_t j_hi,
                                  std::span<double> out) const noexcept {
  const std::size_t m = j_hi - j_lo;
  if (m == 0) return;
  const double* rows = data.row(j_lo).data();
  const std::size_t stride = data.cols();
  switch (type) {
    case KernelType::kLinear:
      common::simd::dot_rows(out.first(m), x, rows, stride);
      return;
    case KernelType::kRbf:
      // Two passes: the scaled squared distances land in out, then the
      // batched exponential rewrites them in place, 4 lanes at a time.
      common::simd::squared_distance_rows(out.first(m), x, rows, stride, -gamma);
      common::simd::exp_batch(out.first(m), out.first(m));
      return;
    case KernelType::kPolynomial:
      common::simd::dot_rows(out.first(m), x, rows, stride);
      for (std::size_t j = 0; j < m; ++j) {
        out[j] = std::pow(gamma * out[j] + coef0, degree);
      }
      return;
  }
}

}  // namespace repro::ml
