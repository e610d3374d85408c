// ε-insensitive Support Vector Regression trained with an SMO solver
// (sequential minimal optimization with maximal-violating-pair working-set
// selection, LIBSVM-style formulation).
//
// The paper (§3.4) uses two SVR instances:
//   * speedup model:            linear kernel, C = 1000, ε = 0.1
//   * normalized-energy model:  RBF kernel, γ = 0.1, C = 1000, ε = 0.1
//
// The dual problem for ε-SVR over n samples is expressed with 2n box-
// constrained variables β (the first n play the role of α, the last n of α*)
// subject to Σ y_s β_s = 0 with labels y_s = +1 (s < n) / −1 (s ≥ n).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "ml/kernel.hpp"
#include "ml/model.hpp"

namespace repro::ml {

/// \brief Dense symmetric kernel matrix over the rows of `x`, row-major
/// float storage of size rows² — the SVR training-cache fill.
///
/// This is the production build path (batched SIMD evaluate_row per row,
/// block-tiled mirror writes, parallel over the thread pool, and
/// bit-deterministic at any thread count or SIMD backend); exposed so
/// benchmarks and tests measure the real algorithm instead of a copy.
[[nodiscard]] std::vector<float> build_kernel_matrix_f32(const Matrix& x,
                                                         const KernelFunction& kernel);

struct SvrParams {
  KernelFunction kernel = KernelFunction::linear();
  double c = 1000.0;       // box constraint (paper: C = 1000)
  double epsilon = 0.1;    // ε-insensitive tube (paper: ε = 0.1)
  double tol = 1e-3;       // KKT violation stopping tolerance
  std::int64_t max_iter = 2'000'000;  // safety cap for the SMO loop
  /// Ridge added to the kernel diagonal during training. The training sets
  /// of this domain contain near-duplicate rows (one kernel sampled at many
  /// configurations), which makes Q singular — especially with the linear
  /// kernel, whose rank is bounded by the feature dimension — and SMO
  /// convergence pathologically slow at C = 1000. A small jitter restores
  /// strict positive-definiteness at negligible cost to the fit.
  double diag_jitter = 0.05;
};

/// Result diagnostics of a training run.
struct SvrTrainingInfo {
  std::int64_t iterations = 0;
  bool converged = false;
  std::size_t support_vectors = 0;
};

class Svr final : public Regressor {
 public:
  Svr() = default;
  explicit Svr(SvrParams params) : params_(params) {}

  void fit(const Matrix& x, const std::vector<double>& y) override;
  [[nodiscard]] double predict_one(std::span<const double> x) const override;
  /// Batch override: evaluates every row of `x` against the support-vector
  /// matrix in one blocked pass (parallelized over rows). Per row, kernel
  /// contributions accumulate in support-vector order, so the result is
  /// bit-identical to predict_one at any thread count.
  [[nodiscard]] std::vector<double> predict(const Matrix& x) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] bool fitted() const noexcept override { return fitted_; }
  [[nodiscard]] std::size_t num_features() const noexcept override { return sv_.cols(); }

  [[nodiscard]] const SvrParams& params() const noexcept { return params_; }
  [[nodiscard]] const SvrTrainingInfo& training_info() const noexcept { return info_; }
  [[nodiscard]] double bias() const noexcept { return b_; }
  [[nodiscard]] std::size_t num_support_vectors() const noexcept { return sv_.rows(); }
  /// Support vectors, one per row, and their coefficients α_s − α_s*: the
  /// decision function is bias() + Σ_s coefficients()[s] · k(sv_s, x).
  [[nodiscard]] const Matrix& support_vectors() const noexcept { return sv_; }
  [[nodiscard]] const std::vector<double>& coefficients() const noexcept { return sv_coef_; }

  /// Text round-trip for model persistence.
  [[nodiscard]] std::string serialize() const override;
  [[nodiscard]] static common::Result<Svr> deserialize(const std::string& text);

 private:
  SvrParams params_;
  SvrTrainingInfo info_;
  Matrix sv_;                      // support vectors, one per row
  std::vector<double> sv_coef_;    // α_i − α_i* per support vector
  double b_ = 0.0;
  bool fitted_ = false;
};

}  // namespace repro::ml
