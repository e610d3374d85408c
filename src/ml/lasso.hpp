// LASSO (L1-penalised least squares) trained with cyclic coordinate descent
// and soft-thresholding. One of the speedup-model baselines from §3.4.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "ml/model.hpp"

namespace repro::ml {

struct LassoParams {
  double alpha = 0.01;     // L1 strength
  double tol = 1e-7;       // max coefficient change to declare convergence
  std::size_t max_iter = 10'000;
};

class Lasso final : public Regressor {
 public:
  Lasso() = default;
  explicit Lasso(LassoParams params) : params_(params) {}

  void fit(const Matrix& x, const std::vector<double>& y) override;
  [[nodiscard]] double predict_one(std::span<const double> x) const override;
  [[nodiscard]] std::string name() const override { return "lasso"; }
  [[nodiscard]] bool fitted() const noexcept override { return fitted_; }
  [[nodiscard]] std::size_t num_features() const noexcept override { return coef_.size(); }

  [[nodiscard]] const std::vector<double>& coefficients() const noexcept { return coef_; }
  [[nodiscard]] double intercept() const noexcept { return intercept_; }
  [[nodiscard]] std::size_t iterations_used() const noexcept { return iterations_; }

  [[nodiscard]] std::string serialize() const override;
  [[nodiscard]] static common::Result<Lasso> deserialize(const std::string& text);

 private:
  LassoParams params_;
  std::vector<double> coef_;
  double intercept_ = 0.0;
  std::size_t iterations_ = 0;
  bool fitted_ = false;
};

}  // namespace repro::ml
