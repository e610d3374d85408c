// Linear least-squares regressors: OLS and ridge (Tikhonov) regression via
// normal equations + Cholesky. These are the baselines the paper reports
// having tried against SVR for speedup modeling (§3.4).
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "ml/model.hpp"

namespace repro::ml {

/// Ordinary least squares with intercept. With `l2` > 0 this becomes ridge
/// regression (the intercept is never penalised).
class LinearRegression final : public Regressor {
 public:
  LinearRegression() = default;
  explicit LinearRegression(double l2) : LinearRegression(l2 > 0.0 ? "ridge" : "ols", l2) {}
  LinearRegression(std::string family, double l2) : l2_(l2), family_(std::move(family)) {}

  void fit(const Matrix& x, const std::vector<double>& y) override;
  [[nodiscard]] double predict_one(std::span<const double> x) const override;
  [[nodiscard]] std::string name() const override { return family_; }
  /// The registry key this model was constructed under. Must track the key
  /// even when it cannot be derived from the parameters (ridge with l2 = 0),
  /// or cache-key comparisons and serialized envelopes get the wrong family.
  void set_family(std::string family) { family_ = std::move(family); }
  [[nodiscard]] bool fitted() const noexcept override { return fitted_; }
  [[nodiscard]] std::size_t num_features() const noexcept override { return coef_.size(); }

  [[nodiscard]] const std::vector<double>& coefficients() const noexcept { return coef_; }
  [[nodiscard]] double intercept() const noexcept { return intercept_; }

  [[nodiscard]] std::string serialize() const override;
  [[nodiscard]] static common::Result<LinearRegression> deserialize(const std::string& text);

 private:
  double l2_ = 0.0;
  std::string family_ = "ols";
  std::vector<double> coef_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace repro::ml
