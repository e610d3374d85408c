// Polynomial regression: degree-d feature expansion followed by ridge-
// regularised least squares. The paper lists polynomial regression as the
// alternative it tried for the normalized-energy model (§3.4).
#pragma once

#include <string>
#include <vector>

#include "ml/linear.hpp"
#include "ml/model.hpp"

namespace repro::ml {

struct PolynomialParams {
  int degree = 2;
  double l2 = 1e-8;           // tiny ridge keeps the expanded design solvable
  bool interactions = true;   // include cross terms (x_i * x_j)
};

class PolynomialRegression final : public Regressor {
 public:
  PolynomialRegression() = default;
  explicit PolynomialRegression(PolynomialParams params) : params_(params) {}

  void fit(const Matrix& x, const std::vector<double>& y) override;
  [[nodiscard]] double predict_one(std::span<const double> x) const override;
  [[nodiscard]] std::string name() const override { return "poly"; }
  [[nodiscard]] bool fitted() const noexcept override { return linear_.fitted(); }
  [[nodiscard]] std::size_t num_features() const noexcept override { return input_dim_; }

  /// Expand a sample into the polynomial basis (exposed for tests).
  [[nodiscard]] std::vector<double> expand(std::span<const double> x) const;

  [[nodiscard]] std::string serialize() const override;
  [[nodiscard]] static common::Result<PolynomialRegression> deserialize(
      const std::string& text);

 private:
  PolynomialParams params_;
  LinearRegression linear_{1e-8};
  std::size_t input_dim_ = 0;
};

}  // namespace repro::ml
