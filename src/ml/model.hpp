// Common regressor interface: every model in the library (SVR, OLS, ridge,
// LASSO, polynomial) trains from a Matrix + target vector and predicts a
// scalar per sample.
//
// Every concrete regressor also round-trips through a text serialization;
// `name()` doubles as the registry key (see ml/registry.hpp), which is what
// makes persistence polymorphic: a serialized model records its key and the
// registry dispatches deserialization to the right family.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/matrix.hpp"

namespace repro::ml {

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Fit on training data; y.size() must equal x.rows().
  virtual void fit(const Matrix& x, const std::vector<double>& y) = 0;

  /// Predict a single sample (x.size() == num_features()); a sample of
  /// another width throws std::invalid_argument.
  [[nodiscard]] virtual double predict_one(std::span<const double> x) const = 0;

  /// Input width the model was fitted on or deserialized with.
  [[nodiscard]] virtual std::size_t num_features() const noexcept = 0;

  /// Registry key of this model ("svr-linear", "ols", "lasso", ...).
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual bool fitted() const noexcept = 0;

  /// Family-specific text payload; restore with the family's deserializer or
  /// polymorphically via ml::deserialize_regressor (which adds a versioned
  /// envelope naming the family). Throws std::logic_error before fit().
  [[nodiscard]] virtual std::string serialize() const = 0;

  /// Batch prediction over one sample per row. The default implementation
  /// runs predict_one per row, parallelized over row blocks (each row writes
  /// its own output slot, so the result is bit-identical at any thread
  /// count). Families with a cheaper batch formulation override this — SVR
  /// evaluates all rows against the support-vector matrix in one blocked
  /// pass instead of per-point kernel loops.
  [[nodiscard]] virtual std::vector<double> predict(const Matrix& x) const;
};

}  // namespace repro::ml
