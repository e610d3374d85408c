// The trained frequency-scaling predictor — the paper's core contribution.
//
// Training (Fig. 2): each micro-benchmark is executed at a sampled subset of
// frequency configurations through a MeasurementBackend (live simulator, CSV
// replay, or a caching decorator — see core/measurement.hpp); static
// features plus the normalized frequency pair form the inputs, measured
// speedup / normalized energy the targets. Two regressors are fit, selected
// by registry key (ml/registry.hpp). The paper's choice (§3.4) is a
// linear-kernel SVR for speedup and an RBF SVR (gamma = 0.1) for normalized
// energy, both with C = 1000 and epsilon = 0.1 — the defaults below.
//
// Prediction (Fig. 3): a *new* kernel is never executed — its static
// features are combined with every candidate configuration, both models are
// evaluated, and the Pareto set of the predicted points is returned. The
// two lowest memory clocks are handled per the paper: mem-L is excluded
// from modeling and its highest-core configuration is appended to the
// predicted set heuristically (§4.5).
//
// Evaluation: every entry point goes through an immutable plan built once
// at the end of train() and deserialize() — the default Pareto grid plus a
// closed form per objective. A linear-kernel SVR collapses to b + w·x; an
// RBF SVR factors each kernel value at the static/clock column boundary,
// so a request pays one exponential per support vector and each grid row
// one dot product against a clock-factor table (docs/DETERMINISM.md,
// "Reference moves"). Other regressor families evaluate through
// ml::Regressor as fitted.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "clfront/features.hpp"
#include "common/status.hpp"
#include "core/features.hpp"
#include "core/measurement.hpp"
#include "gpusim/simulator.hpp"
#include "ml/registry.hpp"
#include "pareto/pareto.hpp"

namespace repro::core {

namespace detail {
struct EvaluationPlan;  // model.cpp
}  // namespace detail

/// Which regressor family models each objective (registry keys, see
/// ml::registered_regressors()) and the hyperparameters handed to the
/// factories. Defaults are the paper's models (§3.4).
struct ModelParams {
  std::string speedup_regressor = "svr-linear";
  std::string energy_regressor = "svr-rbf";
  ml::RegressorParams speedup{};
  ml::RegressorParams energy{};
};

struct TrainingOptions {
  std::size_t num_configs = 40;  // §3.3: "40 carefully sampled frequency settings"
  ModelParams models;
  bool exclude_mem_L_from_training = false;  // ablation hook
};

/// One configuration recommended by the predictor.
struct PredictedPoint {
  gpusim::FrequencyConfig config;
  double speedup = 0.0;     // predicted
  double energy = 0.0;      // predicted normalized energy
  bool heuristic = false;   // appended by the mem-L rule, not modeled
};

class FrequencyModel {
 public:
  /// Train on a micro-benchmark suite using the given measurement backend.
  [[nodiscard]] static common::Result<FrequencyModel> train(
      const MeasurementBackend& backend,
      std::span<const benchgen::MicroBenchmark> suite, const TrainingOptions& options);

  /// Convenience: train against a live simulator.
  [[nodiscard]] static common::Result<FrequencyModel> train(
      const gpusim::GpuSimulator& simulator,
      std::span<const benchgen::MicroBenchmark> suite, const TrainingOptions& options);

  // --- single-point prediction ---------------------------------------------
  [[nodiscard]] double predict_speedup(const clfront::StaticFeatures& features,
                                       gpusim::FrequencyConfig config) const;
  [[nodiscard]] double predict_energy(const clfront::StaticFeatures& features,
                                      gpusim::FrequencyConfig config) const;

  // --- Pareto prediction ----------------------------------------------------
  /// Predict over `configs` (filtering out mem-L per the paper's heuristic),
  /// compute the Pareto set of the predictions (Algorithm 1) and append the
  /// highest-core mem-L configuration when the domain has one.
  [[nodiscard]] std::vector<PredictedPoint> predict_pareto(
      const clfront::StaticFeatures& features,
      std::span<const gpusim::FrequencyConfig> configs) const;

  /// Same, over the default evaluation sampling of the training domain.
  [[nodiscard]] std::vector<PredictedPoint> predict_pareto(
      const clfront::StaticFeatures& features) const;

  /// Predictions for every configuration in `configs` (no Pareto filter,
  /// no mem-L exclusion) — used by the error analyses of Figs. 6 and 7.
  [[nodiscard]] std::vector<PredictedPoint> predict_all(
      const clfront::StaticFeatures& features,
      std::span<const gpusim::FrequencyConfig> configs) const;

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] const gpusim::FrequencyDomain& domain() const noexcept { return domain_; }
  /// The feature scaler this model was trained with (frequency pairs mapped
  /// into [0, 1] over the training domain) — what core::FeaturePipeline
  /// assembles prediction inputs with.
  [[nodiscard]] const FeatureAssembler& assembler() const noexcept { return assembler_; }
  [[nodiscard]] const std::vector<gpusim::FrequencyConfig>& training_configs()
      const noexcept {
    return training_configs_;
  }
  [[nodiscard]] std::size_t training_samples() const noexcept { return training_samples_; }
  [[nodiscard]] const ml::Regressor& speedup_model() const noexcept { return *speedup_; }
  [[nodiscard]] const ml::Regressor& energy_model() const noexcept { return *energy_; }
  /// Registry keys the models were built from.
  [[nodiscard]] const std::string& speedup_regressor() const noexcept {
    return speedup_key_;
  }
  [[nodiscard]] const std::string& energy_regressor() const noexcept {
    return energy_key_;
  }

  // --- persistence -----------------------------------------------------------
  /// Version 2 format: header + training metadata + two polymorphic
  /// regressor sections (ml::serialize_regressor envelopes). Any registered
  /// regressor family round-trips; deserialize() rejects one whose input
  /// width is not kFeatureDim with a parse error. Files are written and read
  /// only by core/model_cache.hpp (save_model_atomic, load_cached_model).
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static common::Result<FrequencyModel> deserialize(const std::string& text);

 private:
  FrequencyModel(gpusim::FrequencyDomain domain, FeatureAssembler assembler)
      : domain_(std::move(domain)), assembler_(assembler) {}

  /// The last step of train() and deserialize(): fixes the default Pareto
  /// grid and picks each objective's evaluator from its fitted regressor.
  void build_plan();

  gpusim::FrequencyDomain domain_;
  FeatureAssembler assembler_;
  std::string speedup_key_ = "svr-linear";
  std::string energy_key_ = "svr-rbf";
  std::unique_ptr<ml::Regressor> speedup_;
  std::unique_ptr<ml::Regressor> energy_;
  std::vector<gpusim::FrequencyConfig> training_configs_;
  std::size_t training_samples_ = 0;
  std::shared_ptr<const detail::EvaluationPlan> plan_;
};

}  // namespace repro::core
