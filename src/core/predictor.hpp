// The public entry point of the library: a trained predictor behind a
// builder, with every axis of the pipeline swappable.
//
//   core::ModelCache cache(".repro_model_cache");
//   auto predictor = core::Predictor::builder()
//                        .device(gpusim::DeviceModel::titan_x())
//                        .regressors("svr-linear", "svr-rbf")
//                        .cache(cache)
//                        .build();
//   if (!predictor.ok()) { ... }
//   auto prediction = predictor.value().predict_source(kKernelSource);
//
// The builder defaults reproduce the paper end to end: simulated Titan X,
// the 106-micro-benchmark training suite, linear-SVR speedup + RBF-SVR
// energy models (C = 1000, epsilon = 0.1), 40 sampled training
// configurations. Swap any of them: another device, a recorded
// CsvReplayBackend, different regressor families from the registry, a
// custom training suite.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "clfront/features.hpp"
#include "common/status.hpp"
#include "core/measurement.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"

namespace repro::core {

class ModelCache;  // core/model_cache.hpp

class Predictor {
 public:
  class Builder;
  [[nodiscard]] static Builder builder();

  /// Wrap an already-trained model (e.g. one handed out by a ModelCache)
  /// without re-training. The model is shared — several predictors (one per
  /// serving shard) can point at the same immutable FrequencyModel.
  /// `backend` may be null: prediction never measures, so a backend-less
  /// predictor supports the whole predict_* surface; only backend() is then
  /// off limits (check has_backend()).
  [[nodiscard]] static common::Result<Predictor> from_model(
      std::shared_ptr<const FrequencyModel> model,
      std::unique_ptr<MeasurementBackend> backend = nullptr);

  /// Per-kernel result of a batch prediction.
  struct KernelPrediction {
    std::string kernel;
    std::vector<PredictedPoint> pareto;
  };

  /// One raw-source prediction request (predict_source_batch, serving).
  struct SourceRequest {
    std::string source;  ///< OpenCL-C translation unit
    std::string kernel;  ///< kernel name; empty = first __kernel in `source`
  };

  // --- single-point ----------------------------------------------------------
  /// Predict both objectives for one kernel at one configuration. The
  /// configuration must be reported by the device's frequency domain.
  [[nodiscard]] common::Result<PredictedPoint> predict(
      const clfront::StaticFeatures& features, gpusim::FrequencyConfig config) const;

  /// Predictions at every given configuration (no Pareto filter).
  [[nodiscard]] common::Result<std::vector<PredictedPoint>> predict_all(
      const clfront::StaticFeatures& features,
      std::span<const gpusim::FrequencyConfig> configs) const;

  // --- Pareto ----------------------------------------------------------------
  [[nodiscard]] common::Result<std::vector<PredictedPoint>> predict_pareto(
      const clfront::StaticFeatures& features) const;
  [[nodiscard]] common::Result<std::vector<PredictedPoint>> predict_pareto(
      const clfront::StaticFeatures& features,
      std::span<const gpusim::FrequencyConfig> configs) const;

  // --- source-to-frequency (the paper's Fig. 3 flow) -------------------------
  /// Featurize OpenCL-C source through the owned FeaturePipeline and predict
  /// its Pareto set — source in, frequency recommendations out.
  [[nodiscard]] common::Result<KernelPrediction> predict_source(
      const std::string& opencl_source, const std::string& kernel_name = {}) const;

  /// predict_source over many sources, parallelized across them on the
  /// global thread pool. Output order and every byte are identical to the
  /// serial loop at any thread count; the first failing source (by input
  /// order) fails the batch.
  [[nodiscard]] common::Result<std::vector<KernelPrediction>> predict_source_batch(
      std::span<const SourceRequest> sources) const;

  // --- batch of kernels ------------------------------------------------------
  /// Pareto predictions for many kernels, parallelized across kernels on
  /// the global thread pool (common::ThreadPool). Output order and values
  /// are identical to the serial loop at any thread count.
  [[nodiscard]] common::Result<std::vector<KernelPrediction>> predict_batch(
      std::span<const clfront::StaticFeatures> kernels) const;

  // --- introspection ---------------------------------------------------------
  /// The source→features→model-input pipeline this predictor featurizes
  /// with (built on the trained model's FeatureAssembler).
  [[nodiscard]] const FeaturePipeline& pipeline() const noexcept { return pipeline_; }
  [[nodiscard]] const FrequencyModel& model() const noexcept { return *model_; }
  /// The trained model as a shareable handle (what a ModelCache stores, and
  /// what serve::Service::from_model serves).
  [[nodiscard]] std::shared_ptr<const FrequencyModel> share_model() const noexcept {
    return model_;
  }
  /// False for predictors created by from_model without a backend.
  [[nodiscard]] bool has_backend() const noexcept { return backend_ != nullptr; }
  /// Precondition: has_backend().
  [[nodiscard]] const MeasurementBackend& backend() const noexcept { return *backend_; }
  [[nodiscard]] const gpusim::FrequencyDomain& domain() const noexcept {
    return model_->domain();
  }

 private:
  Predictor(std::unique_ptr<MeasurementBackend> backend,
            std::shared_ptr<const FrequencyModel> model)
      : backend_(std::move(backend)),
        model_(std::move(model)),
        pipeline_(model_->assembler()) {}

  std::unique_ptr<MeasurementBackend> backend_;
  std::shared_ptr<const FrequencyModel> model_;
  FeaturePipeline pipeline_;
};

class Predictor::Builder {
 public:
  /// Measurement device (default: the simulated Titan X).
  Builder& device(gpusim::DeviceModel device);

  /// Custom measurement backend (a CachingBackend to memoize, a trace
  /// replay, …); overrides device().
  Builder& backend(std::unique_ptr<MeasurementBackend> backend);

  /// Registry keys for the two objective models (see
  /// ml::registered_regressors()).
  Builder& regressors(std::string speedup_key, std::string energy_key);
  Builder& regressor_params(ml::RegressorParams speedup, ml::RegressorParams energy);

  /// Replace the full training options (regressor keys included).
  Builder& training(TrainingOptions options);
  Builder& num_configs(std::size_t n);

  /// Custom training suite (default: the 106 generated micro-benchmarks).
  Builder& suite(std::vector<benchgen::MicroBenchmark> suite);

  /// Load this build's model from `cache`, or train and save it there once.
  /// Keyed by device, regressor keys, budget, mem-L exclusion and suite —
  /// not hyperparameters. The cache must outlive build().
  Builder& cache(ModelCache& cache);

  /// Assemble the backend, then train (or load the cached model). The
  /// default suite is generated only when a model is actually trained.
  [[nodiscard]] common::Result<Predictor> build();

 private:
  gpusim::DeviceModel device_ = gpusim::DeviceModel::titan_x();
  std::unique_ptr<MeasurementBackend> backend_;
  TrainingOptions training_{};
  std::optional<std::vector<benchgen::MicroBenchmark>> suite_;
  ModelCache* cache_ = nullptr;
};

}  // namespace repro::core
