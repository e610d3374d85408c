#include "core/predictor.hpp"

#include <utility>

#include "common/thread_pool.hpp"
#include "core/model_cache.hpp"

namespace repro::core {

Predictor::Builder Predictor::builder() { return Builder(); }

// --- Builder -----------------------------------------------------------------

Predictor::Builder& Predictor::Builder::device(gpusim::DeviceModel device) {
  device_ = std::move(device);
  return *this;
}

Predictor::Builder& Predictor::Builder::sim_options(gpusim::SimOptions options) {
  sim_options_ = options;
  return *this;
}

Predictor::Builder& Predictor::Builder::backend(
    std::unique_ptr<MeasurementBackend> backend) {
  backend_ = std::move(backend);
  return *this;
}

Predictor::Builder& Predictor::Builder::regressors(std::string speedup_key,
                                                   std::string energy_key) {
  training_.models.speedup_regressor = std::move(speedup_key);
  training_.models.energy_regressor = std::move(energy_key);
  return *this;
}

Predictor::Builder& Predictor::Builder::regressor_params(ml::RegressorParams speedup,
                                                         ml::RegressorParams energy) {
  training_.models.speedup = speedup;
  training_.models.energy = energy;
  return *this;
}

Predictor::Builder& Predictor::Builder::training(TrainingOptions options) {
  training_ = std::move(options);
  return *this;
}

Predictor::Builder& Predictor::Builder::num_configs(std::size_t n) {
  training_.num_configs = n;
  return *this;
}

Predictor::Builder& Predictor::Builder::suite(std::vector<benchgen::MicroBenchmark> suite) {
  suite_ = std::move(suite);
  return *this;
}

Predictor::Builder& Predictor::Builder::cache(ModelCache& cache) {
  cache_ = &cache;
  return *this;
}

Predictor::Builder& Predictor::Builder::memoize(bool on) {
  memoize_ = on;
  return *this;
}

common::Result<Predictor> Predictor::Builder::build() {
  // Validate the cheap-to-check axes before any backend or suite work, so a
  // misconfigured builder fails in microseconds, not after a training pass.
  for (const std::string& key :
       {training_.models.speedup_regressor, training_.models.energy_regressor}) {
    if (key.empty()) {
      return common::invalid_argument("Predictor::builder: empty regressor key");
    }
    if (!ml::RegressorRegistry::instance().contains(key)) {
      return common::not_found("Predictor::builder: unknown regressor \"" + key +
                               "\"; registered: " + [] {
                                 std::string joined;
                                 for (const auto& n : ml::registered_regressors()) {
                                   if (!joined.empty()) joined += ", ";
                                   joined += n;
                                 }
                                 return joined;
                               }());
    }
  }
  if (training_.num_configs == 0) {
    return common::invalid_argument(
        "Predictor::builder: num_configs must be positive");
  }
  if (suite_.has_value() && suite_->empty()) {
    return common::invalid_argument("Predictor::builder: empty training suite");
  }

  std::unique_ptr<MeasurementBackend> backend = std::move(backend_);
  if (backend == nullptr) {
    backend = std::make_unique<SimulatorBackend>(device_, sim_options_);
  }
  if (memoize_) {
    backend = std::make_unique<CachingBackend>(std::move(backend));
  }

  // The default suite is generated here, inside the trainer, so a cache hit
  // never pays for it.
  const auto train = [&]() -> common::Result<FrequencyModel> {
    if (suite_.has_value()) return FrequencyModel::train(*backend, *suite_, training_);
    auto generated = benchgen::generate_training_suite();
    if (!generated.ok()) return generated.error();
    return FrequencyModel::train(*backend, generated.value(), training_);
  };

  if (cache_ != nullptr) {
    // The generated default suite is deterministic, so its name alone
    // identifies it; a custom suite joins the key as a fingerprint.
    const ModelKey key = ModelKey::from_options(
        backend->domain().device_name(), training_,
        suite_.has_value() ? ModelKey::fingerprint(*suite_)
                           : std::string(ModelKey::kDefaultSuite));
    auto model = cache_->get_or_train(key, train);
    if (!model.ok()) return model.error();
    return Predictor(std::move(backend), std::move(model).take());
  }
  auto model = train();
  if (!model.ok()) return model.error();
  return Predictor(std::move(backend),
                   std::make_shared<const FrequencyModel>(std::move(model).take()));
}

// --- from_model --------------------------------------------------------------

common::Result<Predictor> Predictor::from_model(
    std::shared_ptr<const FrequencyModel> model,
    std::unique_ptr<MeasurementBackend> backend) {
  if (model == nullptr) {
    return common::invalid_argument("Predictor::from_model: null model");
  }
  return Predictor(std::move(backend), std::move(model));
}

// --- Predictor ---------------------------------------------------------------

common::Result<PredictedPoint> Predictor::predict(const clfront::StaticFeatures& features,
                                                  gpusim::FrequencyConfig config) const {
  if (!domain().is_reported(config)) {
    return common::invalid_argument(
        "predict: configuration core " + std::to_string(config.core_mhz) + " / mem " +
        std::to_string(config.mem_mhz) + " is not reported by " +
        domain().device_name());
  }
  return PredictedPoint{config, model_->predict_speedup(features, config),
                        model_->predict_energy(features, config), false};
}

common::Result<std::vector<PredictedPoint>> Predictor::predict_all(
    const clfront::StaticFeatures& features,
    std::span<const gpusim::FrequencyConfig> configs) const {
  if (configs.empty()) return common::invalid_argument("predict_all: no configurations");
  return model_->predict_all(features, configs);
}

common::Result<std::vector<PredictedPoint>> Predictor::predict_pareto(
    const clfront::StaticFeatures& features) const {
  return model_->predict_pareto(features);
}

common::Result<std::vector<PredictedPoint>> Predictor::predict_pareto(
    const clfront::StaticFeatures& features,
    std::span<const gpusim::FrequencyConfig> configs) const {
  if (configs.empty()) {
    return common::invalid_argument("predict_pareto: no configurations");
  }
  return model_->predict_pareto(features, configs);
}

common::Result<Predictor::KernelPrediction> Predictor::predict_source(
    const std::string& opencl_source, const std::string& kernel_name) const {
  auto features = pipeline_.featurize(opencl_source, kernel_name);
  if (!features.ok()) return features.error();
  KernelPrediction prediction;
  prediction.kernel = features.value().kernel_name;
  prediction.pareto = model_->predict_pareto(features.value());
  return prediction;
}

common::Result<std::vector<Predictor::KernelPrediction>> Predictor::predict_source_batch(
    std::span<const SourceRequest> sources) const {
  if (sources.empty()) {
    return common::invalid_argument("predict_source_batch: no sources");
  }
  // Sources are independent — featurize and predict each into its own slot
  // (identical to the serial loop at any thread count); the first failure
  // by input order, not completion order, fails the batch.
  std::vector<common::Result<KernelPrediction>> slots(
      sources.size(), common::internal_error("unset"));
  common::ThreadPool::global().parallel_for(
      0, sources.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          slots[i] = predict_source(sources[i].source, sources[i].kernel);
        }
      });
  std::vector<KernelPrediction> out;
  out.reserve(sources.size());
  for (auto& slot : slots) {
    if (!slot.ok()) return slot.error();
    out.push_back(std::move(slot).take());
  }
  return out;
}

common::Result<std::vector<Predictor::KernelPrediction>> Predictor::predict_batch(
    std::span<const clfront::StaticFeatures> kernels) const {
  if (kernels.empty()) return common::invalid_argument("predict_batch: no kernels");
  // Kernels are independent — predict them in parallel, each into its own
  // slot so the output order (and every value in it) is identical to the
  // serial loop at any thread count.
  std::vector<KernelPrediction> out(kernels.size());
  common::ThreadPool::global().parallel_for(
      0, kernels.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = {kernels[i].kernel_name, model_->predict_pareto(kernels[i])};
        }
      });
  return out;
}

}  // namespace repro::core
