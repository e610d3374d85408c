#include "core/model.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/log.hpp"
#include "ml/dataset.hpp"
#include "ml/svr.hpp"
#include "pareto/pareto.hpp"

namespace repro::core {

namespace {

bool is_mem_L(const gpusim::FrequencyDomain& domain, int mem_mhz) {
  const auto level = domain.level_of(mem_mhz);
  return level.ok() && level.value() == gpusim::MemLevel::kL;
}

void log_fit(const char* objective, const ml::Regressor& model) {
  auto line = common::log_info();
  line << objective << " model (" << model.name() << "): fitted";
  if (const auto* svr = dynamic_cast<const ml::Svr*>(&model)) {
    line << ", " << svr->training_info().iterations << " SMO iterations, "
         << svr->num_support_vectors() << " SVs";
  }
}

}  // namespace

common::Result<FrequencyModel> FrequencyModel::train(
    const MeasurementBackend& backend, std::span<const benchgen::MicroBenchmark> suite,
    const TrainingOptions& options) {
  if (suite.empty()) return common::invalid_argument("train: empty benchmark suite");

  const auto& domain = backend.domain();
  FrequencyModel model(domain, FeatureAssembler(domain));
  model.speedup_key_ = options.models.speedup_regressor;
  model.energy_key_ = options.models.energy_regressor;
  model.training_configs_ = domain.sample_configs(options.num_configs);
  if (options.exclude_mem_L_from_training) {
    std::erase_if(model.training_configs_, [&](const gpusim::FrequencyConfig& c) {
      return is_mem_L(domain, c.mem_mhz);
    });
  }
  if (model.training_configs_.empty()) {
    return common::invalid_argument("train: no training configurations");
  }

  // Build both regressors up front so an unknown registry key fails before
  // the (expensive) measurement pass.
  auto speedup = ml::make_regressor(options.models.speedup_regressor,
                                    options.models.speedup);
  if (!speedup.ok()) return speedup.error();
  auto energy = ml::make_regressor(options.models.energy_regressor,
                                   options.models.energy);
  if (!energy.ok()) return energy.error();

  // Assemble the training matrices: one row per (kernel, configuration).
  const std::size_t expected_rows = suite.size() * model.training_configs_.size();
  ml::Matrix x(0, 0);
  x.reserve_rows(expected_rows, kFeatureDim);
  std::vector<double> y_speedup;
  y_speedup.reserve(expected_rows);
  std::vector<double> y_energy;
  y_energy.reserve(expected_rows);
  for (const auto& mb : suite) {
    auto points = backend.measure(mb.profile, model.training_configs_);
    if (!points.ok()) return points.error();
    const auto normalized = mb.features.normalized();
    for (const auto& p : points.value()) {
      const auto row = model.assembler_.assemble(normalized, p.config);
      x.push_row(row);
      y_speedup.push_back(p.speedup);
      y_energy.push_back(p.norm_energy);
    }
  }
  model.training_samples_ = x.rows();
  common::log_info() << "FrequencyModel::train[" << backend.name() << "]: "
                     << suite.size() << " kernels x " << model.training_configs_.size()
                     << " configs = " << x.rows() << " samples";

  model.speedup_ = std::move(speedup).take();
  model.speedup_->fit(x, y_speedup);
  log_fit("speedup", *model.speedup_);

  model.energy_ = std::move(energy).take();
  model.energy_->fit(x, y_energy);
  log_fit("energy", *model.energy_);

  return model;
}

common::Result<FrequencyModel> FrequencyModel::train(
    const gpusim::GpuSimulator& simulator, std::span<const benchgen::MicroBenchmark> suite,
    const TrainingOptions& options) {
  return train(SimulatorBackend(simulator), suite, options);
}

common::Result<FrequencyModel> FrequencyModel::train_or_load(
    const MeasurementBackend& backend, std::span<const benchgen::MicroBenchmark> suite,
    const TrainingOptions& options, const std::string& cache_path) {
  if (std::filesystem::exists(cache_path)) {
    auto loaded = load(cache_path);
    if (loaded.ok() &&
        loaded.value().domain().device_name() == backend.domain().device_name() &&
        loaded.value().speedup_regressor() == options.models.speedup_regressor &&
        loaded.value().energy_regressor() == options.models.energy_regressor) {
      common::log_info() << "FrequencyModel: loaded cached model from " << cache_path;
      return loaded;
    }
    if (loaded.ok()) {
      common::log_warn() << "FrequencyModel: cache at " << cache_path
                         << " was trained for a different setup (device \""
                         << loaded.value().domain().device_name() << "\", regressors "
                         << loaded.value().speedup_regressor() << "/"
                         << loaded.value().energy_regressor() << "), retraining";
    } else {
      common::log_warn() << "FrequencyModel: stale cache at " << cache_path << " ("
                         << loaded.error().message << "), retraining";
    }
  }
  auto trained = train(backend, suite, options);
  if (!trained.ok()) return trained;
  if (auto st = trained.value().save(cache_path); !st.ok()) {
    common::log_warn() << "FrequencyModel: could not cache model: " << st.error().message;
  }
  return trained;
}

common::Result<FrequencyModel> FrequencyModel::train_or_load(
    const gpusim::GpuSimulator& simulator, std::span<const benchgen::MicroBenchmark> suite,
    const TrainingOptions& options, const std::string& cache_path) {
  return train_or_load(SimulatorBackend(simulator), suite, options, cache_path);
}

double FrequencyModel::predict_speedup(const clfront::StaticFeatures& features,
                                       gpusim::FrequencyConfig config) const {
  const auto w = assembler_.assemble(features, config);
  return speedup_->predict_one(w);
}

double FrequencyModel::predict_energy(const clfront::StaticFeatures& features,
                                      gpusim::FrequencyConfig config) const {
  const auto w = assembler_.assemble(features, config);
  return energy_->predict_one(w);
}

std::vector<PredictedPoint> FrequencyModel::predict_all(
    const clfront::StaticFeatures& features,
    std::span<const gpusim::FrequencyConfig> configs) const {
  // Assemble the feature matrix for the whole grid once, then one batch
  // prediction per objective — the regressors' batch paths parallelize
  // across configurations (SVR additionally blocks over support vectors).
  const auto normalized = features.normalized();
  ml::Matrix x(0, 0);
  x.reserve_rows(configs.size(), kFeatureDim);
  for (const auto& config : configs) {
    x.push_row(assembler_.assemble(normalized, config));
  }
  const auto speedups = speedup_->predict(x);
  const auto energies = energy_->predict(x);

  std::vector<PredictedPoint> out;
  out.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    out.push_back({configs[i], speedups[i], energies[i], false});
  }
  return out;
}

std::vector<PredictedPoint> FrequencyModel::predict_pareto(
    const clfront::StaticFeatures& features,
    std::span<const gpusim::FrequencyConfig> configs) const {
  // Model only the three upper memory clocks (mem-L is excluded, §4.5).
  std::vector<gpusim::FrequencyConfig> grid;
  grid.reserve(configs.size() + 1);
  for (const auto& c : configs) {
    if (!is_mem_L(domain_, c.mem_mhz)) grid.push_back(c);
  }
  const std::size_t modeled = grid.size();

  // Heuristic: append the highest-core mem-L configuration (it is dominant
  // in 11 of 12 of the paper's codes). Prefer one present in `configs`. It
  // is predicted as one more grid row — a batch row equals predict_one bit
  // for bit — and kept out of the Pareto set.
  const auto* mem_L = domain_.find_domain(gpusim::MemLevel::kL);
  const bool heuristic = mem_L != nullptr && !mem_L->actual_core_mhz.empty();
  if (heuristic) {
    gpusim::FrequencyConfig best{0, mem_L->mem_mhz};
    for (const auto& c : configs) {
      if (c.mem_mhz == mem_L->mem_mhz && c.core_mhz > best.core_mhz) best = c;
    }
    if (best.core_mhz == 0) best = {mem_L->actual_core_mhz.back(), mem_L->mem_mhz};
    grid.push_back(best);
  }
  const auto predictions = predict_all(features, grid);

  // Pareto set of the predictions: the O(n log n) skyline computes the same
  // set as the paper's Algorithm 1 (see pareto_test); re-sorting by id
  // restores the naive algorithm's input-order output, keeping the result
  // byte-identical to the O(n^2) path.
  std::vector<pareto::Point> points;
  points.reserve(modeled);
  for (std::size_t i = 0; i < modeled; ++i) {
    points.push_back({predictions[i].speedup, predictions[i].energy,
                      static_cast<std::uint32_t>(i)});
  }
  auto front = pareto::pareto_set_fast(points);
  std::sort(front.begin(), front.end(),
            [](const pareto::Point& a, const pareto::Point& b) { return a.id < b.id; });

  std::vector<PredictedPoint> out;
  out.reserve(front.size() + 1);
  for (const auto& p : front) out.push_back(predictions[p.id]);
  if (heuristic) {
    out.push_back(predictions.back());
    out.back().heuristic = true;
  }
  return out;
}

std::vector<PredictedPoint> FrequencyModel::predict_pareto(
    const clfront::StaticFeatures& features) const {
  const auto configs = domain_.sample_configs(training_configs_.empty()
                                                  ? 40
                                                  : training_configs_.size());
  return predict_pareto(features, configs);
}

std::string FrequencyModel::serialize() const {
  std::ostringstream oss;
  oss.precision(17);
  oss << "gpufreq_model v2\n";
  oss << "device " << domain_.device_name() << '\n';
  oss << "bounds " << assembler_.core_min() << ' ' << assembler_.core_max() << ' '
      << assembler_.mem_min() << ' ' << assembler_.mem_max() << '\n';
  oss << "training_configs " << training_configs_.size() << '\n';
  for (const auto& c : training_configs_) oss << c.core_mhz << ' ' << c.mem_mhz << '\n';
  oss << "training_samples " << training_samples_ << '\n';
  oss << "=== speedup ===\n" << ml::serialize_regressor(*speedup_);
  oss << "=== energy ===\n" << ml::serialize_regressor(*energy_);
  return oss.str();
}

common::Result<FrequencyModel> FrequencyModel::deserialize(const std::string& text) {
  std::istringstream iss(text);
  std::string line;
  if (!std::getline(iss, line) || line != "gpufreq_model v2") {
    return common::parse_error("FrequencyModel: bad header (expected gpufreq_model v2)");
  }
  if (!std::getline(iss, line) || line.rfind("device ", 0) != 0) {
    return common::parse_error("FrequencyModel: missing device line");
  }
  const std::string device_name = line.substr(7);

  double core_min = 0, core_max = 0, mem_min = 0, mem_max = 0;
  {
    std::string tag;
    if (!(iss >> tag >> core_min >> core_max >> mem_min >> mem_max) || tag != "bounds") {
      return common::parse_error("FrequencyModel: missing bounds");
    }
  }
  std::size_t n_configs = 0;
  {
    std::string tag;
    if (!(iss >> tag >> n_configs) || tag != "training_configs") {
      return common::parse_error("FrequencyModel: missing training_configs");
    }
  }
  if (n_configs > text.size()) {  // each config needs at least four payload bytes
    return common::parse_error("FrequencyModel: config count exceeds payload size");
  }
  std::vector<gpusim::FrequencyConfig> configs(n_configs);
  for (auto& c : configs) {
    if (!(iss >> c.core_mhz >> c.mem_mhz)) {
      return common::parse_error("FrequencyModel: truncated config list");
    }
  }
  std::size_t n_samples = 0;
  {
    std::string tag;
    if (!(iss >> tag >> n_samples) || tag != "training_samples") {
      return common::parse_error("FrequencyModel: missing training_samples");
    }
  }
  std::getline(iss, line);  // consume rest of line

  // Split the two regressor sections.
  std::string rest((std::istreambuf_iterator<char>(iss)), std::istreambuf_iterator<char>());
  const std::string speedup_tag = "=== speedup ===\n";
  const std::string energy_tag = "=== energy ===\n";
  const auto s_pos = rest.find(speedup_tag);
  const auto e_pos = rest.find(energy_tag);
  if (s_pos == std::string::npos || e_pos == std::string::npos || e_pos < s_pos) {
    return common::parse_error("FrequencyModel: missing regressor sections");
  }
  const std::string speedup_text =
      rest.substr(s_pos + speedup_tag.size(), e_pos - s_pos - speedup_tag.size());
  const std::string energy_text = rest.substr(e_pos + energy_tag.size());

  auto speedup = ml::deserialize_regressor(speedup_text);
  if (!speedup.ok()) return speedup.error();
  auto energy = ml::deserialize_regressor(energy_text);
  if (!energy.ok()) return energy.error();

  // The domain is reconstructed from the device name (only the two known
  // simulated devices are supported).
  gpusim::FrequencyDomain domain = device_name.find("P100") != std::string::npos
                                       ? gpusim::FrequencyDomain::tesla_p100()
                                       : gpusim::FrequencyDomain::titan_x();
  FrequencyModel model(std::move(domain),
                       FeatureAssembler(core_min, core_max, mem_min, mem_max));
  model.speedup_ = std::move(speedup).take();
  model.energy_ = std::move(energy).take();
  model.speedup_key_ = model.speedup_->name();
  model.energy_key_ = model.energy_->name();
  model.training_configs_ = std::move(configs);
  model.training_samples_ = n_samples;
  return model;
}

common::Status FrequencyModel::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return common::io_error("cannot write " + path);
  out << serialize();
  if (!out) return common::io_error("write failed: " + path);
  return common::Status::Ok();
}

common::Result<FrequencyModel> FrequencyModel::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return common::io_error("cannot read " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return deserialize(oss.str());
}

}  // namespace repro::core
