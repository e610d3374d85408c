#include "core/model.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/log.hpp"
#include "common/simd.hpp"
#include "ml/dataset.hpp"
#include "ml/svr.hpp"
#include "pareto/pareto.hpp"

namespace repro::core {

namespace detail {

/// The rows of one Pareto query: the modeled configurations, then the
/// mem-L heuristic row when the domain has one.
struct ParetoGrid {
  std::vector<gpusim::FrequencyConfig> rows;
  std::size_t modeled = 0;
};

/// How one objective is evaluated, chosen from its fitted regressor.
struct Evaluator {
  enum class Form { kRegressor, kLinear, kRbf };
  Form form = Form::kRegressor;
  const ml::Regressor* regressor = nullptr;
  const ml::Svr* svr = nullptr;     ///< kLinear and kRbf
  std::vector<double> weights;      ///< kLinear: w = Σ_s coef_s · sv_s
  std::vector<double> clock_table;  ///< kRbf: one row of clock factors per grid row
};

struct EvaluationPlan {
  ParetoGrid grid;  ///< predict_pareto(features)'s rows
  Evaluator speedup;
  Evaluator energy;
};

}  // namespace detail

namespace {

/// The assembled input's column boundary (FeatureAssembler's layout): the
/// static features, then the normalized clock pair. It is a property of
/// core's inputs, not of ml::Svr, so the RBF factorization lives here.
constexpr std::size_t kStatic = clfront::kNumFeatures;
constexpr std::size_t kClocks = kFeatureDim - kStatic;
/// table_row() of a configuration outside the plan's grid.
constexpr std::size_t kOffGrid = static_cast<std::size_t>(-1);

bool is_mem_L(const gpusim::FrequencyDomain& domain, int mem_mhz) {
  const auto level = domain.level_of(mem_mhz);
  return level.ok() && level.value() == gpusim::MemLevel::kL;
}

detail::ParetoGrid pareto_grid(const gpusim::FrequencyDomain& domain,
                               std::span<const gpusim::FrequencyConfig> configs) {
  // Model only the three upper memory clocks (mem-L is excluded, §4.5).
  detail::ParetoGrid grid;
  grid.rows.reserve(configs.size() + 1);
  for (const auto& c : configs) {
    if (!is_mem_L(domain, c.mem_mhz)) grid.rows.push_back(c);
  }
  grid.modeled = grid.rows.size();

  // Heuristic: append the highest-core mem-L configuration (it is dominant
  // in 11 of 12 of the paper's codes). Prefer one present in `configs`. It
  // is predicted as one more row and kept out of the Pareto set.
  const auto* mem_L = domain.find_domain(gpusim::MemLevel::kL);
  if (mem_L != nullptr && !mem_L->actual_core_mhz.empty()) {
    gpusim::FrequencyConfig best{0, mem_L->mem_mhz};
    for (const auto& c : configs) {
      if (c.mem_mhz == mem_L->mem_mhz && c.core_mhz > best.core_mhz) best = c;
    }
    if (best.core_mhz == 0) best = {mem_L->actual_core_mhz.back(), mem_L->mem_mhz};
    grid.rows.push_back(best);
  }
  return grid;
}

std::size_t table_row(const detail::ParetoGrid& grid, gpusim::FrequencyConfig config) {
  const auto it = std::find(grid.rows.begin(), grid.rows.end(), config);
  return it == grid.rows.end() ? kOffGrid : static_cast<std::size_t>(it - grid.rows.begin());
}

/// `out[s] = exp(−γ‖clocks − sv_s[kStatic:]‖²)`: one row's RBF clock factors.
void clock_factors(const ml::Svr& svr, std::span<const double> clocks, std::span<double> out) {
  common::simd::squared_distance_rows(out, clocks,
                                      svr.support_vectors().data().data() + kStatic,
                                      kFeatureDim, -svr.params().kernel.gamma);
  common::simd::exp_batch(out, out);
}

detail::Evaluator make_evaluator(const ml::Regressor& regressor, const detail::ParetoGrid& grid,
                                 const FeatureAssembler& assembler) {
  using Form = detail::Evaluator::Form;
  detail::Evaluator e;
  e.regressor = &regressor;
  const auto* svr = dynamic_cast<const ml::Svr*>(&regressor);
  if (svr == nullptr) return e;
  const auto& sv = svr->support_vectors();
  const auto& coef = svr->coefficients();
  const std::size_t n = coef.size();
  if (svr->params().kernel.type == ml::KernelType::kLinear) {
    e.form = Form::kLinear;
    e.svr = svr;
    e.weights.assign(kFeatureDim, 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t d = 0; d < kFeatureDim; ++d) e.weights[d] += coef[s] * sv(s, d);
    }
  } else if (svr->params().kernel.type == ml::KernelType::kRbf) {
    e.form = Form::kRbf;
    e.svr = svr;
    e.clock_table.resize(grid.rows.size() * n);
    for (std::size_t r = 0; r < grid.rows.size(); ++r) {
      const auto x = assembler.assemble(std::array<double, kStatic>{}, grid.rows[r]);
      clock_factors(*svr, std::span(x).last(kClocks), {e.clock_table.data() + r * n, n});
    }
  }
  return e;
}

/// One objective at every row of `x`, whose rows share their static
/// columns; `table_rows[r]` is row r's clock-factor row in the plan, or
/// kOffGrid to compute it here with the same calls that built the table.
std::vector<double> evaluate(const detail::Evaluator& e, const ml::Matrix& x,
                             std::span<const std::size_t> table_rows) {
  using Form = detail::Evaluator::Form;
  if (e.form == Form::kRegressor) return e.regressor->predict(x);
  std::vector<double> out(x.rows());
  const double b = e.svr->bias();
  if (e.form == Form::kLinear) {
    for (std::size_t r = 0; r < x.rows(); ++r) out[r] = b + common::simd::dot(e.weights, x.row(r));
    return out;
  }
  if (x.rows() == 0) return out;
  // exp(−γ‖x − s‖²) = exp(−γ‖x_p − s_p‖²) · exp(−γ‖x_c − s_c‖²): the
  // static factor, times its coefficient, once per request ...
  const auto& coef = e.svr->coefficients();
  const std::size_t n = coef.size();
  std::vector<double> a(n);
  common::simd::squared_distance_rows(a, x.row(0).first(kStatic),
                                      e.svr->support_vectors().data().data(), kFeatureDim,
                                      -e.svr->params().kernel.gamma);
  common::simd::exp_batch(a, a);
  for (std::size_t s = 0; s < n; ++s) a[s] = coef[s] * a[s];
  // ... and one dot product against each row's clock factors.
  std::vector<double> off_grid;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    std::span<const double> t;
    if (table_rows[r] != kOffGrid) {
      t = {e.clock_table.data() + table_rows[r] * n, n};
    } else {
      off_grid.resize(n);
      clock_factors(*e.svr, x.row(r).last(kClocks), off_grid);
      t = off_grid;
    }
    out[r] = b + common::simd::dot(a, t);
  }
  return out;
}

/// One objective at one configuration: a one-row evaluate().
double evaluate_one(const detail::Evaluator& e, const detail::ParetoGrid& grid,
                    const FeatureAssembler& assembler, const clfront::StaticFeatures& features,
                    gpusim::FrequencyConfig config) {
  ml::Matrix x(0, 0);
  x.push_row(assembler.assemble(features, config));
  const std::size_t row = table_row(grid, config);
  return evaluate(e, x, {&row, 1})[0];
}

/// predict_pareto over `grid`'s rows: the Pareto set of the modeled rows,
/// then the mem-L heuristic row.
std::vector<PredictedPoint> pareto_of(const FrequencyModel& model,
                                      const clfront::StaticFeatures& features,
                                      const detail::ParetoGrid& grid) {
  const auto predictions = model.predict_all(features, grid.rows);

  // Pareto set of the predictions: the O(n log n) skyline computes the same
  // set as the paper's Algorithm 1 (see pareto_test); re-sorting by id
  // restores the naive algorithm's input-order output, keeping the result
  // byte-identical to the O(n^2) path.
  std::vector<pareto::Point> points;
  points.reserve(grid.modeled);
  for (std::size_t i = 0; i < grid.modeled; ++i) {
    points.push_back({predictions[i].speedup, predictions[i].energy,
                      static_cast<std::uint32_t>(i)});
  }
  auto front = pareto::pareto_set_fast(points);
  std::sort(front.begin(), front.end(),
            [](const pareto::Point& a, const pareto::Point& b) { return a.id < b.id; });

  std::vector<PredictedPoint> out;
  out.reserve(front.size() + 1);
  for (const auto& p : front) out.push_back(predictions[p.id]);
  if (grid.rows.size() > grid.modeled) {
    out.push_back(predictions.back());
    out.back().heuristic = true;
  }
  return out;
}

void log_fit(const char* objective, const ml::Regressor& model) {
  auto line = common::log_info();
  line << objective << " model (" << model.name() << "): fitted";
  if (const auto* svr = dynamic_cast<const ml::Svr*>(&model)) {
    const auto& info = svr->training_info();
    line << ", " << info.iterations << " SMO iterations, " << svr->num_support_vectors()
         << " SVs, " << info.kernel_rows_computed << " kernel rows computed, "
         << info.kernel_cache_peak_bytes << " B kernel cache peak";
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

  model.build_plan();
  return model;
}

common::Result<FrequencyModel> FrequencyModel::train(
    const gpusim::GpuSimulator& simulator, std::span<const benchgen::MicroBenchmark> suite,
    const TrainingOptions& options) {
  return train(SimulatorBackend(simulator), suite, options);
}

void FrequencyModel::build_plan() {
  auto plan = std::make_shared<detail::EvaluationPlan>();
  plan->grid = pareto_grid(domain_, domain_.sample_configs(training_configs_.empty()
                                                               ? 40
                                                               : training_configs_.size()));
  plan->speedup = make_evaluator(*speedup_, plan->grid, assembler_);
  plan->energy = make_evaluator(*energy_, plan->grid, assembler_);
  plan_ = std::move(plan);
}

double FrequencyModel::predict_speedup(const clfront::StaticFeatures& features,
                                       gpusim::FrequencyConfig config) const {
  return evaluate_one(plan_->speedup, plan_->grid, assembler_, features, config);
}

double FrequencyModel::predict_energy(const clfront::StaticFeatures& features,
                                      gpusim::FrequencyConfig config) const {
  return evaluate_one(plan_->energy, plan_->grid, assembler_, features, config);
}

std::vector<PredictedPoint> FrequencyModel::predict_all(
    const clfront::StaticFeatures& features,
    std::span<const gpusim::FrequencyConfig> configs) const {
  // Assemble the inputs once; a configuration on the plan's grid reads its
  // RBF clock factors from the table, any other computes them.
  const auto normalized = features.normalized();
  ml::Matrix x(0, 0);
  x.reserve_rows(configs.size(), kFeatureDim);
  std::vector<std::size_t> rows;
  rows.reserve(configs.size());
  for (const auto& config : configs) {
    x.push_row(assembler_.assemble(normalized, config));
    rows.push_back(table_row(plan_->grid, config));
  }
  const auto speedups = evaluate(plan_->speedup, x, rows);
  const auto energies = evaluate(plan_->energy, x, rows);

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
  return pareto_of(*this, features, pareto_grid(domain_, configs));
}

std::vector<PredictedPoint> FrequencyModel::predict_pareto(
    const clfront::StaticFeatures& features) const {
  return pareto_of(*this, features, plan_->grid);
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
  for (const auto* section : {&speedup, &energy}) {
    const ml::Regressor& regressor = *section->value();
    if (regressor.num_features() != kFeatureDim) {
      return common::parse_error("FrequencyModel: " + regressor.name() + " model takes " +
                                 std::to_string(regressor.num_features()) +
                                 " features, expected " + std::to_string(kFeatureDim));
    }
  }

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
  model.build_plan();
  return model;
}

}  // namespace repro::core
