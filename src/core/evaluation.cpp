#include "core/evaluation.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"
#include "core/model_cache.hpp"
#include "core/predictor.hpp"

namespace repro::core {

namespace {

std::vector<gpusim::MemLevel> figure_level_order() {
  // Figs. 6 and 7 stack the blocks highest-first: H, h, l, L.
  return {gpusim::MemLevel::kH, gpusim::MemLevel::kHigh, gpusim::MemLevel::kLow,
          gpusim::MemLevel::kL};
}

}  // namespace

ExperimentPipeline::ExperimentPipeline(PipelineOptions options)
    : options_(options),
      sim_(gpusim::DeviceModel::titan_x(), gpusim::SimOptions{.seed = options.seed}) {}

common::Status ExperimentPipeline::prepare() {
  if (model_ != nullptr) return common::Status::Ok();
  auto suite = benchgen::generate_training_suite(options_.seed);
  if (!suite.ok()) return suite.error();
  suite_ = std::move(suite).take();

  // Train through the measurement abstraction (the pipeline's backend is the
  // live simulator; swap in a CsvReplayBackend to re-run figures offline).
  auto builder = Predictor::builder();
  builder.backend(std::make_unique<SimulatorBackend>(sim_))
      .suite(suite_)
      .training(options_.training);
  std::optional<ModelCache> cache;
  if (options_.model_cache_dir.has_value()) {
    builder.cache(cache.emplace(*options_.model_cache_dir));
  }
  auto predictor = builder.build();
  if (!predictor.ok()) return predictor.error();
  model_ = predictor.value().share_model();
  return common::Status::Ok();
}

const FrequencyModel& ExperimentPipeline::model() const {
  if (model_ == nullptr) throw std::logic_error("ExperimentPipeline: call prepare()");
  return *model_;
}

const std::vector<benchgen::MicroBenchmark>& ExperimentPipeline::training_suite() const {
  return suite_;
}

std::vector<gpusim::FrequencyConfig> ExperimentPipeline::evaluation_configs() const {
  return sim_.freq().sample_configs(options_.training.num_configs);
}

ErrorReport ExperimentPipeline::errors_for(bool speedup_objective) const {
  const FrequencyModel& m = model();
  ErrorReport report;
  report.objective = speedup_objective ? "speedup" : "normalized energy";

  for (const auto level : figure_level_order()) {
    const auto* domain = sim_.freq().find_domain(level);
    if (domain == nullptr) continue;
    ErrorReport::LevelBlock block;
    block.level = level;
    block.mem_mhz = domain->mem_mhz;

    std::vector<double> all_pred;
    std::vector<double> all_true;
    for (const auto& benchmark : kernels::test_suite()) {
      const auto features = kernels::benchmark_features(benchmark);
      if (!features.ok()) continue;

      std::vector<gpusim::FrequencyConfig> configs;
      configs.reserve(domain->actual_core_mhz.size());
      for (int core : domain->actual_core_mhz) configs.push_back({core, domain->mem_mhz});

      const auto measured = sim_.characterize(benchmark.profile, configs);
      const auto predicted = m.predict_all(features.value(), configs);

      ErrorGroup group;
      group.benchmark = benchmark.name;
      group.level = level;
      group.mem_mhz = domain->mem_mhz;
      for (std::size_t i = 0; i < configs.size(); ++i) {
        const double truth =
            speedup_objective ? measured[i].speedup : measured[i].norm_energy;
        const double pred = speedup_objective ? predicted[i].speedup : predicted[i].energy;
        group.errors_percent.push_back(100.0 * (pred - truth));
        all_pred.push_back(pred);
        all_true.push_back(truth);
      }
      group.box = common::box_stats(group.errors_percent);
      block.per_benchmark.push_back(std::move(group));
    }
    block.rmse_percent = 100.0 * common::rmse(all_pred, all_true);
    report.levels.push_back(std::move(block));
  }
  return report;
}

ErrorReport ExperimentPipeline::speedup_errors() const { return errors_for(true); }
ErrorReport ExperimentPipeline::energy_errors() const { return errors_for(false); }

std::vector<ParetoCase> ExperimentPipeline::pareto_evaluation() const {
  const FrequencyModel& m = model();
  const auto configs = evaluation_configs();

  std::vector<ParetoCase> cases;
  for (const auto& benchmark : kernels::test_suite()) {
    const auto features = kernels::benchmark_features(benchmark);
    if (!features.ok()) continue;

    ParetoCase pc;
    pc.name = benchmark.name;
    pc.measured = sim_.characterize(benchmark.profile, configs);

    // True front P* over the measured evaluation points.
    std::vector<pareto::Point> measured_points;
    measured_points.reserve(pc.measured.size());
    for (std::size_t i = 0; i < pc.measured.size(); ++i) {
      measured_points.push_back({pc.measured[i].speedup, pc.measured[i].norm_energy,
                                 static_cast<std::uint32_t>(i)});
    }
    pc.true_front = pareto::pareto_set_fast(measured_points);
    pareto::sort_front(pc.true_front);

    // Predicted set P', then re-evaluated at measured objectives.
    pc.predicted = m.predict_pareto(features.value(), configs);
    for (const auto& p : pc.predicted) {
      const auto meas = sim_.run_at(benchmark.profile, p.config);
      const auto def = sim_.run_default(benchmark.profile);
      pc.predicted_measured.push_back(
          {def.time_ms / meas.time_ms, meas.energy_j / def.energy_j, 0});
    }
    pc.evaluation = pareto::evaluate_front(pc.true_front, pc.predicted_measured);
    cases.push_back(std::move(pc));
  }

  std::sort(cases.begin(), cases.end(), [](const ParetoCase& a, const ParetoCase& b) {
    return a.evaluation.coverage < b.evaluation.coverage;
  });
  return cases;
}

}  // namespace repro::core
