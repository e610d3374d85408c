// End-to-end experiment pipeline shared by the benchmark harnesses
// (Figs. 6-8, Table 2): builds the simulated Titan X, generates the 106
// micro-benchmark training suite, trains (or loads) the model through
// Predictor::Builder, and evaluates it on the twelve test benchmarks.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/model.hpp"
#include "gpusim/simulator.hpp"
#include "kernels/kernels.hpp"
#include "pareto/front_metrics.hpp"

namespace repro::core {

struct PipelineOptions {
  std::uint64_t seed = 0x5EED0001ULL;
  TrainingOptions training;
  /// When set, the trained model is found in (or trained once into) a
  /// ModelCache on this directory, keyed by the seeded suite's fingerprint.
  std::optional<std::string> model_cache_dir = std::nullopt;
};

/// Per-(benchmark, memory level) error sample for Figs. 6 and 7.
///
/// Errors are in *percentage points of the default-normalized scale*:
/// err = 100 * (predicted - measured). Both objectives are ratios against
/// the default configuration (speedup, normalized energy ~ 1.0), so one
/// percentage point equals 1% of the default configuration's value — the
/// natural reading of the paper's "Mean error [%]" axes.
struct ErrorGroup {
  std::string benchmark;
  gpusim::MemLevel level = gpusim::MemLevel::kH;
  int mem_mhz = 0;
  std::vector<double> errors_percent;  // signed errors, percentage points
  common::BoxStats box;                // five-number summary of the above
};

/// One memory-level block of Fig. 6 / Fig. 7: per-benchmark boxes + the
/// group RMSE the paper annotates ("RMSE = 6.68%").
struct ErrorReport {
  struct LevelBlock {
    gpusim::MemLevel level;
    int mem_mhz = 0;
    std::vector<ErrorGroup> per_benchmark;
    double rmse_percent = 0.0;
  };
  std::string objective;  // "speedup" or "normalized energy"
  std::vector<LevelBlock> levels;  // ordered H, h, l, L like the figures
};

/// Fig. 8 / Table 2 material for one test benchmark.
struct ParetoCase {
  std::string name;
  /// Measured (speedup, energy) at every evaluation configuration.
  std::vector<gpusim::GpuSimulator::CharacterizedPoint> measured;
  /// True Pareto front P* of `measured`.
  std::vector<pareto::Point> true_front;
  /// Predicted set P' (configs + predicted objectives; the heuristic mem-L
  /// point is flagged).
  std::vector<PredictedPoint> predicted;
  /// P' re-evaluated at its *measured* objectives (what Table 2 scores).
  std::vector<pareto::Point> predicted_measured;
  pareto::FrontEvaluation evaluation;
};

class ExperimentPipeline {
 public:
  explicit ExperimentPipeline(PipelineOptions options = {});

  /// Train (or load the cached) model. Idempotent.
  [[nodiscard]] common::Status prepare();

  [[nodiscard]] const gpusim::GpuSimulator& simulator() const noexcept { return sim_; }
  [[nodiscard]] const FrequencyModel& model() const;
  [[nodiscard]] const std::vector<benchgen::MicroBenchmark>& training_suite() const;

  /// Error analyses over every actual configuration (Figs. 6 and 7).
  [[nodiscard]] ErrorReport speedup_errors() const;
  [[nodiscard]] ErrorReport energy_errors() const;

  /// Pareto evaluation on the sampled configuration set (Fig. 8, Table 2),
  /// for all twelve benchmarks in Table-2 order (by coverage, ascending).
  [[nodiscard]] std::vector<ParetoCase> pareto_evaluation() const;

  /// The evaluation configuration sampling (same scheme as training).
  [[nodiscard]] std::vector<gpusim::FrequencyConfig> evaluation_configs() const;

 private:
  [[nodiscard]] ErrorReport errors_for(bool speedup_objective) const;

  PipelineOptions options_;
  gpusim::GpuSimulator sim_;
  std::vector<benchgen::MicroBenchmark> suite_;
  std::shared_ptr<const FrequencyModel> model_;
};

}  // namespace repro::core
