// Tests for the core predictor: feature assembly, training, Pareto
// prediction with the mem-L heuristic, and model persistence (one model per
// cache key through Predictor::Builder and core::ModelCache).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "benchgen/benchgen.hpp"
#include "core/features.hpp"
#include "core/model.hpp"
#include "core/model_cache.hpp"
#include "core/predictor.hpp"
#include "gpusim/simulator.hpp"
#include "kernels/kernels.hpp"
#include "ml/synthetic.hpp"
#include "pareto/pareto.hpp"

namespace rco = repro::core;
namespace rg = repro::gpusim;
namespace rb = repro::benchgen;

namespace {

const rg::GpuSimulator& sim() {
  static const rg::GpuSimulator s(rg::DeviceModel::titan_x());
  return s;
}

/// A small but representative training subset (keeps unit tests fast).
std::span<const rb::MicroBenchmark> small_suite() {
  static const auto full = rb::generate_training_suite().value();
  static const std::vector<rb::MicroBenchmark> subset = [] {
    std::vector<rb::MicroBenchmark> out;
    for (std::size_t i = 0; i < full.size(); i += 3) out.push_back(full[i]);
    return out;
  }();
  return subset;
}

const rco::FrequencyModel& trained_model() {
  static const auto model = [] {
    rco::TrainingOptions options;
    auto m = rco::FrequencyModel::train(sim(), small_suite(), options);
    EXPECT_TRUE(m.ok()) << (m.ok() ? "" : m.error().message);
    return std::move(m).take();
  }();
  return model;
}

/// Static features of the 12 test kernels and the 106 benchgen kernels.
std::vector<repro::clfront::StaticFeatures> all_kernel_features() {
  std::vector<repro::clfront::StaticFeatures> out;
  for (const auto& b : repro::kernels::test_suite()) {
    out.push_back(repro::kernels::benchmark_features(b).value());
  }
  const auto suite = rb::generate_training_suite().value();
  for (const auto& mb : suite) out.push_back(mb.features);
  return out;
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool points_bits_equal(const std::vector<rco::PredictedPoint>& a,
                       const std::vector<rco::PredictedPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].config != b[i].config || a[i].heuristic != b[i].heuristic ||
        !bits_equal(a[i].speedup, b[i].speedup) || !bits_equal(a[i].energy, b[i].energy)) {
      return false;
    }
  }
  return true;
}

}  // namespace

// --- feature assembly -----------------------------------------------------------

TEST(FeatureAssemblerTest, BoundsFromDomain) {
  const rco::FeatureAssembler fa(sim().freq());
  EXPECT_DOUBLE_EQ(fa.core_min(), 135.0);
  EXPECT_DOUBLE_EQ(fa.core_max(), 1196.0);
  EXPECT_DOUBLE_EQ(fa.mem_min(), 405.0);
  EXPECT_DOUBLE_EQ(fa.mem_max(), 3505.0);
}

TEST(FeatureAssemblerTest, FrequencyNormalizationHitsUnitInterval) {
  const rco::FeatureAssembler fa(sim().freq());
  EXPECT_DOUBLE_EQ(fa.normalize_core(135), 0.0);
  EXPECT_DOUBLE_EQ(fa.normalize_core(1196), 1.0);
  EXPECT_DOUBLE_EQ(fa.normalize_mem(405), 0.0);
  EXPECT_DOUBLE_EQ(fa.normalize_mem(3505), 1.0);
}

TEST(FeatureAssemblerTest, AssembledVectorLayout) {
  const rco::FeatureAssembler fa(sim().freq());
  const auto& mb = small_suite()[0];
  const auto w = fa.assemble(mb.features, {1001, 3505});
  ASSERT_EQ(w.size(), rco::kFeatureDim);
  // Last two components are the normalized frequencies (§3.2).
  EXPECT_NEAR(w[10], (1001.0 - 135.0) / (1196.0 - 135.0), 1e-12);
  EXPECT_DOUBLE_EQ(w[11], 1.0);
  // Static part matches the normalized feature vector.
  const auto norm = mb.features.normalized();
  for (std::size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(w[i], norm[i]);
}

TEST(FeatureAssemblerTest, SingleMemoryClockDeviceNormalizesToZero) {
  const rco::FeatureAssembler fa(rg::FrequencyDomain::tesla_p100());
  EXPECT_DOUBLE_EQ(fa.normalize_mem(715), 0.0);
}

// --- training --------------------------------------------------------------------

TEST(FrequencyModelTest, TrainingProducesConvergedModels) {
  const auto& model = trained_model();
  EXPECT_TRUE(model.speedup_model().fitted());
  EXPECT_TRUE(model.energy_model().fitted());
  EXPECT_EQ(model.training_configs().size(), 40u);
  EXPECT_EQ(model.training_samples(), small_suite().size() * 40u);
}

TEST(FrequencyModelTest, EmptySuiteIsRejected) {
  rco::TrainingOptions options;
  const auto result = rco::FrequencyModel::train(sim(), {}, options);
  EXPECT_FALSE(result.ok());
}

TEST(FrequencyModelTest, PredictionsAtDefaultAreNearUnity) {
  const auto& model = trained_model();
  // Predicting a *training* kernel at the default configuration should give
  // speedup and normalized energy near 1.
  const auto& mb = small_suite()[1];
  const auto def = sim().freq().default_config();
  EXPECT_NEAR(model.predict_speedup(mb.features, def), 1.0, 0.2);
  EXPECT_NEAR(model.predict_energy(mb.features, def), 1.0, 0.2);
}

TEST(FrequencyModelTest, SpeedupGrowsWithCoreClockForComputeKernel) {
  const auto& model = trained_model();
  const auto* knn = repro::kernels::find_benchmark("k-NN");
  const auto f = repro::kernels::benchmark_features(*knn).value();
  const double low = model.predict_speedup(f, {559, 3505});
  const double high = model.predict_speedup(f, {1196, 3505});
  EXPECT_GT(high, low + 0.2);
}

TEST(FrequencyModelTest, PredictAllCoversRequestedConfigs) {
  const auto& model = trained_model();
  const auto& mb = small_suite()[2];
  const auto configs = sim().freq().sample_configs(40);
  const auto pred = model.predict_all(mb.features, configs);
  ASSERT_EQ(pred.size(), configs.size());
  for (const auto& p : pred) {
    EXPECT_TRUE(std::isfinite(p.speedup));
    EXPECT_TRUE(std::isfinite(p.energy));
    EXPECT_FALSE(p.heuristic);
  }
}

TEST(FrequencyModelTest, ClosedFormTracksTheUnfactoredSvrs) {
  // The plan's closed forms (b + w·x; the RBF kernel factored at the
  // static/clock boundary) against each SVR's unfactored predict_one on
  // the default grid: within 1e-11 relative, with the same Pareto set.
  const auto& model = trained_model();
  const auto configs = model.domain().sample_configs(model.training_configs().size());
  const int mem_L = model.domain().find_domain(rg::MemLevel::kL)->mem_mhz;
  double worst = 0.0;
  for (const auto& f : all_kernel_features()) {
    const auto plan = model.predict_all(f, configs);
    std::vector<repro::pareto::Point> oracle_points;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const auto x = model.assembler().assemble(f, configs[i]);
      const double oracle[] = {model.speedup_model().predict_one(x),
                               model.energy_model().predict_one(x)};
      const double got[] = {plan[i].speedup, plan[i].energy};
      for (int o = 0; o < 2; ++o) {
        const double rel = std::abs(got[o] - oracle[o]) / std::abs(oracle[o]);
        worst = std::max(worst, rel);
        EXPECT_LE(rel, 1e-11) << "config " << i << " objective " << o;
      }
      if (configs[i].mem_mhz != mem_L) {
        oracle_points.push_back({oracle[0], oracle[1], static_cast<std::uint32_t>(i)});
      }
    }
    std::vector<repro::gpusim::FrequencyConfig> oracle_front;
    for (const auto& p : repro::pareto::pareto_set_fast(oracle_points)) {
      oracle_front.push_back(configs[p.id]);
    }
    std::vector<repro::gpusim::FrequencyConfig> front;
    for (const auto& p : model.predict_pareto(f)) {
      if (!p.heuristic) front.push_back(p.config);
    }
    const auto by_clock = [](const auto& a, const auto& b) {
      return std::pair(a.mem_mhz, a.core_mhz) < std::pair(b.mem_mhz, b.core_mhz);
    };
    std::sort(oracle_front.begin(), oracle_front.end(), by_clock);
    std::sort(front.begin(), front.end(), by_clock);
    EXPECT_EQ(front, oracle_front);
  }
  char worst_text[32];
  std::snprintf(worst_text, sizeof worst_text, "%.3g", worst);
  RecordProperty("worst_relative_deviation", worst_text);
}

TEST(FrequencyModelTest, OtherRegressorFamiliesEvaluateThroughTheirRegressor) {
  // Only linear- and RBF-kernel SVRs have a closed form; every other family
  // is evaluated by its regressor, bit for bit as fitted.
  rco::TrainingOptions options;
  options.models.speedup_regressor = "ols";
  options.models.energy_regressor = "lasso";
  auto linear = rco::FrequencyModel::train(sim(), small_suite(), options);
  ASSERT_TRUE(linear.ok()) << linear.error().message;
  const std::string poly_svr = repro::ml::make_synthetic_svr_text("polynomial", 150, 12, 0x9017);
  auto poly = rco::FrequencyModel::deserialize(
      "gpufreq_model v2\ndevice Titan X\nbounds 135 1196 405 3505\ntraining_configs 0\n"
      "training_samples 0\n=== speedup ===\nregressor v1 svr-polynomial\n" +
      poly_svr + "=== energy ===\nregressor v1 svr-polynomial\n" + poly_svr);
  ASSERT_TRUE(poly.ok()) << poly.error().message;

  const auto configs = sim().freq().sample_configs(40);
  for (const rco::FrequencyModel* model : {&linear.value(), &poly.value()}) {
    for (const auto& mb : small_suite().first(4)) {
      const auto all = model->predict_all(mb.features, configs);
      for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto x = model->assembler().assemble(mb.features, configs[i]);
        const double speedup = model->speedup_model().predict_one(x);
        const double energy = model->energy_model().predict_one(x);
        EXPECT_TRUE(bits_equal(model->predict_speedup(mb.features, configs[i]), speedup))
            << model->speedup_regressor();
        EXPECT_TRUE(bits_equal(model->predict_energy(mb.features, configs[i]), energy))
            << model->energy_regressor();
        EXPECT_TRUE(bits_equal(all[i].speedup, speedup)) << model->speedup_regressor();
        EXPECT_TRUE(bits_equal(all[i].energy, energy)) << model->energy_regressor();
      }
    }
  }
}

// --- Pareto prediction ----------------------------------------------------------------

TEST(FrequencyModelTest, PredictParetoAppendsMemLHeuristic) {
  const auto& model = trained_model();
  const auto* bench = repro::kernels::find_benchmark("Convolution");
  const auto f = repro::kernels::benchmark_features(*bench).value();
  const auto pareto = model.predict_pareto(f);
  ASSERT_FALSE(pareto.empty());
  // Exactly one heuristic point, and it is the highest-core mem-L config.
  std::size_t heuristic_count = 0;
  for (const auto& p : pareto) {
    if (p.heuristic) {
      ++heuristic_count;
      EXPECT_EQ(p.config.mem_mhz, 405);
      EXPECT_EQ(p.config.core_mhz, 403);
    } else {
      EXPECT_NE(p.config.mem_mhz, 405) << "mem-L must not be modeled (§4.5)";
    }
  }
  EXPECT_EQ(heuristic_count, 1u);
}

TEST(FrequencyModelTest, PredictedSetIsMutuallyNonDominated) {
  const auto& model = trained_model();
  const auto* bench = repro::kernels::find_benchmark("MD");
  const auto f = repro::kernels::benchmark_features(*bench).value();
  const auto pareto = model.predict_pareto(f);
  for (const auto& a : pareto) {
    if (a.heuristic) continue;
    for (const auto& b : pareto) {
      if (b.heuristic) continue;
      repro::pareto::Point pa{a.speedup, a.energy, 0};
      repro::pareto::Point pb{b.speedup, b.energy, 1};
      EXPECT_FALSE(repro::pareto::dominates(pa, pb));
    }
  }
}

TEST(FrequencyModelTest, ParetoSubsetOfRequestedConfigs) {
  const auto& model = trained_model();
  const auto* bench = repro::kernels::find_benchmark("Flte");
  const auto f = repro::kernels::benchmark_features(*bench).value();
  const auto configs = sim().freq().sample_configs(40);
  const auto pareto = model.predict_pareto(f, configs);
  for (const auto& p : pareto) {
    EXPECT_TRUE(sim().freq().is_actual(p.config));
  }
}

// --- persistence -------------------------------------------------------------------------

TEST(FrequencyModelTest, SerializeRoundTripPreservesPredictions) {
  const auto& model = trained_model();
  const auto restored = rco::FrequencyModel::deserialize(model.serialize());
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  const auto& mb = small_suite()[0];
  for (const auto& config : model.training_configs()) {
    EXPECT_DOUBLE_EQ(restored.value().predict_speedup(mb.features, config),
                     model.predict_speedup(mb.features, config));
    EXPECT_DOUBLE_EQ(restored.value().predict_energy(mb.features, config),
                     model.predict_energy(mb.features, config));
  }
}

TEST(FrequencyModelTest, SaveAndLoadFile) {
  const auto& model = trained_model();
  const std::string path =
      (std::filesystem::temp_directory_path() / "gpufreq_model_test.txt").string();
  ASSERT_TRUE(rco::save_model_atomic(model, path).ok());
  const auto loaded = rco::load_cached_model(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().training_configs().size(), model.training_configs().size());
  std::filesystem::remove(path);
}

TEST(FrequencyModelTest, SharedCacheKeepsOneModelPerKey) {
  // Two different training suites through one cache directory: each builds
  // its own entry, and a repeat of the first loads the first's copy — never
  // the other suite's model.
  const auto all = small_suite();
  const std::vector<rb::MicroBenchmark> a(all.begin(), all.begin() + 12);
  const std::vector<rb::MicroBenchmark> b(all.begin() + 12, all.begin() + 24);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gpufreq-shared-cache-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  rco::ModelCache cache(dir.string());
  const auto build = [&cache](const std::vector<rb::MicroBenchmark>& suite) {
    auto built = rco::Predictor::builder().suite(suite).cache(cache).build();
    EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().message);
    return std::move(built).take();
  };

  const auto first_a = build(a);
  EXPECT_EQ(cache.stats().misses, 1u);
  const auto first_b = build(b);
  EXPECT_EQ(cache.stats().misses, 2u);
  const auto second_a = build(a);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().disk_hits, 1u);

  // Each predictor answers exactly like a model trained on its own suite.
  const auto model_a = rco::FrequencyModel::train(sim(), a, rco::TrainingOptions{});
  const auto model_b = rco::FrequencyModel::train(sim(), b, rco::TrainingOptions{});
  ASSERT_TRUE(model_a.ok());
  ASSERT_TRUE(model_b.ok());
  for (const auto& features : all_kernel_features()) {
    const auto reference_a = model_a.value().predict_pareto(features);
    const auto reference_b = model_b.value().predict_pareto(features);
    EXPECT_TRUE(points_bits_equal(first_a.predict_pareto(features).value(), reference_a))
        << features.kernel_name;
    EXPECT_TRUE(points_bits_equal(first_b.predict_pareto(features).value(), reference_b))
        << features.kernel_name;
    EXPECT_TRUE(points_bits_equal(second_a.predict_pareto(features).value(), reference_a))
        << features.kernel_name;
  }
  std::filesystem::remove_all(dir);
}

TEST(FrequencyModelTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(rco::FrequencyModel::deserialize("nonsense").ok());
  EXPECT_FALSE(rco::FrequencyModel::deserialize("gpufreq_model v1\ntruncated").ok());
}

// --- ablation hook -------------------------------------------------------------------------

TEST(FrequencyModelTest, ExcludeMemLFromTrainingShrinksConfigSet) {
  rco::TrainingOptions options;
  options.exclude_mem_L_from_training = true;
  const auto model = rco::FrequencyModel::train(sim(), small_suite(), options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().training_configs().size(), 34u);  // 40 - 6 mem-L
  for (const auto& c : model.value().training_configs()) EXPECT_NE(c.mem_mhz, 405);
}
