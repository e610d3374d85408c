// core::FeaturePipeline and the Predictor source entry points: featurize ==
// whole-string extraction bit for bit, predict_source == featurize +
// predict_pareto, and predict_source_batch is deterministic across thread
// counts with input-order error reporting.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "clfront/features.hpp"
#include "common/thread_pool.hpp"
#include "core/measurement.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "gpusim/simulator.hpp"

namespace rc = repro::common;
namespace rcl = repro::clfront;
namespace rco = repro::core;
namespace rg = repro::gpusim;

namespace {

const char* kKernelA = R"CL(
kernel void stencil3(global float* src, global float* dst, int n) {
  int gid = get_global_id(0);
  float acc = 0.0f;
  for (int d = -1; d <= 1; d++) acc += src[clamp(gid + d, 0, n - 1)];
  dst[gid] = acc / 3.0f;
}
)CL";

const char* kKernelB = R"CL(
kernel void mix_int(global int* z) {
  int gid = get_global_id(0);
  z[gid] = (z[gid] * 17 + 3) % 1024 ^ (z[gid] >> 2);
}
)CL";

struct PoolGuard {
  ~PoolGuard() { rc::ThreadPool::set_global_threads(0); }
};

/// One small trained predictor shared by every test in this binary.
const rco::Predictor& predictor() {
  static const rco::Predictor instance = [] {
    const auto full = repro::benchgen::generate_training_suite().value();
    std::vector<repro::benchgen::MicroBenchmark> subset;
    for (std::size_t i = 0; i < full.size(); i += 8) subset.push_back(full[i]);
    auto built = rco::Predictor::builder()
                     .suite(std::move(subset))
                     .num_configs(8)
                     .build();
    EXPECT_TRUE(built.ok()) << (built.ok() ? "" : built.error().message);
    return std::move(built).take();
  }();
  return instance;
}

bool points_bitwise_equal(const std::vector<rco::PredictedPoint>& a,
                          const std::vector<rco::PredictedPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].config == b[i].config) || a[i].heuristic != b[i].heuristic ||
        std::memcmp(&a[i].speedup, &b[i].speedup, sizeof(double)) != 0 ||
        std::memcmp(&a[i].energy, &b[i].energy, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

TEST(FeaturePipelineTest, FeaturizeMatchesWholeStringExtraction) {
  const auto& pipeline = predictor().pipeline();
  for (const char* source : {kKernelA, kKernelB}) {
    const auto via_pipeline = pipeline.featurize(source);
    const auto direct = rcl::extract_features_from_source(source);
    ASSERT_TRUE(via_pipeline.ok()) << via_pipeline.error().message;
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(via_pipeline.value().kernel_name, direct.value().kernel_name);
    EXPECT_EQ(std::memcmp(via_pipeline.value().counts.data(),
                          direct.value().counts.data(),
                          sizeof(double) * rcl::kNumFeatures),
              0);
  }
}

TEST(FeaturePipelineTest, FeaturizeAllListsEveryKernel) {
  const std::string two = std::string(kKernelA) + kKernelB;
  const auto all = predictor().pipeline().featurize_all(two);
  ASSERT_TRUE(all.ok()) << all.error().message;
  ASSERT_EQ(all.value().size(), 2u);
  EXPECT_EQ(all.value()[0].kernel_name, "stencil3");
  EXPECT_EQ(all.value()[1].kernel_name, "mix_int");
}

TEST(FeaturePipelineTest, AssembleMatchesModelAssembler) {
  const auto features = predictor().pipeline().featurize(kKernelA);
  ASSERT_TRUE(features.ok());
  const auto config = predictor().domain().default_config();
  const auto via_pipeline = predictor().pipeline().assemble(features.value(), config);
  const auto via_model = predictor().model().assembler().assemble(features.value(), config);
  EXPECT_EQ(std::memcmp(via_pipeline.data(), via_model.data(),
                        sizeof(double) * rco::kFeatureDim),
            0);
}

TEST(FeaturePipelineTest, StreamBudgetGuardsFeaturize) {
  rcl::StreamOptions options;
  options.max_source_bytes = 16;
  const rco::FeaturePipeline tight(predictor().model().assembler(), options);
  const auto result = tight.featurize(kKernelA);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kParseError);
}

TEST(PredictSourceTest, MatchesFeaturizeThenPredictPareto) {
  const auto prediction = predictor().predict_source(kKernelA);
  ASSERT_TRUE(prediction.ok()) << prediction.error().message;
  EXPECT_EQ(prediction.value().kernel, "stencil3");

  const auto features = rcl::extract_features_from_source(kKernelA);
  ASSERT_TRUE(features.ok());
  const auto reference = predictor().predict_pareto(features.value());
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(points_bitwise_equal(prediction.value().pareto, reference.value()));
}

TEST(PredictSourceTest, BadSourceIsAnErrorNotACrash) {
  const auto result = predictor().predict_source("kernel void broken( {");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kParseError);
}

TEST(PredictSourceBatchTest, DeterministicAcrossThreadCounts) {
  PoolGuard guard;
  std::vector<rco::Predictor::SourceRequest> sources;
  for (int i = 0; i < 6; ++i) {
    sources.push_back({i % 2 == 0 ? kKernelA : kKernelB, ""});
  }

  rc::ThreadPool::set_global_threads(1);
  const auto serial = predictor().predict_source_batch(sources);
  ASSERT_TRUE(serial.ok()) << serial.error().message;
  ASSERT_EQ(serial.value().size(), sources.size());

  rc::ThreadPool::set_global_threads(8);
  const auto parallel = predictor().predict_source_batch(sources);
  ASSERT_TRUE(parallel.ok());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(serial.value()[i].kernel, parallel.value()[i].kernel);
    EXPECT_TRUE(points_bitwise_equal(serial.value()[i].pareto,
                                     parallel.value()[i].pareto))
        << i;
  }

  // Each slot equals the single-source call.
  const auto single = predictor().predict_source(sources[1].source);
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(points_bitwise_equal(serial.value()[1].pareto, single.value().pareto));
}

TEST(PredictSourceBatchTest, FirstFailingSourceByInputOrderFailsTheBatch) {
  std::vector<rco::Predictor::SourceRequest> sources = {
      {kKernelA, ""},
      {"kernel void broken( {", ""},                 // parse error (index 1)
      {kKernelB, "no_such_kernel"},                  // not-found (index 2)
  };
  const auto result = predictor().predict_source_batch(sources);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kParseError);  // index 1 wins
}

TEST(PredictSourceBatchTest, EmptyBatchIsInvalid) {
  const auto result =
      predictor().predict_source_batch(std::span<const rco::Predictor::SourceRequest>{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kInvalidArgument);
}
