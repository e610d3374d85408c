// Quickstart: the complete library flow in ~50 lines.
//
//   1. Build a Predictor — it trains on the 106 synthetic micro-benchmarks
//      against the simulated Titan X (or loads the model a previous run
//      cached in .repro_model_cache/; training takes a few seconds).
//   2. Hand it a brand-new OpenCL kernel *as source text*.
//   3. Get back the predicted Pareto-optimal (core, memory) frequency
//      configurations — without ever running the kernel.
#include <cstdio>

#include "clfront/features.hpp"
#include "core/model_cache.hpp"
#include "core/predictor.hpp"

using namespace repro;

// A kernel the model has never seen: SAXPY with a twist of transcendentals.
static const char* kNewKernel = R"CL(
kernel void saxpy_tuned(global float* x, global float* y, float a, int n) {
  int gid = get_global_id(0);
  float xv = x[gid];
  float yv = y[gid];
  float scaled = a * xv + yv;
  float corrected = scaled + 0.001f * native_sin(scaled);
  y[gid] = corrected;
}
)CL";

int main() {
  // 1. Backend + training data + model, all behind the builder (the paper's
  //    defaults: simulated Titan X, linear-SVR speedup, RBF-SVR energy).
  core::ModelCache cache(".repro_model_cache");
  auto predictor = core::Predictor::builder().cache(cache).build();
  if (!predictor.ok()) {
    std::fprintf(stderr, "training: %s\n", predictor.error().to_string().c_str());
    return 1;
  }

  // 2. Static features of the new kernel — no execution involved. The
  //    predictor's FeaturePipeline is the one deterministic source→features
  //    path (whole-string or streamed, same bytes). When the features are
  //    not interesting by themselves, predictor.predict_source(kNewKernel)
  //    is this step and the next in one call.
  auto features = predictor.value().pipeline().featurize(kNewKernel);
  if (!features.ok()) {
    std::fprintf(stderr, "feature extraction: %s\n", features.error().to_string().c_str());
    return 1;
  }
  std::printf("kernel features: %s\n\n", features.value().to_string().c_str());

  // 3. Predicted Pareto set over the sampled configuration space.
  const auto pareto = predictor.value().predict_pareto(features.value());
  if (!pareto.ok()) {
    std::fprintf(stderr, "prediction: %s\n", pareto.error().to_string().c_str());
    return 1;
  }
  std::printf("predicted Pareto-optimal frequency configurations:\n");
  std::printf("%-28s %10s %14s\n", "configuration", "speedup", "norm. energy");
  for (const auto& p : pareto.value()) {
    std::printf("core %4d MHz / mem %4d MHz   %8.3f %14.3f%s\n", p.config.core_mhz,
                p.config.mem_mhz, p.speedup, p.energy,
                p.heuristic ? "   (mem-L heuristic)" : "");
  }
  const auto def = predictor.value().domain().default_config();
  std::printf("\n(default configuration: core %d MHz / mem %d MHz -> 1.000 / 1.000)\n",
              def.core_mhz, def.mem_mhz);
  return 0;
}
