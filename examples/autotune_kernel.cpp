// Autotuner: load an OpenCL kernel from a file (or use the built-in demo),
// predict its Pareto front, and answer the three questions a deployment
// engineer actually asks:
//   * which configuration maximizes performance,
//   * which minimizes energy-per-task,
//   * which is the best compromise under a performance floor
//     (default: at least 95% of the default configuration's speed).
//
// Usage: autotune_kernel [kernel.cl] [kernel_name] [--min-speedup 0.95]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "clfront/features.hpp"
#include "core/model_cache.hpp"
#include "core/predictor.hpp"
#include "pareto/knee.hpp"

using namespace repro;

namespace {

const char* kDemoKernel = R"CL(
// Demo: horizontal blur with a small compile-time stencil.
kernel void blur5(global float* src, global float* dst, int width, int height) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float acc = 0.0f;
  for (int dx = -2; dx <= 2; dx++) {
    int ix = clamp(x + dx, 0, width - 1);
    acc += src[y * width + ix];
  }
  dst[y * width + x] = acc * 0.2f;
}
)CL";

std::string read_file(const char* path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string source = kDemoKernel;
  std::string kernel_name;
  double min_speedup = 0.95;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (source == kDemoKernel) {
      source = read_file(argv[i]);
      if (source.empty()) {
        std::fprintf(stderr, "cannot read %s\n", argv[i]);
        return 1;
      }
    } else {
      kernel_name = argv[i];
    }
  }

  core::ModelCache cache(".repro_model_cache");
  auto predictor = core::Predictor::builder().cache(cache).build();
  if (!predictor.ok()) {
    std::fprintf(stderr, "%s\n", predictor.error().to_string().c_str());
    return 1;
  }

  // The predictor's FeaturePipeline does source→features; printing them
  // first keeps the "does it compile" failure mode separate from prediction.
  auto features = predictor.value().pipeline().featurize(source, kernel_name);
  if (!features.ok()) {
    std::fprintf(stderr, "kernel does not compile: %s\n",
                 features.error().to_string().c_str());
    return 1;
  }
  std::printf("autotuning kernel '%s'\n", features.value().kernel_name.c_str());
  std::printf("static features: %s\n\n", features.value().to_string().c_str());

  // (predict_source(source, kernel_name) would do featurize + predict in
  // one call; the features were already extracted for the printout above.)
  const auto pareto_result = predictor.value().predict_pareto(features.value());
  if (!pareto_result.ok()) {
    std::fprintf(stderr, "%s\n", pareto_result.error().to_string().c_str());
    return 1;
  }
  const auto& pareto_set = pareto_result.value();
  std::printf("predicted Pareto set (%zu configurations):\n", pareto_set.size());
  for (const auto& p : pareto_set) {
    std::printf("  core %4d / mem %4d -> speedup %.3f, energy %.3f%s\n",
                p.config.core_mhz, p.config.mem_mhz, p.speedup, p.energy,
                p.heuristic ? " (heuristic)" : "");
  }

  // Decision support. The heuristic point has no trustworthy prediction, so
  // constrained picks are made over the modeled points only.
  const core::PredictedPoint* fastest = nullptr;
  const core::PredictedPoint* greenest = nullptr;
  const core::PredictedPoint* constrained = nullptr;
  for (const auto& p : pareto_set) {
    if (p.heuristic) continue;
    if (fastest == nullptr || p.speedup > fastest->speedup) fastest = &p;
    if (greenest == nullptr || p.energy < greenest->energy) greenest = &p;
    if (p.speedup >= min_speedup &&
        (constrained == nullptr || p.energy < constrained->energy)) {
      constrained = &p;
    }
  }
  std::printf("\nrecommendations:\n");
  if (fastest != nullptr) {
    std::printf("  max performance : core %4d / mem %4d (predicted speedup %.3f)\n",
                fastest->config.core_mhz, fastest->config.mem_mhz, fastest->speedup);
  }
  if (greenest != nullptr) {
    std::printf("  min energy      : core %4d / mem %4d (predicted energy %.3f)\n",
                greenest->config.core_mhz, greenest->config.mem_mhz, greenest->energy);
  }
  if (constrained != nullptr) {
    std::printf(
        "  best with speedup >= %.2f: core %4d / mem %4d (energy %.3f, speedup %.3f)\n",
        min_speedup, constrained->config.core_mhz, constrained->config.mem_mhz,
        constrained->energy, constrained->speedup);
  } else {
    std::printf("  no modeled configuration reaches speedup >= %.2f\n", min_speedup);
  }

  // Knee point: the balanced pick with no explicit constraint.
  std::vector<pareto::Point> front;
  for (std::size_t i = 0; i < pareto_set.size(); ++i) {
    if (!pareto_set[i].heuristic) {
      front.push_back({pareto_set[i].speedup, pareto_set[i].energy,
                       static_cast<std::uint32_t>(i)});
    }
  }
  if (!front.empty()) {
    const auto knee = pareto::knee_by_utopia_distance(front);
    const auto& pick = pareto_set[knee.id];
    std::printf("  balanced (knee)  : core %4d / mem %4d (speedup %.3f, energy %.3f)\n",
                pick.config.core_mhz, pick.config.mem_mhz, pick.speedup, pick.energy);
  }
  std::printf("\napply with NVML: nvmlDeviceSetApplicationsClocks(dev, mem, core)\n");
  return 0;
}
