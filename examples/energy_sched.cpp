// Energy-aware batch scheduler: given a queue of kernels, pick a per-kernel
// frequency configuration from the *predicted* Pareto set that minimizes
// energy subject to a performance floor, then validate the plan against the
// (simulated) hardware. This is the deployment scenario the paper's intro
// motivates: per-application DVFS instead of one static default.
//
// Usage: energy_sched [--min-speedup 0.9]
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/model_cache.hpp"
#include "core/predictor.hpp"
#include "gpusim/simulator.hpp"
#include "kernels/kernels.hpp"

using namespace repro;

int main(int argc, char** argv) {
  double min_speedup = 0.9;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    }
  }

  // The simulator doubles as the deployment "hardware" the plan is validated
  // against, so the predictor borrows it as its measurement backend.
  const gpusim::GpuSimulator sim(gpusim::DeviceModel::titan_x());
  core::ModelCache cache(".repro_model_cache");
  auto predictor = core::Predictor::builder()
                       .backend(std::make_unique<core::SimulatorBackend>(sim))
                       .cache(cache)
                       .build();
  if (!predictor.ok()) {
    std::fprintf(stderr, "%s\n", predictor.error().to_string().c_str());
    return 1;
  }

  std::printf("scheduling %zu kernels with per-kernel DVFS, floor: speedup >= %.2f\n\n",
              kernels::test_suite().size(), min_speedup);
  std::printf("%-16s %-22s %10s %10s | %10s %10s\n", "kernel", "chosen config",
              "pred. s", "pred. e", "actual s", "actual e");

  double total_default_j = 0.0;
  double total_tuned_j = 0.0;
  double total_default_ms = 0.0;
  double total_tuned_ms = 0.0;
  int floor_violations = 0;

  for (const auto& benchmark : kernels::test_suite()) {
    const auto features = kernels::benchmark_features(benchmark);
    if (!features.ok()) continue;

    // Pick: minimum predicted energy among modeled points meeting the floor;
    // fall back to the default configuration when none qualifies.
    const auto pareto_result = predictor.value().predict_pareto(features.value());
    if (!pareto_result.ok()) continue;
    const auto& pareto = pareto_result.value();
    gpusim::FrequencyConfig chosen = sim.freq().default_config();
    double chosen_s = 1.0;
    double chosen_e = 1.0;
    bool found = false;
    for (const auto& p : pareto) {
      if (p.heuristic || p.speedup < min_speedup) continue;
      if (!found || p.energy < chosen_e) {
        chosen = p.config;
        chosen_s = p.speedup;
        chosen_e = p.energy;
        found = true;
      }
    }

    // Validate against the hardware.
    const auto def = sim.run_default(benchmark.profile);
    const auto run = sim.run_at(benchmark.profile, chosen);
    const double actual_s = def.time_ms / run.time_ms;
    const double actual_e = run.energy_j / def.energy_j;
    if (actual_s < min_speedup) ++floor_violations;

    total_default_j += def.energy_j;
    total_tuned_j += run.energy_j;
    total_default_ms += def.time_ms;
    total_tuned_ms += run.time_ms;

    char config_str[64];
    std::snprintf(config_str, sizeof(config_str), "core %4d / mem %4d%s",
                  chosen.core_mhz, chosen.mem_mhz, found ? "" : " (default)");
    std::printf("%-16s %-22s %10.3f %10.3f | %10.3f %10.3f\n", benchmark.name.c_str(),
                config_str, chosen_s, chosen_e, actual_s, actual_e);
  }

  std::printf("\nbatch summary (per-invocation sums):\n");
  std::printf("  default : %8.2f ms, %8.3f J\n", total_default_ms, total_default_j);
  std::printf("  tuned   : %8.2f ms, %8.3f J\n", total_tuned_ms, total_tuned_j);
  std::printf("  energy saved: %.1f%%, time cost: %.1f%%, floor violations: %d/12\n",
              100.0 * (1.0 - total_tuned_j / total_default_j),
              100.0 * (total_tuned_ms / total_default_ms - 1.0), floor_violations);
  return 0;
}
