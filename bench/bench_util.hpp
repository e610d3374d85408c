// Shared plumbing for the experiment harnesses: a cached pipeline (so the
// model is trained once and reused by every binary), CSV dumping next to the
// printed tables, and small formatting helpers.
#pragma once

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/evaluation.hpp"

namespace repro::bench {

/// All harnesses share one model cache directory in the working directory;
/// the first binary trains (~seconds), the rest load. The pipeline's seeded
/// suite keys its own entry, so the examples' default-suite model in the
/// same directory never stands in for it.
inline core::PipelineOptions default_pipeline_options() {
  core::PipelineOptions options;
  options.model_cache_dir = ".repro_model_cache";
  return options;
}

/// Prepare the shared pipeline or abort with a message.
inline core::ExperimentPipeline& shared_pipeline() {
  static auto* pipeline = [] {
    common::set_log_level(common::LogLevel::kInfo);
    auto* p = new core::ExperimentPipeline(default_pipeline_options());
    const auto st = p->prepare();
    if (!st.ok()) {
      std::fprintf(stderr, "pipeline setup failed: %s\n", st.error().to_string().c_str());
      std::exit(1);
    }
    return p;
  }();
  return *pipeline;
}

/// Write a CSV next to the binary output; returns the path for the footer.
inline std::string dump_csv(const common::CsvDocument& doc, const std::string& name) {
  std::filesystem::create_directories("bench_out");
  const std::string path = "bench_out/" + name;
  if (const auto st = doc.save(path); !st.ok()) {
    std::fprintf(stderr, "warning: could not write %s: %s\n", path.c_str(),
                 st.error().to_string().c_str());
  }
  return path;
}

inline std::string fmt(double v, int precision = 3) {
  return common::format_double(v, precision);
}

inline void print_header(const char* experiment, const char* what) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", experiment, what);
  std::printf("Reproduction of: Fan, Cosenza, Juurlink, \"Predictable GPUs\n");
  std::printf("Frequency Scaling for Energy and Performance\", ICPP 2019.\n");
  std::printf("Backend: simulated GPUs (see DESIGN.md for the substitution analysis).\n");
  std::printf("================================================================\n\n");
}

}  // namespace repro::bench
