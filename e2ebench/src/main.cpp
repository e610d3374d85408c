// e2ebench — the repository's end-to-end benchmark (see e2ebench/README.md).
//
//   e2ebench --workload <fleet_features|worker_source|library_batch>
//            --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures every end-to-end metric with tracing off; --trace 1 is
// the separate traced run that prints the per-layer table. The last line
// of stdout is the JSON result. Exits 1 when any reply was wrong or failed,
// 2 on bad arguments, 3 when the run could not complete.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>

#include "metrics.hpp"
#include "run.hpp"

#ifdef E2E_COUNT_ALLOCATIONS
#include "common/alloc_hook.hpp"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <fleet_features|worker_source|library_batch> "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  int trace = -1;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    if (arg == "--workload") {
      const auto w = e2e::parse_workload(value);
      if (!w) return usage();
      options.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || (trace != 0 && trace != 1) || !(options.seconds > 0)) {
    return usage();
  }
  // Sleeps in the generator's poll loop should end when asked to.
  ::prctl(PR_SET_TIMERSLACK, 1UL);

  e2e::AllocCounter allocations = nullptr;
#ifdef E2E_COUNT_ALLOCATIONS
  allocations = &repro::common::alloc_hook::allocations;
#endif
  try {
    const e2e::Report report = trace == 1 ? e2e::run_traced(options, allocations)
                                          : e2e::run_end_to_end(options);
    const std::span<const e2e::MetricDef> defs =
        trace == 1 ? std::span<const e2e::MetricDef>(e2e::kPerLayer)
                   : std::span<const e2e::MetricDef>(e2e::kEndToEnd);
    if (const auto missing = report.missing(defs); !missing.empty()) {
      std::fprintf(stderr, "e2ebench: no value for %s\n", missing.front().c_str());
      return 3;
    }
    std::printf("%s%s\n", report.table(defs, trace == 1).c_str(), report.json(defs).c_str());
    std::fflush(stdout);
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 3;
  }
}
