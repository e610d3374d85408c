#include "requests.hpp"

#include <cstring>

#include "benchgen/benchgen.hpp"
#include "kernels/kernels.hpp"
#include "stats.hpp"

namespace e2e {

namespace {

// Rates as shares of the seed commit's capacity are in e2ebench/README.md.
const WorkloadSpec kSpecs[] = {
    {Workload::kFleetFeatures, true, 600.0, 1200.0, 5.0, 600.0},
    {Workload::kWorkerSource, false, 400.0, 800.0, 10.0, 800.0},
    {Workload::kLibraryBatch, true, 200.0, 400.0, 2.0, 600.0},
};

Item feature_item(std::string name, std::string source, std::string kernel,
                  const clfront::StaticFeatures& features) {
  Item item;
  item.request.kind = serve::RequestKind::kPredict;
  item.request.kernel = name;
  item.request.features = features.counts;
  item.source = std::move(source);
  item.kernel = std::move(kernel);
  item.features = features;
  item.features.kernel_name = std::move(name);
  return item;
}

Item source_item(std::string source, std::string kernel) {
  Item item;
  item.request.kind = serve::RequestKind::kPredictSource;
  item.request.kernel = kernel;
  item.request.source = source;
  item.source = std::move(source);
  item.kernel = std::move(kernel);
  return item;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const auto& s : kSpecs) {
    if (name == workload_name(s.workload)) return s.workload;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFleetFeatures: return "fleet_features";
    case Workload::kWorkerSource: return "worker_source";
    case Workload::kLibraryBatch: return "library_batch";
  }
  return "?";
}

const WorkloadSpec& spec_for(Workload w) { return kSpecs[static_cast<int>(w)]; }

common::Result<Pool> feature_pool() {
  Pool pool;
  for (const auto& bench : kernels::test_suite()) {
    auto features = kernels::benchmark_features(bench);
    if (!features.ok()) return features.error();
    pool.items.push_back(
        feature_item(bench.name, bench.source, bench.kernel_name, features.value()));
  }
  auto suite = benchgen::generate_training_suite();
  if (!suite.ok()) return suite.error();
  for (const auto& mb : suite.value()) {
    pool.items.push_back(feature_item(mb.name, mb.source, {}, mb.features));
  }
  pool.small = pool.items.size();
  return pool;
}

common::Result<Pool> source_pool() {
  Pool pool;
  for (const auto& bench : kernels::test_suite()) {
    pool.items.push_back(source_item(bench.source, bench.kernel_name));
  }
  for (std::size_t p = 0; p < benchgen::kNumPatterns; ++p) {
    for (int e = 0; e < benchgen::kIntensityLevels; ++e) {
      pool.items.push_back(
          source_item(benchgen::pattern_source(static_cast<benchgen::Pattern>(p), e), {}));
    }
  }
  pool.small = pool.items.size();
  for (std::size_t v = 0; v < 4; ++v) {
    pool.items.push_back(source_item(large_source(50 * 1024, v), "chain"));
  }
  return pool;
}

std::string large_source(std::size_t bytes, std::size_t variant) {
  // The shape of perf_stack's stream_featurize input: many small helpers and
  // one kernel that calls every seventh of them.
  std::string source;
  source.reserve(bytes + 4096);
  std::size_t n = 0;
  const std::string k = std::to_string(variant);
  while (source.size() < bytes) {
    const std::string id = std::to_string(n++);
    source += "float helper" + id + "(float v) { /* synthetic filler " + id + " */ return v * " +
              id + "." + k + "5f + native_sin(v) - " + id + "; }\n";
  }
  source += "kernel void chain(global float* x) {\n  float v = x[get_global_id(0)];\n";
  for (std::size_t i = 0; i < n; i += 7) {
    source += "  v = helper" + std::to_string(i) + "(v);\n";
  }
  source += "  x[get_global_id(0)] = v;\n}\n";
  return source;
}

std::vector<std::uint32_t> draw(const Pool& pool, std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  const std::size_t large = pool.items.size() - pool.small;
  std::vector<std::uint32_t> out(count);
  for (auto& idx : out) {
    const bool big = large > 0 && rng.uniform() < kLargeShare;
    idx = static_cast<std::uint32_t>(big ? pool.small + rng.index(large) : rng.index(pool.small));
  }
  return out;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate, double seconds) {
  Rng rng(seed);
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = rng.exponential(rate); t < seconds; t += rng.exponential(rate)) {
    due.push_back(t * 1e6);
  }
  return due;
}

std::uint64_t phase_seed(std::uint64_t seed, std::uint64_t phase) {
  Rng rng(seed * 0x100000001B3ull + phase);
  return rng.next();
}

void encode_request(bool binary, const serve::WireRequest& request, std::string& out) {
  if (binary) {
    serve::binary::format_request_frame_into(out, request);
  } else {
    serve::format_request_into(out, request);
    out.push_back('\n');
  }
}

common::Result<std::vector<core::Predictor::KernelPrediction>> reference_replies(
    const core::Predictor& predictor, const Pool& pool) {
  std::vector<core::Predictor::KernelPrediction> out;
  out.reserve(pool.items.size());
  for (const Item& item : pool.items) {
    if (item.request.kind == serve::RequestKind::kPredictSource) {
      auto p = predictor.predict_source(item.source, item.kernel);
      if (!p.ok()) return p.error();
      out.push_back(std::move(p).take());
    } else {
      auto p = predictor.predict_pareto(item.features);
      if (!p.ok()) return p.error();
      out.push_back({item.features.kernel_name, std::move(p).take()});
    }
  }
  return out;
}

bool identical(const core::Predictor::KernelPrediction& a,
               const core::Predictor::KernelPrediction& b) {
  if (a.kernel != b.kernel || a.pareto.size() != b.pareto.size()) return false;
  for (std::size_t i = 0; i < a.pareto.size(); ++i) {
    const auto& x = a.pareto[i];
    const auto& y = b.pareto[i];
    if (x.config.core_mhz != y.config.core_mhz || x.config.mem_mhz != y.config.mem_mhz ||
        x.heuristic != y.heuristic ||
        std::memcmp(&x.speedup, &y.speedup, sizeof(double)) != 0 ||
        std::memcmp(&x.energy, &y.energy, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace e2e
