// Quick-serve: the in-process serving flow in ~40 lines — a Service over a
// model built through a model cache, concurrent clients, batched
// predictions. No sockets: this is the API tests and benchmarks use;
// repro_serve adds the wire.
#include <cstdio>
#include <thread>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "core/model_cache.hpp"
#include "core/predictor.hpp"
#include "serve/service.hpp"

using namespace repro;

int main() {
  // Train once (or reuse the on-disk copy from a previous run) and share the
  // model across two shards; a shard that frees up takes up to 8 queued
  // requests as one batch.
  core::ModelCache cache(".repro_serve_cache");
  auto predictor = core::Predictor::builder().cache(cache).build();
  if (!predictor.ok()) {
    std::fprintf(stderr, "model: %s\n", predictor.error().to_string().c_str());
    return 1;
  }
  serve::ServiceOptions options;
  options.shards = 2;
  options.max_batch = 8;
  auto service = serve::Service::from_model(predictor.value().share_model(), options);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n", service.error().to_string().c_str());
    return 1;
  }

  // Four client threads fire the first 12 micro-benchmarks at the service.
  const auto suite = benchgen::generate_training_suite().value();
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = static_cast<std::size_t>(c); i < 12; i += 4) {
        auto response = service.value()->predict(suite[i].features);
        if (!response.ok()) {
          std::fprintf(stderr, "%s: %s\n", suite[i].name.c_str(),
                       response.error().to_string().c_str());
          continue;
        }
        std::printf("%-24s -> %zu Pareto-optimal configurations\n",
                    response.value().kernel.c_str(), response.value().pareto.size());
      }
    });
  }
  for (auto& t : clients) t.join();

  const auto stats = service.value()->stats();
  std::printf("\n%llu requests in %llu batches\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches));
  return 0;
}
