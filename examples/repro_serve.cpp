// repro_serve — the prediction server: train (or load from the model
// cache), then answer line-delimited JSON requests over a Unix or TCP
// socket (see docs/DETERMINISM.md for the wire format).
//
//   repro_serve --unix /tmp/repro.sock [options]
//   repro_serve --tcp 7070             [options]   (0 = ephemeral port)
//
// Options:
//   --shards N          worker shards, each owning a Predictor   (default 2)
//   --max-batch N       most queued requests a shard takes at once (default 16)
//   --max-queue-delay-us N  shed (retryable "overloaded") when the estimated
//                       admission-queue delay exceeds N           (default 0 = off)
//   --cache-dir DIR     on-disk model cache directory  (default .repro_serve_cache)
//                       Servers sharing one directory train each model once:
//                       the first takes the model's lock file and trains,
//                       the others wait on the lock and load its copy.
//   --num-configs N     training configuration budget            (default 40)
//   --suite-stride N    train on every Nth micro-benchmark       (default 1)
//                       (N > 1 trades accuracy for startup time — demos/CI)
//
// Prints "READY <endpoint>" on stdout once the socket is accepting, then
// serves until SIGINT/SIGTERM.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <signal.h>
#include <unistd.h>

#include "benchgen/benchgen.hpp"
#include "core/model_cache.hpp"
#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

using namespace repro;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--unix PATH | --tcp PORT) [--shards N] [--max-batch N]\n"
               "          [--max-queue-delay-us N]\n"
               "          [--cache-dir DIR] [--num-configs N] [--suite-stride N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions server_options;
  serve::ServiceOptions options;
  options.shards = 2;
  auto builder = core::Predictor::builder();
  std::string cache_dir = ".repro_serve_cache";
  std::size_t suite_stride = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--unix" && has_value) {
      server_options.unix_path = argv[++i];
    } else if (arg == "--tcp" && has_value) {
      server_options.tcp_port = std::atoi(argv[++i]);
    } else if (arg == "--shards" && has_value) {
      options.shards = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--max-batch" && has_value) {
      options.max_batch = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--max-queue-delay-us" && has_value) {
      options.max_queue_delay =
          std::chrono::microseconds(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--cache-dir" && has_value) {
      cache_dir = argv[++i];
    } else if (arg == "--num-configs" && has_value) {
      builder.num_configs(static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10)));
    } else if (arg == "--suite-stride" && has_value) {
      suite_stride = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      return usage(argv[0]);
    }
  }
  if (server_options.unix_path.empty() && server_options.tcp_port < 0) {
    return usage(argv[0]);
  }

  if (suite_stride > 1) {
    auto full = benchgen::generate_training_suite();
    if (!full.ok()) {
      std::fprintf(stderr, "suite generation: %s\n", full.error().to_string().c_str());
      return 1;
    }
    std::vector<benchgen::MicroBenchmark> subset;
    for (std::size_t i = 0; i < full.value().size(); i += suite_stride) {
      subset.push_back(full.value()[i]);
    }
    builder.suite(std::move(subset));
  }

  // Block the shutdown signals before any thread starts (threads inherit
  // the mask), then receive them with sigwait below — no handler and no
  // check-then-pause window for a signal to slip through.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  std::signal(SIGPIPE, SIG_IGN);  // broken client connections are not fatal

  std::printf("repro_serve: training (or loading) the model...\n");
  std::fflush(stdout);
  core::ModelCache cache(cache_dir);
  server_options.model_cache = &cache;
  auto predictor = builder.cache(cache).build();
  if (!predictor.ok()) {
    std::fprintf(stderr, "model: %s\n", predictor.error().to_string().c_str());
    return 1;
  }
  auto service = serve::Service::from_model(predictor.value().share_model(), options);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n", service.error().to_string().c_str());
    return 1;
  }

  auto server = serve::SocketServer::start(*service.value(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.error().to_string().c_str());
    return 1;
  }

  if (!server.value()->unix_path().empty()) {
    std::printf("READY unix:%s\n", server.value()->unix_path().c_str());
  } else {
    std::printf("READY tcp:%d\n", server.value()->tcp_port());
  }
  std::fflush(stdout);

  int sig = 0;
  while (sigwait(&stop_signals, &sig) != 0) {
    // Interrupted wait; try again.
  }

  std::printf("repro_serve: shutting down\n");
  server.value()->stop();
  service.value()->stop();
  // The same counters a "metrics" scrape reports.
  obs::Registry& registry = service.value()->registry();
  const auto count = [&registry](const char* name) {
    return static_cast<unsigned long long>(registry.counter(name)->value());
  };
  std::printf("repro_serve: %llu connections, %llu requests, %llu batches, "
              "%llu protocol errors\n",
              count("repro_connections_total"), count("repro_requests_total"),
              count("repro_batches_total"), count("repro_protocol_errors_total"));
  return 0;
}
