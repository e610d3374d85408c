// repro_fleet — the multi-process serving fleet: N repro_serve worker
// processes under a supervisor, and a front balancer speaking the
// unchanged line-JSON protocol to clients.
//
//   repro_fleet --unix /tmp/fleet.sock --workers 3 [options]
//   repro_fleet --tcp 7070            --workers 3 [options]   (0 = ephemeral)
//
// Options:
//   --workers N         worker processes                        (default 2)
//   --dir DIR           runtime dir for sockets/logs (default: mkdtemp under /tmp)
//   --serve-binary PATH the repro_serve executable (default: next to argv[0])
//   --cache-dir DIR     shared on-disk model cache (default: DIR/model-cache);
//                       the workers train its model once between them
//   --shards N          worker shards per process               (default 2)
//   --num-configs N     training configuration budget           (default 40)
//   --suite-stride N    train on every Nth micro-benchmark      (default 1)
//   --max-queue-delay-us N  per-worker overload shedding bound  (default 0 = off)
//   --chaos-kill-ms N   SIGKILL a random worker every N ms      (default 0 = off)
//   --worker-faults S   REPRO_FAULTS spec ("seed:key=v,...") exported to the
//                       worker processes ONLY — the balancer and supervisor
//                       in this process stay fault-free so the soak
//                       measures worker-side fault recovery, not a
//                       corrupted control plane
//
// Startup order: all workers spawned concurrently (the first to take the
// model's lock file in the shared cache trains, the others wait on it and
// load the saved copy), then the balancer connects to each worker socket
// and opens the client endpoint. Prints one "WORKER <i> pid <pid> sock
// <path>" line per worker and "READY <endpoint>" once clients can connect,
// then serves until SIGINT/SIGTERM. Shutdown reverses the order.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "common/fault.hpp"
#include "fleet/balancer.hpp"
#include "fleet/supervisor.hpp"
#include "obs/metrics.hpp"

using namespace repro;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--unix PATH | --tcp PORT) [--workers N] [--dir DIR]\n"
               "          [--serve-binary PATH] [--cache-dir DIR] [--shards N]\n"
               "          [--num-configs N] [--suite-stride N]\n"
               "          [--max-queue-delay-us N] [--chaos-kill-ms N]\n"
               "          [--worker-faults SEED:SPEC]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fleet::BalancerOptions balancer_options;
  std::size_t workers = 2;
  std::size_t shards = 2;
  std::string run_dir;
  std::string serve_binary;
  std::string cache_dir;
  std::size_t suite_stride = 1;
  std::size_t num_configs = 40;
  long max_queue_delay_us = 0;
  long chaos_kill_ms = 0;
  std::string worker_faults;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--unix" && has_value) {
      balancer_options.unix_path = argv[++i];
    } else if (arg == "--tcp" && has_value) {
      balancer_options.tcp_port = std::atoi(argv[++i]);
    } else if (arg == "--workers" && has_value) {
      workers = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--dir" && has_value) {
      run_dir = argv[++i];
    } else if (arg == "--serve-binary" && has_value) {
      serve_binary = argv[++i];
    } else if (arg == "--cache-dir" && has_value) {
      cache_dir = argv[++i];
    } else if (arg == "--shards" && has_value) {
      shards = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--num-configs" && has_value) {
      num_configs = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--suite-stride" && has_value) {
      suite_stride = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--max-queue-delay-us" && has_value) {
      max_queue_delay_us = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--chaos-kill-ms" && has_value) {
      chaos_kill_ms = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--worker-faults" && has_value) {
      worker_faults = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (balancer_options.unix_path.empty() && balancer_options.tcp_port < 0) {
    return usage(argv[0]);
  }
  if (workers == 0) {
    std::fprintf(stderr, "repro_fleet: --workers must be >= 1\n");
    return 2;
  }
  if (run_dir.empty()) {
    char tmpl[] = "/tmp/repro_fleet.XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "repro_fleet: mkdtemp: %s\n", std::strerror(errno));
      return 1;
    }
    run_dir = made;
  } else {
    std::error_code ec;
    std::filesystem::create_directories(run_dir, ec);
  }
  if (cache_dir.empty()) cache_dir = run_dir + "/model-cache";
  if (serve_binary.empty()) {
    serve_binary =
        (std::filesystem::path(argv[0]).parent_path() / "repro_serve").string();
  }
  if (!std::filesystem::exists(serve_binary)) {
    std::fprintf(stderr, "repro_fleet: repro_serve binary not found at %s\n",
                 serve_binary.c_str());
    return 1;
  }

  // Worker-only fault injection: REPRO_FAULTS must be in the environment
  // when the supervisor fork/execs workers (including every chaos respawn),
  // so it stays exported for the whole run. This process pins its OWN
  // injector to an empty spec first — the balancer and supervisor here
  // must stay fault-free or the soak would measure a corrupted control
  // plane instead of worker-side recovery.
  common::FaultInjector::Scope parent_faults_off(0, common::FaultSpec{});
  if (!worker_faults.empty()) {
    if (auto parsed = common::FaultInjector::parse(worker_faults); !parsed.ok()) {
      std::fprintf(stderr, "repro_fleet: --worker-faults: %s\n",
                   parsed.error().to_string().c_str());
      return 2;
    }
    ::setenv("REPRO_FAULTS", worker_faults.c_str(), 1);
    std::printf("repro_fleet: workers run with REPRO_FAULTS=%s\n",
                worker_faults.c_str());
  }

  // Same discipline as repro_serve: block the shutdown signals before any
  // thread (or child) exists, sigwait below. Children reset the mask.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  fleet::WorkerSpec spec;
  spec.binary = serve_binary;
  spec.common_args = {"--cache-dir",    cache_dir,
                      "--shards",       std::to_string(shards),
                      "--num-configs",  std::to_string(num_configs),
                      "--suite-stride", std::to_string(suite_stride)};
  if (max_queue_delay_us > 0) {
    spec.common_args.push_back("--max-queue-delay-us");
    spec.common_args.push_back(std::to_string(max_queue_delay_us));
  }
  fleet::SupervisorOptions supervisor_options;
  supervisor_options.workers = workers;
  supervisor_options.socket_dir = run_dir;
  if (chaos_kill_ms > 0) {
    supervisor_options.chaos_kill_interval = std::chrono::milliseconds(chaos_kill_ms);
    std::printf("repro_fleet: chaos mode, SIGKILLing a random worker every %ldms\n",
                chaos_kill_ms);
  }
  std::printf("repro_fleet: spawning %zu worker(s)\n", workers);
  std::fflush(stdout);
  auto supervisor = fleet::Supervisor::start(spec, supervisor_options);
  if (!supervisor.ok()) {
    std::fprintf(stderr, "supervisor: %s\n", supervisor.error().to_string().c_str());
    return 1;
  }
  {
    const auto endpoints = supervisor.value()->endpoints();
    const auto pids = supervisor.value()->pids();
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      std::printf("WORKER %zu pid %d sock %s\n", i, static_cast<int>(pids[i]),
                  endpoints[i].c_str());
    }
  }

  std::vector<fleet::BackendEndpoint> backends;
  for (const auto& sock : supervisor.value()->endpoints()) {
    backends.push_back({sock, -1});
  }
  auto balancer = fleet::Balancer::start(std::move(backends), balancer_options);
  if (!balancer.ok()) {
    std::fprintf(stderr, "balancer: %s\n", balancer.error().to_string().c_str());
    return 1;
  }

  if (!balancer.value()->unix_path().empty()) {
    std::printf("READY unix:%s\n", balancer.value()->unix_path().c_str());
  } else {
    std::printf("READY tcp:%d\n", balancer.value()->tcp_port());
  }
  std::fflush(stdout);

  int sig = 0;
  while (sigwait(&stop_signals, &sig) != 0) {
    // Interrupted wait; try again.
  }

  std::printf("repro_fleet: shutting down\n");
  balancer.value()->stop();
  supervisor.value()->stop();
  const auto lifecycle = supervisor.value()->stats();

  // The balancer's own counters, as its "metrics" reply reports them.
  obs::Registry& registry = balancer.value()->registry();
  const auto count = [&registry](const char* name) {
    return static_cast<unsigned long long>(registry.counter(name)->value());
  };
  std::printf("repro_fleet: %llu connections, %llu requests, "
              "%llu redispatches, %llu backend failures, %llu reconnects; "
              "%llu spawns, %llu crashes, %llu chaos kills\n",
              count("repro_balancer_connections_total"),
              count("repro_balancer_requests_total"),
              count("repro_balancer_redispatches_total"),
              count("repro_balancer_backend_failures_total"),
              count("repro_balancer_reconnects_total"),
              static_cast<unsigned long long>(lifecycle.spawns),
              static_cast<unsigned long long>(lifecycle.crashes),
              static_cast<unsigned long long>(lifecycle.chaos_kills));
  return 0;
}
