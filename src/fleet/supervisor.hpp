// The fleet's worker lifecycle manager: fork/exec N `repro_serve`
// processes, wait until each accepts connections, respawn crashed workers,
// and stop them gracefully (SIGTERM → drain → exit).
//
// Each worker listens on its own Unix socket under socket_dir
// (worker-<i>.sock) and logs to worker-<i>.log there. Readiness is probed
// by connecting and completing a health round trip — repro_serve only
// accepts after its model is trained or loaded, so a successful probe means
// "serving", not just "spawned". A worker gets 300 s to serve, generous
// because the first worker of a cold fleet trains the model.
//
// One monitor thread per worker polls waitpid(WNOHANG) and respawns the
// worker on unexpected exit (the balancer reconnects to the same socket
// path by itself). A kill -9'd worker is therefore back in the fleet within
// roughly poll-interval + model-load time, and no other worker is
// disturbed.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace repro::fleet {

/// How to launch one worker process. `binary` is argv[0] (the repro_serve
/// executable); `common_args` is appended after the per-worker
/// "--unix <socket_dir>/worker-<i>.sock" pair (cache dir, shard and suite
/// flags — everything that must be identical across the fleet).
struct WorkerSpec {
  std::string binary;
  std::vector<std::string> common_args;
};

struct SupervisorOptions {
  std::size_t workers = 2;
  /// Directory for the per-worker sockets and log files (must exist).
  std::string socket_dir;
  /// Chaos mode: every this-many milliseconds, SIGKILL one live worker (the
  /// regular monitor respawns it), chosen by a fixed-seed sequence. Zero
  /// disables. Meant for the chaos soak, never for production.
  std::chrono::milliseconds chaos_kill_interval{0};
};

class Supervisor {
 public:
  /// Spawn every worker and wait until all of them serve.
  [[nodiscard]] static common::Result<std::unique_ptr<Supervisor>> start(
      WorkerSpec spec, const SupervisorOptions& options);

  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// The workers' Unix socket paths, index-aligned with pids().
  [[nodiscard]] std::vector<std::string> endpoints() const;
  /// Current pid of each worker (changes across respawns).
  [[nodiscard]] std::vector<pid_t> pids() const;

  struct Stats {
    std::uint64_t spawns = 0;       // initial spawns + respawns
    std::uint64_t crashes = 0;      // exits the supervisor did not request
    std::uint64_t chaos_kills = 0;  // SIGKILLs delivered by chaos mode
  };
  [[nodiscard]] Stats stats() const;

  /// SIGTERM every worker, wait for exits (SIGKILL stragglers). Idempotent;
  /// also run by the destructor.
  void stop();

 private:
  Supervisor();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace repro::fleet
