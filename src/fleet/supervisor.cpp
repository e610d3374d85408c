#include "fleet/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "serve/client.hpp"

namespace repro::fleet {

namespace {

constexpr auto kPollInterval = std::chrono::milliseconds(100);
constexpr auto kTermGrace = std::chrono::seconds(10);
/// How long a (re)spawned worker gets to serve (supervisor.hpp).
constexpr auto kReadyTimeout = std::chrono::seconds(300);
/// Seed of the chaos victim sequence, so a soak kills the same order.
constexpr std::uint64_t kChaosSeed = 1;

/// fork/exec one worker with stdout+stderr appended to `log_path`. Only
/// async-signal-safe calls between fork and exec (argv/envp are prepared in
/// the parent).
common::Result<pid_t> spawn_process(const std::vector<std::string>& args,
                                    const std::string& log_path) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return common::io_error(std::string("Supervisor: fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      if (log_fd > STDERR_FILENO) ::close(log_fd);
    }
    // Undo the parent's blocked SIGINT/SIGTERM (repro_fleet sigwaits on
    // them); the worker must receive its own shutdown signals.
    sigset_t none;
    sigemptyset(&none);
    pthread_sigmask(SIG_SETMASK, &none, nullptr);
    ::execv(argv[0], argv.data());
    // exec failed; the 127 shows up as a crash in the monitor's waitpid.
    ::_exit(127);
  }
  return pid;
}

/// Poll-connect until the worker answers a health round trip (repro_serve
/// accepts only after its model is ready, so this means "serving").
common::Status wait_serving(const std::string& socket_path,
                            std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  serve::ConnectOptions retry;
  retry.attempts = 1;
  for (;;) {
    auto client = serve::SocketClient::connect_unix(socket_path, retry);
    if (client.ok()) {
      if (auto health = client.value().health(); health.ok()) {
        return common::Status::Ok();
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return common::unavailable("Supervisor: worker at " + socket_path +
                                 " not serving within timeout");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

}  // namespace

struct Supervisor::Impl {
  WorkerSpec spec;
  SupervisorOptions options;

  struct Worker {
    std::string socket_path;
    std::string log_path;
    pid_t pid = -1;
    std::thread monitor;
  };

  std::vector<std::unique_ptr<Worker>> workers;
  mutable std::mutex mutex;  // workers' pids + stats
  std::atomic<bool> stopping{false};
  std::once_flag stop_once;
  Stats stats;
  std::thread chaos;

  /// SIGKILL a seeded-random live worker every chaos_kill_interval. The
  /// worker's own monitor sees the exit as a crash and respawns it — chaos
  /// mode only supplies the kills, recovery is the normal path under test.
  void chaos_loop() {
    common::SplitMix64 rng(kChaosSeed);
    for (;;) {
      // Sleep in small slices so stop() is not delayed by a long interval.
      const auto until = std::chrono::steady_clock::now() + options.chaos_kill_interval;
      while (std::chrono::steady_clock::now() < until) {
        if (stopping.load(std::memory_order_acquire)) return;
        std::this_thread::sleep_for(kPollInterval);
      }
      const std::size_t victim = rng.next() % workers.size();
      pid_t pid;
      {
        // Kill under the mutex so pid and the kill count stay coherent with
        // the monitor's respawn bookkeeping.
        std::lock_guard lock(mutex);
        pid = workers[victim]->pid;
        if (pid > 0) {
          ++stats.chaos_kills;
          ::kill(pid, SIGKILL);
        }
      }
      if (pid <= 0) continue;  // mid-respawn; try again next tick
      common::log_warn() << "Supervisor[chaos]: SIGKILLed worker " << victim
                         << " (pid " << pid << ")";
    }
  }

  [[nodiscard]] std::vector<std::string> worker_args(const Worker& worker) const {
    std::vector<std::string> args;
    args.reserve(spec.common_args.size() + 3);
    args.push_back(spec.binary);
    args.push_back("--unix");
    args.push_back(worker.socket_path);
    for (const auto& a : spec.common_args) args.push_back(a);
    return args;
  }

  common::Status spawn_and_wait(Worker& worker) {
    auto pid = spawn_process(worker_args(worker), worker.log_path);
    if (!pid.ok()) return pid.error();
    {
      std::lock_guard lock(mutex);
      worker.pid = pid.value();
      ++stats.spawns;
    }
    return wait_serving(worker.socket_path, kReadyTimeout);
  }

  void terminate(Worker& worker) {
    pid_t pid;
    {
      std::lock_guard lock(mutex);
      pid = worker.pid;
    }
    if (pid <= 0) return;
    ::kill(pid, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + kTermGrace;
    for (;;) {
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid || (r < 0 && errno == ECHILD)) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(kPollInterval);
    }
    std::lock_guard lock(mutex);
    worker.pid = -1;
  }

  void monitor_loop(Worker& worker) {
    for (;;) {
      if (stopping.load(std::memory_order_acquire)) return;

      pid_t pid;
      {
        std::lock_guard lock(mutex);
        pid = worker.pid;
      }
      if (pid > 0) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid) {
          // Exit the supervisor did not request — a crash (or a kill -9
          // from outside). Respawn; the balancer reconnects to the same
          // socket path on its own.
          {
            std::lock_guard lock(mutex);
            worker.pid = -1;
            ++stats.crashes;
          }
          common::log_warn() << "Supervisor: worker " << worker.socket_path
                             << " exited unexpectedly (status " << status << ")";
          if (!stopping.load(std::memory_order_acquire)) {
            if (auto st = spawn_and_wait(worker); !st.ok()) {
              common::log_error() << "Supervisor: respawn failed: "
                                  << st.error().to_string();
            }
          }
        }
      }
      std::this_thread::sleep_for(kPollInterval);
    }
  }
};

Supervisor::Supervisor() : impl_(std::make_unique<Impl>()) {}

common::Result<std::unique_ptr<Supervisor>> Supervisor::start(
    WorkerSpec spec, const SupervisorOptions& options) {
  if (options.workers == 0) {
    return common::invalid_argument("Supervisor: need at least one worker");
  }
  if (options.socket_dir.empty()) {
    return common::invalid_argument("Supervisor: socket_dir is required");
  }
  std::unique_ptr<Supervisor> supervisor(new Supervisor());
  supervisor->impl_->spec = std::move(spec);
  supervisor->impl_->options = options;

  for (std::size_t i = 0; i < options.workers; ++i) {
    auto worker = std::make_unique<Impl::Worker>();
    worker->socket_path =
        options.socket_dir + "/worker-" + std::to_string(i) + ".sock";
    worker->log_path = options.socket_dir + "/worker-" + std::to_string(i) + ".log";
    supervisor->impl_->workers.push_back(std::move(worker));
  }
  // Spawn everything first (the shared cache's per-model lock file lets
  // one of them train while the rest wait to load its copy), then wait: a
  // cold fleet starts in one training plus a load, not N trainings.
  for (auto& worker : supervisor->impl_->workers) {
    auto pid = spawn_process(supervisor->impl_->worker_args(*worker),
                             worker->log_path);
    if (!pid.ok()) {
      supervisor->stop();
      return pid.error();
    }
    std::lock_guard lock(supervisor->impl_->mutex);
    worker->pid = pid.value();
    ++supervisor->impl_->stats.spawns;
  }
  for (auto& worker : supervisor->impl_->workers) {
    if (auto st = wait_serving(worker->socket_path, kReadyTimeout);
        !st.ok()) {
      supervisor->stop();
      return st.error();
    }
  }
  for (auto& worker : supervisor->impl_->workers) {
    worker->monitor = std::thread(
        [impl = supervisor->impl_.get(), w = worker.get()] { impl->monitor_loop(*w); });
  }
  if (options.chaos_kill_interval.count() > 0) {
    supervisor->impl_->chaos =
        std::thread([impl = supervisor->impl_.get()] { impl->chaos_loop(); });
  }
  return supervisor;
}

std::vector<std::string> Supervisor::endpoints() const {
  std::vector<std::string> out;
  out.reserve(impl_->workers.size());
  for (const auto& worker : impl_->workers) out.push_back(worker->socket_path);
  return out;
}

std::vector<pid_t> Supervisor::pids() const {
  std::lock_guard lock(impl_->mutex);
  std::vector<pid_t> out;
  out.reserve(impl_->workers.size());
  for (const auto& worker : impl_->workers) out.push_back(worker->pid);
  return out;
}

Supervisor::Stats Supervisor::stats() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->stats;
}

void Supervisor::stop() {
  std::call_once(impl_->stop_once, [this] {
    impl_->stopping.store(true, std::memory_order_release);
    if (impl_->chaos.joinable()) impl_->chaos.join();
    for (auto& worker : impl_->workers) {
      if (worker->monitor.joinable()) worker->monitor.join();
    }
    for (auto& worker : impl_->workers) impl_->terminate(*worker);
  });
}

Supervisor::~Supervisor() {
  if (impl_ != nullptr) stop();
}

}  // namespace repro::fleet
