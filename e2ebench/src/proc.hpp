// Child processes and their counters, read from outside through /proc.
//
// Per-process CPU comes from /proc/<pid>/stat (utime + stime, all threads),
// thread count and peak RSS from /proc/<pid>/status, context switches from
// the status file of every thread under /proc/<pid>/task (a thread's
// switches leave with it, so short-lived threads are undercounted).
// Syscalls per request cannot be read from outside: /proc/<pid>/io counts
// syscr/syscw but misses socket recv/send, and no tracer is available; that
// count needs an in-program counter.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "repro_names.hpp"

namespace e2e {

struct ProcSample {
  bool ok = false;
  double cpu_s = 0.0;  // utime + stime
  double ctxsw = 0.0;  // voluntary + involuntary
  double threads = 0.0;
  double vm_hwm_mb = 0.0;
};

[[nodiscard]] ProcSample sample_proc(pid_t pid);

/// Sum of samples over several processes (ok only when every read was).
[[nodiscard]] ProcSample sample_procs(const std::vector<pid_t>& pids);

/// A spawned program in its own process group, stdout on a pipe, stderr in
/// a log file. stop() sends SIGTERM to the leader, waits for it, then
/// SIGKILLs whatever is left of the group and reaps; the destructor stops.
class Child {
 public:
  [[nodiscard]] static common::Result<Child> spawn(const std::vector<std::string>& argv,
                                                   const std::string& cwd,
                                                   const std::string& log_path);
  Child() = default;  // no process
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// Read stdout until a line starting with `prefix` arrives; returns that
  /// line. Every line read is kept in lines().
  [[nodiscard]] common::Result<std::string> wait_line(const std::string& prefix,
                                                      std::chrono::milliseconds timeout);
  [[nodiscard]] const std::vector<std::string>& lines() const noexcept { return lines_; }

  void stop();

 private:
  Child(pid_t pid, int out_fd) : pid_(pid), pgid_(pid), out_fd_(out_fd) {}
  void drain();

  pid_t pid_ = -1;   // the leader, until reaped
  pid_t pgid_ = -1;  // its process group, until swept
  int out_fd_ = -1;
  std::string partial_;
  std::vector<std::string> lines_;
};

/// Child pids named by repro_fleet's "WORKER <i> pid <pid> sock <path>" lines.
[[nodiscard]] std::vector<pid_t> worker_pids(const std::vector<std::string>& lines);

/// CPU seconds (user + system) this process has used so far.
[[nodiscard]] double self_cpu_s();

}  // namespace e2e
