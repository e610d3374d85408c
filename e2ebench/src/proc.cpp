#include "proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

namespace e2e {

ProcSample sample_proc(pid_t pid) {
  ProcSample s;
  const std::string dir = "/proc/" + std::to_string(pid);
  std::ifstream stat(dir + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return s;
  // The command name may hold spaces; fields resume after its closing ')'.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return s;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; fields >> field; ++i) {  // field 3 is the state
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) {
      stime = std::strtod(field.c_str(), nullptr);
      break;
    }
  }
  s.cpu_s = (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));

  // Threads and VmHWM are per process; context switches are per thread.
  const auto read_status = [&](const std::string& path, bool whole_process) {
    std::ifstream status(path);
    std::string row;
    while (std::getline(status, row)) {
      const auto colon = row.find(':');
      if (colon == std::string::npos) continue;
      const std::string key = row.substr(0, colon);
      const double value = std::strtod(row.c_str() + colon + 1, nullptr);
      if (whole_process && key == "Threads") s.threads = value;
      if (whole_process && key == "VmHWM") s.vm_hwm_mb = value / 1024.0;
      if (!whole_process &&
          (key == "voluntary_ctxt_switches" || key == "nonvoluntary_ctxt_switches")) {
        s.ctxsw += value;
      }
    }
  };
  read_status(dir + "/status", true);
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(dir + "/task", ec)) {
    read_status(task.path().string() + "/status", false);
  }
  s.ok = s.threads > 0;
  return s;
}

ProcSample sample_procs(const std::vector<pid_t>& pids) {
  ProcSample total;
  total.ok = !pids.empty();
  for (pid_t pid : pids) {
    const ProcSample s = sample_proc(pid);
    total.ok = total.ok && s.ok;
    total.cpu_s += s.cpu_s;
    total.ctxsw += s.ctxsw;
    total.threads += s.threads;
    total.vm_hwm_mb += s.vm_hwm_mb;
  }
  return total;
}

common::Result<Child> Child::spawn(const std::vector<std::string>& argv, const std::string& cwd,
                                   const std::string& log_path) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return common::internal_error(std::string("pipe: ") + std::strerror(errno));
  }
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return common::internal_error("cannot open " + log_path);
  }
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();

  const pid_t pid = ::fork();
  if (pid == 0) {
    // Async-signal-safe calls only between fork and exec.
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    if (::chdir(cwd.c_str()) != 0) ::_exit(127);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  ::close(log_fd);
  if (pid < 0) {
    ::close(pipe_fds[0]);
    return common::internal_error(std::string("fork: ") + std::strerror(errno));
  }
  ::setpgid(pid, pid);  // also from the parent, so the group exists before any kill
  return Child(pid, pipe_fds[0]);
}

Child::Child(Child&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      pgid_(std::exchange(other.pgid_, -1)),
      out_fd_(std::exchange(other.out_fd_, -1)),
      partial_(std::move(other.partial_)),
      lines_(std::move(other.lines_)) {}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    stop();
    pid_ = std::exchange(other.pid_, -1);
    pgid_ = std::exchange(other.pgid_, -1);
    out_fd_ = std::exchange(other.out_fd_, -1);
    partial_ = std::move(other.partial_);
    lines_ = std::move(other.lines_);
  }
  return *this;
}

Child::~Child() { stop(); }

void Child::drain() {
  char buf[4096];
  for (;;) {
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 0) <= 0) return;
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) return;
    partial_.append(buf, static_cast<std::size_t>(n));
    for (auto nl = partial_.find('\n'); nl != std::string::npos; nl = partial_.find('\n')) {
      lines_.push_back(partial_.substr(0, nl));
      partial_.erase(0, nl + 1);
    }
  }
}

common::Result<std::string> Child::wait_line(const std::string& prefix,
                                             std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::size_t seen = 0;
  while (true) {
    drain();
    for (; seen < lines_.size(); ++seen) {
      if (lines_[seen].rfind(prefix, 0) == 0) return lines_[seen];
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return common::unavailable("timed out waiting for " + prefix);
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;  // reaped; stop() still sweeps the group
      return common::unavailable("child exited before " + prefix);
    }
    pollfd p{out_fd_, POLLIN, 0};
    ::poll(&p, 1, static_cast<int>(std::min<long>(left.count(), 1)));
  }
}

void Child::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      if (out_fd_ >= 0) drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }
  if (pgid_ > 0) {
    // Anything left in the group (a worker whose parent was killed) goes too.
    ::kill(-pgid_, SIGKILL);
    pgid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

std::vector<pid_t> worker_pids(const std::vector<std::string>& lines) {
  std::vector<pid_t> pids;
  for (const auto& line : lines) {
    std::istringstream in(line);
    std::string tag;
    std::string pid_word;
    std::size_t index = 0;
    long pid = 0;
    if (in >> tag >> index >> pid_word >> pid && tag == "WORKER" && pid_word == "pid") {
      pids.push_back(static_cast<pid_t>(pid));
    }
  }
  return pids;
}

double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace e2e
