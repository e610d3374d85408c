#include "serve/connection.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.hpp"

namespace repro::serve {

namespace {

common::Error errno_error(const std::string& what) {
  return common::io_error(what + ": " + std::strerror(errno));
}

}  // namespace

common::Result<std::unique_ptr<Listener>> Listener::start(std::string name,
                                                          const std::string& unix_path,
                                                          int tcp_port, ServeFn serve) {
  std::unique_ptr<Listener> listener(new Listener());
  int fd = -1;
  if (!unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_path.size() >= sizeof(addr.sun_path)) {
      return common::invalid_argument(name + ": unix path too long: " + unix_path);
    }
    std::strncpy(addr.sun_path, unix_path.c_str(), sizeof(addr.sun_path) - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return errno_error(name + ": socket(AF_UNIX)");
    ::unlink(unix_path.c_str());  // stale socket from a previous run
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      auto err = errno_error(name + ": bind(" + unix_path + ")");
      ::close(fd);
      return err;
    }
    listener->unix_path_ = unix_path;
  } else if (tcp_port >= 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return errno_error(name + ": socket(AF_INET)");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(tcp_port));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      auto err = errno_error(name + ": bind(127.0.0.1:" + std::to_string(tcp_port) + ")");
      ::close(fd);
      return err;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      auto err = errno_error(name + ": getsockname");
      ::close(fd);
      return err;
    }
    listener->tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    return common::invalid_argument(name + ": configure either unix_path or tcp_port");
  }

  if (::listen(fd, 64) != 0) {
    auto err = errno_error(name + ": listen");
    ::close(fd);
    return err;
  }
  listener->listen_fd_ = fd;
  listener->name_ = std::move(name);
  listener->serve_ = std::move(serve);
  listener->acceptor_ = std::thread([raw = listener.get()] { raw->accept_loop(); });
  return listener;
}

void Listener::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;  // logging below must not clobber it
      if (err == EINTR) continue;
      // stop_accepting() shut the listener down (EBADF/EINVAL) — or a
      // transient accept failure while stopping; only exit when told to.
      if (stopping_.load(std::memory_order_acquire)) return;
      if (err == ECONNABORTED || err == EMFILE || err == ENFILE) {
        common::log_warn() << name_ << ": accept: " << std::strerror(err);
        if (err != ECONNABORTED) {
          // fd exhaustion: nothing in this loop frees descriptors (reaping
          // happens in connection epilogues), so back off instead of
          // busy-spinning and flooding the log until a client disconnects.
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        continue;
      }
      // Unexpected and unhandled: stop accepting, and say so loudly instead
      // of dying silently while the process looks healthy.
      common::log_error() << name_ << ": accept failed permanently: "
                          << std::strerror(err) << "; no longer accepting";
      return;
    }
    std::lock_guard lock(conn_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    // Reap exited connections first so a long-lived listener does not
    // accumulate one dead (joinable) thread per past connection.
    reap_finished_locked();
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    conns_.push_back(std::move(conn));
    try {
      raw->thread = std::thread([this, raw] {
        serve_(raw->fd);
        // Signal EOF to the peer now: the fd itself is closed only after a
        // join, and without this a pipelining client that half-closes and
        // reads to EOF would hang until the next accept reaps it.
        ::shutdown(raw->fd, SHUT_RDWR);
        // Reap siblings before raising our own done flag: entries with done
        // set are past this epilogue and hold no locks, so joining them
        // under conn_mutex_ cannot deadlock — and an idle listener retains
        // at most this one exited connection.
        {
          std::lock_guard lock(conn_mutex_);
          reap_finished_locked();
        }
        raw->done.store(true, std::memory_order_release);
      });
    } catch (const std::system_error& e) {
      // No thread to spare: refuse this connection, keep serving the rest.
      conns_.pop_back();
      ::close(fd);
      common::log_warn() << name_ << ": cannot start a connection thread (" << e.what()
                         << "); connection closed";
    }
  }
}

void Listener::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Listener::stop_accepting() {
  std::call_once(stop_accepting_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    // shutdown() unblocks a blocked accept(); the close comes after the
    // acceptor is joined, so the descriptor number cannot be recycled while
    // the accept loop might still touch it.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  });
}

void Listener::close_connections() {
  std::call_once(close_once_, [this] {
    // The acceptor is gone, so this thread now owns the connection list.
    // Every fd in it is still open (fds close only at join time):
    // shutdown() unblocks each connection's read(), then join and close.
    std::list<std::unique_ptr<Conn>> conns;
    {
      std::lock_guard lock(conn_mutex_);
      conns.swap(conns_);
    }
    for (auto& conn : conns) ::shutdown(conn->fd, SHUT_RDWR);
    for (auto& conn : conns) {
      if (conn->thread.joinable()) conn->thread.join();
      ::close(conn->fd);
    }
    if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  });
}

Listener::~Listener() {
  stop_accepting();
  close_connections();
}

namespace detail {

void encode_reply(std::string& out, bool binary, std::uint64_t id,
                  const ReplyView& reply, const obs::Trace* trace) {
  if (binary) {
    if (reply.prediction != nullptr) {
      binary::format_prediction_frame_into(out, id, *reply.prediction, trace);
    } else {
      binary::format_error_frame_into(out, id, *reply.error, trace);
    }
    return;
  }
  if (reply.prediction != nullptr) {
    format_response_into(out, id, *reply.prediction, trace);
  } else {
    format_error_into(out, id, *reply.error, trace);
  }
}

void encode_immediate(std::string& out, bool binary, std::uint64_t id,
                      const Immediate& reply) {
  if (const auto* hello = std::get_if<Hello>(&reply)) {
    if (binary) {
      binary::format_hello_frame_into(out, id, hello->protocol);
    } else {
      format_hello_response_into(out, id, hello->protocol);
    }
  } else if (const auto* health = std::get_if<WireHealth>(&reply)) {
    if (binary) {
      binary::format_health_frame_into(out, id, *health);
    } else {
      format_health_response_into(out, id, *health);
    }
  } else if (const auto* metrics = std::get_if<WireMetrics>(&reply)) {
    if (binary) {
      binary::format_metrics_frame_into(out, id, *metrics);
    } else {
      format_metrics_response_into(out, id, *metrics);
    }
  } else {
    encode_reply(out, binary, id, ReplyView{nullptr, &std::get<common::Error>(reply)},
                 nullptr);
  }
}

bool write_reply(int fd, std::string_view bytes, std::chrono::milliseconds timeout) {
  if (common::net::write_all(fd, bytes, timeout).status == common::net::IoStatus::kOk) {
    return true;
  }
  // The peer is gone: unblock the reader's read() so the connection tears
  // down promptly instead of at the next request.
  ::shutdown(fd, SHUT_RD);
  return false;
}

void log_no_writer(const std::string& name, const std::system_error& error) {
  common::log_warn() << name << ": cannot start a reply writer (" << error.what()
                     << "); connection closed";
}

}  // namespace detail

}  // namespace repro::serve
