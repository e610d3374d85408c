#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <utility>

#include "proc.hpp"
#include "stats.hpp"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// How long a phase waits for its last replies after it stops sending;
/// whatever is still outstanding then counts as failed (timed out).
constexpr double kDrainTimeoutUs = 5e6;

struct Pending {
  std::uint64_t id = 0;
  std::uint32_t item = 0;
  double due_us = 0.0;
};

common::Result<int> connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return common::invalid_argument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return common::io_error(std::string("socket: ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return common::unavailable("connect " + path + ": " + why);
  }
  return fd;
}

/// Blocking "hello" round trip on a fresh connection; the negotiated version.
common::Result<std::uint32_t> negotiate(int fd) {
  serve::WireRequest hello;
  hello.kind = serve::RequestKind::kHello;
  hello.max_protocol = serve::kProtocolVersion;
  std::string line;
  encode_request(false, hello, line);
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) != static_cast<ssize_t>(line.size())) {
    return common::io_error("hello: short write");
  }
  serve::MessageSplitter splitter;
  char buf[4096];
  for (;;) {
    auto message = splitter.next();
    if (!message.ok()) return message.error();
    if (message.value().has_value()) {
      auto reply = decode_reply(*message.value());
      if (!reply.ok()) return reply.error();
      return reply.value().protocol.value_or(0);
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return common::io_error("hello: connection closed");
    splitter.feed({buf, static_cast<std::size_t>(n)});
  }
}

}  // namespace

struct LoadGen::Conn {
  explicit Conn(int f) : fd(f) {}
  Conn(Conn&& o) noexcept
      : fd(std::exchange(o.fd, -1)),
        out(std::move(o.out)),
        out_pos(o.out_pos),
        splitter(std::move(o.splitter)),
        fifo(std::move(o.fifo)) {}
  Conn& operator=(Conn&&) = delete;
  Conn(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  int fd = -1;
  std::string out;  // encoded bytes not yet written
  std::size_t out_pos = 0;
  serve::MessageSplitter splitter{64u << 20};
  std::deque<Pending> fifo;  // replies arrive in request order per connection
};

LoadGen::LoadGen(std::vector<Conn> conns, bool binary)
    : conns_(std::move(conns)), binary_(binary) {}
LoadGen::LoadGen(LoadGen&&) noexcept = default;
LoadGen& LoadGen::operator=(LoadGen&&) noexcept = default;
LoadGen::~LoadGen() = default;

common::Result<LoadGen> LoadGen::connect(const std::string& path, std::size_t connections,
                                         bool binary) {
  std::vector<Conn> conns;
  for (std::size_t i = 0; i < connections; ++i) {
    auto fd = connect_unix(path);
    if (!fd.ok()) return fd.error();
    conns.emplace_back(fd.value());
    if (binary) {
      auto version = negotiate(fd.value());
      if (!version.ok()) return version.error();
      if (version.value() < 2) return common::unsupported("peer declined binary protocol 2");
    }
    ::fcntl(fd.value(), F_SETFL, ::fcntl(fd.value(), F_GETFL) | O_NONBLOCK);
  }
  return LoadGen(std::move(conns), binary);
}

common::Result<serve::WireResponse> decode_reply(const serve::WireMessage& message) {
  return message.binary ? serve::binary::parse_response(message.payload)
                        : serve::parse_response(message.payload);
}

void PhaseResult::absorb(PhaseResult block) {
  if (!block.latency_us.empty()) block_p50_us.push_back(summarize(block.latency_us).p50);
  sent += block.sent;
  correct += block.correct;
  failed += block.failed;
  within_slo += block.within_slo;
  latency_us.insert(latency_us.end(), block.latency_us.begin(), block.latency_us.end());
  lag_us.insert(lag_us.end(), block.lag_us.begin(), block.lag_us.end());
  max_outstanding = std::max(max_outstanding, block.max_outstanding);
  backlog_at_end = std::max(backlog_at_end, block.backlog_at_end);
  seconds += block.seconds;
  gen_cpu_s += block.gen_cpu_s;
  if (first_error.empty()) first_error = std::move(block.first_error);
}

bool PhaseResult::valid(std::string* why) const {
  const Summary lag = summarize(lag_us);
  std::string reason;
  if (lag.n > 0 && lag.tail > kMaxLagP99Us) {
    reason = "generator ran late (lag p99 " + std::to_string(lag.tail / 1000.0) + " ms)";
  } else if (backlog_at_end > kMaxBacklog) {
    reason = "backlog grew to " + std::to_string(backlog_at_end) + " outstanding";
  }
  if (why != nullptr) *why = reason;
  return reason.empty();
}

namespace {

/// One phase of the poll loop. Open loop when `due` is non-null, closed
/// loop (window per connection for `seconds`) otherwise.
class Phase {
 public:
  Phase(std::vector<LoadGen::Conn*> conns, bool binary, std::uint64_t& next_id, Pool& pool,
        const std::vector<core::Predictor::KernelPrediction>& refs,
        const std::vector<std::uint32_t>& items)
      : conns_(std::move(conns)),
        binary_(binary),
        next_id_(next_id),
        pool_(pool),
        refs_(refs),
        items_(items) {}

  PhaseResult run(const std::vector<double>* due, double seconds, std::size_t window,
                  bool trace, double slo_us);

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  }
  void send(LoadGen::Conn& c, std::uint32_t item, double due_us);
  void flush(LoadGen::Conn& c);
  void receive(LoadGen::Conn& c);
  void fail_conn(LoadGen::Conn& c, const std::string& why);
  void record_failure(const std::string& why) {
    ++r_.failed;
    if (r_.first_error.empty()) r_.first_error = why;
  }

  std::vector<LoadGen::Conn*> conns_;
  bool binary_;
  std::uint64_t& next_id_;
  Pool& pool_;
  const std::vector<core::Predictor::KernelPrediction>& refs_;
  const std::vector<std::uint32_t>& items_;

  PhaseResult r_;
  Clock::time_point t0_;
  bool trace_ = false;
  bool closed_loop_ = false;
  bool sending_ = true;
  double slo_us_ = 0.0;
  std::size_t cursor_ = 0;  // closed loop: next index into items_
  std::size_t outstanding_ = 0;
};

void Phase::send(LoadGen::Conn& c, std::uint32_t item, double due_us) {
  ++r_.sent;
  if (c.fd < 0) {
    record_failure("connection lost");
    return;
  }
  serve::WireRequest& request = pool_.items[item].request;
  request.id = next_id_++;
  request.trace = trace_ ? std::optional<std::uint64_t>(request.id) : std::nullopt;
  encode_request(binary_, request, c.out);
  c.fifo.push_back({request.id, item, due_us});
  r_.max_outstanding = std::max(r_.max_outstanding, ++outstanding_);
}

void Phase::fail_conn(LoadGen::Conn& c, const std::string& why) {
  for (std::size_t i = 0; i < c.fifo.size(); ++i) record_failure(why);
  outstanding_ -= c.fifo.size();
  c.fifo.clear();
  ::close(c.fd);
  c.fd = -1;
}

void Phase::flush(LoadGen::Conn& c) {
  while (c.fd >= 0 && c.out_pos < c.out.size()) {
    const ssize_t n =
        ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      fail_conn(c, std::string("send: ") + std::strerror(errno));
      return;
    }
  }
  c.out.clear();
  c.out_pos = 0;
}

void Phase::receive(LoadGen::Conn& c) {
  static thread_local std::string buf(256 * 1024, '\0');
  while (c.fd >= 0) {
    const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      fail_conn(c, "connection closed by peer");
      return;
    }
    c.splitter.feed({buf.data(), static_cast<std::size_t>(n)});
    for (;;) {
      auto message = c.splitter.next();
      if (!message.ok()) {
        fail_conn(c, "framing: " + message.error().to_string());
        return;
      }
      if (!message.value().has_value()) break;
      const double t = now_us();
      if (c.fifo.empty()) {
        record_failure("unsolicited reply");
        continue;
      }
      const Pending p = c.fifo.front();
      c.fifo.pop_front();
      --outstanding_;
      auto reply = decode_reply(*message.value());
      if (!reply.ok()) {
        record_failure("undecodable reply: " + reply.error().to_string());
      } else if (reply.value().id != p.id) {
        record_failure("reply id out of order");
      } else if (reply.value().error.has_value()) {
        record_failure(reply.value().error->to_string());
      } else if (!reply.value().prediction.has_value() ||
                 !identical(*reply.value().prediction, refs_[p.item])) {
        record_failure("reply differs from the reference prediction");
      } else {
        ++r_.correct;
        const double latency = t - p.due_us;
        r_.latency_us.push_back(latency);
        r_.done_s.push_back(t / 1e6);
        if (latency <= slo_us_) ++r_.within_slo;
      }
      if (closed_loop_ && sending_) {
        send(c, items_[cursor_++ % items_.size()], now_us());
      }
    }
  }
}

/// For the life of a phase, the generator thread runs SCHED_FIFO where the
/// system allows it: a saturated server then cannot keep it off the CPU
/// when a send falls due (it sleeps between sends, so it never hogs one).
class RealtimeScope {
 public:
  RealtimeScope() {
    sched_param param{};
    param.sched_priority = 1;
    active_ = ::pthread_setschedparam(::pthread_self(), SCHED_FIFO, &param) == 0;
  }
  ~RealtimeScope() {
    if (active_) {
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_OTHER, &param);
    }
  }
  RealtimeScope(const RealtimeScope&) = delete;
  RealtimeScope& operator=(const RealtimeScope&) = delete;

 private:
  bool active_ = false;
};

PhaseResult Phase::run(const std::vector<double>* due, double seconds, std::size_t window,
                       bool trace, double slo_us) {
  const RealtimeScope realtime;
  trace_ = trace;
  slo_us_ = slo_us;
  closed_loop_ = due == nullptr;
  const double cpu0 = self_cpu_s();
  t0_ = Clock::now();
  if (due != nullptr) r_.lag_us.reserve(due->size());
  if (closed_loop_) {
    for (std::size_t w = 0; w < window; ++w) {
      for (auto* c : conns_) send(*c, items_[cursor_++ % items_.size()], now_us());
    }
  }
  const std::size_t n = conns_.size();
  std::size_t next = 0;  // open loop: next scheduled request
  double end_us = 0.0;
  std::vector<pollfd> fds(n);
  for (;;) {
    double now = now_us();
    if (!closed_loop_) {
      for (; next < due->size() && (*due)[next] <= now; ++next) {
        send(*conns_[next % n], items_[next], (*due)[next]);
        r_.lag_us.push_back(now - (*due)[next]);
      }
      if (sending_ && next == due->size()) {
        sending_ = false;
        r_.backlog_at_end = outstanding_;
        end_us = now;
      }
    } else if (sending_ && now >= seconds * 1e6) {
      sending_ = false;
      end_us = now;
    }
    for (auto* c : conns_) flush(*c);
    if (!sending_ && outstanding_ == 0) break;
    if (!sending_ && now > end_us + kDrainTimeoutUs) {
      for (auto* c : conns_) {
        if (!c->fifo.empty()) fail_conn(*c, "timed out waiting for a reply");
      }
      break;
    }

    double wait_us = 0.0;
    if (sending_) {
      wait_us = closed_loop_ ? seconds * 1e6 - now : (*due)[next] - now;
    } else {
      wait_us = end_us + kDrainTimeoutUs - now;
    }
    wait_us = std::clamp(wait_us, 0.0, 100000.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto* c = conns_[i];
      fds[i].fd = c->fd;  // a negative fd is ignored by ppoll
      fds[i].events = static_cast<short>(POLLIN | (c->out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_us / 1e6),
                static_cast<long>(std::fmod(wait_us, 1e6) * 1000.0)};
    if (::ppoll(fds.data(), n, &ts, nullptr) > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) receive(*conns_[i]);
      }
    }
  }
  r_.seconds = closed_loop_ ? seconds : end_us / 1e6;
  r_.gen_cpu_s = self_cpu_s() - cpu0;
  return std::move(r_);
}

}  // namespace

PhaseResult LoadGen::open_loop(Pool& pool,
                               const std::vector<core::Predictor::KernelPrediction>& refs,
                               const std::vector<std::uint32_t>& items,
                               const std::vector<double>& due_us, bool trace, double slo_us) {
  std::vector<Conn*> conns;
  for (auto& c : conns_) conns.push_back(&c);
  return Phase(std::move(conns), binary_, next_id_, pool, refs, items)
      .run(&due_us, 0.0, 0, trace, slo_us);
}

PhaseResult LoadGen::closed_loop(Pool& pool,
                                 const std::vector<core::Predictor::KernelPrediction>& refs,
                                 const std::vector<std::uint32_t>& items, double seconds,
                                 std::size_t window) {
  std::vector<Conn*> conns;
  for (auto& c : conns_) conns.push_back(&c);
  return Phase(std::move(conns), binary_, next_id_, pool, refs, items)
      .run(nullptr, seconds, window, false, 0.0);
}

}  // namespace e2e
