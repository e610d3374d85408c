#include "serve/client.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <thread>
#include <utility>

#include "common/fault.hpp"
#include "common/net.hpp"
#include "serve/protocol.hpp"

namespace repro::serve {

namespace {

/// Cap of the connect backoff's doubling delay.
constexpr std::chrono::milliseconds kMaxBackoff{1000};

common::Error errno_error(const std::string& what) {
  return common::io_error(what + ": " + std::strerror(errno));
}

/// Connect failures worth retrying: the server process exists but has not
/// bound/listened yet, or is between restarts. Anything else (bad address,
/// permissions) will not heal with time.
bool connect_errno_is_transient(int err) {
  return err == ECONNREFUSED || err == ENOENT || err == ECONNRESET ||
         err == ETIMEDOUT || err == EAGAIN || err == EINTR;
}

/// One connect attempt per iteration, sleeping the (doubling, capped)
/// backoff between attempts. `try_connect` returns the connected fd or -1
/// with errno set.
template <typename TryConnect>
common::Result<int> connect_with_backoff(const ConnectOptions& options,
                                         const std::string& what,
                                         TryConnect&& try_connect) {
  const int attempts = options.attempts < 1 ? 1 : options.attempts;
  auto backoff = options.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    if (common::FaultInjector::enabled() &&
        common::FaultInjector::drop_connect()) {
      errno = ECONNREFUSED;  // injected: peer "not up" — retried via backoff
    } else {
      errno = 0;
    }
    const int fd = errno == ECONNREFUSED ? -1 : try_connect();
    if (fd >= 0) return fd;
    const int err = errno;
    if (attempt >= attempts || !connect_errno_is_transient(err)) {
      errno = err;
      return errno_error(what + " (attempt " + std::to_string(attempt) + "/" +
                         std::to_string(attempts) + ")");
    }
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, kMaxBackoff);
  }
}

}  // namespace

common::Result<SocketClient> SocketClient::connect_unix(const std::string& path,
                                                        const ConnectOptions& options) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return common::invalid_argument("SocketClient: unix path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  auto fd = connect_with_backoff(
      options, "SocketClient: connect(" + path + ")", [&]() -> int {
        const int s = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (s < 0) return -1;
        if (::connect(s, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
          const int err = errno;
          ::close(s);
          errno = err;
          return -1;
        }
        return s;
      });
  if (!fd.ok()) return fd.error();
  return SocketClient(fd.value(), options.io_timeout);
}

common::Result<SocketClient> SocketClient::connect_tcp(int port,
                                                       const ConnectOptions& options) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  auto fd = connect_with_backoff(
      options, "SocketClient: connect(127.0.0.1:" + std::to_string(port) + ")",
      [&]() -> int {
        const int s = ::socket(AF_INET, SOCK_STREAM, 0);
        if (s < 0) return -1;
        if (::connect(s, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
          const int err = errno;
          ::close(s);
          errno = err;
          return -1;
        }
        return s;
      });
  if (!fd.ok()) return fd.error();
  return SocketClient(fd.value(), options.io_timeout);
}

SocketClient::SocketClient(SocketClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      io_timeout_(other.io_timeout_),
      deadline_ms_(other.deadline_ms_),
      next_id_(other.next_id_),
      binary_(other.binary_),
      trace_enabled_(other.trace_enabled_),
      last_trace_(std::move(other.last_trace_)),
      splitter_(std::move(other.splitter_)),
      send_buf_(std::move(other.send_buf_)),
      scratch_request_(std::move(other.scratch_request_)) {}

SocketClient& SocketClient::operator=(SocketClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    io_timeout_ = other.io_timeout_;
    deadline_ms_ = other.deadline_ms_;
    next_id_ = other.next_id_;
    binary_ = other.binary_;
    trace_enabled_ = other.trace_enabled_;
    last_trace_ = std::move(other.last_trace_);
    splitter_ = std::move(other.splitter_);
    send_buf_ = std::move(other.send_buf_);
    scratch_request_ = std::move(other.scratch_request_);
  }
  return *this;
}

SocketClient::~SocketClient() {
  if (fd_ >= 0) ::close(fd_);
}

common::Result<core::Predictor::KernelPrediction> SocketClient::predict(
    const std::string& kernel, const std::array<double, clfront::kNumFeatures>& counts) {
  WireRequest request;
  request.id = next_id_++;
  request.kernel = kernel;
  request.features = counts;
  request.deadline_ms = deadline_ms_;
  maybe_trace(request);
  return round_trip(request);
}

common::Result<core::Predictor::KernelPrediction> SocketClient::predict(
    const clfront::StaticFeatures& features) {
  return predict(features.kernel_name, features.counts);
}

common::Result<core::Predictor::KernelPrediction> SocketClient::predict_source(
    const std::string& opencl_source, const std::string& kernel_name) {
  WireRequest request;
  request.id = next_id_++;
  request.kind = RequestKind::kPredictSource;
  request.kernel = kernel_name;
  request.source = opencl_source;
  request.deadline_ms = deadline_ms_;
  maybe_trace(request);
  return round_trip(request);
}

common::Result<core::Predictor::KernelPrediction> SocketClient::predict_source_stream(
    const ChunkProvider& next_chunk, const std::string& kernel_name) {
  if (!binary_) {
    return common::invalid_argument(
        "SocketClient: predict_source_stream needs a negotiated binary connection");
  }
  const std::uint64_t id = next_id_++;
  binary::SourceBegin begin;
  begin.id = id;
  begin.kernel = kernel_name;
  begin.deadline_ms = deadline_ms_;
  if (auto st = send_raw(binary::format_source_begin(begin)); !st.ok()) {
    return st.error();
  }
  // Re-split provider chunks so one frame never exceeds a size every
  // reasonable server-side frame bound accepts — the provider's chunking is
  // a caller convenience, not the wire's.
  constexpr std::size_t kMaxChunkFrame = 64u << 10;
  while (auto chunk = next_chunk()) {
    std::string_view rest(*chunk);
    while (!rest.empty()) {
      const std::size_t take = std::min(rest.size(), kMaxChunkFrame);
      if (auto st = send_raw(binary::format_source_chunk(id, rest.substr(0, take)));
          !st.ok()) {
        return st.error();
      }
      rest.remove_prefix(take);
    }
  }
  if (auto st = send_raw(binary::format_source_end(id)); !st.ok()) {
    return st.error();
  }
  return read_response(id);
}

common::Result<std::uint32_t> SocketClient::negotiate_binary() {
  WireRequest request;
  request.id = next_id_++;
  request.kind = RequestKind::kHello;
  request.max_protocol = kProtocolVersion;
  // The offer goes as a JSON line: nothing else is negotiated yet.
  if (auto st = send_line(format_request(request)); !st.ok()) return st.error();
  auto response = read_wire(request.id);
  if (!response.ok()) return response.error();
  if (response.value().error.has_value()) return *response.value().error;
  if (!response.value().protocol.has_value()) {
    return common::parse_error("SocketClient: expected a hello response");
  }
  if (*response.value().protocol != kProtocolVersion) {
    return common::unsupported("SocketClient: peer offers protocol " +
                               std::to_string(*response.value().protocol) +
                               ", this build speaks " +
                               std::to_string(kProtocolVersion));
  }
  binary_ = true;
  return kProtocolVersion;
}

std::vector<common::Result<core::Predictor::KernelPrediction>>
SocketClient::predict_source_many(
    const std::vector<core::Predictor::SourceRequest>& sources) {
  // Keep at most this many requests outstanding (written, response not yet
  // read). A client that writes an unbounded burst before reading deadlocks
  // against the server's own pipelining window once both directions' socket
  // buffers fill: the server's writer blocks on us, its reader stops at
  // max_inflight, and our send_line blocks on the server — forever. Staying
  // below the server's default window (64) keeps the pipeline moving.
  constexpr std::size_t kMaxOutstanding = 32;

  std::vector<common::Result<core::Predictor::KernelPrediction>> out;
  out.reserve(sources.size());
  const std::uint64_t first_id = next_id_;
  // Interleaved pipelining: write ahead of the responses (the server
  // decodes request N+1 while N's batch is in flight), draining the oldest
  // response whenever the window is full. Responses arrive in request
  // order, so slot k always reads id first_id + k. A write failure fails
  // the remaining slots but the responses already owed are still read.
  std::size_t sent = 0;
  std::size_t read = 0;
  common::Status send_status = common::Status::Ok();
  for (const auto& source : sources) {
    if (sent - read >= kMaxOutstanding) {
      out.push_back(read_response(first_id + read));
      ++read;
    }
    // Reuse one scratch request across the pipeline: its kernel/source
    // strings keep their capacity, so the steady state of a burst encodes
    // without reallocating per request.
    WireRequest& request = scratch_request_;
    request.id = next_id_++;
    request.kind = RequestKind::kPredictSource;
    request.kernel = source.kernel;
    request.features.reset();
    if (request.source.has_value()) {
      *request.source = source.source;  // copy-assign reuses capacity
    } else {
      request.source = source.source;
    }
    request.deadline_ms = deadline_ms_;
    request.trace.reset();
    maybe_trace(request);
    send_status = send_request(request);
    if (!send_status.ok()) break;
    ++sent;
  }
  for (; read < sent; ++read) {
    out.push_back(read_response(first_id + read));
  }
  for (std::size_t i = sent; i < sources.size(); ++i) {
    out.push_back(send_status.error());
  }
  return out;
}

common::Status SocketClient::send_raw(std::string_view bytes) {
  if (fd_ < 0) return common::io_error("SocketClient: not connected");
  const auto result = common::net::write_all(fd_, bytes, io_timeout_);
  switch (result.status) {
    case common::net::IoStatus::kOk:
      return common::Status::Ok();
    case common::net::IoStatus::kTimeout:
      // Retryable: the peer is wedged, not wrong — a retry elsewhere (or
      // later) can succeed.
      return common::unavailable("SocketClient: write timed out");
    default:
      errno = result.err;
      return errno_error("SocketClient: write");
  }
}

common::Status SocketClient::send_line(std::string_view line) {
  send_buf_.assign(line);
  send_buf_.push_back('\n');
  return send_raw(send_buf_);
}

common::Status SocketClient::send_request(const WireRequest& request) {
  // Encode into the reused buffer: the steady state of a pipelined burst
  // sends without touching the heap (both framings).
  send_buf_.clear();
  if (binary_) {
    binary::format_request_frame_into(send_buf_, request);
  } else {
    format_request_into(send_buf_, request);
    send_buf_.push_back('\n');
  }
  return send_raw(send_buf_);
}

common::Result<WireResponse> SocketClient::read_wire(std::uint64_t expect_id) {
  if (fd_ < 0) return common::io_error("SocketClient: not connected");
  for (;;) {
    auto next = splitter_.next();
    if (!next.ok()) return next.error();
    if (next.value().has_value()) {
      const WireMessage& message = *next.value();
      common::Result<WireResponse> response = [&]() -> common::Result<WireResponse> {
        if (!message.binary) return parse_response(message.payload);
        if (message.frame != binary::FrameType::kResponse) {
          return common::parse_error("SocketClient: unexpected frame from server");
        }
        return binary::parse_response(message.payload);
      }();
      if (!response.ok()) return response.error();
      if (response.value().id != expect_id) {
        return common::internal_error(
            "SocketClient: response id " + std::to_string(response.value().id) +
            " does not match request id " + std::to_string(expect_id));
      }
      last_trace_ = response.value().trace;
      return response;
    }
    char chunk[4096];
    const auto r = common::net::read_some(fd_, chunk, sizeof chunk, io_timeout_);
    if (r.status == common::net::IoStatus::kTimeout) {
      return common::unavailable("SocketClient: read timed out");
    }
    if (r.status == common::net::IoStatus::kError) {
      errno = r.err;
      return errno_error("SocketClient: read");
    }
    if (r.status == common::net::IoStatus::kEof) {
      return common::io_error("SocketClient: server closed the connection");
    }
    splitter_.feed(std::string_view(chunk, r.bytes));
  }
}

common::Result<core::Predictor::KernelPrediction> SocketClient::read_response(
    std::uint64_t expect_id) {
  auto response = read_wire(expect_id);
  if (!response.ok()) return response.error();
  if (response.value().error.has_value()) return *response.value().error;
  if (!response.value().prediction.has_value()) {
    return common::parse_error("SocketClient: expected a prediction response");
  }
  return std::move(*response.value().prediction);
}

common::Result<WireHealth> SocketClient::health() {
  WireRequest request;
  request.id = next_id_++;
  request.kind = RequestKind::kHealth;
  if (auto st = send_request(request); !st.ok()) return st.error();
  auto response = read_wire(request.id);
  if (!response.ok()) return response.error();
  if (response.value().error.has_value()) return *response.value().error;
  if (!response.value().health.has_value()) {
    return common::parse_error("SocketClient: expected a health response");
  }
  return *response.value().health;
}

common::Result<WireMetrics> SocketClient::metrics() {
  WireRequest request;
  request.id = next_id_++;
  request.kind = RequestKind::kMetrics;
  if (auto st = send_request(request); !st.ok()) return st.error();
  auto response = read_wire(request.id);
  if (!response.ok()) return response.error();
  if (response.value().error.has_value()) return *response.value().error;
  if (!response.value().metrics.has_value()) {
    return common::parse_error("SocketClient: expected a metrics response");
  }
  return std::move(*response.value().metrics);
}

void SocketClient::maybe_trace(WireRequest& request) {
  if (trace_enabled_) request.trace = request.id;
}

common::Result<core::Predictor::KernelPrediction> SocketClient::round_trip(
    const WireRequest& request) {
  if (auto st = send_request(request); !st.ok()) return st.error();
  return read_response(request.id);
}

}  // namespace repro::serve
