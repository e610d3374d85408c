// The connection core of both socket front ends: serve::SocketServer (one
// worker, in front of a serve::Service) and fleet::Balancer (the fleet
// front, in front of N workers). Both speak one wire protocol byte for
// byte, so everything that speaks it lives here once:
//
//   Listener          binds a Unix path or a 127.0.0.1 TCP port, accepts on
//                     one thread and serves each connection on a thread of
//                     its own; stop comes in two steps (stop accepting, then
//                     close connections) so an owner can act in between.
//   serve_connection  one connection's reader — MessageSplitter, parse
//                     arena, framing faults, parse errors, hello, health and
//                     metrics, chunk-stream ids and their open-stream bound —
//                     plus its in-order writer thread, which encodes every
//                     reply in its request's framing into one pooled buffer.
//
// Connections are pipelined: the reader decodes and submits request N+1
// while N is still in flight (up to max_inflight queued replies), and the
// writer sends replies strictly in request order. A client that streams
// requests without reading blocks its own reader at the window, never the
// process.
//
// What differs between the two front ends is a small owner type (the
// ConnectionOwner concept below): its health and metrics values, where a
// predict request goes, how a chunk stream is opened, fed, finished and
// aborted, and how its response becomes a prediction or an error. The core
// is a template over the owner, so a request costs no std::function and no
// type-erased reply.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>

#include "common/arena.hpp"
#include "common/buffer_pool.hpp"
#include "common/net.hpp"
#include "common/queue.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace repro::serve {

/// One accepting socket and the threads of its connections.
class Listener {
 public:
  /// Runs one accepted connection to its end, on that connection's thread.
  using ServeFn = std::function<void(int fd)>;

  /// Bind `unix_path` (when non-empty, replacing a stale socket file) or
  /// 127.0.0.1:`tcp_port` (0 = an ephemeral port, see tcp_port()), listen,
  /// and start accepting. `name` prefixes every error and log line.
  [[nodiscard]] static common::Result<std::unique_ptr<Listener>> start(
      std::string name, const std::string& unix_path, int tcp_port, ServeFn serve);

  /// stop_accepting() then close_connections().
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Close the listening socket and join the acceptor; open connections
  /// keep running. Idempotent.
  void stop_accepting();
  /// shutdown() every open connection, join its thread, then close its fd,
  /// and remove the Unix socket file. Call after stop_accepting().
  /// Idempotent.
  void close_connections();

  /// The TCP port actually bound; -1 for a Unix socket.
  [[nodiscard]] int tcp_port() const noexcept { return tcp_port_; }
  /// The Unix socket path; empty for TCP.
  [[nodiscard]] const std::string& unix_path() const noexcept { return unix_path_; }

 private:
  Listener() = default;
  void accept_loop();
  void reap_finished_locked();

  /// One per accepted connection. The fd is closed only after the thread
  /// is joined (by a reap sweep or by close_connections), so a shutdown()
  /// on it can never hit a recycled descriptor.
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  std::string name_;
  ServeFn serve_;
  int listen_fd_ = -1;
  int tcp_port_ = -1;
  std::string unix_path_;
  std::mutex conn_mutex_;
  std::list<std::unique_ptr<Conn>> conns_;  // guarded by conn_mutex_
  std::atomic<bool> stopping_{false};
  std::once_flag stop_accepting_once_;
  std::once_flag close_once_;
  std::thread acceptor_;
};

/// What one connection needs from its owner's options and registry.
struct ConnectionOptions {
  /// Prefix of the connection's log lines ("SocketServer", "Balancer").
  std::string name;
  /// Bound on one JSON line or binary frame payload; beyond it the
  /// connection answers once and closes.
  std::size_t max_line_bytes = 1 << 20;
  /// The pipelining window: queued replies, and also open chunk streams. A
  /// Begin beyond it is refused with a retryable "unavailable".
  std::size_t max_inflight = 64;
  /// Progress timeout on every reply write: 30 s on a worker, the
  /// balancer's io_timeout on the fleet front.
  std::chrono::milliseconds write_timeout{30000};
  /// Counted on the connection's own thread, before its first read.
  obs::Counter* connections = nullptr;
  obs::Counter* protocol_errors = nullptr;
  /// High-water marks set when the connection ends: bytes buffered for one
  /// message, and (when non-null) the parse arena's peak.
  obs::Gauge* peak_message_bytes = nullptr;
  obs::Gauge* arena_bytes = nullptr;
};

/// An owner's response, as the writer encodes it: exactly one is set.
struct ReplyView {
  const core::Predictor::KernelPrediction* prediction = nullptr;
  const common::Error* error = nullptr;
};

/// The owner side of a connection. Response is what submit() and finish()
/// resolve to; Stream is one open chunk stream. reply() runs on the writer
/// thread: it stamps the owner's last trace stage (it may also reset the
/// trace to send none) and views the response as a prediction or an error.
/// abort() also drops the streams a closing connection leaves open.
template <class T>
concept ConnectionOwner =
    requires(T& owner, WireRequest request, binary::SourceBegin begin,
             typename T::Stream& stream, std::string_view bytes,
             typename T::Response& response, obs::RequestTracePtr& trace) {
      { T::kParseStage } -> std::convertible_to<std::string_view>;
      { owner.health() } -> std::same_as<WireHealth>;
      { owner.metrics() } -> std::same_as<WireMetrics>;
      { owner.submit(std::move(request), trace) }
          -> std::same_as<std::future<typename T::Response>>;
      { owner.open_stream(std::move(begin)) }
          -> std::same_as<common::Result<typename T::Stream>>;
      owner.feed(stream, bytes);
      { owner.finish(stream) } -> std::same_as<std::future<typename T::Response>>;
      owner.abort(stream);
      { owner.reply(response, trace) } -> std::same_as<ReplyView>;
    };

namespace detail {

/// A reply the reader settles itself (no owner response to wait for).
struct Hello {
  std::uint32_t protocol = 0;
};
using Immediate = std::variant<Hello, WireHealth, WireMetrics, common::Error>;

/// Append one reply: a binary frame, or a JSON line without its '\n'.
void encode_reply(std::string& out, bool binary, std::uint64_t id,
                  const ReplyView& reply, const obs::Trace* trace);
void encode_immediate(std::string& out, bool binary, std::uint64_t id,
                      const Immediate& reply);
/// Write one encoded reply; on failure shut the read side down so the
/// reader stops at once, and return false.
bool write_reply(int fd, std::string_view bytes, std::chrono::milliseconds timeout);
void log_no_writer(const std::string& name, const std::system_error& error);

template <ConnectionOwner Owner>
class Connection {
 public:
  Connection(int fd, Owner& owner, const ConnectionOptions& options)
      : fd_(fd),
        owner_(owner),
        options_(options),
        window_(std::max<std::size_t>(1, options.max_inflight)),
        replies_(window_),
        splitter_(options.max_line_bytes, &common::BufferPool::global()) {}
  // The writer thread holds this object's address.
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void run() {
    std::thread writer;
    try {
      writer = std::thread([this] { write_replies(); });
    } catch (const std::system_error& e) {
      // No thread to spare: close this connection, keep serving the rest.
      log_no_writer(options_.name, e);
      return;
    }
    read_requests();
    // Open streams die with the connection; their requests were never
    // admitted. In-flight requests are still answered: close() lets the
    // writer drain everything already queued before it exits.
    for (auto& [id, stream] : streams_) owner_.abort(stream);
    streams_.clear();
    replies_.close();
    writer.join();
    options_.peak_message_bytes->set_max(
        static_cast<double>(splitter_.peak_buffered_bytes()));
    if (options_.arena_bytes != nullptr) {
      options_.arena_bytes->set_max(static_cast<double>(arena_.peak_used_bytes()));
    }
  }

 private:
  using Response = typename Owner::Response;

  struct PendingReply {
    std::uint64_t id = 0;
    bool binary = false;  // the reply mirrors its request's framing
    std::future<Response> response;  // valid() for a submitted request
    obs::RequestTracePtr trace;      // null unless the request asked for one
    Immediate immediate;             // the reply otherwise
  };

  void push_immediate(bool binary, std::uint64_t id, Immediate reply) {
    PendingReply pending;
    pending.id = id;
    pending.binary = binary;
    pending.immediate = std::move(reply);
    replies_.push(std::move(pending));
  }

  /// A malformed or misplaced message: counted as a protocol error and
  /// answered, with its id when one is recoverable.
  void refuse(bool binary, std::uint64_t id, common::Error error) {
    options_.protocol_errors->inc();
    push_immediate(binary, id, std::move(error));
  }

  void read_requests() {
    char chunk[4096];
    for (;;) {
      // Blocking read (timeout 0): an idle connection is legitimate. Routed
      // through net so fault injection covers this path.
      const auto rd = common::net::read_some(fd_, chunk, sizeof chunk,
                                             std::chrono::milliseconds(0));
      if (rd.status != common::net::IoStatus::kOk) return;  // EOF, error, shutdown
      splitter_.feed(std::string_view(chunk, rd.bytes));
      for (;;) {
        auto next = splitter_.next();
        if (!next.ok()) {
          // Unrecoverable framing fault (overlong message, unknown frame
          // type): no resync point, so answer once, in JSON framing — a
          // peer this confused may not speak binary — and close.
          refuse(/*binary=*/false, 0, next.error());
          return;
        }
        if (!next.value().has_value()) break;  // need more bytes
        handle_message(*next.value());
      }
    }
  }

  void handle_message(const WireMessage& message) {
    const std::string_view payload = message.payload;
    if (!message.binary) {
      // The JSON document lives in the arena; the WireRequest owns copies
      // of everything it keeps, so the arena rewinds for the next line.
      auto request = parse_request(payload, &arena_);
      if (request.ok()) {
        handle_request(std::move(request).take(), /*binary=*/false);
      } else {
        refuse(false, best_effort_id(payload), request.error());
      }
      arena_.reset();
      return;
    }
    switch (message.frame) {
      case binary::FrameType::kRequest: {
        auto request = binary::parse_request(payload);
        if (request.ok()) {
          handle_request(std::move(request).take(), /*binary=*/true);
        } else {
          refuse(true, binary::best_effort_id(payload), request.error());
        }
        return;
      }
      case binary::FrameType::kSourceBegin: return open_stream(payload);
      case binary::FrameType::kSourceChunk: {
        // Chunks are never answered: feed errors are sticky inside the
        // stream and surface from the End reply, so a mid-stream fault
        // cannot desynchronize the in-order reply queue.
        auto source_chunk = binary::parse_source_chunk(payload);
        const auto it =
            source_chunk.ok() ? streams_.find(source_chunk.value().id) : streams_.end();
        if (it == streams_.end()) return options_.protocol_errors->inc();
        owner_.feed(it->second, source_chunk.value().data);
        return;
      }
      case binary::FrameType::kSourceEnd: {
        // The stream's reply takes its slot in request order at End.
        auto id = binary::parse_source_end(payload);
        const auto it = id.ok() ? streams_.find(id.value()) : streams_.end();
        if (it == streams_.end()) return options_.protocol_errors->inc();
        PendingReply pending;
        pending.id = id.value();
        pending.binary = true;
        pending.response = owner_.finish(it->second);
        streams_.erase(it);
        replies_.push(std::move(pending));
        return;
      }
      case binary::FrameType::kSourceAbort: {
        // A half-streamed request the client gave up on: drop it, answer
        // nothing (the client is not waiting).
        auto id = binary::parse_source_abort(payload);
        const auto it = id.ok() ? streams_.find(id.value()) : streams_.end();
        if (it == streams_.end()) return options_.protocol_errors->inc();
        owner_.abort(it->second);
        streams_.erase(it);
        return;
      }
      case binary::FrameType::kResponse:
        return refuse(true, binary::best_effort_id(payload),
                      common::parse_error("binary: unexpected response frame"));
    }
  }

  void handle_request(WireRequest wire, bool binary) {
    switch (wire.kind) {
      case RequestKind::kHello:
        // The reply is the min of the client's ceiling and ours.
        return push_immediate(binary, wire.id,
                              Hello{std::min(wire.max_protocol, kProtocolVersion)});
      // Introspection is answered on this thread: a health ping must not
      // queue behind the very backlog it reports.
      case RequestKind::kHealth: return push_immediate(binary, wire.id, owner_.health());
      case RequestKind::kMetrics: return push_immediate(binary, wire.id, owner_.metrics());
      case RequestKind::kPredict:
      case RequestKind::kPredictSource: {
        PendingReply pending;
        pending.id = wire.id;
        pending.binary = binary;
        // Tracing is opt-in per request; t0 is this parse moment.
        if (wire.trace.has_value()) {
          pending.trace = std::make_shared<obs::RequestTrace>(*wire.trace);
          pending.trace->stamp(Owner::kParseStage);
        }
        pending.response = owner_.submit(std::move(wire), pending.trace);
        replies_.push(std::move(pending));
        return;
      }
    }
  }

  void open_stream(std::string_view payload) {
    auto begin = binary::parse_source_begin(payload);
    if (!begin.ok()) return refuse(true, binary::best_effort_id(payload), begin.error());
    const std::uint64_t id = begin.value().id;
    if (streams_.contains(id)) {
      return refuse(true, id, common::parse_error("binary: duplicate stream id"));
    }
    if (streams_.size() >= window_) {
      // Overload, not a protocol fault: refuse retryably, open nothing.
      return push_immediate(true, id,
                            common::unavailable("binary: too many open streams"));
    }
    auto stream = owner_.open_stream(std::move(begin).take());
    if (!stream.ok()) return push_immediate(true, id, stream.error());
    streams_.emplace(id, std::move(stream).take());
  }

  void write_replies() {
    // One pooled reply buffer for the whole connection: every reply is
    // encoded into it in place, so the steady state writes without
    // touching the heap.
    auto lease = common::BufferPool::global().acquire();
    std::string& out = *lease;
    bool failed = false;
    while (auto pending = replies_.pop()) {
      if (failed) continue;  // the peer is gone: drain only
      out.clear();
      if (pending->response.valid()) {
        Response response = pending->response.get();
        const ReplyView view = owner_.reply(response, pending->trace);
        // Snapshot after the owner's last stamp so the trace includes it.
        std::optional<obs::Trace> trace;
        if (pending->trace != nullptr) trace = pending->trace->snapshot();
        encode_reply(out, pending->binary, pending->id, view,
                     trace.has_value() ? &*trace : nullptr);
      } else {
        encode_immediate(out, pending->binary, pending->id, pending->immediate);
      }
      if (!pending->binary) out.push_back('\n');
      // A write timeout is a failure too: a client that stopped reading
      // forfeits its replies rather than wedging this writer.
      failed = !write_reply(fd_, out, options_.write_timeout);
    }
  }

  const int fd_;
  Owner& owner_;
  const ConnectionOptions& options_;
  const std::size_t window_;
  common::BoundedQueue<PendingReply> replies_;
  MessageSplitter splitter_;
  // Each JSON request document is bump-allocated here and dies at the
  // reset() after its message; once the arena has seen the connection's
  // biggest request, the steady state parses without heap traffic.
  common::Arena arena_;
  // Open chunk streams by client request id.
  std::unordered_map<std::uint64_t, typename Owner::Stream> streams_;
};

}  // namespace detail

/// Serve one accepted connection until EOF, a framing fault or shutdown.
/// Counts the connection first, on this (the connection's) thread.
template <ConnectionOwner Owner>
void serve_connection(int fd, Owner& owner, const ConnectionOptions& options) {
  options.connections->inc();
  detail::Connection<Owner>(fd, owner, options).run();
}

}  // namespace repro::serve
