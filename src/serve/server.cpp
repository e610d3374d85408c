#include "serve/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/log.hpp"
#include "common/net.hpp"
#include "common/queue.hpp"
#include "serve/model_cache.hpp"
#include "serve/protocol.hpp"

namespace repro::serve {

namespace {

common::Error errno_error(const std::string& what) {
  return common::io_error(what + ": " + std::strerror(errno));
}

}  // namespace

struct SocketServer::Impl {
  Service* service = nullptr;
  ServerOptions options;
  int listen_fd = -1;
  int bound_tcp_port = -1;
  std::string bound_unix_path;
  std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();

  /// One per accepted connection. The fd is closed only after the thread is
  /// joined (by the acceptor's reap sweep or by stop()), so a shutdown() on
  /// it can never hit a recycled descriptor.
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  std::thread acceptor;
  std::mutex conn_mutex;
  std::list<std::unique_ptr<Conn>> conns;
  std::atomic<bool> stopping{false};
  std::once_flag stop_once;

  // obs instruments in service->registry(), resolved once in start().
  obs::Counter* obs_connections = nullptr;
  obs::Counter* obs_protocol_errors = nullptr;
  /// High-water marks across finished connections: bytes buffered for one
  /// message (the bound the streaming contract asserts — a chunked
  /// predict_source never buffers more than a frame at a time) and
  /// per-connection parse-arena usage.
  obs::Gauge* obs_peak_message_bytes = nullptr;
  obs::Gauge* obs_arena_bytes = nullptr;
  // Buffer pool behind splitter input and reply output buffers.
  common::BufferPool* pool = nullptr;

  void accept_loop();
  void serve_connection(int fd);
  void reap_finished_locked();
  [[nodiscard]] double uptime_s() const;
  [[nodiscard]] WireMetrics wire_metrics();
};

SocketServer::SocketServer() : impl_(std::make_unique<Impl>()) {}

common::Result<std::unique_ptr<SocketServer>> SocketServer::start(
    Service& service, const ServerOptions& options) {
  std::unique_ptr<SocketServer> server(new SocketServer());
  server->impl_->service = &service;
  server->impl_->options = options;
  obs::Registry& registry = service.registry();
  server->impl_->obs_connections = registry.counter("repro_connections_total");
  server->impl_->obs_protocol_errors = registry.counter("repro_protocol_errors_total");
  server->impl_->obs_peak_message_bytes = registry.gauge("repro_peak_message_bytes");
  server->impl_->obs_arena_bytes = registry.gauge("repro_arena_bytes");
  server->impl_->pool = options.buffer_pool != nullptr
                            ? options.buffer_pool
                            : &common::BufferPool::global();

  int fd = -1;
  if (!options.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options.unix_path.size() >= sizeof(addr.sun_path)) {
      return common::invalid_argument("SocketServer: unix path too long: " +
                                      options.unix_path);
    }
    std::strncpy(addr.sun_path, options.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return errno_error("SocketServer: socket(AF_UNIX)");
    ::unlink(options.unix_path.c_str());  // stale socket from a previous run
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      auto err = errno_error("SocketServer: bind(" + options.unix_path + ")");
      ::close(fd);
      return err;
    }
    server->impl_->bound_unix_path = options.unix_path;
  } else if (options.tcp_port >= 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return errno_error("SocketServer: socket(AF_INET)");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options.tcp_port));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      auto err = errno_error("SocketServer: bind(127.0.0.1:" +
                             std::to_string(options.tcp_port) + ")");
      ::close(fd);
      return err;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      auto err = errno_error("SocketServer: getsockname");
      ::close(fd);
      return err;
    }
    server->impl_->bound_tcp_port = static_cast<int>(ntohs(bound.sin_port));
  } else {
    return common::invalid_argument(
        "SocketServer: configure either unix_path or tcp_port");
  }

  if (::listen(fd, 64) != 0) {
    auto err = errno_error("SocketServer: listen");
    ::close(fd);
    return err;
  }
  server->impl_->listen_fd = fd;
  server->impl_->acceptor = std::thread([impl = server->impl_.get()] {
    impl->accept_loop();
  });
  return server;
}

void SocketServer::Impl::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;  // logging below must not clobber it
      if (err == EINTR) continue;
      // stop() closed the listener (EBADF/EINVAL) — or a transient accept
      // failure while stopping; either way only exit when told to.
      if (stopping.load(std::memory_order_acquire)) return;
      if (err == ECONNABORTED || err == EMFILE || err == ENFILE) {
        common::log_warn() << "SocketServer: accept: " << std::strerror(err);
        if (err != ECONNABORTED) {
          // fd exhaustion: nothing in this loop frees descriptors (reaping
          // happens in connection epilogues), so back off instead of
          // busy-spinning and flooding the log until a client disconnects.
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        continue;
      }
      // Unexpected and unhandled — the server stops accepting; say so
      // loudly instead of dying silently while the process looks healthy.
      common::log_error() << "SocketServer: accept failed permanently: "
                          << std::strerror(err) << "; no longer accepting";
      return;
    }
    std::lock_guard lock(conn_mutex);
    if (stopping.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    // Reap exited connections first so a long-lived server does not
    // accumulate one dead (joinable) thread per past connection.
    reap_finished_locked();
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    conns.push_back(std::move(conn));
    try {
      raw->thread = std::thread([this, raw] {
        serve_connection(raw->fd);
        // Signal EOF to the peer now: the fd itself is closed only by the
        // reap sweep (so stop() can never shutdown() a recycled descriptor),
        // but the sweep runs at the next accept — without this, a pipelining
        // client that half-closes and reads to EOF would hang until then.
        ::shutdown(raw->fd, SHUT_RDWR);
        // Reap siblings before raising our own done flag: entries with done
        // set are past this epilogue and hold no locks, so joining them under
        // conn_mutex cannot deadlock — and an idle server retains at most
        // this one exited connection rather than every one since the last
        // accept.
        {
          std::lock_guard lock(conn_mutex);
          reap_finished_locked();
        }
        raw->done.store(true, std::memory_order_release);
      });
    } catch (const std::system_error& e) {
      // No thread to spare: refuse this connection, keep serving the rest.
      conns.pop_back();
      ::close(fd);
      common::log_warn() << "SocketServer: cannot start a connection thread ("
                         << e.what() << "); connection closed";
    }
  }
}

void SocketServer::Impl::reap_finished_locked() {
  for (auto it = conns.begin(); it != conns.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = conns.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketServer::Impl::serve_connection(int fd) {
  // Counted here rather than in the acceptor, so the count already includes
  // this connection when its first request (say, a metrics scrape) is read.
  obs_connections->inc();
  // Pipelined request handling: the reader below decodes and submits
  // request N+1 while N's batch is still in flight; this writer drains an
  // in-order reply queue, so responses always come back in request order.
  // The queue bound is the pipelining window — a client that streams
  // requests without reading responses blocks the reader at max_inflight
  // outstanding (backpressure), never the server.
  struct PendingReply {
    std::uint64_t id = 0;
    // The reply mirrors its request's framing.
    bool binary = false;
    // Engaged for submitted requests; preformatted message otherwise
    // (JSON without the trailing newline, binary as a complete frame).
    std::optional<std::future<Service::Response>> response;
    std::string immediate;
    // Shared with the service pipeline; the writer stamps "reply" and
    // serializes the accumulated stages. Null for untraced requests.
    obs::RequestTracePtr trace;
  };
  common::BoundedQueue<PendingReply> replies(std::max<std::size_t>(1, options.max_inflight));
  std::atomic<bool> write_failed{false};
  const auto write_replies = [&] {
    // One pooled reply buffer for the whole connection: every prediction
    // reply is serialized _into it in place — the steady state writes
    // without touching the heap.
    auto reply_lease = pool->acquire();
    std::string& reply = *reply_lease;
    while (auto pending = replies.pop()) {
      if (write_failed.load(std::memory_order_relaxed)) continue;  // drain only
      reply.clear();
      if (pending->response.has_value()) {
        auto response = pending->response->get();
        // The last worker-side stage: the reply is being written. Snapshot
        // after the stamp so the serialized trace includes it.
        std::optional<obs::Trace> trace;
        if (pending->trace != nullptr) {
          pending->trace->stamp("reply");
          trace = pending->trace->snapshot();
        }
        const obs::Trace* trace_ptr = trace.has_value() ? &*trace : nullptr;
        if (pending->binary) {
          if (response.ok()) {
            binary::format_prediction_frame_into(reply, pending->id,
                                                 response.value(), trace_ptr);
          } else {
            binary::format_error_frame_into(reply, pending->id, response.error(),
                                            trace_ptr);
          }
        } else {
          if (response.ok()) {
            format_response_into(reply, pending->id, response.value(), trace_ptr);
          } else {
            format_error_into(reply, pending->id, response.error(), trace_ptr);
          }
        }
      } else {
        reply += pending->immediate;  // cold path: introspection and errors
      }
      if (!pending->binary) reply.push_back('\n');
      // A write timeout counts as failure too: a client that stopped
      // reading has forfeited its replies — drain and tear down rather
      // than wedge this writer (and every future queued behind it).
      const auto wr = common::net::write_all(fd, reply, options.write_timeout);
      if (wr.status != common::net::IoStatus::kOk) {
        write_failed.store(true, std::memory_order_relaxed);
        // The peer is gone; unblock the reader's read() so the connection
        // tears down promptly instead of at the next request.
        ::shutdown(fd, SHUT_RD);
      }
    }
  };
  std::thread writer;
  try {
    writer = std::thread(write_replies);
  } catch (const std::system_error& e) {
    // No thread to spare (e.g. address space for its stack): close this
    // connection and keep serving the others.
    common::log_warn() << "SocketServer: cannot start a reply writer (" << e.what()
                       << "); connection closed";
    return;
  }

  auto count_protocol_error = [&] { obs_protocol_errors->inc(); };
  // The wire deadline is relative to the moment the server takes custody of
  // the request (parses its frame). From here on it is an absolute
  // steady_clock point, immune to queueing delays.
  auto deadline_from = [](const std::optional<double>& ms) {
    Service::Deadline deadline;
    if (ms.has_value()) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::milli>(*ms));
    }
    return deadline;
  };
  // Shared by both framings once a WireRequest is decoded — only the reply
  // encoding differs, so JSON and binary dispatch cannot drift apart.
  auto handle_request = [&](WireRequest wire, bool is_binary) {
    PendingReply pending;
    pending.binary = is_binary;
    pending.id = wire.id;
    switch (wire.kind) {
      case RequestKind::kHello: {
        // Per-connection negotiation: the reply is the min of the client's
        // ceiling and ours — or 0 when binary framing is disabled, telling
        // the client to stay on JSON lines.
        const std::uint32_t negotiated =
            options.enable_binary ? std::min(wire.max_protocol, kProtocolVersion)
                                  : 0;
        pending.immediate = is_binary
                                ? binary::format_hello_frame(wire.id, negotiated)
                                : format_hello_response(wire.id, negotiated);
        break;
      }
      case RequestKind::kHealth: {
        // Introspection is answered right here on the connection thread —
        // a health ping must not queue behind a full admission queue (its
        // whole point is reporting that backlog).
        const WireHealth health{uptime_s(), service->queue_depth()};
        pending.immediate = is_binary ? binary::format_health_frame(wire.id, health)
                                      : format_health_response(wire.id, health);
        break;
      }
      case RequestKind::kMetrics: {
        // Same inline contract as health: a registry snapshot never waits
        // behind the admission queue.
        const WireMetrics metrics = wire_metrics();
        pending.immediate = is_binary
                                ? binary::format_metrics_frame(wire.id, metrics)
                                : format_metrics_response(wire.id, metrics);
        break;
      }
      case RequestKind::kPredict:
      case RequestKind::kPredictSource: {
        // Tracing is opt-in per request: only a request that carried a
        // trace id pays for stamps. t0 is the parse moment — every worker
        // stage offset is relative to it.
        if (wire.trace.has_value()) {
          pending.trace = std::make_shared<obs::RequestTrace>(*wire.trace);
          pending.trace->stamp("parse");
        }
        const auto deadline = deadline_from(wire.deadline_ms);
        if (wire.source.has_value()) {
          // predict_source: ship the raw bytes; the worker shard featurizes
          // inside the batch, off this connection thread.
          pending.response =
              service->submit_source(std::move(*wire.source),
                                     std::move(wire.kernel), deadline, pending.trace);
        } else {
          auto features = wire.to_features();
          if (!features.ok()) {
            const obs::Trace* trace_ptr = nullptr;
            std::optional<obs::Trace> trace;
            if (pending.trace != nullptr) {
              trace = pending.trace->snapshot();
              trace_ptr = &*trace;
            }
            pending.immediate =
                is_binary
                    ? binary::format_error_frame(wire.id, features.error(), trace_ptr)
                    : format_error(wire.id, features.error(), trace_ptr);
            pending.trace = nullptr;  // already serialized into `immediate`
          } else {
            pending.response =
                service->submit(std::move(features).take(), deadline, pending.trace);
          }
        }
        break;
      }
    }
    replies.push(std::move(pending));
  };

  // Per-message framing detection; binary frames are refused outright when
  // negotiation is disabled (they parse as malformed JSON lines). The
  // splitter's input buffer is leased from the pool.
  MessageSplitter splitter(options.max_line_bytes, options.enable_binary, pool);
  // Per-connection parse arena: each JSON request document is bump-
  // allocated here and dies at the reset() after its message is handled.
  // Once the arena has seen the connection's biggest request, the steady
  // state parses without heap traffic.
  common::Arena arena;
  // Open chunked predict_source streams by client request id. Each buffers
  // at most the feeder's bounded pending window, never the whole source.
  std::unordered_map<std::uint64_t, Service::SourceStream> streams;
  char chunk[4096];
  bool framing_fault = false;
  for (;;) {
    // Blocking read (timeout 0): an idle connection is legitimate — the
    // balancer keeps persistent backend connections that go quiet between
    // bursts. Routed through net so fault injection covers this path.
    const auto rd = common::net::read_some(fd, chunk, sizeof chunk,
                                           std::chrono::milliseconds(0));
    if (rd.status != common::net::IoStatus::kOk) break;  // EOF, error, shutdown
    splitter.feed(std::string_view(chunk, rd.bytes));

    for (;;) {
      auto next = splitter.next();
      if (!next.ok()) {
        // Unrecoverable framing fault (overlong message, unknown frame
        // type): there is no resync point, so answer once and close. JSON
        // framing for the answer — a peer confused enough to trip this may
        // not speak binary at all.
        count_protocol_error();
        PendingReply pending;
        pending.immediate = format_error(0, next.error());
        replies.push(std::move(pending));
        framing_fault = true;
        break;
      }
      if (!next.value().has_value()) break;  // need more bytes
      WireMessage message = std::move(*next.value());

      if (!message.binary) {
        auto request = parse_request(message.payload, &arena);
        if (!request.ok()) {
          count_protocol_error();
          // Echo the id whenever one is recoverable from the malformed
          // line, so clients correlating by id see the real error.
          PendingReply pending;
          pending.id = best_effort_id(message.payload);
          pending.immediate = format_error(pending.id, request.error());
          replies.push(std::move(pending));
        } else {
          handle_request(std::move(request).take(), /*is_binary=*/false);
        }
        // The WireRequest owns copies of everything it keeps; the JSON
        // document it was parsed through is dead — rewind for the next one.
        arena.reset();
        continue;
      }

      switch (message.frame) {
        case binary::FrameType::kRequest: {
          auto request = binary::parse_request(message.payload);
          if (!request.ok()) {
            count_protocol_error();
            PendingReply pending;
            pending.binary = true;
            pending.id = binary::best_effort_id(message.payload);
            pending.immediate =
                binary::format_error_frame(pending.id, request.error());
            replies.push(std::move(pending));
          } else {
            handle_request(std::move(request).take(), /*is_binary=*/true);
          }
          break;
        }
        case binary::FrameType::kSourceBegin: {
          auto begin = binary::parse_source_begin(message.payload);
          if (!begin.ok()) {
            count_protocol_error();
            PendingReply pending;
            pending.binary = true;
            pending.id = binary::best_effort_id(message.payload);
            pending.immediate = binary::format_error_frame(pending.id, begin.error());
            replies.push(std::move(pending));
            break;
          }
          auto& open = begin.value();
          if (streams.find(open.id) != streams.end()) {
            count_protocol_error();
            PendingReply pending;
            pending.binary = true;
            pending.id = open.id;
            pending.immediate = binary::format_error_frame(
                open.id, common::parse_error("binary: duplicate stream id"));
            replies.push(std::move(pending));
            break;
          }
          if (streams.size() >= std::max<std::size_t>(1, options.max_inflight)) {
            // Overload, not a protocol fault: refuse retryably, open nothing.
            PendingReply pending;
            pending.binary = true;
            pending.id = open.id;
            pending.immediate = binary::format_error_frame(
                open.id, common::unavailable("binary: too many open streams"));
            replies.push(std::move(pending));
            break;
          }
          streams.emplace(open.id,
                          service->begin_stream(std::move(open.kernel),
                                                deadline_from(open.deadline_ms),
                                                options.max_source_bytes));
          break;
        }
        case binary::FrameType::kSourceChunk: {
          // Chunks are never answered — feed errors are sticky inside the
          // stream and surface from the End reply, so mid-stream faults
          // cannot desynchronize the in-order reply queue.
          auto source_chunk = binary::parse_source_chunk(message.payload);
          if (!source_chunk.ok()) {
            count_protocol_error();
            break;
          }
          auto it = streams.find(source_chunk.value().id);
          if (it == streams.end()) {
            count_protocol_error();  // chunk for a stream that was never opened
            break;
          }
          (void)it->second.feed(source_chunk.value().data);
          break;
        }
        case binary::FrameType::kSourceEnd: {
          auto end = binary::parse_source_end(message.payload);
          if (!end.ok()) {
            count_protocol_error();
            break;
          }
          auto it = streams.find(end.value());
          if (it == streams.end()) {
            count_protocol_error();  // end without a begin
            break;
          }
          // The stream settles here; its reply takes its slot in request
          // order at End (a stream's featurization already happened
          // incrementally, chunk by chunk).
          PendingReply pending;
          pending.binary = true;
          pending.id = end.value();
          pending.response = it->second.finish();
          streams.erase(it);
          replies.push(std::move(pending));
          break;
        }
        case binary::FrameType::kSourceAbort: {
          // A half-streamed request the client gave up on: drop it, answer
          // nothing (the client is not waiting).
          auto abort = binary::parse_source_abort(message.payload);
          if (!abort.ok() || streams.erase(abort.value()) == 0) {
            count_protocol_error();
          }
          break;
        }
        case binary::FrameType::kResponse: {
          count_protocol_error();
          PendingReply pending;
          pending.binary = true;
          pending.id = binary::best_effort_id(message.payload);
          pending.immediate = binary::format_error_frame(
              pending.id,
              common::parse_error("binary: unexpected response frame"));
          replies.push(std::move(pending));
          break;
        }
      }
    }
    if (framing_fault) break;
  }
  // In-flight requests are still answered: close() lets the writer drain
  // everything already queued before it exits. Open streams die with the
  // connection — their requests were never admitted, so nothing leaks.
  replies.close();
  writer.join();
  obs_peak_message_bytes->set_max(static_cast<double>(splitter.peak_buffered_bytes()));
  obs_arena_bytes->set_max(static_cast<double>(arena.peak_used_bytes()));
}

double SocketServer::Impl::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
      .count();
}

WireMetrics SocketServer::Impl::wire_metrics() {
  // Point-in-time gauges are set at scrape time (never from a hot path, so
  // there is no dangling-callback hazard when the server outlives a scrape).
  obs::Registry& registry = service->registry();
  registry.gauge("repro_uptime_seconds")->set(uptime_s());
  registry.gauge("repro_queue_depth")->set(static_cast<double>(service->queue_depth()));
  if (options.model_cache != nullptr) {
    const auto cache_stats = options.model_cache->stats();
    registry.gauge("repro_cache_hits")->set(static_cast<double>(cache_stats.disk_hits));
    registry.gauge("repro_cache_misses")->set(static_cast<double>(cache_stats.misses));
  }
  registry.gauge("repro_pool_reuse_total")
      ->set(static_cast<double>(pool->stats().reuses));
  WireMetrics metrics;
  metrics.values = registry.snapshot_values();
  metrics.text = registry.prometheus_text();
  return metrics;
}

SocketServer::~SocketServer() {
  if (impl_ != nullptr) stop();
}

void SocketServer::stop() {
  std::call_once(impl_->stop_once, [this] {
    impl_->stopping.store(true, std::memory_order_release);
    if (impl_->listen_fd >= 0) {
      // shutdown() unblocks a blocked accept(); the close comes after the
      // acceptor is joined so the descriptor number cannot be recycled
      // while the accept loop might still touch it.
      ::shutdown(impl_->listen_fd, SHUT_RDWR);
    }
    if (impl_->acceptor.joinable()) impl_->acceptor.join();
    if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);

    // The acceptor is gone, so this thread now owns the connection list.
    // Every fd in it is still open (fds are closed only at join time):
    // shutdown() unblocks each connection's read(), then join and close.
    std::list<std::unique_ptr<Impl::Conn>> conns;
    {
      std::lock_guard lock(impl_->conn_mutex);
      conns.swap(impl_->conns);
    }
    for (auto& conn : conns) ::shutdown(conn->fd, SHUT_RDWR);
    for (auto& conn : conns) {
      if (conn->thread.joinable()) conn->thread.join();
      ::close(conn->fd);
    }
    if (!impl_->bound_unix_path.empty()) {
      ::unlink(impl_->bound_unix_path.c_str());
    }
  });
}

int SocketServer::tcp_port() const noexcept { return impl_->bound_tcp_port; }

const std::string& SocketServer::unix_path() const noexcept {
  return impl_->bound_unix_path;
}

}  // namespace repro::serve
