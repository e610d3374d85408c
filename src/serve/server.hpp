// The socket front of serve::Service: line-delimited JSON requests — and,
// after a per-connection "hello" negotiation, length-prefixed binary frames
// — over a Unix-domain or TCP socket (see protocol.hpp for both wire
// formats). Framing is detected per message by first byte, and every reply
// mirrors its request's framing, so JSON and binary can interleave on one
// connection without desync.
//
// One acceptor thread plus a reader/writer thread pair per connection, and
// each connection is *pipelined*: the reader decodes and submits request
// N+1 while N's batch is still in flight (up to max_inflight outstanding),
// and the writer sends responses back strictly in request order. A client
// that streams many request lines without waiting therefore queues several
// requests at once, and a shard that frees up takes them as one batch even
// from a single connection. Requests are submitted to the shared
// Service; predict_source requests ship raw bytes and featurize on the
// worker shards. stop() is graceful: the listener closes, open connections
// are shut down, in-flight requests are still answered.
//
// The server counts into service.registry() — connections, protocol
// errors, and the repro_peak_message_bytes / repro_arena_bytes high-water
// marks — so one "metrics" scrape shows the whole worker.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "common/buffer_pool.hpp"
#include "common/status.hpp"
#include "serve/service.hpp"

namespace repro::serve {

class ModelCache;

struct ServerOptions {
  /// Unix-domain socket path; takes precedence over TCP when non-empty.
  std::string unix_path;
  /// TCP port on 127.0.0.1 (0 = ask the kernel for an ephemeral port; the
  /// bound port is reported by tcp_port()).
  int tcp_port = -1;  // -1 = TCP disabled
  /// Requests longer than this are answered with an error and the
  /// connection is closed (protects the server from unbounded buffering).
  /// Bounds both framings: a JSON line and a binary frame payload. A
  /// chunk-streamed predict_source is bounded per *frame*, not per request —
  /// the total source may far exceed this.
  std::size_t max_line_bytes = 1 << 20;
  /// Accept binary-framed messages and answer a "hello" negotiation with
  /// protocol 1. When false the server is a JSON-only peer: hello answers
  /// protocol 0 and a 0xB1 byte is just a malformed JSON line.
  bool enable_binary = true;
  /// Per-request input budget for chunk-streamed predict_source. Zero means
  /// the featurization pipeline's own max_source_bytes budget applies
  /// unchanged; non-zero can only tighten it.
  std::size_t max_source_bytes = 0;
  /// Per-connection pipelining window: how many decoded requests may be in
  /// flight (submitted, response not yet written) before the reader stops
  /// decoding — backpressure against a client that streams without reading.
  std::size_t max_inflight = 64;
  /// When set, "metrics" replies include this cache's hit/miss gauges
  /// (the cache the service was created against). Must outlive the server.
  const ModelCache* model_cache = nullptr;
  /// Per-operation progress timeout on response writes: a client that stops
  /// reading cannot wedge this connection's writer thread (and the futures
  /// queued behind it) forever. Reads deliberately stay unbounded — idle
  /// persistent connections (the balancer's backend pool) are legitimate.
  std::chrono::milliseconds write_timeout{30000};
  /// Pool behind every connection's splitter input buffer and reply output
  /// buffer. Null = common::BufferPool::global() — one process-wide pool the
  /// server, balancer, and clients all ride. Must outlive the server.
  common::BufferPool* buffer_pool = nullptr;
};

class SocketServer {
 public:
  /// Bind, listen, and start accepting. `service` must outlive the server.
  [[nodiscard]] static common::Result<std::unique_ptr<SocketServer>> start(
      Service& service, const ServerOptions& options);

  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Stop accepting, shut down open connections, join all threads. The
  /// Service itself is left running (the owner decides when to stop it).
  /// Idempotent; also run by the destructor.
  void stop();

  /// The TCP port actually bound (ephemeral-port discovery); -1 for Unix.
  [[nodiscard]] int tcp_port() const noexcept;
  /// The Unix socket path, empty for TCP.
  [[nodiscard]] const std::string& unix_path() const noexcept;

 private:
  SocketServer();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace repro::serve
