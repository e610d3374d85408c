// The socket front of serve::Service: line-delimited JSON requests — and,
// after a per-connection "hello" negotiation, binary frames of protocol 2 —
// over a Unix-domain or TCP socket (see protocol.hpp for both wire
// formats). Framing is detected per message by first byte, and every reply
// mirrors its request's framing, so JSON and binary can interleave on one
// connection without desync. Every reply write has a 30 s progress
// timeout: a client that stops reading cannot pin its connection's writer
// thread. Reads stay unbounded, since an idle connection is legal.
//
// The listener and each connection's pipelined reader/writer pair are the
// connection core (connection.hpp) the fleet front runs too; this class is
// the worker's side of it. Predict and predict_source requests are
// submitted to the shared Service (sources ship raw bytes and featurize on
// the worker shards), chunk streams feed a Service::SourceStream, and
// health and metrics are answered on the connection thread. stop() is
// graceful: the listener closes, open connections are shut down, in-flight
// requests are still answered.
//
// The server counts into service.registry() — connections, protocol
// errors, and the repro_peak_message_bytes / repro_arena_bytes high-water
// marks — so one "metrics" scrape shows the whole worker.
#pragma once

#include <memory>
#include <string>

#include "common/status.hpp"
#include "serve/service.hpp"

namespace repro::core {
class ModelCache;  // core/model_cache.hpp
}  // namespace repro::core

namespace repro::serve {

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
  /// Per-connection pipelining window: how many decoded requests may be in
  /// flight (submitted, response not yet written) before the reader stops
  /// decoding — backpressure against a client that streams without reading.
  /// Also the most chunk streams one connection may hold open; a Begin
  /// beyond it is refused with a retryable "unavailable".
  std::size_t max_inflight = 64;
  /// When set, "metrics" replies include this cache's hit/miss gauges
  /// (the cache the served model was built through). Must outlive the
  /// server.
  const core::ModelCache* model_cache = nullptr;
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
