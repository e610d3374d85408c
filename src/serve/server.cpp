#include "serve/server.hpp"

#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "common/buffer_pool.hpp"
#include "core/model_cache.hpp"
#include "serve/connection.hpp"

namespace repro::serve {

/// The worker's side of the connection core: requests go to the Service,
/// chunk streams to Service::SourceStream.
struct SocketServer::Impl {
  using Response = Service::Response;
  using Stream = Service::SourceStream;
  static constexpr std::string_view kParseStage = "parse";

  Service* service = nullptr;
  ServerOptions options;
  std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();
  ConnectionOptions connection;
  std::unique_ptr<Listener> listener;

  /// The wire deadline is relative to the moment the server takes custody
  /// of the request (parses its frame). From here on it is an absolute
  /// steady_clock point, immune to queueing delays.
  static Service::Deadline deadline_from(const std::optional<double>& ms) {
    Service::Deadline deadline;
    if (ms.has_value()) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::milli>(*ms));
    }
    return deadline;
  }

  [[nodiscard]] double uptime_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
        .count();
  }

  WireHealth health() { return {uptime_s(), service->queue_depth()}; }

  WireMetrics metrics() {
    // Point-in-time gauges are set at scrape time (never from a hot path,
    // so there is no dangling-callback hazard when the server outlives a
    // scrape).
    obs::Registry& registry = service->registry();
    registry.gauge("repro_uptime_seconds")->set(uptime_s());
    registry.gauge("repro_queue_depth")->set(static_cast<double>(service->queue_depth()));
    if (options.model_cache != nullptr) {
      const auto cache_stats = options.model_cache->stats();
      registry.gauge("repro_cache_hits")->set(static_cast<double>(cache_stats.disk_hits));
      registry.gauge("repro_cache_misses")->set(static_cast<double>(cache_stats.misses));
    }
    registry.gauge("repro_pool_reuse_total")
        ->set(static_cast<double>(common::BufferPool::global().stats().reuses));
    WireMetrics metrics;
    metrics.values = registry.snapshot_values();
    metrics.text = registry.prometheus_text();
    return metrics;
  }

  std::future<Response> submit(WireRequest wire, const obs::RequestTracePtr& trace) {
    const auto deadline = deadline_from(wire.deadline_ms);
    if (wire.source.has_value()) {
      // predict_source: ship the raw bytes; the worker shard featurizes
      // inside the batch, off this connection thread.
      return service->submit_source(std::move(*wire.source), std::move(wire.kernel),
                                    deadline, trace);
    }
    // Both parsers guarantee that a predict request carries features.
    clfront::StaticFeatures features;
    features.kernel_name = wire.kernel.empty() ? "request" : std::move(wire.kernel);
    features.counts = *wire.features;
    return service->submit(std::move(features), deadline, trace);
  }

  common::Result<Stream> open_stream(binary::SourceBegin begin) {
    return service->begin_stream(std::move(begin.kernel), deadline_from(begin.deadline_ms));
  }
  void feed(Stream& stream, std::string_view bytes) { (void)stream.feed(bytes); }
  std::future<Response> finish(Stream& stream) { return stream.finish(); }
  /// Dropping the stream is enough: its request was never admitted.
  void abort(Stream& /*stream*/) {}

  ReplyView reply(Response& response, obs::RequestTracePtr& trace) {
    // The last worker-side stage: the reply is being written.
    obs::stamp(trace, "reply");
    if (response.ok()) return {&response.value(), nullptr};
    return {nullptr, &response.error()};
  }
};

SocketServer::SocketServer() : impl_(std::make_unique<Impl>()) {}

common::Result<std::unique_ptr<SocketServer>> SocketServer::start(
    Service& service, const ServerOptions& options) {
  std::unique_ptr<SocketServer> server(new SocketServer());
  Impl& impl = *server->impl_;
  impl.service = &service;
  impl.options = options;
  obs::Registry& registry = service.registry();
  ConnectionOptions& connection = impl.connection;
  connection.name = "SocketServer";
  connection.max_line_bytes = options.max_line_bytes;
  connection.max_inflight = options.max_inflight;
  connection.connections = registry.counter("repro_connections_total");
  connection.protocol_errors = registry.counter("repro_protocol_errors_total");
  connection.peak_message_bytes = registry.gauge("repro_peak_message_bytes");
  connection.arena_bytes = registry.gauge("repro_arena_bytes");

  auto listener = Listener::start(connection.name, options.unix_path, options.tcp_port,
                                  [owner = &impl](int fd) {
                                    serve_connection(fd, *owner, owner->connection);
                                  });
  if (!listener.ok()) return listener.error();
  impl.listener = std::move(listener).take();
  return server;
}

SocketServer::~SocketServer() {
  if (impl_ != nullptr) stop();
}

void SocketServer::stop() {
  if (impl_->listener == nullptr) return;  // start() failed before binding
  impl_->listener->stop_accepting();
  impl_->listener->close_connections();
}

int SocketServer::tcp_port() const noexcept { return impl_->listener->tcp_port(); }

const std::string& SocketServer::unix_path() const noexcept {
  return impl_->listener->unix_path();
}

}  // namespace repro::serve
