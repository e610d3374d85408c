// A small blocking client for the repro_serve wire protocol: connect to a
// Unix or TCP endpoint, send line-delimited JSON requests (or, after
// negotiate_binary(), binary frames of protocol 2), read responses.
// predict/predict_source are strict request→response round trips;
// predict_source_many pipelines — all requests are written back-to-back and
// the responses (which the server returns in request order) are read
// afterwards, so the server's shards can batch requests from one
// connection. Not thread-safe — use one client per thread.
//
// connect_unix/connect_tcp take a ConnectOptions with bounded exponential
// backoff: a fleet spawns its workers and connects to them concurrently, so
// the first connect routinely races a worker that has not called listen()
// yet — retry-with-backoff turns that startup race into a short wait
// instead of an error.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "clfront/features.hpp"
#include "common/status.hpp"
#include "core/predictor.hpp"
#include "serve/protocol.hpp"

namespace repro::serve {

/// Retry policy for the connect call itself (never for requests). The delay
/// starts at initial_backoff and doubles per failed attempt, capped at 1 s;
/// attempts <= 1 fails fast. Only "server not up yet" errors are retried
/// (ECONNREFUSED, ENOENT on a unix path, and friends) — a path that is too
/// long fails immediately.
struct ConnectOptions {
  int attempts = 1;
  std::chrono::milliseconds initial_backoff{25};
  /// Per-operation socket timeout for every read and write on the connected
  /// client (progress-based, enforced with poll). A stalled or wedged server
  /// yields a retryable kUnavailable instead of hanging the caller forever.
  /// Zero or negative = block indefinitely (opt-in only).
  std::chrono::milliseconds io_timeout{30000};
};

class SocketClient {
 public:
  [[nodiscard]] static common::Result<SocketClient> connect_unix(
      const std::string& path, const ConnectOptions& options = {});
  [[nodiscard]] static common::Result<SocketClient> connect_tcp(
      int port, const ConnectOptions& options = {});

  SocketClient(SocketClient&& other) noexcept;
  SocketClient& operator=(SocketClient&& other) noexcept;
  ~SocketClient();

  /// Predict from raw static feature counts.
  [[nodiscard]] common::Result<core::Predictor::KernelPrediction> predict(
      const std::string& kernel,
      const std::array<double, clfront::kNumFeatures>& counts);
  [[nodiscard]] common::Result<core::Predictor::KernelPrediction> predict(
      const clfront::StaticFeatures& features);

  /// Predict from OpenCL-C source (features are extracted server-side, on
  /// the worker shards).
  [[nodiscard]] common::Result<core::Predictor::KernelPrediction> predict_source(
      const std::string& opencl_source, const std::string& kernel_name = {});

  /// Pipelined predict_source over many sources: write every request line,
  /// then read the in-order responses. One Result per input, same order.
  [[nodiscard]] std::vector<common::Result<core::Predictor::KernelPrediction>>
  predict_source_many(const std::vector<core::Predictor::SourceRequest>& sources);

  /// Pulls the next source chunk; nullopt ends the stream (an engaged empty
  /// string is a legal chunk that sends nothing).
  using ChunkProvider = std::function<std::optional<std::string>()>;

  /// Streamed predict_source: chunks are framed and written as they are
  /// pulled from the provider, so neither side ever holds the whole source —
  /// the way to serve a file larger than the server's max_line_bytes. Needs
  /// a negotiated binary connection: without one it returns invalid_argument
  /// and writes nothing. The reply is bit-identical to predict_source on the
  /// concatenated bytes at any chunk split.
  [[nodiscard]] common::Result<core::Predictor::KernelPrediction>
  predict_source_stream(const ChunkProvider& next_chunk,
                        const std::string& kernel_name = {});

  /// Offer the server binary framing (one JSON "hello" round trip). Returns
  /// kProtocolVersion (2), and this client's subsequent requests go as
  /// binary frames. A peer's error reply is returned as the error, and a
  /// peer that settles on any other version is refused with unsupported;
  /// either way the connection stays on JSON lines.
  [[nodiscard]] common::Result<std::uint32_t> negotiate_binary();

  /// True once negotiate_binary() succeeded.
  [[nodiscard]] bool binary() const noexcept { return binary_; }

  /// Default latency budget stamped on every subsequent prediction request
  /// (wire "deadline_ms"). The server answers deadline_exceeded instead of
  /// predicting once the budget runs out. nullopt (the default) sends no
  /// deadline.
  void set_deadline_ms(std::optional<double> deadline_ms) noexcept {
    deadline_ms_ = deadline_ms;
  }

  /// Ask the server for per-stage timing on every subsequent prediction
  /// request (wire "trace"; the trace id is the request id, so one id
  /// follows the request end to end), in either framing. The reply's stage
  /// table lands in last_trace().
  void set_trace_enabled(bool enabled) noexcept { trace_enabled_ = enabled; }

  /// The trace carried by the most recently parsed response, if any (error
  /// replies carry traces too). Overwritten — or cleared — by every
  /// successful read.
  [[nodiscard]] const std::optional<obs::Trace>& last_trace() const noexcept {
    return last_trace_;
  }

  /// Liveness probe: uptime_s and queue_depth (what the balancer and the
  /// supervisor ping workers with).
  [[nodiscard]] common::Result<WireHealth> health();
  /// The server's metrics-registry exposition — every counter it keeps:
  /// Prometheus-style text plus the flat name→value map (a balancer answers
  /// with its own counters merged with every backend's).
  [[nodiscard]] common::Result<WireMetrics> metrics();

  /// Relinquish ownership of the connected descriptor and disconnect this
  /// client. The fleet balancer pools backend connections this way: connect
  /// with the shared backoff logic here, then run its own reader on the fd.
  [[nodiscard]] int release_fd() noexcept {
    splitter_ = MessageSplitter(kMaxMessageBytes);
    binary_ = false;
    last_trace_.reset();
    return std::exchange(fd_, -1);
  }

 private:
  /// Reply-side buffering bound — far above any real reply, it only guards
  /// against a garbage peer whose bytes never frame a message.
  static constexpr std::size_t kMaxMessageBytes = 64u << 20;

  SocketClient(int fd, std::chrono::milliseconds io_timeout)
      : fd_(fd), io_timeout_(io_timeout) {}
  [[nodiscard]] common::Status send_raw(std::string_view bytes);
  [[nodiscard]] common::Status send_line(std::string_view line);
  /// Format per the negotiated framing and send.
  [[nodiscard]] common::Status send_request(const WireRequest& request);
  [[nodiscard]] common::Result<WireResponse> read_wire(std::uint64_t expect_id);
  [[nodiscard]] common::Result<core::Predictor::KernelPrediction> read_response(
      std::uint64_t expect_id);
  [[nodiscard]] common::Result<core::Predictor::KernelPrediction> round_trip(
      const WireRequest& request);
  /// Stamp the trace opt-in on a prediction request when enabled.
  void maybe_trace(WireRequest& request);

  int fd_ = -1;
  std::chrono::milliseconds io_timeout_{30000};
  std::optional<double> deadline_ms_;
  std::uint64_t next_id_ = 1;
  bool binary_ = false;  // negotiated framing for requests this client sends
  bool trace_enabled_ = false;
  std::optional<obs::Trace> last_trace_;
  MessageSplitter splitter_{kMaxMessageBytes};  // reply reassembly, both framings
  /// Reused across requests: every outgoing message (both framings) is
  /// encoded _into this buffer, so a pipelined predict_source_many burst
  /// encodes N requests with zero steady-state allocations.
  std::string send_buf_;
  /// Scratch request reused by predict_source_many — kernel/source strings
  /// keep their capacity across the pipeline instead of reallocating per
  /// request.
  WireRequest scratch_request_;
};

}  // namespace repro::serve
