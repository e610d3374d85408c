// The line-delimited JSON wire protocol of repro_serve.
//
// One request per line, one response line per request, over a Unix or TCP
// socket. Two prediction request types: "predict" carries the 10 raw static
// feature counts, "predict_source" carries OpenCL-C source that the server
// featurizes on its worker shards (inside the batch, off the
// connection thread):
//
//   {"id": 7, "type": "predict", "kernel": "saxpy",
//    "features": [12, 0, 0, 0, 8, 8, 0, 0, 3, 0]}
//   {"id": 8, "type": "predict_source",
//    "source": "kernel void f(global float* x) { ... }"}
//
// Two introspection request types, payload-free, answered on the
// connection thread (they never enter the batching pipeline): "health" is
// the two-field liveness probe (the fleet balancer and supervisor ping it),
// and "metrics" the Prometheus-style exposition of the server's metrics
// registry — every counter the server keeps (docs/OBSERVABILITY.md). The
// retired "stats" type is answered with a parse_error like any unknown
// type. Any request may also carry a numeric "trace" member — a trace id
// asking every hop to stamp per-stage timings onto the reply:
//
//   {"id": 9, "type": "health"}
//     → {"id": 9, "health": {"status": "ok", "uptime_s": 12.5, "queue_depth": 0}}
//   {"id": 10, "type": "metrics"}
//     → {"id": 10, "metrics": {"text": "repro_requests_total 8\n...",
//        "values": {"repro_requests_total": 8, ...}}}
//
// "type" may be omitted for backward compatibility — the payload member
// then decides — but when present it must match the payload. Connections
// are pipelined: clients may write any number of request lines without
// waiting; responses come back in request order.
//
// Responses echo the id and carry the predicted Pareto set, or an error:
//
//   {"id": 7, "kernel": "saxpy", "pareto": [{"core_mhz": 1002, "mem_mhz": 3505,
//       "speedup": 0.93, "energy": 0.71, "heuristic": false}, ...]}
//   {"id": 8, "error": {"code": "parse_error", "message": "..."}}
//
// Determinism over the wire: every double is printed with std::to_chars
// (shortest round-trip form, locale-independent) and parsed with
// std::from_chars, which recovers IEEE-754 binary64 exactly — a client
// parsing the response sees bit-identical values to an in-process
// Predictor call (asserted in tests/serve_test.cpp) regardless of the
// embedding program's LC_NUMERIC.
//
// The JSON layer is a deliberately small, dependency-free subset parser —
// UTF-8 pass-through, \uXXXX escapes decoded for the BMP — sufficient for
// and validated against this protocol.
//
// --- binary framing (protocol version 1) -------------------------------------
//
// JSON lines stay the default and the debug surface. A client may upgrade a
// connection by sending a JSON "hello" request:
//
//   {"id": 1, "type": "hello", "max_protocol": 1}
//     → {"id": 1, "hello": {"protocol": 1}}
//
// A server that predates "hello" answers it with a parse error, which the
// client treats as a clean downgrade to JSON (no desync: the error reply is
// a perfectly ordinary reply line). After a successful negotiation both
// sides may frame messages as length-prefixed binary frames:
//
//   byte 0       magic 0xB1 (never the first byte of a JSON line)
//   byte 1       frame type (FrameType below)
//   bytes 2..5   payload length, u32 little-endian
//   bytes 6..    payload
//
// The two framings share one byte stream: each message is classified by its
// first byte (0xB1 = frame, anything else = JSON line up to '\n'), and every
// reply mirrors its request's framing. All binary integers are fixed-width
// little-endian; doubles travel as their IEEE-754 binary64 bit pattern —
// bit-exact by construction, including inf/nan/denormals, matching the
// exactness the JSON framing gets from to_chars/from_chars. Strings are a
// u32 length followed by raw bytes.
//
// kSourceBegin/kSourceChunk/kSourceEnd stream one predict_source request in
// bounded memory: Begin carries id/kernel/deadline, each Chunk up to one
// frame of raw source bytes (fed straight into the server's SourceFeeder),
// End settles the request and is answered like any predict reply.
// kSourceAbort drops a half-streamed request without a reply (client gone,
// or a forwarding balancer cleaning up).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "clfront/features.hpp"
#include "common/arena.hpp"
#include "common/buffer_pool.hpp"
#include "common/status.hpp"
#include "core/predictor.hpp"
#include "obs/trace.hpp"

namespace repro::serve {

// --- minimal JSON value -------------------------------------------------------

/// A parsed JSON document. All internal storage — strings, arrays, object
/// member vectors — is typed on common::ArenaAllocator, so a document built
/// by parse_json(text, &arena) lives entirely in that arena and dies at its
/// next reset() (the per-request parse on the serve hot path). With no
/// arena the allocator falls back to the heap and the value behaves exactly
/// as before. A JsonValue must never outlive the arena it was parsed into.
class JsonValue {
 public:
  using String =
      std::basic_string<char, std::char_traits<char>, common::ArenaAllocator<char>>;
  using Array = std::vector<JsonValue, common::ArenaAllocator<JsonValue>>;
  using Member = std::pair<String, JsonValue>;
  using Object = std::vector<Member, common::ArenaAllocator<Member>>;  // insertion order

  JsonValue() : data_(nullptr) {}
  JsonValue(std::nullptr_t) : data_(nullptr) {}          // NOLINT
  JsonValue(bool b) : data_(b) {}                        // NOLINT
  JsonValue(double d) : data_(d) {}                      // NOLINT
  JsonValue(std::string_view s) : data_(String(s)) {}    // NOLINT (heap-backed)
  JsonValue(const char* s) : data_(String(std::string_view(s))) {}  // NOLINT
  JsonValue(String s) : data_(std::move(s)) {}           // NOLINT
  JsonValue(Array a) : data_(std::move(a)) {}            // NOLINT
  JsonValue(Object o) : data_(std::move(o)) {}           // NOLINT

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<String>(data_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(data_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(data_); }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(data_); }
  [[nodiscard]] double as_number() const { return std::get<double>(data_); }
  /// A view into the document's storage — valid only while the document
  /// (and its arena, if any) is alive. Copy out anything that escapes.
  [[nodiscard]] std::string_view as_string() const {
    const String& s = std::get<String>(data_);
    return {s.data(), s.size()};
  }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(data_); }
  [[nodiscard]] const Object& as_object() const { return std::get<Object>(data_); }

  /// First member with this key, or nullptr (objects only).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

 private:
  std::variant<std::nullptr_t, bool, double, String, Array, Object> data_;
};

/// Parse one JSON document (the whole input must be consumed, modulo
/// whitespace). Depth-limited; parse errors carry a byte offset. A non-null
/// `arena` backs every string/array/object in the returned document —
/// zero heap allocations on well-formed input — and the document must be
/// dropped before the arena resets.
[[nodiscard]] common::Result<JsonValue> parse_json(std::string_view text,
                                                   common::Arena* arena = nullptr);

// --- protocol messages --------------------------------------------------------

/// Highest binary protocol version this build speaks. "hello" negotiates
/// min(client max, server max); version 0 means "JSON lines only".
/// Version 2 added the optional request trace flag (kFlagTrace) and the
/// metrics kind to the binary framing. The JSON framing needs no version:
/// its parser ignores unknown members, so "trace" is inherently
/// backward compatible there.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// What a request line asks for. The two predict kinds are inferred from
/// the payload (the "type" member is optional for them); health, metrics
/// and hello must be named explicitly and carry no payload.
enum class RequestKind {
  kPredict,
  kPredictSource,
  kHealth,
  kHello,
  kMetrics,
};

struct WireRequest {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kPredict;
  /// kHello only: the highest binary protocol version the client speaks.
  std::uint32_t max_protocol = 0;
  std::string kernel;  // optional display name; defaults applied server-side
  /// For the predict kinds, exactly one of the two is set after a
  /// successful parse: "predict" requests carry features, "predict_source"
  /// requests carry source. Both empty for health/metrics/hello.
  std::optional<std::array<double, clfront::kNumFeatures>> features;  // raw counts
  std::optional<std::string> source;                                  // OpenCL-C
  /// Optional latency budget in milliseconds, relative to when the server
  /// parses the line. A request whose budget has run out anywhere in the
  /// pipeline is answered "deadline_exceeded" without being predicted; the
  /// balancer deducts elapsed time before re-dispatching (see
  /// docs/ROBUSTNESS.md). Absent = no deadline (old clients unaffected).
  std::optional<double> deadline_ms;
  /// Optional trace id: asks every hop to stamp per-stage timestamps onto
  /// the reply (docs/OBSERVABILITY.md). Absent = untraced (the default;
  /// tracing is strictly opt-in per request). JSON servers that predate
  /// tracing ignore the member; on the binary framing the flag is only
  /// legal at protocol >= 2, so clients gate it on the negotiated version.
  std::optional<std::uint64_t> trace;
};

/// A "health" response: the liveness probe's two fields. Counters are not
/// here — they live in the metrics registry and travel as "metrics".
struct WireHealth {
  double uptime_s = 0.0;
  /// Admission-queue backlog right now (a balancer: requests pending on
  /// its backends).
  std::uint64_t queue_depth = 0;
};

/// A "metrics" response: the Prometheus text exposition plus the flat
/// structured view (obs::Registry::snapshot_values) so programmatic
/// consumers — the balancer's aggregator, repro_top — need not parse the
/// text form.
struct WireMetrics {
  std::string text;
  std::vector<std::pair<std::string, double>> values;
};

struct WireResponse {
  std::uint64_t id = 0;
  /// Exactly one of prediction/health/metrics/error/protocol is set.
  std::optional<core::Predictor::KernelPrediction> prediction;
  std::optional<WireHealth> health;    // health responses
  std::optional<WireMetrics> metrics;  // metrics responses
  std::optional<common::Error> error;
  std::optional<std::uint32_t> protocol;  // hello responses
  /// Per-stage timings, present only when the request carried a trace id.
  /// Rides on prediction AND error replies (a shed request's trace answers
  /// "where was it shed"). The one deliberately nondeterministic reply
  /// field — excluded from bit-identity comparisons (DETERMINISM.md).
  std::optional<obs::Trace> trace;
};

/// Parse one request line. A non-null `arena` backs the intermediate JSON
/// document (reset by the caller after the reply is written); the returned
/// WireRequest always owns its strings on the heap — kernel and source may
/// escape into the batching pipeline, so nothing arena-backed leaves this
/// function (short kernel names land in SSO storage, so the steady-state
/// predict path still allocates nothing).
[[nodiscard]] common::Result<WireRequest> parse_request(std::string_view line,
                                                        common::Arena* arena = nullptr);
/// Prediction/error responses take an optional trace to append as the
/// ,"trace":{"id":…,"stages":[{"stage":…,"us":…},…]} member.
///
/// Every formatter appends to a caller-owned buffer (a connection's pooled
/// reply buffer — no per-reply string on the hot path). format_response and
/// format_request also have returning forms, byte-identical wrappers for
/// callers that want a fresh string (the balancer's dispatch, the codec
/// bench).
void format_response_into(std::string& out, std::uint64_t id,
                          const core::Predictor::KernelPrediction& p,
                          const obs::Trace* trace = nullptr);
[[nodiscard]] std::string format_response(std::uint64_t id,
                                          const core::Predictor::KernelPrediction& p,
                                          const obs::Trace* trace = nullptr);
void format_error_into(std::string& out, std::uint64_t id, const common::Error& error,
                       const obs::Trace* trace = nullptr);
/// {"id":…,"health":{"status":"ok","uptime_s":…,"queue_depth":…}}
void format_health_response_into(std::string& out, std::uint64_t id,
                                 const WireHealth& health);
/// {"id":…,"metrics":{"text":…,"values":{…name:number…}}}
void format_metrics_response_into(std::string& out, std::uint64_t id,
                                  const WireMetrics& metrics);
/// {"id":…,"hello":{"protocol":…}}
void format_hello_response_into(std::string& out, std::uint64_t id,
                                std::uint32_t protocol);
[[nodiscard]] common::Result<WireResponse> parse_response(std::string_view line);
void format_request_into(std::string& out, const WireRequest& request);  // client side
[[nodiscard]] std::string format_request(const WireRequest& request);    // client side

/// The numeric "id" of a line whose full parse failed, when one can still
/// be recovered — error replies echo it so clients can correlate. It comes
/// from the document when the line is JSON, else from a line that leads
/// with {"id":<n> followed by ',', '}' or whitespace (a truncated request);
/// 0 when even the id is unrecoverable.
[[nodiscard]] std::uint64_t best_effort_id(std::string_view line);

// --- binary framing -----------------------------------------------------------

namespace binary {

/// First byte of every binary frame. JSON requests are objects, so a line
/// never starts with 0xB1 — one byte classifies the framing of a message.
inline constexpr unsigned char kMagic = 0xB1;
/// magic + frame type + u32 payload length.
inline constexpr std::size_t kHeaderBytes = 6;

enum class FrameType : std::uint8_t {
  kRequest = 1,      // one WireRequest (any kind)
  kResponse = 2,     // one WireResponse
  kSourceBegin = 3,  // open a chunked predict_source stream
  kSourceChunk = 4,  // raw source bytes for an open stream
  kSourceEnd = 5,    // settle the stream; answered like a predict reply
  kSourceAbort = 6,  // drop a half-streamed request; never answered
};

/// Opening frame of a chunked predict_source request. The deadline is
/// relative to when the receiver parses this frame, exactly like the JSON
/// deadline_ms; the kernel selects which __kernel to predict (first when
/// empty). Chunks and End correlate by id.
struct SourceBegin {
  std::uint64_t id = 0;
  std::string kernel;
  std::optional<double> deadline_ms;
};

struct SourceChunk {
  std::uint64_t id = 0;
  std::string data;  // raw source bytes; boundaries may fall anywhere
};

/// Like the JSON formatters, every frame builder appends one complete frame
/// (header included, length patched in place) to a caller-owned buffer;
/// format_request_frame and format_prediction_frame also have returning,
/// byte-identical forms.
void format_request_frame_into(std::string& out, const WireRequest& request);
[[nodiscard]] std::string format_request_frame(const WireRequest& request);
/// Like the JSON formatters, prediction/error frames take an optional
/// trace, encoded as a trailing section after the body (u64 id, u32 stage
/// count, then str+f64 per stage). Pre-trace parsers never see it: a
/// server only emits a trace when the request carried the trace flag,
/// which old clients never set.
void format_prediction_frame_into(std::string& out, std::uint64_t id,
                                  const core::Predictor::KernelPrediction& p,
                                  const obs::Trace* trace = nullptr);
[[nodiscard]] std::string format_prediction_frame(
    std::uint64_t id, const core::Predictor::KernelPrediction& p,
    const obs::Trace* trace = nullptr);
void format_error_frame_into(std::string& out, std::uint64_t id,
                             const common::Error& error,
                             const obs::Trace* trace = nullptr);
void format_health_frame_into(std::string& out, std::uint64_t id,
                              const WireHealth& health);
void format_metrics_frame_into(std::string& out, std::uint64_t id,
                               const WireMetrics& metrics);
void format_hello_frame_into(std::string& out, std::uint64_t id, std::uint32_t protocol);
[[nodiscard]] std::string format_source_begin(const SourceBegin& begin);
[[nodiscard]] std::string format_source_chunk(std::uint64_t id, std::string_view bytes);
[[nodiscard]] std::string format_source_end(std::uint64_t id);
[[nodiscard]] std::string format_source_abort(std::uint64_t id);

/// Parsers take the frame *payload* (header already stripped by the
/// MessageSplitter). Every read is bounds-checked; trailing bytes after a
/// well-formed payload are a parse error, so a length-prefix lie can never
/// smuggle data past validation.
[[nodiscard]] common::Result<WireRequest> parse_request(std::string_view payload);
[[nodiscard]] common::Result<WireResponse> parse_response(std::string_view payload);
[[nodiscard]] common::Result<SourceBegin> parse_source_begin(std::string_view payload);
[[nodiscard]] common::Result<SourceChunk> parse_source_chunk(std::string_view payload);
[[nodiscard]] common::Result<std::uint64_t> parse_source_end(std::string_view payload);
[[nodiscard]] common::Result<std::uint64_t> parse_source_abort(std::string_view payload);

/// Binary analogue of serve::best_effort_id: every frame payload leads with
/// the u64 id, so it is recoverable whenever at least 8 bytes arrived.
[[nodiscard]] std::uint64_t best_effort_id(std::string_view payload);

}  // namespace binary

// --- incremental message splitting --------------------------------------------

/// One decoded-but-unparsed wire message: a JSON line (terminator stripped)
/// or a binary frame's type + payload.
///
/// `payload` is a view into the splitter's internal buffer — valid only
/// until the next feed() on the same splitter (next() calls in between are
/// fine: the consumed prefix is compacted lazily, on feed). Parse or copy
/// before feeding more bytes.
struct WireMessage {
  bool binary = false;
  binary::FrameType frame = binary::FrameType::kRequest;  // binary only
  std::string_view payload;
};

/// Incremental splitter over the shared byte stream, used by the server,
/// the balancer (both sides), the client, and the protocol fuzzer: feed()
/// raw socket bytes, then drain next() until it reports "need more input".
///
/// Classification is per message by first byte (0xB1 = binary frame,
/// anything else = JSON line up to '\n'; a bare '\r\n' line is skipped).
/// Buffering is bounded: a message longer than max_message_bytes — an
/// overlong line, or a frame whose length prefix exceeds the bound — is an
/// unrecoverable framing fault. next() then returns an error, and the
/// connection must close: once a length prefix lies there is no resync
/// point in the stream.
class MessageSplitter {
 public:
  /// With a pool, the internal buffer is leased from it — a connection's
  /// splitter recycles another connection's warmed-up buffer instead of
  /// growing a fresh string from zero.
  explicit MessageSplitter(std::size_t max_message_bytes = 1 << 20,
                           bool accept_binary = true,
                           common::BufferPool* pool = nullptr)
      : max_bytes_(max_message_bytes),
        accept_binary_(accept_binary),
        buffer_(pool != nullptr ? pool->acquire() : common::BufferPool::Lease()) {}

  void feed(std::string_view bytes);
  /// A complete message, nullopt when more input is needed, or an
  /// unrecoverable framing fault (overlong message, unknown frame type).
  /// The returned payload views this splitter's buffer: valid until the
  /// next feed().
  [[nodiscard]] common::Result<std::optional<WireMessage>> next();

  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_->size() - pos_;
  }
  /// High-water mark of unconsumed bytes — the observable "bounded request
  /// buffer" of the streaming contract (asserted in tests).
  [[nodiscard]] std::size_t peak_buffered_bytes() const noexcept { return peak_; }

 private:
  std::size_t max_bytes_;
  bool accept_binary_;
  common::BufferPool::Lease buffer_;
  std::size_t pos_ = 0;  // consumed prefix, compacted on feed()
  std::size_t peak_ = 0;
};

}  // namespace repro::serve
