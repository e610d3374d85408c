// Protocol fuzz and differential property suite for both wire framings.
//
// Every test here is a deterministic, seeded fuzzer built on common::rng:
// generate valid messages with the real formatters, mutate the bytes (bit
// flips, truncation, mid-frame EOF, splices, length-prefix lies, oversized
// counts), and push the result through the MessageSplitter and the parsers.
// The contract under fuzz is binary: every input yields either a parse
// error or a valid message — never a crash, hang, or overread (the suite
// runs under ASan+UBSan and TSan in CI). The differential tests pin the two
// framings to each other: one logical message, formatted as JSON and as a
// binary frame, must decode to bit-identical fields — including inf,
// denormal, and (binary-only) nan doubles.
//
// Iteration counts default small enough for the regular test run; CI's fuzz
// smoke step raises them with REPRO_FUZZ_ITERS.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "clfront/features.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/predictor.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace rc = repro::common;
namespace rco = repro::core;
namespace rcl = repro::clfront;
namespace rs = repro::serve;
namespace rb = repro::serve::binary;

namespace {

/// What an `_into` reply formatter appends to an empty buffer.
template <class... Params, class... Args>
std::string formatted(void (*format_into)(std::string&, Params...), Args&&... args) {
  std::string out;
  format_into(out, std::forward<Args>(args)...);
  return out;
}

/// Fixed seed set — every run fuzzes the same inputs. CI multiplies the
/// per-seed iteration count via REPRO_FUZZ_ITERS, not the seeds.
constexpr std::uint64_t kSeeds[] = {1, 2, 0x9e3779b97f4a7c15ULL, 42,
                                    0xdeadbeefcafef00dULL};

std::size_t iterations(std::size_t default_iters) {
  if (const char* env = std::getenv("REPRO_FUZZ_ITERS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return default_iters;
}

/// ASCII including control characters — json_quote must escape its way
/// through all of them; the binary framing ships them raw.
std::string random_ascii(rc::Xoshiro256& rng, std::size_t max_len) {
  std::string s;
  const std::size_t n = rng.uniform_index(max_len + 1);
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(1 + rng.uniform_index(0x7e)));
  }
  return s;
}

/// Any byte value at all — for the binary-only round trips and the mutators.
std::string random_bytes(rc::Xoshiro256& rng, std::size_t max_len) {
  std::string s;
  const std::size_t n = rng.uniform_index(max_len + 1);
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng.uniform_index(256)));
  }
  return s;
}

/// A finite double from a spread of magnitudes (including denormals and
/// negative zero) — everything both framings must round-trip exactly.
double random_finite(rc::Xoshiro256& rng) {
  switch (rng.uniform_index(6)) {
    case 0: return rng.uniform(-1.0, 1.0);
    case 1: return rng.uniform(-1e9, 1e9);
    case 2: return rng.gaussian(0.0, 1e-300);  // deep subnormal territory
    case 3: return std::ldexp(rng.uniform(0.5, 1.0), -1050);  // denormal
    case 4: return -0.0;
    default: return rng.uniform(-1e300, 1e300);
  }
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// JSON carries ids and counters as doubles — exact only below 2^53. The
/// differential tests stay under that; the binary-only tests use full u64.
std::uint64_t random_json_safe_u64(rc::Xoshiro256& rng) {
  return rng.next() & ((1ULL << 53) - 1);
}

rs::WireRequest random_request(rc::Xoshiro256& rng, bool json_safe) {
  rs::WireRequest request;
  request.id = json_safe ? random_json_safe_u64(rng) : rng.next();
  switch (rng.uniform_index(5)) {
    case 0: {
      request.kind = rs::RequestKind::kPredict;
      request.kernel = random_ascii(rng, 24);
      std::array<double, rcl::kNumFeatures> features{};
      for (auto& f : features) f = random_finite(rng);
      request.features = features;
      break;
    }
    case 1:
      request.kind = rs::RequestKind::kPredictSource;
      request.kernel = random_ascii(rng, 24);
      request.source = random_ascii(rng, 200);
      break;
    // Deadlines ride only on the predict kinds — both formatters drop them
    // from introspection/hello requests (see format_request).
    case 2:
      request.kind = rs::RequestKind::kHealth;
      break;
    case 3:
      request.kind = rs::RequestKind::kMetrics;
      break;
    default:
      request.kind = rs::RequestKind::kHello;
      request.max_protocol = static_cast<std::uint32_t>(rng.uniform_index(8));
      break;
  }
  // Deadlines and trace ids ride only on the predict kinds — the binary
  // formatter drops both from introspection/hello requests, so generating
  // them there would make the framings disagree by construction.
  if (request.kind == rs::RequestKind::kPredict ||
      request.kind == rs::RequestKind::kPredictSource) {
    if (rng.uniform_index(2) == 0) {
      request.deadline_ms = std::fabs(random_finite(rng));
    }
    if (rng.uniform_index(2) == 0) {
      request.trace = json_safe ? random_json_safe_u64(rng) : rng.next();
    }
  }
  return request;
}

/// A reply trace: json-safe id (both framings must agree) and a handful of
/// stages whose offsets span the finite-double space.
repro::obs::Trace random_trace(rc::Xoshiro256& rng) {
  repro::obs::Trace trace;
  trace.id = random_json_safe_u64(rng);
  const std::size_t n = rng.uniform_index(6);
  for (std::size_t i = 0; i < n; ++i) {
    trace.stages.push_back(
        {random_ascii(rng, 24), std::fabs(random_finite(rng))});
  }
  return trace;
}

rs::WireMetrics random_metrics(rc::Xoshiro256& rng) {
  rs::WireMetrics metrics;
  metrics.text = random_ascii(rng, 120);
  const std::size_t n = rng.uniform_index(8);
  for (std::size_t i = 0; i < n; ++i) {
    metrics.values.emplace_back(random_ascii(rng, 24), random_finite(rng));
  }
  return metrics;
}

rco::Predictor::KernelPrediction random_prediction(rc::Xoshiro256& rng,
                                                   bool allow_inf) {
  rco::Predictor::KernelPrediction p;
  p.kernel = random_ascii(rng, 24);
  const std::size_t n = rng.uniform_index(6);
  for (std::size_t i = 0; i < n; ++i) {
    rco::PredictedPoint point;
    point.config.core_mhz = static_cast<int>(rng.uniform_index(1000000001));
    point.config.mem_mhz = static_cast<int>(rng.uniform_index(1000000001));
    point.speedup = random_finite(rng);
    point.energy = random_finite(rng);
    if (allow_inf && rng.uniform_index(8) == 0) {
      point.speedup = std::numeric_limits<double>::infinity();
    }
    if (allow_inf && rng.uniform_index(8) == 0) {
      point.energy = -std::numeric_limits<double>::infinity();
    }
    point.heuristic = rng.uniform_index(2) == 1;
    p.pareto.push_back(point);
  }
  return p;
}

rs::WireHealth random_health(rc::Xoshiro256& rng) {
  rs::WireHealth health;
  health.uptime_s = std::fabs(random_finite(rng));
  health.queue_depth = random_json_safe_u64(rng);
  return health;
}

rc::Error random_error(rc::Xoshiro256& rng) {
  const auto last = static_cast<std::uint64_t>(rc::ErrorCode::kDeadlineExceeded);
  rc::Error e;
  e.code = static_cast<rc::ErrorCode>(rng.uniform_index(last + 1));
  e.message = random_ascii(rng, 60);
  return e;
}

/// One valid wire message in a random framing (JSON line or binary frame),
/// as the exact bytes a peer would send.
std::string random_valid_message(rc::Xoshiro256& rng) {
  const bool binary = rng.uniform_index(2) == 1;
  switch (rng.uniform_index(8)) {
    case 0: {
      const auto request = random_request(rng, /*json_safe=*/true);
      if (binary) return rb::format_request_frame(request);
      return rs::format_request(request) + "\n";
    }
    case 1: {
      const auto p = random_prediction(rng, /*allow_inf=*/true);
      const auto trace = random_trace(rng);
      const auto* trace_ptr = rng.uniform_index(2) == 0 ? &trace : nullptr;
      if (binary) return rb::format_prediction_frame(rng.next(), p, trace_ptr);
      return rs::format_response(rng.next() & ((1ULL << 53) - 1), p, trace_ptr) +
             "\n";
    }
    case 2: {
      const auto e = random_error(rng);
      const auto trace = random_trace(rng);
      const auto* trace_ptr = rng.uniform_index(2) == 0 ? &trace : nullptr;
      if (binary) return formatted(rb::format_error_frame_into, rng.next(), e, trace_ptr);
      return formatted(rs::format_error_into, rng.next() & ((1ULL << 53) - 1), e,
                       trace_ptr) +
             "\n";
    }
    case 3: {
      const auto metrics = random_metrics(rng);
      if (binary) return formatted(rb::format_metrics_frame_into, rng.next(), metrics);
      return formatted(rs::format_metrics_response_into, rng.next() & ((1ULL << 53) - 1),
                       metrics) +
             "\n";
    }
    case 4: {
      const auto health = random_health(rng);
      if (binary) return formatted(rb::format_health_frame_into, rng.next(), health);
      return formatted(rs::format_health_response_into, rng.next() & ((1ULL << 53) - 1),
                       health) +
             "\n";
    }
    case 5: {
      rb::SourceBegin begin;
      begin.id = rng.next();
      begin.kernel = random_ascii(rng, 24);
      if (rng.uniform_index(2) == 0) begin.deadline_ms = std::fabs(random_finite(rng));
      if (binary) return rb::format_source_begin(begin);
      return formatted(rs::format_hello_response_into, rng.next() & ((1ULL << 53) - 1),
                       static_cast<std::uint32_t>(rng.uniform_index(4))) +
             "\n";
    }
    case 6:
      return rb::format_source_chunk(rng.next(), random_bytes(rng, 100));
    default:
      return rng.uniform_index(2) == 0 ? rb::format_source_end(rng.next())
                                       : rb::format_source_abort(rng.next());
  }
}

/// Apply 1..4 random mutations in place: bit flips, byte rewrites,
/// truncation (mid-frame EOF), garbage insertion, length-prefix lies, and
/// oversized-count rewrites (any u32 in the payload may be a count).
void mutate(std::string& bytes, rc::Xoshiro256& rng) {
  const std::size_t rounds = 1 + rng.uniform_index(4);
  for (std::size_t r = 0; r < rounds && !bytes.empty(); ++r) {
    switch (rng.uniform_index(6)) {
      case 0: {  // flip one bit
        const std::size_t i = rng.uniform_index(bytes.size());
        bytes[i] = static_cast<char>(bytes[i] ^ (1u << rng.uniform_index(8)));
        break;
      }
      case 1: {  // rewrite one byte
        bytes[rng.uniform_index(bytes.size())] =
            static_cast<char>(rng.uniform_index(256));
        break;
      }
      case 2:  // truncate: mid-frame EOF
        bytes.resize(rng.uniform_index(bytes.size()));
        break;
      case 3: {  // insert garbage
        const auto garbage = random_bytes(rng, 8);
        bytes.insert(rng.uniform_index(bytes.size() + 1), garbage);
        break;
      }
      case 4: {  // length-prefix lie (frame header offset 2, if framed)
        if (bytes.size() >= rb::kHeaderBytes &&
            static_cast<unsigned char>(bytes[0]) == rb::kMagic) {
          std::uint32_t lie = static_cast<std::uint32_t>(rng.next());
          if (rng.uniform_index(2) == 0) lie &= 0xffffu;  // small lies too
          std::memcpy(bytes.data() + 2, &lie, sizeof lie);
        }
        break;
      }
      default: {  // oversized count: blast a u32 anywhere in the payload
        if (bytes.size() >= rb::kHeaderBytes + 4) {
          const std::uint32_t huge = 0xffffff00u | static_cast<std::uint32_t>(
                                                       rng.uniform_index(256));
          const std::size_t at =
              rb::kHeaderBytes +
              rng.uniform_index(bytes.size() - rb::kHeaderBytes - 3);
          std::memcpy(bytes.data() + at, &huge, sizeof huge);
        }
        break;
      }
    }
  }
}

/// Run the right parser for a split message. The only acceptable outcomes
/// are "parsed" and "parse error" — anything else (crash, overread, hang)
/// fails the sanitizer run.
void exercise_parsers(const rs::WireMessage& message) {
  if (!message.binary) {
    (void)rs::parse_request(message.payload);
    (void)rs::parse_response(message.payload);
    (void)rs::best_effort_id(message.payload);
    return;
  }
  (void)rb::best_effort_id(message.payload);
  switch (message.frame) {
    case rb::FrameType::kRequest:
      (void)rb::parse_request(message.payload);
      break;
    case rb::FrameType::kResponse:
      (void)rb::parse_response(message.payload);
      break;
    case rb::FrameType::kSourceBegin:
      (void)rb::parse_source_begin(message.payload);
      break;
    case rb::FrameType::kSourceChunk:
      (void)rb::parse_source_chunk(message.payload);
      break;
    case rb::FrameType::kSourceEnd:
      (void)rb::parse_source_end(message.payload);
      break;
    case rb::FrameType::kSourceAbort:
      (void)rb::parse_source_abort(message.payload);
      break;
  }
}

/// Feed a byte stream through a MessageSplitter in random-size reads and
/// parse whatever comes out. Returns the number of messages split. The
/// drain loop is capped: next() must reach "need more input" (or a framing
/// fault) in bounded steps, or the protocol has a livelock.
std::size_t split_and_parse(std::string_view stream, rc::Xoshiro256& rng,
                            std::size_t max_message_bytes) {
  rs::MessageSplitter splitter(max_message_bytes);
  std::size_t messages = 0;
  std::size_t offset = 0;
  // Worst case every message is one byte ('\n' empty lines are skipped, so
  // even that is generous); beyond this the splitter is spinning.
  const std::size_t drain_cap = stream.size() + 16;
  std::size_t drains = 0;
  while (offset < stream.size()) {
    const std::size_t take =
        std::min(stream.size() - offset, 1 + rng.uniform_index(96));
    splitter.feed(stream.substr(offset, take));
    offset += take;
    for (;;) {
      if (drains++ >= drain_cap) {
        ADD_FAILURE() << "MessageSplitter livelock";
        return messages;
      }
      auto next = splitter.next();
      if (!next.ok()) return messages;  // framing fault: connection closes
      if (!next.value().has_value()) break;  // need more input
      ++messages;
      exercise_parsers(*next.value());
    }
    // The splitter never buffers more than one overlong message's worth.
    EXPECT_LE(splitter.buffered_bytes(), max_message_bytes + rb::kHeaderBytes);
  }
  return messages;
}

void expect_request_equal(const rs::WireRequest& a, const rs::WireRequest& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.max_protocol, b.max_protocol);
  ASSERT_EQ(a.features.has_value(), b.features.has_value());
  if (a.features) {
    for (std::size_t i = 0; i < a.features->size(); ++i) {
      EXPECT_TRUE(bits_equal((*a.features)[i], (*b.features)[i])) << "feature " << i;
    }
  }
  EXPECT_EQ(a.source, b.source);
  ASSERT_EQ(a.deadline_ms.has_value(), b.deadline_ms.has_value());
  if (a.deadline_ms) EXPECT_TRUE(bits_equal(*a.deadline_ms, *b.deadline_ms));
  ASSERT_EQ(a.trace.has_value(), b.trace.has_value());
  if (a.trace) EXPECT_EQ(*a.trace, *b.trace);
}

void expect_response_equal(const rs::WireResponse& a, const rs::WireResponse& b) {
  EXPECT_EQ(a.id, b.id);
  ASSERT_EQ(a.prediction.has_value(), b.prediction.has_value());
  if (a.prediction) {
    EXPECT_EQ(a.prediction->kernel, b.prediction->kernel);
    ASSERT_EQ(a.prediction->pareto.size(), b.prediction->pareto.size());
    for (std::size_t i = 0; i < a.prediction->pareto.size(); ++i) {
      const auto& pa = a.prediction->pareto[i];
      const auto& pb = b.prediction->pareto[i];
      EXPECT_EQ(pa.config, pb.config);
      EXPECT_TRUE(bits_equal(pa.speedup, pb.speedup)) << "point " << i;
      EXPECT_TRUE(bits_equal(pa.energy, pb.energy)) << "point " << i;
      EXPECT_EQ(pa.heuristic, pb.heuristic);
    }
  }
  ASSERT_EQ(a.health.has_value(), b.health.has_value());
  if (a.health) {
    EXPECT_TRUE(bits_equal(a.health->uptime_s, b.health->uptime_s));
    EXPECT_EQ(a.health->queue_depth, b.health->queue_depth);
  }
  ASSERT_EQ(a.metrics.has_value(), b.metrics.has_value());
  if (a.metrics) {
    EXPECT_EQ(a.metrics->text, b.metrics->text);
    ASSERT_EQ(a.metrics->values.size(), b.metrics->values.size());
    for (std::size_t i = 0; i < a.metrics->values.size(); ++i) {
      EXPECT_EQ(a.metrics->values[i].first, b.metrics->values[i].first);
      EXPECT_TRUE(bits_equal(a.metrics->values[i].second,
                             b.metrics->values[i].second))
          << "metric " << i;
    }
  }
  ASSERT_EQ(a.trace.has_value(), b.trace.has_value());
  if (a.trace) {
    EXPECT_EQ(a.trace->id, b.trace->id);
    ASSERT_EQ(a.trace->stages.size(), b.trace->stages.size());
    for (std::size_t i = 0; i < a.trace->stages.size(); ++i) {
      EXPECT_EQ(a.trace->stages[i].stage, b.trace->stages[i].stage);
      EXPECT_TRUE(bits_equal(a.trace->stages[i].us, b.trace->stages[i].us))
          << "stage " << i;
    }
  }
  ASSERT_EQ(a.error.has_value(), b.error.has_value());
  if (a.error) {
    EXPECT_EQ(a.error->code, b.error->code);
    EXPECT_EQ(a.error->message, b.error->message);
  }
  ASSERT_EQ(a.protocol.has_value(), b.protocol.has_value());
  if (a.protocol) EXPECT_EQ(*a.protocol, *b.protocol);
}

/// The binary frame payload of a formatted frame (header stripped), checked.
std::string frame_payload(const std::string& framed) {
  EXPECT_GE(framed.size(), rb::kHeaderBytes);
  EXPECT_EQ(static_cast<unsigned char>(framed[0]), rb::kMagic);
  return framed.substr(rb::kHeaderBytes);
}

}  // namespace

// --- fuzz: mutated streams ----------------------------------------------------

TEST(ProtocolFuzz, MutatedMessageStreamsNeverCrashTheStack) {
  const std::size_t iters = iterations(300);
  for (const std::uint64_t seed : kSeeds) {
    rc::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < iters; ++i) {
      std::string stream;
      const std::size_t messages = 1 + rng.uniform_index(3);
      for (std::size_t m = 0; m < messages; ++m) stream += random_valid_message(rng);
      mutate(stream, rng);
      split_and_parse(stream, rng, /*max_message_bytes=*/1 << 16);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ProtocolFuzz, PureGarbageNeverHangsTheSplitter) {
  const std::size_t iters = iterations(300);
  for (const std::uint64_t seed : kSeeds) {
    rc::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < iters; ++i) {
      std::string stream = random_bytes(rng, 512);
      // Half the time, force the stream to lead with the magic byte so the
      // binary header path sees plenty of garbage too.
      if (!stream.empty() && rng.uniform_index(2) == 0) {
        stream[0] = static_cast<char>(rb::kMagic);
      }
      split_and_parse(stream, rng, /*max_message_bytes=*/256);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ProtocolFuzz, MutatedJsonLinesAlwaysParseOrError) {
  const std::size_t iters = iterations(300);
  for (const std::uint64_t seed : kSeeds) {
    rc::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < iters; ++i) {
      std::string line = rs::format_request(random_request(rng, true));
      mutate(line, rng);
      (void)rs::parse_request(line);
      (void)rs::parse_response(line);
      (void)rs::best_effort_id(line);
    }
  }
}

// Truncation at every byte boundary: mid-frame EOF must always be a clean
// parse error, with two deliberate exceptions. A SourceChunk has valid
// proper prefixes (its data is "the rest of the payload" by design); a
// prediction/error body's trailing trace section is optional for version
// skew, so the cut that removes EXACTLY that tail yields a valid
// (trace-less) message — any other cut must still error.
TEST(ProtocolFuzz, TruncatedBinaryPayloadsAlwaysError) {
  rc::Xoshiro256 rng(7);
  for (std::size_t i = 0; i < iterations(60); ++i) {
    const std::string framed = random_valid_message(rng);
    if (framed.empty() || static_cast<unsigned char>(framed[0]) != rb::kMagic) {
      continue;
    }
    const auto type = static_cast<rb::FrameType>(framed[1]);
    const std::string payload = frame_payload(framed);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string_view prefix(payload.data(), cut);
      switch (type) {
        case rb::FrameType::kRequest:
          EXPECT_FALSE(rb::parse_request(prefix).ok()) << "cut " << cut;
          break;
        case rb::FrameType::kResponse: {
          const auto parsed = rb::parse_response(prefix);
          if (parsed.ok()) {
            const bool trace_tail = (parsed.value().prediction.has_value() ||
                                     parsed.value().error.has_value()) &&
                                    !parsed.value().trace.has_value();
            EXPECT_TRUE(trace_tail) << "unexpected parse success at cut " << cut;
          }
          break;
        }
        case rb::FrameType::kSourceBegin:
          EXPECT_FALSE(rb::parse_source_begin(prefix).ok()) << "cut " << cut;
          break;
        case rb::FrameType::kSourceChunk:
          // Prefixes >= the 8-byte id are themselves valid chunks.
          EXPECT_EQ(rb::parse_source_chunk(prefix).ok(), cut >= 8) << "cut " << cut;
          break;
        case rb::FrameType::kSourceEnd:
          EXPECT_FALSE(rb::parse_source_end(prefix).ok()) << "cut " << cut;
          break;
        case rb::FrameType::kSourceAbort:
          EXPECT_FALSE(rb::parse_source_abort(prefix).ok()) << "cut " << cut;
          break;
      }
    }
  }
}

// A length prefix that exceeds the splitter's bound is an unrecoverable
// framing fault (there is no resync point once a length lies); a prefix
// that lies within the bound merely starves (need-more-input) or produces a
// payload that fails its parser. Neither may crash or hang.
TEST(ProtocolFuzz, LengthPrefixLiesAreContained) {
  rc::Xoshiro256 rng(11);
  const std::size_t max_bytes = 1 << 12;
  for (std::size_t i = 0; i < iterations(200); ++i) {
    std::string framed = rb::format_request_frame(random_request(rng, true));
    const std::uint32_t lie =
        rng.uniform_index(2) == 0
            ? static_cast<std::uint32_t>(max_bytes + 1 + rng.uniform_index(1 << 20))
            : static_cast<std::uint32_t>(rng.uniform_index(max_bytes));
    std::memcpy(framed.data() + 2, &lie, sizeof lie);

    rs::MessageSplitter splitter(max_bytes);
    splitter.feed(framed);
    auto next = splitter.next();
    if (lie > max_bytes) {
      EXPECT_FALSE(next.ok()) << "oversized length prefix must be a framing fault";
    } else if (next.ok() && next.value().has_value()) {
      exercise_parsers(*next.value());
    } else {
      EXPECT_TRUE(next.ok());  // starving for more input is fine; faulting is not
    }
  }
}

// --- property: the splitter is a pure function of the byte stream -------------

TEST(ProtocolFuzz, SplitterIsChunkingInvariant) {
  rc::Xoshiro256 rng(13);
  for (std::size_t i = 0; i < iterations(100); ++i) {
    std::string stream;
    const std::size_t messages = 1 + rng.uniform_index(4);
    for (std::size_t m = 0; m < messages; ++m) stream += random_valid_message(rng);

    // WireMessage::payload is a view into the splitter's buffer, valid only
    // until the next feed() — copy it out before feeding more.
    struct OwnedMessage {
      bool binary;
      rb::FrameType frame;
      std::string payload;
    };
    auto split_at = [&stream](std::size_t chunk) {
      rs::MessageSplitter splitter(1 << 20);
      std::vector<OwnedMessage> out;
      for (std::size_t off = 0; off < stream.size(); off += chunk) {
        splitter.feed(std::string_view(stream).substr(off, chunk));
        for (;;) {
          auto next = splitter.next();
          EXPECT_TRUE(next.ok()) << next.error().message;
          if (!next.ok() || !next.value().has_value()) break;
          out.push_back(OwnedMessage{next.value()->binary, next.value()->frame,
                                     std::string(next.value()->payload)});
        }
      }
      return out;
    };

    const auto whole = split_at(stream.size());
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      const auto split = split_at(chunk);
      ASSERT_EQ(split.size(), whole.size()) << "chunk " << chunk;
      for (std::size_t m = 0; m < whole.size(); ++m) {
        EXPECT_EQ(split[m].binary, whole[m].binary);
        EXPECT_EQ(split[m].frame, whole[m].frame);
        EXPECT_EQ(split[m].payload, whole[m].payload);
      }
    }
  }
}

// --- differential: JSON and binary decode to identical messages ---------------

TEST(ProtocolDifferential, RequestsAgreeAcrossFramings) {
  for (const std::uint64_t seed : kSeeds) {
    rc::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < iterations(200); ++i) {
      const auto request = random_request(rng, /*json_safe=*/true);
      auto from_json = rs::parse_request(rs::format_request(request));
      ASSERT_TRUE(from_json.ok()) << from_json.error().message;
      auto from_binary =
          rb::parse_request(frame_payload(rb::format_request_frame(request)));
      ASSERT_TRUE(from_binary.ok()) << from_binary.error().message;
      expect_request_equal(from_json.value(), from_binary.value());
      expect_request_equal(request, from_binary.value());
    }
  }
}

TEST(ProtocolDifferential, ResponsesAgreeAcrossFramings) {
  for (const std::uint64_t seed : kSeeds) {
    rc::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < iterations(200); ++i) {
      const std::uint64_t id = random_json_safe_u64(rng);
      std::string json_line;
      std::string framed;
      switch (rng.uniform_index(4)) {
        case 0: {
          // inf travels exactly in both framings ("1e999" overflows
          // from_chars back to inf); nan is binary-only (JSON has no nan
          // literal) and covered below.
          const auto p = random_prediction(rng, /*allow_inf=*/true);
          json_line = rs::format_response(id, p);
          framed = rb::format_prediction_frame(id, p);
          break;
        }
        case 1: {
          const auto e = random_error(rng);
          json_line = formatted(rs::format_error_into, id, e, nullptr);
          framed = formatted(rb::format_error_frame_into, id, e, nullptr);
          break;
        }
        case 2: {
          const auto health = random_health(rng);
          json_line = formatted(rs::format_health_response_into, id, health);
          framed = formatted(rb::format_health_frame_into, id, health);
          break;
        }
        default: {
          const auto protocol = static_cast<std::uint32_t>(rng.uniform_index(4));
          json_line = formatted(rs::format_hello_response_into, id, protocol);
          framed = formatted(rb::format_hello_frame_into, id, protocol);
          break;
        }
      }
      auto from_json = rs::parse_response(json_line);
      ASSERT_TRUE(from_json.ok()) << from_json.error().message << "\n" << json_line;
      auto from_binary = rb::parse_response(frame_payload(framed));
      ASSERT_TRUE(from_binary.ok()) << from_binary.error().message;
      expect_response_equal(from_json.value(), from_binary.value());
    }
  }
}

// The binary framing ships doubles as raw binary64 bit patterns: nan (with
// payload bits), negative zero, and denormals survive byte-for-byte, and
// u64 ids above 2^53 (where JSON's double ids go lossy) are exact.
TEST(ProtocolDifferential, BinaryRoundTripsPreserveEveryBitPattern) {
  const double quiet_nan = std::bit_cast<double>(0x7ff8dead5ca1ab1eULL);
  const double weird[] = {quiet_nan,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::max()};
  rco::Predictor::KernelPrediction p;
  p.kernel = "bits";
  for (std::size_t i = 0; i < std::size(weird); ++i) {
    rco::PredictedPoint point;
    point.config.core_mhz = 1000 + static_cast<int>(i);
    point.config.mem_mhz = 3505;
    point.speedup = weird[i];
    point.energy = weird[std::size(weird) - 1 - i];
    p.pareto.push_back(point);
  }
  const std::uint64_t id = 0xffffffffffffff01ULL;  // not representable as double

  auto parsed = rb::parse_response(frame_payload(rb::format_prediction_frame(id, p)));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().id, id);
  ASSERT_TRUE(parsed.value().prediction.has_value());
  ASSERT_EQ(parsed.value().prediction->pareto.size(), p.pareto.size());
  for (std::size_t i = 0; i < p.pareto.size(); ++i) {
    EXPECT_TRUE(bits_equal(parsed.value().prediction->pareto[i].speedup,
                           p.pareto[i].speedup))
        << "speedup " << i;
    EXPECT_TRUE(bits_equal(parsed.value().prediction->pareto[i].energy,
                           p.pareto[i].energy))
        << "energy " << i;
  }

  // Source streaming frames carry full-width ids and arbitrary chunk bytes.
  rb::SourceBegin begin;
  begin.id = id;
  begin.kernel = std::string("\x00\xff\x7f weird", 9);
  begin.deadline_ms = 12.5;
  auto begin_parsed =
      rb::parse_source_begin(frame_payload(rb::format_source_begin(begin)));
  ASSERT_TRUE(begin_parsed.ok());
  EXPECT_EQ(begin_parsed.value().id, id);
  EXPECT_EQ(begin_parsed.value().kernel, begin.kernel);
  ASSERT_TRUE(begin_parsed.value().deadline_ms.has_value());
  EXPECT_TRUE(bits_equal(*begin_parsed.value().deadline_ms, 12.5));

  std::string chunk_bytes;
  for (int b = 0; b < 256; ++b) chunk_bytes.push_back(static_cast<char>(b));
  auto chunk_parsed =
      rb::parse_source_chunk(frame_payload(rb::format_source_chunk(id, chunk_bytes)));
  ASSERT_TRUE(chunk_parsed.ok());
  EXPECT_EQ(chunk_parsed.value().id, id);
  EXPECT_EQ(chunk_parsed.value().data, chunk_bytes);

  auto end_parsed = rb::parse_source_end(frame_payload(rb::format_source_end(id)));
  ASSERT_TRUE(end_parsed.ok());
  EXPECT_EQ(end_parsed.value(), id);
  auto abort_parsed =
      rb::parse_source_abort(frame_payload(rb::format_source_abort(id)));
  ASSERT_TRUE(abort_parsed.ok());
  EXPECT_EQ(abort_parsed.value(), id);
}

// Trailing bytes after a structurally complete payload are rejected — a
// length-prefix lie can never smuggle extra bytes past validation.
TEST(ProtocolDifferential, TrailingBytesAreRejected) {
  rc::Xoshiro256 rng(17);
  const auto request = random_request(rng, true);
  std::string payload = frame_payload(rb::format_request_frame(request));
  payload.push_back('\0');
  EXPECT_FALSE(rb::parse_request(payload).ok());

  std::string end = frame_payload(rb::format_source_end(9));
  end.push_back('x');
  EXPECT_FALSE(rb::parse_source_end(end).ok());
}

// Traced replies: the per-stage trace section must decode to identical
// id/stage/offset fields from the JSON member and the binary trailing
// section, on prediction and error replies alike.
TEST(ProtocolDifferential, TracedResponsesAgreeAcrossFramings) {
  for (const std::uint64_t seed : kSeeds) {
    rc::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < iterations(200); ++i) {
      const std::uint64_t id = random_json_safe_u64(rng);
      const auto trace = random_trace(rng);
      std::string json_line;
      std::string framed;
      if (rng.uniform_index(2) == 0) {
        const auto p = random_prediction(rng, /*allow_inf=*/true);
        json_line = rs::format_response(id, p, &trace);
        framed = rb::format_prediction_frame(id, p, &trace);
      } else {
        const auto e = random_error(rng);
        json_line = formatted(rs::format_error_into, id, e, &trace);
        framed = formatted(rb::format_error_frame_into, id, e, &trace);
      }
      auto from_json = rs::parse_response(json_line);
      ASSERT_TRUE(from_json.ok()) << from_json.error().message << "\n" << json_line;
      auto from_binary = rb::parse_response(frame_payload(framed));
      ASSERT_TRUE(from_binary.ok()) << from_binary.error().message;
      ASSERT_TRUE(from_json.value().trace.has_value());
      EXPECT_EQ(from_json.value().trace->id, trace.id);
      EXPECT_EQ(from_json.value().trace->stages.size(), trace.stages.size());
      expect_response_equal(from_json.value(), from_binary.value());
    }
  }
}

// Metrics replies: the text exposition and every (name, value) pair must
// survive both framings bit-exactly.
TEST(ProtocolDifferential, MetricsResponsesAgreeAcrossFramings) {
  for (const std::uint64_t seed : kSeeds) {
    rc::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < iterations(200); ++i) {
      const std::uint64_t id = random_json_safe_u64(rng);
      const auto metrics = random_metrics(rng);
      auto from_json =
          rs::parse_response(formatted(rs::format_metrics_response_into, id, metrics));
      ASSERT_TRUE(from_json.ok()) << from_json.error().message;
      auto from_binary =
          rb::parse_response(frame_payload(formatted(rb::format_metrics_frame_into, id,
                                                     metrics)));
      ASSERT_TRUE(from_binary.ok()) << from_binary.error().message;
      ASSERT_TRUE(from_json.value().metrics.has_value());
      ASSERT_EQ(from_json.value().metrics->values.size(), metrics.values.size());
      EXPECT_EQ(from_json.value().metrics->text, metrics.text);
      expect_response_equal(from_json.value(), from_binary.value());
    }
  }
}

// The metrics request kind and trace ids on requests are protocol-2
// additions; both must agree across framings (random_request already mixes
// them in — this pins the specific fields explicitly).
TEST(ProtocolDifferential, TracedAndMetricsRequestsAgreeAcrossFramings) {
  rs::WireRequest request;
  request.id = 99;
  request.kind = rs::RequestKind::kPredictSource;
  request.source = "kernel void k() {}";
  request.trace = 0xabcdefULL;
  auto from_json = rs::parse_request(rs::format_request(request));
  ASSERT_TRUE(from_json.ok()) << from_json.error().message;
  auto from_binary =
      rb::parse_request(frame_payload(rb::format_request_frame(request)));
  ASSERT_TRUE(from_binary.ok()) << from_binary.error().message;
  ASSERT_TRUE(from_json.value().trace.has_value());
  EXPECT_EQ(*from_json.value().trace, 0xabcdefULL);
  expect_request_equal(from_json.value(), from_binary.value());

  rs::WireRequest metrics_request;
  metrics_request.id = 100;
  metrics_request.kind = rs::RequestKind::kMetrics;
  auto mj = rs::parse_request(rs::format_request(metrics_request));
  ASSERT_TRUE(mj.ok()) << mj.error().message;
  auto mb =
      rb::parse_request(frame_payload(rb::format_request_frame(metrics_request)));
  ASSERT_TRUE(mb.ok()) << mb.error().message;
  EXPECT_EQ(mj.value().kind, rs::RequestKind::kMetrics);
  expect_request_equal(mj.value(), mb.value());
}
