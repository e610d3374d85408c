#include "serve/protocol.hpp"

#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <system_error>
#include <utility>

namespace repro::serve {

// --- JSON parsing -------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 32;

bool is_json_space(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

/// Every character a number token may continue with (after an optional
/// leading '-'); from_chars then decides whether the token is well formed.
bool is_number_char(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

/// Classifies a from_chars result_out_of_range token: true when the value is
/// too small for binary64 (rounds to zero) rather than too large (saturates
/// to infinity). Decided textually from the decimal order of magnitude of the
/// first significant digit, since from_chars leaves `value` unmodified.
bool token_underflows(std::string_view token) {
  if (!token.empty() && (token.front() == '-' || token.front() == '+')) {
    token.remove_prefix(1);
  }
  long exp10 = 0;
  const std::size_t epos = token.find_first_of("eE");
  const std::string_view mantissa = token.substr(0, epos);
  if (epos != std::string_view::npos) {
    std::string_view exp_text = token.substr(epos + 1);
    // Integer from_chars rejects a leading '+' that the double parse accepts.
    if (!exp_text.empty() && exp_text.front() == '+') exp_text.remove_prefix(1);
    const auto [end, ec] =
        std::from_chars(exp_text.data(), exp_text.data() + exp_text.size(), exp10);
    (void)end;
    if (ec == std::errc::result_out_of_range) {
      // Exponent itself exceeds long: its sign alone decides.
      return !exp_text.empty() && exp_text.front() == '-';
    }
  }
  const std::size_t dot = mantissa.find('.');
  const std::size_t first = mantissa.find_first_not_of("0.");
  if (first == std::string_view::npos) return true;  // all zeros: not out of range
  // Order of magnitude of the leading significant digit relative to the point.
  long order = 0;
  if (dot == std::string_view::npos || first < dot) {
    const std::size_t int_end = dot == std::string_view::npos ? mantissa.size() : dot;
    order = static_cast<long>(int_end - first) - 1;
  } else {
    order = -static_cast<long>(first - dot);
  }
  // Clamp before the sum: |order| is bounded by the token length, but exp10
  // may sit near LONG_MAX/LONG_MIN and the addition must not overflow.
  if (exp10 > 1000000) return false;
  if (exp10 < -1000000) return true;
  return exp10 + order < 0;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text, common::Arena* arena)
      : text_(text), alloc_(arena) {}

  common::Result<JsonValue> parse() {
    auto value = parse_value(0);
    if (!value.ok()) return value;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return value;
  }

 private:
  common::Error fail(const std::string& what) const {
    return common::parse_error("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() && is_json_space(text_[pos_])) ++pos_;
  }

  [[nodiscard]] bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  common::Result<JsonValue> parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        auto s = parse_string();
        if (!s.ok()) return s.error();
        return JsonValue(std::move(s).take());
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          return JsonValue(true);
        }
        return fail("bad literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          return JsonValue(false);
        }
        return fail("bad literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return JsonValue(nullptr);
        }
        return fail("bad literal");
      default: return parse_number();
    }
  }

  common::Result<JsonValue> parse_object(int depth) {
    ++pos_;  // '{'
    JsonValue::Object members{JsonValue::Object::allocator_type(alloc_)};
    skip_ws();
    if (consume('}')) return JsonValue(std::move(members));
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected member key");
      auto key = parse_string();
      if (!key.ok()) return key.error();
      skip_ws();
      if (!consume(':')) return fail("expected ':' after key");
      auto value = parse_value(depth + 1);
      if (!value.ok()) return value;
      members.emplace_back(std::move(key).take(), std::move(value).take());
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return JsonValue(std::move(members));
      return fail("expected ',' or '}' in object");
    }
  }

  common::Result<JsonValue> parse_array(int depth) {
    ++pos_;  // '['
    JsonValue::Array items{JsonValue::Array::allocator_type(alloc_)};
    skip_ws();
    if (consume(']')) return JsonValue(std::move(items));
    for (;;) {
      auto value = parse_value(depth + 1);
      if (!value.ok()) return value;
      items.push_back(std::move(value).take());
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return JsonValue(std::move(items));
      return fail("expected ',' or ']' in array");
    }
  }

  common::Result<JsonValue::String> parse_string() {
    ++pos_;  // opening quote
    JsonValue::String out{alloc_};
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) return fail("control character in string");
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) return fail("dangling escape");
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          pos_ += 4;
          // Encode the BMP code point as UTF-8 (surrogate pairs are passed
          // through as two 3-byte sequences — fine for this protocol, which
          // only ships ASCII identifiers and OpenCL-C source).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  common::Result<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
      // sign consumed
    }
    while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
    if (pos_ == start) return fail("expected a value");
    const std::string_view token = text_.substr(start, pos_ - start);
    // from_chars, not strtod: locale-independent (an embedder's LC_NUMERIC
    // must not change how the wire parses) and exact for binary64.
    double value = 0.0;
    const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc::result_out_of_range) {
      // from_chars reports result_out_of_range for BOTH ends of the binary64
      // range. Overflow (e.g. the "1e999" infinity sentinel append_double
      // emits) saturates to infinity; underflow ("1e-999") rounds to zero.
      const bool negative = token.front() == '-';
      if (token_underflows(token)) {
        value = negative ? -0.0 : 0.0;
      } else {
        value = negative ? -HUGE_VAL : HUGE_VAL;
      }
    } else if (ec != std::errc() || end != token.data() + token.size()) {
      pos_ = start;
      return fail("malformed number");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  common::ArenaAllocator<char> alloc_;
  std::size_t pos_ = 0;
};

/// std::to_chars — shortest form that round-trips binary64 exactly, and
/// locale-independent (snprintf %g would honour LC_NUMERIC's decimal comma
/// and emit invalid JSON under some embedder locales).
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; the protocol never produces them, but never emit
    // invalid JSON either.
    out += v > 0 ? "1e999" : (v < 0 ? "-1e999" : "null");
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;  // 32 bytes always suffice for the shortest double form
  out.append(buf, end);
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (std::string_view(k.data(), k.size()) == key) return &v;
  }
  return nullptr;
}

common::Result<JsonValue> parse_json(std::string_view text, common::Arena* arena) {
  return JsonParser(text, arena).parse();
}

namespace {

/// Escape-quote one string as a JSON string literal, appended in place —
/// the formatters write straight into the pooled reply buffer instead of
/// materializing a quoted temporary.
void quote_into(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// std::to_chars integer append — no std::to_string temporary.
void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;  // 24 bytes always suffice for u64
  out.append(buf, end);
}

}  // namespace

// --- protocol messages --------------------------------------------------------

namespace {

/// A request id: a non-negative integer that fits a u64.
bool is_valid_id(double v) { return v >= 0 && v == std::floor(v) && !(v > 1.8e19); }

common::Result<std::uint64_t> require_id(const JsonValue& doc) {
  const JsonValue* id = doc.find("id");
  if (id == nullptr || !id->is_number()) {
    return common::parse_error("protocol: missing numeric \"id\"");
  }
  const double v = id->as_number();
  if (!is_valid_id(v)) {
    return common::parse_error("protocol: \"id\" must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

/// The id of a line that does not parse but leads with {"id":<number>
/// (whitespace allowed between the tokens), as a truncated request does.
/// The number must be one require_id accepts and must end at ',', '}' or
/// whitespace — a number cut off by the end of the line may be missing
/// digits. Anything else yields 0. Allocates nothing.
std::uint64_t leading_id(std::string_view line) {
  std::size_t pos = 0;
  const auto skip_space = [&] {
    while (pos < line.size() && is_json_space(line[pos])) ++pos;
  };
  for (const std::string_view expected : {"{", "\"id\"", ":"}) {
    skip_space();
    if (line.substr(pos, expected.size()) != expected) return 0;
    pos += expected.size();
  }
  skip_space();
  const std::size_t start = pos;
  if (pos < line.size() && line[pos] == '-') ++pos;
  while (pos < line.size() && is_number_char(line[pos])) ++pos;
  if (pos == line.size() ||
      (line[pos] != ',' && line[pos] != '}' && !is_json_space(line[pos]))) {
    return 0;
  }
  // An out-of-range number overflows (an invalid id) or underflows (0).
  double v = 0.0;
  const auto [end, ec] = std::from_chars(line.data() + start, line.data() + pos, v);
  if (ec != std::errc() || end != line.data() + pos || !is_valid_id(v)) return 0;
  return static_cast<std::uint64_t>(v);
}

}  // namespace

common::Result<WireRequest> parse_request(std::string_view line, common::Arena* arena) {
  auto doc = parse_json(line, arena);
  if (!doc.ok()) return doc.error();
  if (!doc.value().is_object()) {
    return common::parse_error("protocol: request must be a JSON object");
  }
  auto id = require_id(doc.value());
  if (!id.ok()) return id.error();

  WireRequest request;
  request.id = id.value();
  if (const JsonValue* kernel = doc.value().find("kernel"); kernel != nullptr) {
    if (!kernel->is_string()) {
      return common::parse_error("protocol: \"kernel\" must be a string");
    }
    request.kernel = kernel->as_string();
  }
  if (const JsonValue* deadline = doc.value().find("deadline_ms");
      deadline != nullptr) {
    // Finite number; non-positive is legal and means "already expired" —
    // the server answers deadline_exceeded without predicting, which is
    // exactly what a client whose budget ran out mid-flight wants.
    if (!deadline->is_number() || !std::isfinite(deadline->as_number())) {
      return common::parse_error(
          "protocol: \"deadline_ms\" must be a finite number");
    }
    request.deadline_ms = deadline->as_number();
  }
  if (const JsonValue* trace = doc.value().find("trace"); trace != nullptr) {
    // A trace id: opt into per-stage reply timings. Servers that predate
    // tracing simply never look the member up, so it is backward
    // compatible on the JSON framing by construction.
    const double v = trace->is_number() ? trace->as_number() : -1.0;
    if (!(v >= 0) || v != std::floor(v) || v > 1.8e19) {
      return common::parse_error(
          "protocol: \"trace\" must be a non-negative integer");
    }
    request.trace = static_cast<std::uint64_t>(v);
  }
  const JsonValue* features = doc.value().find("features");
  const JsonValue* source = doc.value().find("source");
  // Optional explicit request type; when present it must match the payload
  // (a "predict_source" request with a features array is a client bug worth
  // rejecting loudly, not guessing about). The introspection kinds have no
  // payload-inferable form, so they require the type member.
  if (const JsonValue* type = doc.value().find("type"); type != nullptr) {
    if (!type->is_string()) {
      return common::parse_error("protocol: \"type\" must be a string");
    }
    const std::string_view t = type->as_string();
    if (t == "health" || t == "metrics") {
      if (features != nullptr || source != nullptr) {
        return common::parse_error("protocol: \"" + std::string(t) +
                                   "\" requests carry no payload");
      }
      request.kind = t == "health" ? RequestKind::kHealth : RequestKind::kMetrics;
      return request;
    }
    if (t == "hello") {
      // Binary-framing negotiation. A server without this branch answers
      // "unknown request type" — exactly the signal a client needs to stay
      // on JSON lines, so the handshake downgrades instead of desyncing.
      if (features != nullptr || source != nullptr) {
        return common::parse_error("protocol: \"hello\" requests carry no payload");
      }
      const JsonValue* max = doc.value().find("max_protocol");
      if (max == nullptr || !max->is_number()) {
        return common::parse_error(
            "protocol: \"hello\" needs a numeric \"max_protocol\"");
      }
      const double v = max->as_number();
      if (!(v >= 0) || v != std::floor(v) || v > 4.0e9) {
        return common::parse_error(
            "protocol: \"max_protocol\" must be a small non-negative integer");
      }
      request.kind = RequestKind::kHello;
      request.max_protocol = static_cast<std::uint32_t>(v);
      return request;
    }
    if (t != "predict" && t != "predict_source") {
      return common::parse_error("protocol: unknown request type \"" + std::string(t) +
                                 "\"");
    }
    if ((t == "predict_source") != (source != nullptr)) {
      return common::parse_error("protocol: request type \"" + std::string(t) +
                                 "\" does not match its payload");
    }
  }
  if ((features != nullptr) == (source != nullptr)) {
    return common::parse_error(
        "protocol: request needs exactly one of \"features\" or \"source\"");
  }
  if (features != nullptr) {
    if (!features->is_array() ||
        features->as_array().size() != clfront::kNumFeatures) {
      return common::parse_error("protocol: \"features\" must be an array of " +
                                 std::to_string(clfront::kNumFeatures) + " numbers");
    }
    std::array<double, clfront::kNumFeatures> counts{};
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const JsonValue& v = features->as_array()[i];
      if (!v.is_number()) {
        return common::parse_error("protocol: \"features\" must be numbers");
      }
      // Reject non-finite counts (e.g. the 1e999 saturation) here: an inf
      // feature would turn into NaN speedup/energy downstream, which
      // format_response frames as null and parse_response then refuses —
      // a whole-reply failure instead of this per-request error.
      if (!std::isfinite(v.as_number())) {
        return common::parse_error("protocol: \"features\" must be finite");
      }
      counts[i] = v.as_number();
    }
    request.features = counts;
    request.kind = RequestKind::kPredict;
  } else {
    if (!source->is_string()) {
      return common::parse_error("protocol: \"source\" must be a string");
    }
    // Copy out of the (possibly arena-backed) document: the source escapes
    // into the batching pipeline and must outlive the arena reset.
    request.source = std::string(source->as_string());
    request.kind = RequestKind::kPredictSource;
  }
  return request;
}

void format_request_into(std::string& out, const WireRequest& request) {
  out += "{\"id\":";
  append_u64(out, request.id);
  if (request.kind == RequestKind::kHealth) {
    out += ",\"type\":\"health\"}";
    return;
  }
  if (request.kind == RequestKind::kMetrics) {
    out += ",\"type\":\"metrics\"}";
    return;
  }
  if (request.kind == RequestKind::kHello) {
    out += ",\"type\":\"hello\",\"max_protocol\":";
    append_u64(out, request.max_protocol);
    out.push_back('}');
    return;
  }
  // Feature requests stay in the legacy (type-free) framing so old servers
  // keep accepting them; source requests name the predict_source type.
  if (request.source.has_value()) out += ",\"type\":\"predict_source\"";
  if (!request.kernel.empty()) {
    out += ",\"kernel\":";
    quote_into(out, request.kernel);
  }
  if (request.deadline_ms.has_value()) {
    out += ",\"deadline_ms\":";
    append_double(out, *request.deadline_ms);
  }
  if (request.trace.has_value()) {
    out += ",\"trace\":";
    append_u64(out, *request.trace);
  }
  if (request.features.has_value()) {
    out += ",\"features\":[";
    for (std::size_t i = 0; i < request.features->size(); ++i) {
      if (i != 0) out.push_back(',');
      append_double(out, (*request.features)[i]);
    }
    out.push_back(']');
  } else if (request.source.has_value()) {
    out += ",\"source\":";
    quote_into(out, *request.source);
  }
  out.push_back('}');
}

std::string format_request(const WireRequest& request) {
  std::string out;
  format_request_into(out, request);
  return out;
}

namespace {

/// ,"trace":{"id":…,"stages":[{"stage":…,"us":…},…]} — appended to
/// prediction and error responses when the request asked to be traced.
void append_trace(std::string& out, const obs::Trace* trace) {
  if (trace == nullptr) return;
  out += ",\"trace\":{\"id\":";
  append_u64(out, trace->id);
  out += ",\"stages\":[";
  for (std::size_t i = 0; i < trace->stages.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += "{\"stage\":";
    quote_into(out, trace->stages[i].stage);
    out += ",\"us\":";
    append_double(out, trace->stages[i].us);
    out.push_back('}');
  }
  out += "]}";
}

/// to_chars append for signed ints (frequency fields) — byte-identical to
/// the std::to_string output it replaces.
template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out.append(buf, end);
}

}  // namespace

void format_response_into(std::string& out, std::uint64_t id,
                          const core::Predictor::KernelPrediction& p,
                          const obs::Trace* trace) {
  out += "{\"id\":";
  append_u64(out, id);
  out += ",\"kernel\":";
  quote_into(out, p.kernel);
  out += ",\"pareto\":[";
  for (std::size_t i = 0; i < p.pareto.size(); ++i) {
    const auto& point = p.pareto[i];
    if (i != 0) out.push_back(',');
    out += "{\"core_mhz\":";
    append_int(out, point.config.core_mhz);
    out += ",\"mem_mhz\":";
    append_int(out, point.config.mem_mhz);
    out += ",\"speedup\":";
    append_double(out, point.speedup);
    out += ",\"energy\":";
    append_double(out, point.energy);
    out += ",\"heuristic\":";
    out += point.heuristic ? "true" : "false";
    out.push_back('}');
  }
  out += "]";
  append_trace(out, trace);
  out.push_back('}');
}

std::string format_response(std::uint64_t id,
                            const core::Predictor::KernelPrediction& p,
                            const obs::Trace* trace) {
  std::string out;
  format_response_into(out, id, p, trace);
  return out;
}

void format_health_response_into(std::string& out, std::uint64_t id,
                                 const WireHealth& health) {
  out += "{\"id\":";
  append_u64(out, id);
  out += ",\"health\":{\"status\":\"ok\",\"uptime_s\":";
  append_double(out, health.uptime_s);
  out += ",\"queue_depth\":";
  append_u64(out, health.queue_depth);
  out += "}}";
}

void format_metrics_response_into(std::string& out, std::uint64_t id,
                                  const WireMetrics& metrics) {
  out += "{\"id\":";
  append_u64(out, id);
  out += ",\"metrics\":{\"text\":";
  quote_into(out, metrics.text);
  out += ",\"values\":{";
  for (std::size_t i = 0; i < metrics.values.size(); ++i) {
    if (i != 0) out.push_back(',');
    quote_into(out, metrics.values[i].first);
    out.push_back(':');
    append_double(out, metrics.values[i].second);
  }
  out += "}}}";
}

void format_hello_response_into(std::string& out, std::uint64_t id,
                                std::uint32_t protocol) {
  out += "{\"id\":";
  append_u64(out, id);
  out += ",\"hello\":{\"protocol\":";
  append_u64(out, protocol);
  out += "}}";
}

void format_error_into(std::string& out, std::uint64_t id, const common::Error& error,
                       const obs::Trace* trace) {
  out += "{\"id\":";
  append_u64(out, id);
  out += ",\"error\":{\"code\":";
  quote_into(out, common::to_string(error.code));
  out += ",\"message\":";
  quote_into(out, error.message);
  out.push_back('}');
  append_trace(out, trace);
  out.push_back('}');
}

common::Result<WireResponse> parse_response(std::string_view line) {
  auto doc = parse_json(line);
  if (!doc.ok()) return doc.error();
  if (!doc.value().is_object()) {
    return common::parse_error("protocol: response must be a JSON object");
  }
  auto id = require_id(doc.value());
  if (!id.ok()) return id.error();

  WireResponse response;
  response.id = id.value();
  // Optional per-stage trace; rides on prediction and error responses.
  if (const JsonValue* trace = doc.value().find("trace"); trace != nullptr) {
    if (!trace->is_object()) {
      return common::parse_error("protocol: \"trace\" must be an object");
    }
    obs::Trace t;
    if (const JsonValue* tid = trace->find("id");
        tid != nullptr && tid->is_number() && tid->as_number() >= 0 &&
        tid->as_number() == std::floor(tid->as_number()) &&
        tid->as_number() <= 1.8e19) {
      t.id = static_cast<std::uint64_t>(tid->as_number());
    } else {
      return common::parse_error("protocol: \"trace\" needs a numeric \"id\"");
    }
    const JsonValue* stages = trace->find("stages");
    if (stages == nullptr || !stages->is_array()) {
      return common::parse_error("protocol: \"trace\" needs a \"stages\" array");
    }
    for (const JsonValue& item : stages->as_array()) {
      const JsonValue* stage = item.find("stage");
      const JsonValue* us = item.find("us");
      if (stage == nullptr || !stage->is_string() || us == nullptr ||
          !us->is_number()) {
        return common::parse_error("protocol: malformed trace stage");
      }
      t.stages.push_back(
          obs::TraceStage{std::string(stage->as_string()), us->as_number()});
    }
    response.trace = std::move(t);
  }
  if (const JsonValue* error = doc.value().find("error"); error != nullptr) {
    const JsonValue* message = error->find("message");
    const JsonValue* code = error->find("code");
    common::Error e;
    e.code = common::ErrorCode::kInternal;
    if (code != nullptr && code->is_string()) {
      for (int c = 0; c <= static_cast<int>(common::ErrorCode::kDeadlineExceeded);
           ++c) {
        if (code->as_string() == common::to_string(static_cast<common::ErrorCode>(c))) {
          e.code = static_cast<common::ErrorCode>(c);
          break;
        }
      }
    }
    e.message = message != nullptr && message->is_string() ? message->as_string()
                                                           : "unknown remote error";
    response.error = std::move(e);
    return response;
  }

  if (const JsonValue* hello = doc.value().find("hello"); hello != nullptr) {
    const JsonValue* protocol = hello->find("protocol");
    if (protocol == nullptr || !protocol->is_number()) {
      return common::parse_error(
          "protocol: \"hello\" response needs a numeric \"protocol\"");
    }
    const double v = protocol->as_number();
    if (!(v >= 0) || v != std::floor(v) || v > 4.0e9) {
      return common::parse_error(
          "protocol: \"protocol\" must be a small non-negative integer");
    }
    response.protocol = static_cast<std::uint32_t>(v);
    return response;
  }

  if (const JsonValue* metrics = doc.value().find("metrics"); metrics != nullptr) {
    if (!metrics->is_object()) {
      return common::parse_error("protocol: \"metrics\" must be an object");
    }
    WireMetrics m;
    if (const JsonValue* text = metrics->find("text"); text != nullptr) {
      if (!text->is_string()) {
        return common::parse_error("protocol: metrics \"text\" must be a string");
      }
      m.text = text->as_string();
    }
    const JsonValue* values = metrics->find("values");
    if (values == nullptr || !values->is_object()) {
      return common::parse_error("protocol: metrics needs a \"values\" object");
    }
    for (const auto& [name, value] : values->as_object()) {
      if (!value.is_number()) {
        return common::parse_error("protocol: metric values must be numbers");
      }
      m.values.emplace_back(name, value.as_number());
    }
    response.metrics = std::move(m);
    return response;
  }

  if (const JsonValue* health = doc.value().find("health"); health != nullptr) {
    if (!health->is_object()) {
      return common::parse_error("protocol: \"health\" must be an object");
    }
    const JsonValue* status = health->find("status");
    if (status == nullptr || !status->is_string() || status->as_string() != "ok") {
      return common::parse_error("protocol: health status missing or not ok");
    }
    WireHealth h;
    if (const JsonValue* uptime = health->find("uptime_s"); uptime != nullptr) {
      if (!uptime->is_number() || !(uptime->as_number() >= 0)) {
        return common::parse_error("protocol: \"uptime_s\" must be non-negative");
      }
      h.uptime_s = uptime->as_number();
    }
    if (const JsonValue* depth = health->find("queue_depth"); depth != nullptr) {
      const double d = depth->is_number() ? depth->as_number() : -1.0;
      if (!(d >= 0) || d != std::floor(d) || d > 1.8e19) {
        return common::parse_error(
            "protocol: \"queue_depth\" must be a non-negative integer");
      }
      h.queue_depth = static_cast<std::uint64_t>(d);
    }
    response.health = h;
    return response;
  }

  const JsonValue* pareto = doc.value().find("pareto");
  if (pareto == nullptr || !pareto->is_array()) {
    return common::parse_error("protocol: response needs \"pareto\" or \"error\"");
  }
  core::Predictor::KernelPrediction prediction;
  if (const JsonValue* kernel = doc.value().find("kernel");
      kernel != nullptr && kernel->is_string()) {
    prediction.kernel = kernel->as_string();
  }
  prediction.pareto.reserve(pareto->as_array().size());
  for (const JsonValue& item : pareto->as_array()) {
    const JsonValue* core_mhz = item.find("core_mhz");
    const JsonValue* mem_mhz = item.find("mem_mhz");
    const JsonValue* speedup = item.find("speedup");
    const JsonValue* energy = item.find("energy");
    const JsonValue* heuristic = item.find("heuristic");
    if (core_mhz == nullptr || !core_mhz->is_number() || mem_mhz == nullptr ||
        !mem_mhz->is_number() || speedup == nullptr || !speedup->is_number() ||
        energy == nullptr || !energy->is_number()) {
      return common::parse_error("protocol: malformed pareto point");
    }
    // Range-check before the int casts: a misbehaving server could frame
    // core_mhz as 1e300 and static_cast<int> of that is undefined behavior.
    const auto as_int = [](const JsonValue& v) -> common::Result<int> {
      const double d = v.as_number();
      if (!(d >= 0.0 && d <= 1e9) || d != std::trunc(d)) {
        return common::parse_error("protocol: frequency out of range");
      }
      return static_cast<int>(d);
    };
    auto core = as_int(*core_mhz);
    auto mem = as_int(*mem_mhz);
    if (!core.ok()) return core.error();
    if (!mem.ok()) return mem.error();
    core::PredictedPoint point;
    point.config.core_mhz = core.value();
    point.config.mem_mhz = mem.value();
    point.speedup = speedup->as_number();
    point.energy = energy->as_number();
    point.heuristic = heuristic != nullptr && heuristic->is_bool() && heuristic->as_bool();
    prediction.pareto.push_back(point);
  }
  response.prediction = std::move(prediction);
  return response;
}

std::uint64_t best_effort_id(std::string_view line) {
  auto doc = parse_json(line);
  if (!doc.ok()) return leading_id(line);
  if (!doc.value().is_object()) return 0;
  auto id = require_id(doc.value());
  return id.ok() ? id.value() : 0;
}

// --- binary framing -----------------------------------------------------------

namespace binary {

namespace {

// Request kind and response body codes on the wire. Fixed numbers, not the
// enum's values: the enum may be reordered, the wire must not.
// Kind and body 3 belonged to the retired "stats" dump: reserved, never
// reused, so an old peer's stats frame can only ever fail to parse.
constexpr std::uint8_t kWirePredict = 0;
constexpr std::uint8_t kWirePredictSource = 1;
constexpr std::uint8_t kWireHealth = 2;
constexpr std::uint8_t kWireHello = 4;
constexpr std::uint8_t kWireMetrics = 5;  // protocol >= 2

constexpr std::uint8_t kBodyPrediction = 0;
constexpr std::uint8_t kBodyError = 1;
constexpr std::uint8_t kBodyHealth = 2;
constexpr std::uint8_t kBodyHello = 4;
constexpr std::uint8_t kBodyMetrics = 5;  // protocol >= 2

constexpr std::uint8_t kFlagDeadline = 0x01;
// Protocol >= 2: a u64 trace id follows the (optional) deadline. Version-1
// parsers reject unknown flag bits, so clients only set this after
// negotiating protocol >= 2 (the JSON framing needs no such gate).
constexpr std::uint8_t kFlagTrace = 0x02;

// u32(core) + u32(mem) + f64(speedup) + f64(energy) + u8(heuristic)
constexpr std::size_t kPointBytes = 4 + 4 + 8 + 8 + 1;

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Doubles travel as their binary64 bit pattern: exact for every value a
/// double can hold, including inf/nan payloads and denormals — the binary
/// counterpart of the JSON framing's shortest-round-trip to_chars.
void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

common::Error truncated() {
  return common::parse_error("binary: truncated payload");
}

/// Bounds-checked little-endian reader over one frame payload. Every
/// accessor fails (never overreads) when fewer bytes remain than it needs —
/// the property the fuzzer drives with length-prefix lies and mid-frame
/// truncation.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

  common::Result<std::uint8_t> u8() {
    if (remaining() < 1) return truncated();
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  common::Result<std::uint32_t> u32() {
    if (remaining() < 4) return truncated();
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  common::Result<std::uint64_t> u64() {
    if (remaining() < 8) return truncated();
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  common::Result<double> f64() {
    auto bits = u64();
    if (!bits.ok()) return bits.error();
    return std::bit_cast<double>(bits.value());
  }

  common::Result<std::string_view> str() {
    auto len = u32();
    if (!len.ok()) return len.error();
    // The length is validated against what actually arrived before any
    // allocation — a lying prefix cannot trigger a huge reserve or a read
    // past the payload.
    if (len.value() > remaining()) return truncated();
    std::string_view s = data_.substr(pos_, len.value());
    pos_ += len.value();
    return s;
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

common::Error trailing_bytes() {
  return common::parse_error("binary: trailing bytes after payload");
}

/// The shared (id, kind/flags, deadline, kernel) prefix of request-like
/// payloads. `allowed` is the flag mask this payload kind accepts —
/// chunked-source Begin frames stay deadline-only (streams are untraced).
common::Status read_deadline(Reader& reader, std::uint8_t flags,
                             std::optional<double>& out,
                             std::uint8_t allowed = kFlagDeadline) {
  if ((flags & ~allowed) != 0) {
    return common::parse_error("binary: unknown request flags");
  }
  if ((flags & kFlagDeadline) != 0) {
    auto deadline = reader.f64();
    if (!deadline.ok()) return deadline.error();
    if (!std::isfinite(deadline.value())) {
      return common::parse_error("binary: deadline_ms must be finite");
    }
    out = deadline.value();
  }
  return common::Status::Ok();
}

/// Trailing per-stage trace on prediction/error response payloads:
/// u64 trace id, u32 stage count, then (str stage, f64 us) per stage.
void put_trace(std::string& out, const obs::Trace& trace) {
  put_u64(out, trace.id);
  put_u32(out, static_cast<std::uint32_t>(trace.stages.size()));
  for (const obs::TraceStage& s : trace.stages) {
    put_str(out, s.stage);
    put_f64(out, s.us);
  }
}

common::Status read_trace(Reader& reader, std::optional<obs::Trace>& out) {
  obs::Trace trace;
  auto id = reader.u64();
  if (!id.ok()) return id.error();
  trace.id = id.value();
  auto count = reader.u32();
  if (!count.ok()) return count.error();
  // str(stage) is at least 4 bytes (its length prefix) + f64 = 12 — a lying
  // count cannot force a huge reserve.
  if (count.value() > reader.remaining() / 12) return truncated();
  trace.stages.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto stage = reader.str();
    if (!stage.ok()) return stage.error();
    auto us = reader.f64();
    if (!us.ok()) return us.error();
    trace.stages.push_back(
        obs::TraceStage{std::string(stage.value()), us.value()});
  }
  out = std::move(trace);
  return common::Status::Ok();
}

/// In-place framing for the _into formatters: write the 6-byte header with
/// a zero length, append the payload straight into `out`, then patch the
/// length — no per-frame payload temporary. Byte-identical to frame().
std::size_t begin_frame(std::string& out, FrameType type) {
  const std::size_t header = out.size();
  out.push_back(static_cast<char>(kMagic));
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u32(out, 0);
  return header;
}

void end_frame(std::string& out, std::size_t header) {
  const std::size_t length = out.size() - header - kHeaderBytes;
  for (int i = 0; i < 4; ++i) {
    out[header + 2 + static_cast<std::size_t>(i)] =
        static_cast<char>((length >> (8 * i)) & 0xFF);
  }
}

/// Wrap a payload in a frame header (the source-frame builders).
std::string frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.push_back(static_cast<char>(kMagic));
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

}  // namespace

void format_request_frame_into(std::string& out, const WireRequest& request) {
  const std::size_t header = begin_frame(out, FrameType::kRequest);
  std::string& payload = out;
  put_u64(payload, request.id);
  // Like the JSON formatter, the payload member decides between the two
  // predict kinds — a request built with source set but kind left at its
  // default still encodes as predict_source.
  RequestKind effective = request.kind;
  if (effective == RequestKind::kPredict && request.source.has_value()) {
    effective = RequestKind::kPredictSource;
  }
  std::uint8_t kind = kWirePredict;
  switch (effective) {
    case RequestKind::kPredict: kind = kWirePredict; break;
    case RequestKind::kPredictSource: kind = kWirePredictSource; break;
    case RequestKind::kHealth: kind = kWireHealth; break;
    case RequestKind::kHello: kind = kWireHello; break;
    case RequestKind::kMetrics: kind = kWireMetrics; break;
  }
  put_u8(payload, kind);
  // Deadlines and traces only ride on the predict kinds (introspection and
  // hello are answered on the connection thread, never queued) — matching
  // the JSON formatter, so the two framings encode one logical request
  // identically.
  const bool queued = effective == RequestKind::kPredict ||
                      effective == RequestKind::kPredictSource;
  const bool deadline = request.deadline_ms.has_value() && queued;
  const bool trace = request.trace.has_value() && queued;
  put_u8(payload, (deadline ? kFlagDeadline : 0) | (trace ? kFlagTrace : 0));
  if (deadline) put_f64(payload, *request.deadline_ms);
  if (trace) put_u64(payload, *request.trace);
  put_str(payload, request.kernel);
  switch (effective) {
    case RequestKind::kPredict:
      put_u8(payload, static_cast<std::uint8_t>(clfront::kNumFeatures));
      for (double f : request.features.value_or(
               std::array<double, clfront::kNumFeatures>{})) {
        put_f64(payload, f);
      }
      break;
    case RequestKind::kPredictSource:
      put_str(payload, request.source.value_or(std::string()));
      break;
    case RequestKind::kHello: put_u32(payload, request.max_protocol); break;
    case RequestKind::kHealth:
    case RequestKind::kMetrics: break;
  }
  end_frame(out, header);
}

std::string format_request_frame(const WireRequest& request) {
  std::string out;
  format_request_frame_into(out, request);
  return out;
}

common::Result<WireRequest> parse_request(std::string_view payload) {
  Reader reader(payload);
  WireRequest request;
  auto id = reader.u64();
  if (!id.ok()) return id.error();
  request.id = id.value();
  auto kind = reader.u8();
  if (!kind.ok()) return kind.error();
  auto flags = reader.u8();
  if (!flags.ok()) return flags.error();
  if (auto st = read_deadline(reader, flags.value(), request.deadline_ms,
                              kFlagDeadline | kFlagTrace);
      !st.ok()) {
    return st.error();
  }
  if ((flags.value() & kFlagTrace) != 0) {
    auto trace = reader.u64();
    if (!trace.ok()) return trace.error();
    request.trace = trace.value();
  }
  auto kernel = reader.str();
  if (!kernel.ok()) return kernel.error();
  request.kernel = std::string(kernel.value());
  switch (kind.value()) {
    case kWirePredict: {
      request.kind = RequestKind::kPredict;
      auto count = reader.u8();
      if (!count.ok()) return count.error();
      if (count.value() != clfront::kNumFeatures) {
        return common::parse_error("binary: predict needs exactly " +
                                   std::to_string(clfront::kNumFeatures) +
                                   " features");
      }
      std::array<double, clfront::kNumFeatures> counts{};
      for (auto& c : counts) {
        auto f = reader.f64();
        if (!f.ok()) return f.error();
        // Same rule as the JSON parse: non-finite counts would surface as a
        // whole-reply failure downstream instead of a per-request error.
        if (!std::isfinite(f.value())) {
          return common::parse_error("binary: features must be finite");
        }
        c = f.value();
      }
      request.features = counts;
      break;
    }
    case kWirePredictSource: {
      request.kind = RequestKind::kPredictSource;
      auto source = reader.str();
      if (!source.ok()) return source.error();
      request.source = std::string(source.value());
      break;
    }
    case kWireHealth: request.kind = RequestKind::kHealth; break;
    case kWireMetrics: request.kind = RequestKind::kMetrics; break;
    case kWireHello: {
      request.kind = RequestKind::kHello;
      auto max = reader.u32();
      if (!max.ok()) return max.error();
      request.max_protocol = max.value();
      break;
    }
    default: return common::parse_error("binary: unknown request kind");
  }
  if (!reader.done()) return trailing_bytes();
  return request;
}

void format_prediction_frame_into(std::string& out, std::uint64_t id,
                                  const core::Predictor::KernelPrediction& p,
                                  const obs::Trace* trace) {
  const std::size_t header = begin_frame(out, FrameType::kResponse);
  put_u64(out, id);
  put_u8(out, kBodyPrediction);
  put_str(out, p.kernel);
  put_u32(out, static_cast<std::uint32_t>(p.pareto.size()));
  for (const auto& point : p.pareto) {
    put_u32(out, static_cast<std::uint32_t>(point.config.core_mhz));
    put_u32(out, static_cast<std::uint32_t>(point.config.mem_mhz));
    put_f64(out, point.speedup);
    put_f64(out, point.energy);
    put_u8(out, point.heuristic ? 1 : 0);
  }
  if (trace != nullptr) put_trace(out, *trace);
  end_frame(out, header);
}

std::string format_prediction_frame(std::uint64_t id,
                                    const core::Predictor::KernelPrediction& p,
                                    const obs::Trace* trace) {
  std::string out;
  format_prediction_frame_into(out, id, p, trace);
  return out;
}

void format_error_frame_into(std::string& out, std::uint64_t id,
                             const common::Error& error, const obs::Trace* trace) {
  const std::size_t header = begin_frame(out, FrameType::kResponse);
  put_u64(out, id);
  put_u8(out, kBodyError);
  put_u8(out, static_cast<std::uint8_t>(error.code));
  put_str(out, error.message);
  if (trace != nullptr) put_trace(out, *trace);
  end_frame(out, header);
}

void format_health_frame_into(std::string& out, std::uint64_t id,
                              const WireHealth& health) {
  const std::size_t header = begin_frame(out, FrameType::kResponse);
  put_u64(out, id);
  put_u8(out, kBodyHealth);
  put_f64(out, health.uptime_s);
  put_u64(out, health.queue_depth);
  end_frame(out, header);
}

void format_metrics_frame_into(std::string& out, std::uint64_t id,
                               const WireMetrics& metrics) {
  const std::size_t header = begin_frame(out, FrameType::kResponse);
  put_u64(out, id);
  put_u8(out, kBodyMetrics);
  put_str(out, metrics.text);
  put_u32(out, static_cast<std::uint32_t>(metrics.values.size()));
  for (const auto& [name, value] : metrics.values) {
    put_str(out, name);
    put_f64(out, value);
  }
  end_frame(out, header);
}

void format_hello_frame_into(std::string& out, std::uint64_t id,
                             std::uint32_t protocol) {
  const std::size_t header = begin_frame(out, FrameType::kResponse);
  put_u64(out, id);
  put_u8(out, kBodyHello);
  put_u32(out, protocol);
  end_frame(out, header);
}

common::Result<WireResponse> parse_response(std::string_view payload) {
  Reader reader(payload);
  WireResponse response;
  auto id = reader.u64();
  if (!id.ok()) return id.error();
  response.id = id.value();
  auto body = reader.u8();
  if (!body.ok()) return body.error();
  switch (body.value()) {
    case kBodyPrediction: {
      core::Predictor::KernelPrediction prediction;
      auto kernel = reader.str();
      if (!kernel.ok()) return kernel.error();
      prediction.kernel = std::string(kernel.value());
      auto count = reader.u32();
      if (!count.ok()) return count.error();
      // A lying count cannot force a huge reserve: every point still in the
      // payload occupies kPointBytes, so the cap below is exact.
      if (count.value() > reader.remaining() / kPointBytes) return truncated();
      prediction.pareto.reserve(count.value());
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto core = reader.u32();
        auto mem = reader.u32();
        auto speedup = reader.f64();
        auto energy = reader.f64();
        auto heuristic = reader.u8();
        if (!core.ok()) return core.error();
        if (!mem.ok()) return mem.error();
        if (!speedup.ok()) return speedup.error();
        if (!energy.ok()) return energy.error();
        if (!heuristic.ok()) return heuristic.error();
        // Same range rule as the JSON parse (and int stays in range).
        if (core.value() > 1000000000u || mem.value() > 1000000000u) {
          return common::parse_error("binary: frequency out of range");
        }
        if (heuristic.value() > 1) {
          return common::parse_error("binary: heuristic must be 0 or 1");
        }
        core::PredictedPoint point;
        point.config.core_mhz = static_cast<int>(core.value());
        point.config.mem_mhz = static_cast<int>(mem.value());
        point.speedup = speedup.value();
        point.energy = energy.value();
        point.heuristic = heuristic.value() == 1;
        prediction.pareto.push_back(point);
      }
      response.prediction = std::move(prediction);
      // Remaining bytes are the optional trace section — only ever present
      // when this side asked for it, so pre-trace peers never see one.
      if (!reader.done()) {
        if (auto st = read_trace(reader, response.trace); !st.ok()) {
          return st.error();
        }
      }
      break;
    }
    case kBodyError: {
      auto code = reader.u8();
      if (!code.ok()) return code.error();
      if (code.value() > static_cast<std::uint8_t>(common::ErrorCode::kDeadlineExceeded)) {
        return common::parse_error("binary: unknown error code");
      }
      auto message = reader.str();
      if (!message.ok()) return message.error();
      common::Error e;
      e.code = static_cast<common::ErrorCode>(code.value());
      e.message = std::string(message.value());
      response.error = std::move(e);
      if (!reader.done()) {
        if (auto st = read_trace(reader, response.trace); !st.ok()) {
          return st.error();
        }
      }
      break;
    }
    case kBodyHealth: {
      WireHealth health;
      auto uptime = reader.f64();
      if (!uptime.ok()) return uptime.error();
      if (!(uptime.value() >= 0)) {
        return common::parse_error("binary: uptime_s must be non-negative");
      }
      health.uptime_s = uptime.value();
      auto depth = reader.u64();
      if (!depth.ok()) return depth.error();
      health.queue_depth = depth.value();
      response.health = health;
      break;
    }
    case kBodyHello: {
      auto protocol = reader.u32();
      if (!protocol.ok()) return protocol.error();
      response.protocol = protocol.value();
      break;
    }
    case kBodyMetrics: {
      WireMetrics metrics;
      auto text = reader.str();
      if (!text.ok()) return text.error();
      metrics.text = std::string(text.value());
      auto count = reader.u32();
      if (!count.ok()) return count.error();
      // Each entry is at least str's u32 length prefix + f64 = 12 bytes.
      if (count.value() > reader.remaining() / 12) return truncated();
      metrics.values.reserve(count.value());
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto name = reader.str();
        if (!name.ok()) return name.error();
        auto value = reader.f64();
        if (!value.ok()) return value.error();
        metrics.values.emplace_back(std::string(name.value()), value.value());
      }
      response.metrics = std::move(metrics);
      break;
    }
    default: return common::parse_error("binary: unknown response body");
  }
  if (!reader.done()) return trailing_bytes();
  return response;
}

std::string format_source_begin(const SourceBegin& begin) {
  std::string payload;
  put_u64(payload, begin.id);
  put_u8(payload, begin.deadline_ms.has_value() ? kFlagDeadline : 0);
  if (begin.deadline_ms.has_value()) put_f64(payload, *begin.deadline_ms);
  put_str(payload, begin.kernel);
  return frame(FrameType::kSourceBegin, payload);
}

std::string format_source_chunk(std::uint64_t id, std::string_view bytes) {
  std::string payload;
  payload.reserve(8 + bytes.size());
  put_u64(payload, id);
  // No length prefix: the frame header already delimits the chunk, so the
  // rest of the payload IS the source bytes.
  payload.append(bytes);
  return frame(FrameType::kSourceChunk, payload);
}

std::string format_source_end(std::uint64_t id) {
  std::string payload;
  put_u64(payload, id);
  return frame(FrameType::kSourceEnd, payload);
}

std::string format_source_abort(std::uint64_t id) {
  std::string payload;
  put_u64(payload, id);
  return frame(FrameType::kSourceAbort, payload);
}

common::Result<SourceBegin> parse_source_begin(std::string_view payload) {
  Reader reader(payload);
  SourceBegin begin;
  auto id = reader.u64();
  if (!id.ok()) return id.error();
  begin.id = id.value();
  auto flags = reader.u8();
  if (!flags.ok()) return flags.error();
  if (auto st = read_deadline(reader, flags.value(), begin.deadline_ms); !st.ok()) {
    return st.error();
  }
  auto kernel = reader.str();
  if (!kernel.ok()) return kernel.error();
  begin.kernel = std::string(kernel.value());
  if (!reader.done()) return trailing_bytes();
  return begin;
}

common::Result<SourceChunk> parse_source_chunk(std::string_view payload) {
  Reader reader(payload);
  SourceChunk chunk;
  auto id = reader.u64();
  if (!id.ok()) return id.error();
  chunk.id = id.value();
  chunk.data = std::string(payload.substr(8));
  return chunk;
}

common::Result<std::uint64_t> parse_source_end(std::string_view payload) {
  Reader reader(payload);
  auto id = reader.u64();
  if (!id.ok()) return id.error();
  if (!reader.done()) return trailing_bytes();
  return id.value();
}

common::Result<std::uint64_t> parse_source_abort(std::string_view payload) {
  return parse_source_end(payload);
}

std::uint64_t best_effort_id(std::string_view payload) {
  Reader reader(payload);
  auto id = reader.u64();
  return id.ok() ? id.value() : 0;
}

}  // namespace binary

// --- incremental message splitting --------------------------------------------

void MessageSplitter::feed(std::string_view bytes) {
  // Compaction invalidates previously returned payload views — the
  // documented WireMessage contract (parse before feeding more bytes).
  if (pos_ > 0) {
    buffer_->erase(0, pos_);
    pos_ = 0;
  }
  buffer_->append(bytes);
  peak_ = std::max(peak_, buffer_->size());
}

common::Result<std::optional<WireMessage>> MessageSplitter::next() {
  const std::string& buffer = *buffer_;
  for (;;) {
    if (pos_ >= buffer.size()) return std::optional<WireMessage>();
    if (accept_binary_ &&
        static_cast<unsigned char>(buffer[pos_]) == binary::kMagic) {
      if (buffer.size() - pos_ < binary::kHeaderBytes) {
        return std::optional<WireMessage>();  // header still arriving
      }
      const auto type = static_cast<std::uint8_t>(buffer[pos_ + 1]);
      if (type < static_cast<std::uint8_t>(binary::FrameType::kRequest) ||
          type > static_cast<std::uint8_t>(binary::FrameType::kSourceAbort)) {
        return common::parse_error("binary: unknown frame type " +
                                   std::to_string(type));
      }
      std::uint32_t length = 0;
      for (int i = 0; i < 4; ++i) {
        length |= static_cast<std::uint32_t>(
                      static_cast<unsigned char>(buffer[pos_ + 2 + i]))
                  << (8 * i);
      }
      if (length > max_bytes_) {
        // The bound exists to keep per-connection buffering finite; a prefix
        // that exceeds it is unrecoverable (there is no resync point).
        return common::invalid_argument(
            "protocol: frame payload exceeds " + std::to_string(max_bytes_) +
            " bytes");
      }
      if (buffer.size() - pos_ < binary::kHeaderBytes + length) {
        return std::optional<WireMessage>();  // payload still arriving
      }
      WireMessage message;
      message.binary = true;
      message.frame = static_cast<binary::FrameType>(type);
      message.payload =
          std::string_view(buffer).substr(pos_ + binary::kHeaderBytes, length);
      pos_ += binary::kHeaderBytes + length;
      return std::optional<WireMessage>(message);
    }
    const auto nl = buffer.find('\n', pos_);
    if (nl == std::string::npos) {
      if (buffer.size() - pos_ > max_bytes_) {
        return common::invalid_argument("protocol: request line exceeds " +
                                        std::to_string(max_bytes_) + " bytes");
      }
      return std::optional<WireMessage>();
    }
    std::string_view line = std::string_view(buffer).substr(pos_, nl - pos_);
    pos_ = nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;  // blank keep-alive line
    WireMessage message;
    message.payload = line;
    return std::optional<WireMessage>(message);
  }
}

}  // namespace repro::serve
