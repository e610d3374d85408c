// The serving subsystem: BoundedQueue semantics, the JSON wire protocol
// (including exact double round-trips), the model cache (train-once across
// threads and processes, corrupt-file fallback), deserializer robustness against
// truncated/corrupt model files, Predictor::Builder validation, and the
// headline contract — serve::Service responses are bit-identical to direct
// Predictor::predict_batch output at any shard count and thread count, under
// concurrent clients, in-process and over a socket.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "clfront/stream.hpp"
#include "common/fault.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/measurement.hpp"
#include "core/model.hpp"
#include "core/model_cache.hpp"
#include "core/predictor.hpp"
#include "gpusim/simulator.hpp"
#include "ml/svr.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace rc = repro::common;
namespace rco = repro::core;
namespace rb = repro::benchgen;
namespace rg = repro::gpusim;
namespace rs = repro::serve;
namespace rcl = repro::clfront;

namespace {

/// What an `_into` reply formatter appends to an empty buffer.
template <class... Params, class... Args>
std::string formatted(void (*format_into)(std::string&, Params...), Args&&... args) {
  std::string out;
  format_into(out, std::forward<Args>(args)...);
  return out;
}

/// Restores the default global pool when the test scope ends.
struct PoolGuard {
  ~PoolGuard() { rc::ThreadPool::set_global_threads(0); }
};

/// A throwaway directory under the build tree, removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& stem) {
    path = std::filesystem::temp_directory_path() /
           (stem + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Small training setup shared by the serving tests (training once keeps
/// the binary fast; every 8th micro-benchmark, 8 sampled configurations).
std::vector<rb::MicroBenchmark> small_suite() {
  static const auto subset = [] {
    const auto full = rb::generate_training_suite().value();
    std::vector<rb::MicroBenchmark> out;
    for (std::size_t i = 0; i < full.size(); i += 8) out.push_back(full[i]);
    return out;
  }();
  return subset;
}

rco::TrainingOptions small_options() {
  rco::TrainingOptions options;
  options.num_configs = 8;
  return options;
}

/// A service over the small model, trained (or loaded) through `cache` the
/// way repro_serve starts: Predictor::Builder, then Service::from_model.
rc::Result<std::unique_ptr<rs::Service>> serve_through(rco::ModelCache& cache,
                                                       const rs::ServiceOptions& options = {}) {
  auto predictor = rco::Predictor::builder()
                       .suite(small_suite())
                       .training(small_options())
                       .cache(cache)
                       .build();
  if (!predictor.ok()) return predictor.error();
  return rs::Service::from_model(predictor.value().share_model(), options);
}

std::shared_ptr<const rco::FrequencyModel> trained_model() {
  static const auto model = [] {
    const rco::SimulatorBackend backend(rg::DeviceModel::titan_x());
    auto m = rco::FrequencyModel::train(backend, small_suite(), small_options());
    EXPECT_TRUE(m.ok()) << (m.ok() ? "" : m.error().message);
    return std::make_shared<const rco::FrequencyModel>(std::move(m).take());
  }();
  return model;
}

bool bitwise_equal(const std::vector<rco::PredictedPoint>& a,
                   const std::vector<rco::PredictedPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].config != b[i].config || a[i].heuristic != b[i].heuristic ||
        std::memcmp(&a[i].speedup, &b[i].speedup, sizeof(double)) != 0 ||
        std::memcmp(&a[i].energy, &b[i].energy, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Every kernel in the test request mix (the training features are as good
/// a stand-in for client kernels as any).
std::vector<rcl::StaticFeatures> request_mix(std::size_t n) {
  const auto suite = small_suite();
  std::vector<rcl::StaticFeatures> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(suite[i % suite.size()].features);
  return out;
}

/// A many-function OpenCL source: `n` helpers plus one kernel that calls
/// every 7th (~375 KB at n = 4,000). Featurizing it keeps a shard busy for
/// tens of milliseconds, which the batching tests below use.
std::string many_function_source(std::size_t n) {
  std::string source;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string id = std::to_string(i);
    source += "float helper" + id + "(float v) { /* synthetic filler " + id +
              " */ return v * " + id + ".25f + native_sin(v) - " + id + "; }\n";
  }
  source += "kernel void chain(global float* x) {\n  float v = x[get_global_id(0)];\n";
  for (std::size_t i = 0; i < n; i += 7) {
    source += "  v = helper" + std::to_string(i) + "(v);\n";
  }
  source += "  x[get_global_id(0)] = v;\n}\n";
  return source;
}

/// Submits a large source and returns once a shard has pulled it, so that
/// shard is busy featurizing while the caller goes on.
std::future<rs::Service::Response> occupy_one_shard(rs::Service& service) {
  auto busy = service.submit_source(many_function_source(4000));
  while (service.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return busy;
}

/// The raw-source request used by every predict_source test below.
const char* kSourceKernel = R"CL(
// A kernel the service has never seen: fused multiply-add with a helper.
float damp(float v) { return v * 0.9375f + 0.0625f; }
kernel void saxpy_damped(global float* x, global float* y, float a, int n) {
  int gid = get_global_id(0);
  if (gid < n) y[gid] = damp(a * x[gid] + y[gid]);
}
)CL";

/// Writes `wire` on a fresh loopback TCP connection, half-closes it, and
/// returns every byte the server sends before its EOF (empty when the
/// socket calls fail, which the caller's expectations then catch).
std::string exchange_raw(int port, const std::string& wire) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  std::string received;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(wire.size())) {
    ::shutdown(fd, SHUT_WR);
    timeval tv{};
    tv.tv_sec = 30;  // a server that never closes fails instead of hanging
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char chunk[4096];
    for (ssize_t n = 0; (n = ::recv(fd, chunk, sizeof chunk, 0)) > 0;) {
      received.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return received;
}

/// Every reply in `bytes`, in order, whichever framing each one uses.
std::vector<rs::WireResponse> parse_replies(const std::string& bytes) {
  rs::MessageSplitter splitter;
  splitter.feed(bytes);
  std::vector<rs::WireResponse> out;
  for (;;) {
    auto next = splitter.next();
    if (!next.ok() || !next.value().has_value()) break;
    const rs::WireMessage& message = *next.value();
    auto parsed = message.binary ? rs::binary::parse_response(message.payload)
                                 : rs::parse_response(message.payload);
    EXPECT_TRUE(parsed.ok()) << parsed.error().message;
    if (!parsed.ok()) break;
    out.push_back(std::move(parsed).take());
  }
  return out;
}

/// One value from a metrics reply's flat view; -1 when it is absent.
double metric_value(const rs::WireMetrics& metrics, const std::string& name) {
  for (const auto& [n, v] : metrics.values) {
    if (n == name) return v;
  }
  return -1.0;
}

}  // namespace

// --- BoundedQueue -------------------------------------------------------------

TEST(BoundedQueueTest, FifoAndCapacity) {
  rc::BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  std::thread producer([&] { EXPECT_TRUE(q.push(3)); });  // full: waits for room
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(q.size(), 2u);  // the bound holds
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, PushBlocksUntilPopMakesRoom) {
  rc::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // full queue blocks the producer
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsEnd) {
  rc::BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));             // producers refused after close
  EXPECT_EQ(q.pop().value(), 1);       // consumers still drain
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());   // then end-of-stream
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  rc::BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(BoundedQueueTest, PopBatchTakesWhatIsQueuedUpToN) {
  rc::BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  // Two producers block on the full queue; one bulk pop makes room for both.
  std::vector<std::thread> producers;
  for (const int v : {3, 4}) {
    producers.emplace_back([&q, v] { EXPECT_TRUE(q.push(int{v})); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<int> out{0};
  EXPECT_EQ(q.pop_batch(out, 2), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));  // appended, oldest first
  for (auto& t : producers) t.join();  // both woken, or this hangs
  out.clear();
  EXPECT_EQ(q.pop_batch(out, 1), 1u);  // never more than N
  EXPECT_EQ(q.pop_batch(out, 8), 1u);  // only what is queued: no wait for more
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{3, 4}));

  // An empty queue blocks the caller until the first item arrives.
  std::thread late([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(q.push(5));
  });
  out.clear();
  EXPECT_EQ(q.pop_batch(out, 8), 1u);
  late.join();
  ASSERT_TRUE(q.push(6));
  q.close();
  EXPECT_EQ(q.pop_batch(out, 8), 1u);  // closed, not drained: still delivers
  EXPECT_EQ(q.pop_batch(out, 8), 0u);  // 0 only once closed and drained
  EXPECT_EQ(out, (std::vector<int>{5, 6}));
}

// --- JSON + protocol ----------------------------------------------------------

TEST(ProtocolTest, JsonParsesScalarsArraysObjects) {
  const auto doc = rs::parse_json(
      R"({"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {"d": -2e3}})");
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_DOUBLE_EQ(doc.value().find("a")->as_number(), 1.5);
  const auto& b = doc.value().find("b")->as_array();
  ASSERT_EQ(b.size(), 3u);
  EXPECT_TRUE(b[0].as_bool());
  EXPECT_TRUE(b[1].is_null());
  EXPECT_EQ(b[2].as_string(), "x\n\"y\"");
  EXPECT_DOUBLE_EQ(doc.value().find("c")->find("d")->as_number(), -2000.0);
}

TEST(ProtocolTest, JsonOutOfRangeNumbersSaturateOrRoundToZero) {
  // Both ends of binary64 report from_chars result_out_of_range; overflow
  // must saturate to infinity (the "1e999" sentinel) and underflow round to
  // signed zero — never the other way around.
  struct Case {
    const char* text;
    double expected;
  };
  for (const Case& c : {Case{"1e999", HUGE_VAL}, Case{"-1e999", -HUGE_VAL},
                        Case{"1e-999", 0.0}, Case{"-1e-999", -0.0},
                        Case{"0.0001e-999", 0.0}, Case{"12345e999", HUGE_VAL},
                        Case{"1e-9999999999999999999999", 0.0},
                        Case{"1e9999999999999999999999", HUGE_VAL},
                        // '+'-signed exponents: integer from_chars rejects the
                        // '+', so classification must strip it first.
                        Case{"1e+999", HUGE_VAL}, Case{"0.001e+400", HUGE_VAL},
                        Case{"100e-999", 0.0}}) {
    const auto doc = rs::parse_json(c.text);
    ASSERT_TRUE(doc.ok()) << c.text << ": " << doc.error().message;
    const double got = doc.value().as_number();
    EXPECT_EQ(got, c.expected) << c.text;
    EXPECT_EQ(std::signbit(got), std::signbit(c.expected)) << c.text;
  }
}

TEST(ProtocolTest, JsonRejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated",
                          "{\"a\":}", "nan", "--1"}) {
    EXPECT_FALSE(rs::parse_json(bad).ok()) << bad;
  }
}

TEST(ProtocolTest, RequestRoundTripAndValidation) {
  rs::WireRequest request;
  request.id = 42;
  request.kernel = "saxpy";
  request.features = std::array<double, rcl::kNumFeatures>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto parsed = rs::parse_request(rs::format_request(request));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().id, 42u);
  EXPECT_EQ(parsed.value().kernel, "saxpy");
  ASSERT_TRUE(parsed.value().features.has_value());
  EXPECT_EQ((*parsed.value().features)[9], 10.0);

  // Requests must have an id and exactly one payload member.
  EXPECT_FALSE(rs::parse_request(R"({"kernel": "k"})").ok());
  EXPECT_FALSE(rs::parse_request(R"({"id": 1})").ok());
  EXPECT_FALSE(rs::parse_request(
                   R"({"id": 1, "features": [1], "source": "kernel void f() {}"})")
                   .ok());
  EXPECT_FALSE(rs::parse_request(R"({"id": 1, "features": [1, 2, 3]})").ok());
  EXPECT_FALSE(rs::parse_request(R"({"id": -4, "features": [1,2,3,4,5,6,7,8,9,10]})").ok());
  // Non-finite counts are refused per-request: an inf feature would become a
  // NaN prediction, which the response framing cannot round-trip.
  EXPECT_FALSE(rs::parse_request(R"({"id": 1, "features": [1e999,2,3,4,5,6,7,8,9,10]})").ok());
  EXPECT_FALSE(rs::parse_request(R"({"id": 1, "features": [-1e999,2,3,4,5,6,7,8,9,10]})").ok());
}

TEST(ProtocolTest, PredictSourceRequestTypeRoundTrips) {
  rs::WireRequest request;
  request.id = 11;
  request.kernel = "saxpy_damped";
  request.source = kSourceKernel;
  const std::string wire = rs::format_request(request);
  EXPECT_NE(wire.find("\"type\":\"predict_source\""), std::string::npos);
  const auto parsed = rs::parse_request(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().id, 11u);
  ASSERT_TRUE(parsed.value().source.has_value());
  EXPECT_EQ(*parsed.value().source, kSourceKernel);
  EXPECT_FALSE(parsed.value().features.has_value());

  // Explicit "predict" with features is accepted; mismatched or unknown
  // types are rejected.
  EXPECT_TRUE(
      rs::parse_request(
          R"({"id": 1, "type": "predict", "features": [1,2,3,4,5,6,7,8,9,10]})")
          .ok());
  EXPECT_FALSE(
      rs::parse_request(
          R"({"id": 1, "type": "predict_source", "features": [1,2,3,4,5,6,7,8,9,10]})")
          .ok());
  EXPECT_FALSE(
      rs::parse_request(R"({"id": 1, "type": "predict", "source": "kernel void f() {}"})")
          .ok());
  EXPECT_FALSE(
      rs::parse_request(R"({"id": 1, "type": "frobnicate", "source": "x"})").ok());
}

TEST(ProtocolTest, ResponseDoublesRoundTripBitExactly) {
  rco::Predictor::KernelPrediction prediction;
  prediction.kernel = "tricky \"name\"\n";
  prediction.pareto.push_back(
      {{1002, 3505}, 1.0 / 3.0, 0.1234567890123456789, false});
  prediction.pareto.push_back({{135, 405}, 5e-324, 1.0 + 1e-15, true});

  const auto parsed = rs::parse_response(rs::format_response(9, prediction));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().id, 9u);
  ASSERT_TRUE(parsed.value().prediction.has_value());
  EXPECT_EQ(parsed.value().prediction->kernel, prediction.kernel);
  EXPECT_TRUE(bitwise_equal(parsed.value().prediction->pareto, prediction.pareto));
}

TEST(ProtocolTest, ResponseRejectsOutOfRangeFrequencies) {
  // A misbehaving server must not drive static_cast<int> into UB client-side.
  for (const char* bad :
       {R"({"id":1,"pareto":[{"core_mhz":1e300,"mem_mhz":0,"speedup":1,"energy":1}]})",
        R"({"id":1,"pareto":[{"core_mhz":1e999,"mem_mhz":0,"speedup":1,"energy":1}]})",
        R"({"id":1,"pareto":[{"core_mhz":100,"mem_mhz":-5,"speedup":1,"energy":1}]})",
        R"({"id":1,"pareto":[{"core_mhz":100.5,"mem_mhz":0,"speedup":1,"energy":1}]})"}) {
    EXPECT_FALSE(rs::parse_response(bad).ok()) << bad;
  }
}

TEST(ProtocolTest, BestEffortIdRecoversIdFromMalformedRequests) {
  // Parseable JSON with a valid id but an invalid payload: the id survives
  // so the server's error reply correlates.
  EXPECT_EQ(rs::best_effort_id(R"({"id": 7, "features": "oops"})"), 7u);
  EXPECT_EQ(rs::best_effort_id(R"({"id": 3})"), 3u);
  // Unrecoverable: not JSON, not an object, or no usable id.
  EXPECT_EQ(rs::best_effort_id("not json"), 0u);
  EXPECT_EQ(rs::best_effort_id("[1,2]"), 0u);
  EXPECT_EQ(rs::best_effort_id(R"({"id": -1})"), 0u);
  // A line that does not parse still yields the id that leads it — a
  // request cut off mid-payload — but only from a complete leading number.
  EXPECT_EQ(rs::best_effort_id(R"({"id":7,"type":"predict","features":[1,2)"), 7u);
  EXPECT_EQ(rs::best_effort_id(R"({ "id" : 12 , "kernel":"x)"), 12u);
  EXPECT_EQ(rs::best_effort_id(R"({"kernel":"x","id":7,)"), 0u);
  EXPECT_EQ(rs::best_effort_id(R"({"id":-1,)"), 0u);
}

TEST(ProtocolTest, ErrorResponsesCarryCodeAndMessage) {
  const auto parsed = rs::parse_response(
      formatted(rs::format_error_into, 7, rc::invalid_argument("bad features"), nullptr));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  ASSERT_TRUE(parsed.value().error.has_value());
  EXPECT_EQ(parsed.value().error->code, rc::ErrorCode::kInvalidArgument);
  EXPECT_EQ(parsed.value().error->message, "bad features");
}

TEST(ProtocolTest, IntrospectionRequestsRoundTrip) {
  for (const auto kind : {rs::RequestKind::kHealth, rs::RequestKind::kMetrics}) {
    rs::WireRequest request;
    request.id = 5;
    request.kind = kind;
    const auto parsed = rs::parse_request(rs::format_request(request));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed.value().id, 5u);
    EXPECT_EQ(parsed.value().kind, kind);
    EXPECT_FALSE(parsed.value().features.has_value());
    EXPECT_FALSE(parsed.value().source.has_value());
  }
  // Introspection requests must not smuggle a payload.
  EXPECT_FALSE(
      rs::parse_request(R"({"id": 1, "type": "health", "source": "x"})").ok());
  EXPECT_FALSE(
      rs::parse_request(
          R"({"id": 1, "type": "metrics", "features": [1,2,3,4,5,6,7,8,9,10]})")
          .ok());
  // The retired "stats" type is an unknown type now, not a counter dump.
  const auto retired = rs::parse_request(R"({"id": 4, "type": "stats"})");
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.error().code, rc::ErrorCode::kParseError);
}

TEST(ProtocolTest, HealthResponsesRoundTrip) {
  rs::WireHealth health;
  health.uptime_s = 12.34567891234;
  health.queue_depth = 3;

  const std::string wire = formatted(rs::format_health_response_into, 4, health);
  const auto parsed = rs::parse_response(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().id, 4u);
  ASSERT_TRUE(parsed.value().health.has_value());
  EXPECT_EQ(parsed.value().health->uptime_s, health.uptime_s);  // exact framing
  EXPECT_EQ(parsed.value().health->queue_depth, 3u);
  EXPECT_FALSE(parsed.value().prediction.has_value());
  EXPECT_FALSE(parsed.value().error.has_value());

  // Every proper prefix is malformed — truncation must fail cleanly (no
  // crash, no half-parsed health accepted).
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(rs::parse_response(wire.substr(0, len)).ok()) << "len " << len;
  }
  // And hostile values are refused rather than wrapped or negated.
  EXPECT_FALSE(
      rs::parse_response(R"({"id":1,"health":{"status":"ok","uptime_s":-1}})").ok());
  EXPECT_FALSE(rs::parse_response(
                   R"({"id":1,"health":{"status":"ok","uptime_s":0,"queue_depth":-3}})")
                   .ok());
  EXPECT_FALSE(rs::parse_response(
                   R"({"id":1,"health":{"status":"ok","uptime_s":0,"queue_depth":1e30}})")
                   .ok());
  EXPECT_FALSE(
      rs::parse_response(R"({"id":1,"health":{"status":"sick","uptime_s":0}})").ok());
  // A retired "stats" reply no longer parses as anything.
  EXPECT_FALSE(
      rs::parse_response(R"({"id":1,"stats":{"uptime_s":0,"requests":4}})").ok());
}

// --- ModelCache ---------------------------------------------------------------

TEST(ModelCacheTest, TrainsOnceThenLoadsTheSavedCopy) {
  TempDir dir("repro-cache-once");
  std::atomic<int> trainings{0};
  const rco::ModelKey key = rco::ModelKey::from_options(
      rg::DeviceModel::titan_x().freq.device_name(), small_options());
  const auto trainer = [&]() -> rc::Result<rco::FrequencyModel> {
    ++trainings;
    const rco::SimulatorBackend backend(rg::DeviceModel::titan_x());
    return rco::FrequencyModel::train(backend, small_suite(), small_options());
  };
  rco::ModelCache cache(dir.path.string());
  const auto first = cache.get_or_train(key, trainer);
  ASSERT_TRUE(first.ok()) << first.error().message;
  const auto second = cache.get_or_train(key, trainer);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(trainings.load(), 1);
  EXPECT_EQ(first.value()->serialize(), second.value()->serialize());
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // The model file sits next to the lock file that ordered its training.
  EXPECT_TRUE(std::filesystem::exists(dir.path / (key.file_stem() + ".model")));
  EXPECT_TRUE(std::filesystem::exists(dir.path / (key.file_stem() + ".lock")));

  // Without a directory there is no copy to share: every call trains.
  rco::ModelCache private_cache;
  ASSERT_TRUE(private_cache.get_or_train(key, trainer).ok());
  ASSERT_TRUE(private_cache.get_or_train(key, trainer).ok());
  EXPECT_EQ(trainings.load(), 3);
  EXPECT_EQ(private_cache.stats().misses, 2u);
}

TEST(ModelCacheTest, ConcurrentThreadsTrainEachKeyOnce) {
  // Many threads over several keys on one directory: each key's lock file
  // lets exactly one caller train it, every other call loads the saved
  // copy, and every call returns the same model bytes. The trainer
  // deserializes a pre-serialized model, so a "training run" is cheap.
  TempDir dir("repro-cache-threads");
  const std::string blob = trained_model()->serialize();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 50;
  constexpr std::size_t kKeys = 6;

  rco::ModelCache cache(dir.path.string());
  // Distinct keys over the same underlying model; the device must be the
  // model's real one or the disk probe rejects every saved copy.
  const std::string device = trained_model()->domain().device_name();
  std::vector<rco::ModelKey> keys;
  for (std::size_t k = 0; k < kKeys; ++k) {
    auto options = small_options();
    options.num_configs = 8 + k;
    keys.push_back(rco::ModelKey::from_options(device, options));
  }

  std::vector<std::atomic<int>> trainings(kKeys);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        const std::size_t k = (t * 31 + i) % kKeys;
        auto model = cache.get_or_train(keys[k], [&]() {
          trainings[k].fetch_add(1, std::memory_order_relaxed);
          return rco::FrequencyModel::deserialize(blob);
        });
        if (!model.ok() || model.value() == nullptr ||
            model.value()->serialize() != blob) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_FALSE(failed.load());
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(trainings[k].load(), 1) << keys[k].to_string();
    EXPECT_TRUE(std::filesystem::exists(dir.path / (keys[k].file_stem() + ".model")));
  }
  const auto stats = cache.stats();
  // Every call resolved exactly one way.
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.disk_hits, kThreads * kIters - kKeys);
  EXPECT_EQ(stats.disk_errors, 0u);
}

namespace {

/// Fork a process that opens its own ModelCache on `dir` and calls
/// get_or_train(key). Its trainer appends one byte to `marker`; then, if
/// `in_trainer_fd` >= 0, writes a byte there and holds the key's lock until
/// killed, else sleeps briefly (so concurrent children queue on the lock)
/// and returns the model `blob` deserializes to. When `start_fd` >= 0 the
/// child first waits to read one byte from it. Exit status 0 iff the child's
/// model serializes to `blob`. Returns the pid in the parent only.
pid_t fork_cache_child(const std::string& dir, const rco::ModelKey& key,
                       const std::string& blob, const std::string& marker,
                       int start_fd, int in_trainer_fd) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  char go = 0;
  if (start_fd >= 0 && ::read(start_fd, &go, 1) != 1) ::_exit(3);
  rco::ModelCache cache(dir);
  const auto model = cache.get_or_train(key, [&]() -> rc::Result<rco::FrequencyModel> {
    const int fd = ::open(marker.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0 || ::write(fd, "x", 1) != 1) ::_exit(4);
    ::close(fd);
    if (in_trainer_fd >= 0) {
      if (::write(in_trainer_fd, "x", 1) != 1) ::_exit(5);
      for (;;) ::pause();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return rco::FrequencyModel::deserialize(blob);
  });
  ::_exit(model.ok() && model.value()->serialize() == blob ? 0 : 1);
}

/// waitpid with a bound: a child still running after `limit` is killed and
/// reported as -1 (a lock nobody releases must fail the test, not hang it),
/// as is a pid waitpid cannot reap.
int wait_child(pid_t pid, std::chrono::seconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  int status = 0;
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid, &status, WNOHANG)) == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return reaped == pid ? status : -1;
}

bool exited_cleanly(int status) {
  return status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

TEST(ModelCacheTest, ForkedProcessesTrainOnceAndOutliveAKilledTrainer) {
  // Train-once across real processes, the guarantee a cold fleet relies on.
  TempDir dir("repro-cache-fork");
  const std::string cache_dir = dir.path.string();
  // Trained here, before any fork: children only deserialize.
  const std::string blob = trained_model()->serialize();
  auto options = small_options();
  const std::string device = trained_model()->domain().device_name();
  const rco::ModelKey key = rco::ModelKey::from_options(device, options);
  options.num_configs += 1;
  const rco::ModelKey other = rco::ModelKey::from_options(device, options);

  // Four processes released at once on an empty directory: one trains.
  const std::string marker = (dir.path / "key.trained").string();
  int start[2];
  ASSERT_EQ(::pipe(start), 0);
  std::vector<pid_t> children;
  for (int i = 0; i < 4; ++i) {
    const pid_t pid = fork_cache_child(cache_dir, key, blob, marker, start[0], -1);
    if (pid > 0) children.push_back(pid);
  }
  EXPECT_EQ(children.size(), 4u);
  const std::string go(children.size(), 'g');
  EXPECT_EQ(::write(start[1], go.data(), go.size()), static_cast<ssize_t>(go.size()));
  for (const pid_t pid : children) {
    const int status = wait_child(pid, std::chrono::seconds(60));
    EXPECT_TRUE(exited_cleanly(status)) << "child " << pid << " status " << status;
  }
  ::close(start[0]);
  ::close(start[1]);
  EXPECT_EQ(std::filesystem::file_size(marker), 1u);

  // SIGKILL a trainer while it holds the lock, with a second process queued
  // behind it: the kernel drops the dead holder's lock, the queued process
  // trains, and the dead one leaves no torn model file.
  const std::string other_marker = (dir.path / "other.trained").string();
  int in_trainer[2];
  ASSERT_EQ(::pipe(in_trainer), 0);
  const pid_t victim =
      fork_cache_child(cache_dir, other, blob, other_marker, -1, in_trainer[1]);
  ASSERT_GT(victim, 0);
  pollfd holding{in_trainer[0], POLLIN, 0};
  const bool in_fit = ::poll(&holding, 1, 30000) == 1;
  const pid_t successor =
      in_fit ? fork_cache_child(cache_dir, other, blob, other_marker, -1, -1) : -1;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // let it queue
  ::kill(victim, SIGKILL);
  int status = 0;
  ::waitpid(victim, &status, 0);
  ::close(in_trainer[0]);
  ::close(in_trainer[1]);
  ASSERT_TRUE(in_fit) << "the victim never reached its trainer";
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  ASSERT_GT(successor, 0);
  status = wait_child(successor, std::chrono::seconds(60));
  EXPECT_TRUE(exited_cleanly(status)) << "successor status " << status;
  EXPECT_EQ(std::filesystem::file_size(other_marker), 2u);  // victim, then successor

  std::size_t models = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    if (entry.path().extension() != ".model") continue;
    ++models;
    EXPECT_TRUE(rco::load_cached_model(entry.path().string()).ok()) << entry.path();
  }
  EXPECT_EQ(models, 2u);
}

TEST(ModelCacheTest, SuiteFingerprintSeparatesKeys) {
  // Two services training on different suites must never share an entry:
  // the suite fingerprint is part of the key (and of the on-disk filename).
  const auto full = rb::generate_training_suite().value();
  const auto reduced = small_suite();
  const auto fp_full = rco::ModelKey::fingerprint(full);
  const auto fp_reduced = rco::ModelKey::fingerprint(reduced);
  EXPECT_NE(fp_full, fp_reduced);
  const auto key_full = rco::ModelKey::from_options("dev", small_options(), fp_full);
  const auto key_reduced =
      rco::ModelKey::from_options("dev", small_options(), fp_reduced);
  EXPECT_NE(key_full.to_string(), key_reduced.to_string());
  EXPECT_NE(key_full.file_stem(), key_reduced.file_stem());
  // The fingerprint is stable across calls (it keys the disk cache).
  EXPECT_EQ(fp_reduced, rco::ModelKey::fingerprint(small_suite()));
}

TEST(ModelCacheTest, ReloadsFromDiskAcrossInstances) {
  TempDir dir("repro-model-cache");
  std::atomic<int> trainings{0};
  const rco::ModelKey key = rco::ModelKey::from_options(
      rg::DeviceModel::titan_x().freq.device_name(), small_options());
  const auto trainer = [&]() -> rc::Result<rco::FrequencyModel> {
    ++trainings;
    const rco::SimulatorBackend backend(rg::DeviceModel::titan_x());
    return rco::FrequencyModel::train(backend, small_suite(), small_options());
  };
  std::string serialized;
  {
    rco::ModelCache cache(dir.path.string());
    auto model = cache.get_or_train(key, trainer);
    ASSERT_TRUE(model.ok()) << model.error().message;
    serialized = model.value()->serialize();
  }
  {
    rco::ModelCache cache(dir.path.string());
    auto model = cache.get_or_train(key, trainer);
    ASSERT_TRUE(model.ok()) << model.error().message;
    EXPECT_EQ(trainings.load(), 1);  // served from disk, not retrained
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    // The disk round-trip is exact (%.17 serialization).
    EXPECT_EQ(model.value()->serialize(), serialized);
  }
}

TEST(ModelCacheTest, CorruptDiskFileFallsBackToRetraining) {
  TempDir dir("repro-model-corrupt");
  std::atomic<int> trainings{0};
  const rco::ModelKey key = rco::ModelKey::from_options(
      rg::DeviceModel::titan_x().freq.device_name(), small_options());
  const auto trainer = [&]() -> rc::Result<rco::FrequencyModel> {
    ++trainings;
    const rco::SimulatorBackend backend(rg::DeviceModel::titan_x());
    return rco::FrequencyModel::train(backend, small_suite(), small_options());
  };
  {
    rco::ModelCache cache(dir.path.string());
    ASSERT_TRUE(cache.get_or_train(key, trainer).ok());
  }
  // Truncate the persisted model mid-file: the next instance must survive,
  // report the damage, retrain, and overwrite the bad file.
  const auto file = dir.path / (key.file_stem() + ".model");
  ASSERT_TRUE(std::filesystem::exists(file));
  const auto full_size = std::filesystem::file_size(file);
  std::filesystem::resize_file(file, full_size / 2);
  {
    rco::ModelCache cache(dir.path.string());
    auto model = cache.get_or_train(key, trainer);
    ASSERT_TRUE(model.ok()) << model.error().message;
    EXPECT_EQ(trainings.load(), 2);
    EXPECT_EQ(cache.stats().disk_errors, 1u);
  }
  // The rewritten file serves the third instance again.
  EXPECT_EQ(std::filesystem::file_size(file), full_size);
  {
    rco::ModelCache cache(dir.path.string());
    ASSERT_TRUE(cache.get_or_train(key, trainer).ok());
    EXPECT_EQ(trainings.load(), 2);
  }
}

// --- deserializer robustness (corrupt / truncated model files) ----------------

TEST(ModelRobustnessTest, TruncatedSerializedModelNeverCrashes) {
  const std::string full = trained_model()->serialize();
  // Every truncation length in coarse steps plus a fine sweep near the
  // interesting boundaries; deserialization must return — with an error or
  // (for a cut inside the final number) a value — and never crash.
  std::size_t errors = 0;
  std::size_t checked = 0;
  for (std::size_t len = 0; len < full.size(); len += 131) {
    ++checked;
    if (!rco::FrequencyModel::deserialize(full.substr(0, len)).ok()) ++errors;
  }
  EXPECT_EQ(errors, checked);  // every strict prefix on the step grid fails
  // Quarter points explicitly (the satellite's contract).
  for (const double frac : {0.25, 0.5, 0.75}) {
    const auto len = static_cast<std::size_t>(static_cast<double>(full.size()) * frac);
    EXPECT_FALSE(rco::FrequencyModel::deserialize(full.substr(0, len)).ok()) << frac;
  }
  // And the untruncated text still round-trips.
  const auto intact = rco::FrequencyModel::deserialize(full);
  ASSERT_TRUE(intact.ok()) << intact.error().message;
  EXPECT_EQ(intact.value().serialize(), full);
}

TEST(ModelRobustnessTest, VersionMismatchIsAnError) {
  std::string text = trained_model()->serialize();
  text.replace(text.find("v2"), 2, "v9");
  const auto result = rco::FrequencyModel::deserialize(text);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kParseError);
}

TEST(ModelRobustnessTest, AbsurdCountsAreParseErrorsNotBadAlloc) {
  // A hand-corrupted header claiming ~10^18 training configs / support
  // vectors must be rejected before any allocation is attempted.
  const std::string model_text =
      "gpufreq_model v2\ndevice X\nbounds 0 1 0 1\n"
      "training_configs 999999999999999999\n";
  const auto model = rco::FrequencyModel::deserialize(model_text);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.error().code, rc::ErrorCode::kParseError);

  const std::string svr_text = "svr rbf 0.1 0 3 1000 0.1 0 999999999999999999 10\n";
  const auto svr = repro::ml::Svr::deserialize(svr_text);
  ASSERT_FALSE(svr.ok());
  EXPECT_EQ(svr.error().code, rc::ErrorCode::kParseError);
}

TEST(ModelRobustnessTest, WrongFeatureWidthIsAParseError) {
  // A well-formed v2 model whose SVRs take 5 columns, not kFeatureDim:
  // loading it must fail cleanly rather than let prediction read past each
  // support-vector row.
  const auto narrow_svr = [](const std::string& kernel) {
    return "regressor v1 svr-" + kernel + "\nsvr " + kernel +
           " 0.1 0 3 1000 0.1 0.5 2 5\n1 0.1 0.2 0.3 0.4 0.5\n-1 0.5 0.4 0.3 0.2 0.1\n";
  };
  const std::string full = trained_model()->serialize();
  const std::string header = full.substr(0, full.find("=== speedup ===\n"));
  const std::string speedup = full.substr(header.size(), full.find("=== energy ===\n") -
                                                             header.size());
  const std::string narrow = header + "=== speedup ===\n" + narrow_svr("linear") +
                             "=== energy ===\n" + narrow_svr("rbf");
  for (const std::string& text :
       {narrow, header + speedup + "=== energy ===\n" + narrow_svr("rbf")}) {
    const auto model = rco::FrequencyModel::deserialize(text);
    ASSERT_FALSE(model.ok());
    EXPECT_EQ(model.error().code, rc::ErrorCode::kParseError) << model.error().message;
  }

  // The regressor itself refuses a sample of the wrong width.
  const auto svr = repro::ml::Svr::deserialize(narrow_svr("rbf").substr(
      narrow_svr("rbf").find('\n') + 1));
  ASSERT_TRUE(svr.ok()) << svr.error().message;
  const std::vector<double> wide(rco::kFeatureDim, 0.5);
  EXPECT_THROW((void)svr.value().predict_one(wide), std::invalid_argument);
  EXPECT_THROW((void)svr.value().predict(repro::ml::Matrix(3, rco::kFeatureDim)),
               std::invalid_argument);

  // A cache file holding that model (valid checksum) is retrained, not served.
  TempDir dir("repro-model-width");
  const rco::ModelKey key =
      rco::ModelKey::from_options(trained_model()->domain().device_name(), small_options());
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(rc::fnv1a(narrow)));
  std::ofstream(dir.path / (key.file_stem() + ".model"))
      << "gpufreq_checksum " << hash << '\n' << narrow;
  std::atomic<int> trainings{0};
  rco::ModelCache cache(dir.path.string());
  const auto model = cache.get_or_train(key, [&]() {
    ++trainings;
    return rco::FrequencyModel::deserialize(full);
  });
  ASSERT_TRUE(model.ok()) << model.error().message;
  EXPECT_EQ(trainings.load(), 1);
  EXPECT_EQ(cache.stats().disk_errors, 1u);
  EXPECT_EQ(model.value()->speedup_model().num_features(), rco::kFeatureDim);
}

// --- Predictor::Builder validation --------------------------------------------

TEST(BuilderValidationTest, UnknownRegressorKeyFailsFast) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result = rco::Predictor::builder().regressors("svr-linear", "no-such-model").build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kNotFound);
  EXPECT_NE(result.error().message.find("no-such-model"), std::string::npos);
  // Fail-fast means no suite generation and no training happened.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

TEST(BuilderValidationTest, EmptyRegressorKeyIsInvalid) {
  auto result = rco::Predictor::builder().regressors("", "svr-rbf").build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kInvalidArgument);
}

TEST(BuilderValidationTest, EmptySuiteIsInvalid) {
  auto result = rco::Predictor::builder().suite({}).build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kInvalidArgument);
  EXPECT_NE(result.error().message.find("suite"), std::string::npos);
}

TEST(BuilderValidationTest, ZeroConfigsIsInvalid) {
  auto result = rco::Predictor::builder().num_configs(0).build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kInvalidArgument);
}

TEST(BuilderValidationTest, FromModelRejectsNull) {
  auto result = rco::Predictor::from_model(nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, rc::ErrorCode::kInvalidArgument);
}

TEST(BuilderValidationTest, FromModelServesWithoutBackend) {
  auto predictor = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(predictor.ok());
  EXPECT_FALSE(predictor.value().has_backend());
  const auto kernels = request_mix(3);
  const auto batch = predictor.value().predict_batch(kernels);
  ASSERT_TRUE(batch.ok()) << batch.error().message;
  EXPECT_EQ(batch.value().size(), 3u);
}

// --- Service ------------------------------------------------------------------

TEST(ServiceTest, ResponsesBitIdenticalToDirectPredictBatch) {
  PoolGuard guard;
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 6;
  const auto kernels = request_mix(kClients * kPerClient);

  // Reference: one direct predict_batch over the same request mix.
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_batch(kernels);
  ASSERT_TRUE(reference.ok());

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 8u}) {
      rc::ThreadPool::set_global_threads(threads);
      rs::ServiceOptions options;
      options.shards = shards;
      options.max_batch = 4;
      auto service = rs::Service::from_model(trained_model(), options);
      ASSERT_TRUE(service.ok()) << service.error().message;

      // N concurrent clients, each with its own slice of the mix.
      std::vector<rs::Service::Response> responses(kernels.size(),
                                                   rc::internal_error("unset"));
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (std::size_t i = 0; i < kPerClient; ++i) {
            const std::size_t slot = c * kPerClient + i;
            responses[slot] = service.value()->predict(kernels[slot]);
          }
        });
      }
      for (auto& t : clients) t.join();
      service.value()->stop();

      for (std::size_t i = 0; i < kernels.size(); ++i) {
        ASSERT_TRUE(responses[i].ok())
            << responses[i].error().message << " shards=" << shards
            << " threads=" << threads;
        EXPECT_EQ(responses[i].value().kernel, reference.value()[i].kernel);
        EXPECT_TRUE(bitwise_equal(responses[i].value().pareto,
                                  reference.value()[i].pareto))
            << "kernel " << i << " shards=" << shards << " threads=" << threads;
      }
      const auto stats = service.value()->stats();
      EXPECT_EQ(stats.requests, kernels.size());
      EXPECT_GE(stats.batches, 1u);
    }
  }
}

TEST(ServiceTest, CoalescesConcurrentRequestsIntoBatches) {
  rs::ServiceOptions options;
  options.shards = 1;
  options.max_batch = 16;
  auto service = rs::Service::from_model(trained_model(), options);
  ASSERT_TRUE(service.ok());
  // The only shard is busy featurizing a large source, so the 12 requests
  // predict_many submits before gathering queue up behind it.
  auto busy = occupy_one_shard(*service.value());
  const auto before = service.value()->stats();
  const auto responses = service.value()->predict_many(request_mix(12));
  for (const auto& r : responses) EXPECT_TRUE(r.ok());
  EXPECT_TRUE(busy.get().ok());
  service.value()->stop();
  const auto stats = service.value()->stats();
  EXPECT_EQ(stats.requests - before.requests, 12u);
  // A shard that frees up takes the whole backlog it finds, so the 12 must
  // have been coalesced into fewer batches.
  EXPECT_LT(stats.batches - before.batches, 12u);
}

TEST(ServiceTest, IdleShardServesWhileAnotherIsBusy) {
  rs::ServiceOptions options;
  options.shards = 2;
  options.max_batch = 1;
  auto service = rs::Service::from_model(trained_model(), options);
  ASSERT_TRUE(service.ok());
  auto busy = occupy_one_shard(*service.value());
  // Both requests go to the idle shard: neither waits behind the source.
  const auto kernels = request_mix(2);
  EXPECT_TRUE(service.value()->predict(kernels[0]).ok());
  EXPECT_TRUE(service.value()->predict(kernels[1]).ok());
  EXPECT_EQ(busy.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  EXPECT_TRUE(busy.get().ok());
}

TEST(ServiceTest, StopIsGracefulAndRefusesLateWork) {
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto response = service.value()->predict(request_mix(1)[0]);
  EXPECT_TRUE(response.ok());
  service.value()->stop();
  service.value()->stop();  // idempotent
  auto late = service.value()->predict(request_mix(1)[0]);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, rc::ErrorCode::kUnavailable);
  EXPECT_GE(service.value()->stats().rejected, 1u);
}

TEST(ServiceTest, CreateTrainsThroughModelCache) {
  TempDir dir("repro-serve-create");
  rs::ServiceOptions options;
  options.shards = 2;
  rco::ModelCache cache(dir.path.string());
  auto service = serve_through(cache, options);
  ASSERT_TRUE(service.ok()) << service.error().message;
  EXPECT_EQ(cache.stats().misses, 1u);
  auto response = service.value()->predict(request_mix(1)[0]);
  ASSERT_TRUE(response.ok());
  // The same cache serves a second service from the saved copy.
  auto second = serve_through(cache, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// --- socket round trip --------------------------------------------------------

TEST(SocketTest, TcpRoundTripIsBitIdenticalToInProcess) {
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  rs::ServerOptions server_options;
  server_options.tcp_port = 0;  // ephemeral
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok()) << server.error().message;
  ASSERT_GT(server.value()->tcp_port(), 0);

  const auto kernels = request_mix(4);
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_batch(kernels);
  ASSERT_TRUE(reference.ok());

  auto client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
  ASSERT_TRUE(client.ok()) << client.error().message;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    auto response = client.value().predict(kernels[i]);
    ASSERT_TRUE(response.ok()) << response.error().message;
    EXPECT_EQ(response.value().kernel, reference.value()[i].kernel);
    // Shortest-round-trip framing means even the socket path is bit-identical.
    EXPECT_TRUE(bitwise_equal(response.value().pareto, reference.value()[i].pareto))
        << "kernel " << i;
  }

  // Malformed and unanswerable requests produce per-request errors, not
  // dropped connections.
  auto bad = client.value().predict_source("kernel void f( {", "f");
  EXPECT_FALSE(bad.ok());
  auto good_after_bad = client.value().predict(kernels[0]);
  EXPECT_TRUE(good_after_bad.ok());

  server.value()->stop();
  service.value()->stop();
  // 4 predicts, the broken source (admitted, failed on its shard), 1 more.
  EXPECT_EQ(service.value()->stats().requests, 6u);
}

TEST(SocketTest, ConnectRetryRidesOutLateServerStart) {
  // The fleet race in miniature: the client starts connecting before the
  // server exists. Bounded backoff must absorb the gap.
  TempDir dir("repro-serve-retry");
  const std::string sock = (dir.path / "late.sock").string();

  std::unique_ptr<rs::Service> service;
  std::unique_ptr<rs::SocketServer> server;
  std::thread late_starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto s = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
    ASSERT_TRUE(s.ok());
    service = std::move(s).take();
    rs::ServerOptions options;
    options.unix_path = sock;
    auto srv = rs::SocketServer::start(*service, options);
    ASSERT_TRUE(srv.ok()) << srv.error().message;
    server = std::move(srv).take();
  });

  rs::ConnectOptions retry;
  retry.attempts = 40;
  retry.initial_backoff = std::chrono::milliseconds(25);
  auto client = rs::SocketClient::connect_unix(sock, retry);
  late_starter.join();
  ASSERT_TRUE(client.ok()) << client.error().message;
  auto health = client.value().health();
  ASSERT_TRUE(health.ok()) << health.error().message;

  server->stop();
  service->stop();

  // Exhausted attempts surface the last error, annotated with the count.
  rs::ConnectOptions bounded;
  bounded.attempts = 3;
  bounded.initial_backoff = std::chrono::milliseconds(1);
  auto gone = rs::SocketClient::connect_unix((dir.path / "nope.sock").string(), bounded);
  ASSERT_FALSE(gone.ok());
  EXPECT_NE(gone.error().message.find("attempt 3/3"), std::string::npos)
      << gone.error().message;
}

TEST(SocketTest, ServerAnswersHealthAndMetricsOverTheWire) {
  TempDir dir("repro-serve-metrics");
  rco::ModelCache cache(dir.path.string());
  auto service = serve_through(cache);
  ASSERT_TRUE(service.ok()) << service.error().message;

  rs::ServerOptions server_options;
  server_options.tcp_port = 0;
  server_options.model_cache = &cache;  // metrics include cache gauges
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok()) << server.error().message;

  auto client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
  ASSERT_TRUE(client.ok());
  auto health = client.value().health();
  ASSERT_TRUE(health.ok()) << health.error().message;
  EXPECT_GE(health.value().uptime_s, 0.0);

  ASSERT_TRUE(client.value().predict_source(kSourceKernel).ok());
  ASSERT_TRUE(client.value().predict(request_mix(1)[0]).ok());
  auto metrics = client.value().metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.error().message;
  // "requests" counts work that entered the batching pipeline; the health
  // and metrics calls are answered inline on the connection thread.
  EXPECT_EQ(metric_value(metrics.value(), "repro_requests_total"), 2.0);
  EXPECT_EQ(metric_value(metrics.value(), "repro_source_requests_total"), 1.0);
  EXPECT_GE(metric_value(metrics.value(), "repro_batches_total"), 1.0);
  EXPECT_EQ(metric_value(metrics.value(), "repro_connections_total"), 1.0);
  // The builder trained once, through the cache.
  EXPECT_EQ(metric_value(metrics.value(), "repro_cache_misses"), 1.0);

  // Uptime is monotone across calls on the same server.
  auto again = client.value().health();
  ASSERT_TRUE(again.ok());
  EXPECT_GE(again.value().uptime_s, health.value().uptime_s);

  server.value()->stop();
  service.value()->stop();
}

TEST(SocketTest, HalfClosingPipelineClientStillGetsResponsesAndEof) {
  // netcat-style usage: write all requests, shutdown the write side, read to
  // EOF. The server must answer everything already buffered and then shut the
  // connection down itself — without waiting for the next accept's reap.
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  rs::ServerOptions server_options;
  server_options.tcp_port = 0;
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok()) << server.error().message;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.value()->tcp_port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);

  std::string wire;
  const auto kernels = request_mix(2);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    rs::WireRequest request;
    request.id = i + 1;
    request.kernel = kernels[i].kernel_name;
    request.features = kernels[i].counts;
    wire += rs::format_request(request);
    wire.push_back('\n');
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  // Read until the server's EOF; a bounded recv timeout turns a regression
  // (server never shuts down its side) into a failure instead of a hang.
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string received;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    ASSERT_GT(n, -1) << "recv timed out: server never signalled EOF";
    if (n == 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  EXPECT_EQ(std::count(received.begin(), received.end(), '\n'), 2);
  for (std::uint64_t id = 1; id <= 2; ++id) {
    const auto line_start = id == 1 ? 0 : received.find('\n') + 1;
    auto response = rs::parse_response(
        received.substr(line_start, received.find('\n', line_start) - line_start));
    ASSERT_TRUE(response.ok()) << response.error().message;
    EXPECT_EQ(response.value().id, id);
    EXPECT_TRUE(response.value().prediction.has_value());
  }

  server.value()->stop();
  service.value()->stop();
}

// --- deadlines + load shedding ------------------------------------------------

TEST(DeadlineTest, WireRequestDeadlineRoundTripsAndStaysOptional) {
  rs::WireRequest request;
  request.id = 21;
  request.features = std::array<double, rcl::kNumFeatures>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  request.deadline_ms = 250.5;
  const std::string wire = rs::format_request(request);
  EXPECT_NE(wire.find("\"deadline_ms\":"), std::string::npos);
  const auto parsed = rs::parse_request(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  ASSERT_TRUE(parsed.value().deadline_ms.has_value());
  EXPECT_EQ(*parsed.value().deadline_ms, 250.5);  // exact framing

  // Absent stays absent (old clients), and a non-finite budget is refused.
  request.deadline_ms.reset();
  const auto plain = rs::parse_request(rs::format_request(request));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value().deadline_ms.has_value());
  EXPECT_FALSE(
      rs::parse_request(
          R"({"id":1,"features":[1,2,3,4,5,6,7,8,9,10],"deadline_ms":1e999})")
          .ok());
}

TEST(DeadlineTest, ErrorCodeIsRetryableAndRoundTrips) {
  EXPECT_TRUE(rc::is_retryable(rc::ErrorCode::kDeadlineExceeded));
  EXPECT_TRUE(rc::is_retryable(rc::ErrorCode::kUnavailable));
  EXPECT_FALSE(rc::is_retryable(rc::ErrorCode::kParseError));
  const auto parsed = rs::parse_response(
      formatted(rs::format_error_into, 3, rc::deadline_exceeded("too late"), nullptr));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  ASSERT_TRUE(parsed.value().error.has_value());
  EXPECT_EQ(parsed.value().error->code, rc::ErrorCode::kDeadlineExceeded);
}

TEST(DeadlineTest, ExpiredAtSubmitRejectedBeforeBatchAssembly) {
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  const auto kernels = request_mix(1);
  const auto expired =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto response = service.value()->submit(kernels[0], expired).get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, rc::ErrorCode::kDeadlineExceeded);
  service.value()->stop();
  const auto stats = service.value()->stats();
  // The request never entered batch assembly: not admitted, no batch ran.
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
}

TEST(DeadlineTest, GenerousDeadlineStillPredictsBitIdentically) {
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto kernels = request_mix(1);
  const auto reference = direct.value().predict_batch(kernels);
  ASSERT_TRUE(reference.ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(1);
  auto response = service.value()->submit(kernels[0], deadline).get();
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_TRUE(bitwise_equal(response.value().pareto, reference.value()[0].pareto));
  service.value()->stop();
  EXPECT_EQ(service.value()->stats().deadline_exceeded, 0u);
}

TEST(SheddingTest, OverloadShedsWithRetryableErrorAndServesTheRest) {
  rs::ServiceOptions options;
  options.shards = 1;
  options.max_batch = 1;  // one request per batch: backlog builds fast
  options.max_queue_delay = std::chrono::microseconds(1);
  auto service = rs::Service::from_model(trained_model(), options);
  ASSERT_TRUE(service.ok());

  // Source requests: featurization on the shard makes service time large
  // and measurable, so the admission backlog genuinely outruns the worker.
  // Shedding must never fire cold: the first request warms the EWMA.
  auto warm = service.value()->predict_source(kSourceKernel);
  ASSERT_TRUE(warm.ok()) << warm.error().message;

  std::vector<std::future<rs::Service::Response>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(service.value()->submit_source(kSourceKernel));
  }
  std::size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.error().code, rc::ErrorCode::kUnavailable) << r.error().message;
      EXPECT_NE(r.error().message.find("overloaded"), std::string::npos);
      ++shed;
    }
  }
  service.value()->stop();
  const auto stats = service.value()->stats();
  // A 64-burst against a 1-wide, 1-per-batch service with a 1us delay bound
  // must shed; everything not shed is answered normally.
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(ok + shed, 64u);
  EXPECT_EQ(stats.requests, ok + 1);  // warm-up + the admitted part of the burst
}

// --- crash-atomic model persistence -------------------------------------------

TEST(AtomicSaveTest, SaveLoadRoundTripsAndDetectsCorruption) {
  TempDir dir("repro-atomic-save");
  const auto path = (dir.path / "m.model").string();
  ASSERT_TRUE(rco::save_model_atomic(*trained_model(), path).ok());
  // No temp file survives a successful save.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."), std::string::npos);
  }
  auto loaded = rco::load_cached_model(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value().serialize(), trained_model()->serialize());

  // Flip one payload byte: the checksum catches it as a parse error.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-10, std::ios::end);
    f.put('#');
  }
  auto corrupt = rco::load_cached_model(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.error().code, rc::ErrorCode::kParseError);
  EXPECT_NE(corrupt.error().message.find("checksum"), std::string::npos);

  // A truncated header line is also a clean parse error, not a crash.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "gpufreq_checksum 0123";
  }
  EXPECT_FALSE(rco::load_cached_model(path).ok());
}

TEST(AtomicSaveTest, LegacyHeaderlessFilesStillLoad) {
  TempDir dir("repro-legacy-model");
  const auto path = (dir.path / "legacy.model").string();
  // A pre-checksum cache file: the raw serialization, no header.
  {
    std::ofstream f(path, std::ios::binary);
    f << trained_model()->serialize();
  }
  auto loaded = rco::load_cached_model(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value().serialize(), trained_model()->serialize());
}

// --- source→prediction determinism (the streaming featurization contract) -----

TEST(ServiceTest, PredictSourceMatchesLocalPredictor) {
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(reference.ok()) << reference.error().message;

  auto response = service.value()->predict_source(kSourceKernel);
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_EQ(response.value().kernel, "saxpy_damped");
  EXPECT_TRUE(bitwise_equal(response.value().pareto, reference.value().pareto));

  // A broken source answers just its own request; the service keeps serving.
  auto broken = service.value()->predict_source("kernel void broken( {");
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.error().code, rc::ErrorCode::kParseError);
  auto after = service.value()->predict_source(kSourceKernel);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(bitwise_equal(after.value().pareto, reference.value().pareto));

  service.value()->stop();
  EXPECT_EQ(service.value()->stats().source_requests, 3u);
}

TEST(SocketTest, SourcePredictionsBitIdenticalAtEveryShardThreadAndChunking) {
  // The acceptance matrix: one source featurized (a) whole-string, (b) in
  // 1-byte chunks, and (c) via predict_source over a socket at shard counts
  // 1/2/4 × thread counts 1/8 — every path must produce the same bytes.
  PoolGuard guard;
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(reference.ok()) << reference.error().message;

  // (a) vs (b): whole-string and 1-byte-chunked featurization.
  const auto whole = rcl::extract_features_from_source(kSourceKernel);
  const auto chunked = rcl::extract_features_chunked(kSourceKernel, 1);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(chunked.ok()) << chunked.error().message;
  EXPECT_EQ(whole.value().kernel_name, chunked.value().kernel_name);
  EXPECT_EQ(std::memcmp(whole.value().counts.data(), chunked.value().counts.data(),
                        sizeof(double) * rcl::kNumFeatures),
            0);
  // Chunked features drive the model to the same bytes as the socket below.
  const auto from_chunked = direct.value().predict_pareto(chunked.value());
  ASSERT_TRUE(from_chunked.ok());
  EXPECT_TRUE(bitwise_equal(from_chunked.value(), reference.value().pareto));

  // (c): over the socket, across the shard × thread matrix.
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 8u}) {
      rc::ThreadPool::set_global_threads(threads);
      rs::ServiceOptions options;
      options.shards = shards;
      options.max_batch = 4;
      auto service = rs::Service::from_model(trained_model(), options);
      ASSERT_TRUE(service.ok());
      rs::ServerOptions server_options;
      server_options.tcp_port = 0;
      auto server = rs::SocketServer::start(*service.value(), server_options);
      ASSERT_TRUE(server.ok()) << server.error().message;

      auto client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
      ASSERT_TRUE(client.ok()) << client.error().message;
      for (int repeat = 0; repeat < 3; ++repeat) {
        auto response = client.value().predict_source(kSourceKernel);
        ASSERT_TRUE(response.ok())
            << response.error().message << " shards=" << shards
            << " threads=" << threads;
        EXPECT_EQ(response.value().kernel, reference.value().kernel);
        EXPECT_TRUE(bitwise_equal(response.value().pareto, reference.value().pareto))
            << "shards=" << shards << " threads=" << threads;
      }
      server.value()->stop();
      service.value()->stop();
    }
  }
}

TEST(SocketTest, PipelinedConnectionAnswersInRequestOrder) {
  // One connection, many request lines written before any response is read
  // (features, sources, and a malformed line in the middle): the pipelined
  // server must answer every request, in request order, with per-request
  // errors where they belong.
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  rs::ServerOptions server_options;
  server_options.tcp_port = 0;
  server_options.max_inflight = 4;  // smaller than the request count below
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok()) << server.error().message;

  const auto kernels = request_mix(4);
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.value()->tcp_port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);

  std::string wire;
  std::uint64_t id = 0;
  for (const auto& kernel : kernels) {
    rs::WireRequest request;
    request.id = ++id;
    request.kernel = kernel.kernel_name;
    request.features = kernel.counts;
    wire += rs::format_request(request);
    wire.push_back('\n');
    rs::WireRequest source_request;
    source_request.id = ++id;
    source_request.source = kSourceKernel;
    wire += rs::format_request(source_request);
    wire.push_back('\n');
  }
  wire += R"({"id": 999, "features": "malformed"})";
  wire.push_back('\n');
  {
    rs::WireRequest last;
    last.id = 1000;
    last.source = kSourceKernel;
    wire += rs::format_request(last);
    wire.push_back('\n');
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string received;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    ASSERT_GT(n, -1) << "recv timed out: pipelined responses never completed";
    if (n == 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // 2 * 4 interleaved requests + 1 malformed + 1 trailing source.
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (true) {
    const auto nl = received.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(received.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 10u);

  const auto source_reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(source_reference.ok());
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    auto response = rs::parse_response(lines[i]);
    ASSERT_TRUE(response.ok()) << response.error().message;
    EXPECT_EQ(response.value().id, ++expect);  // strict request order
    ASSERT_TRUE(response.value().prediction.has_value()) << lines[i];
    if (i % 2 == 1) {
      EXPECT_TRUE(bitwise_equal(response.value().prediction->pareto,
                                source_reference.value().pareto));
    }
  }
  auto malformed = rs::parse_response(lines[8]);
  ASSERT_TRUE(malformed.ok());
  EXPECT_EQ(malformed.value().id, 999u);
  EXPECT_TRUE(malformed.value().error.has_value());
  auto last = rs::parse_response(lines[9]);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value().id, 1000u);
  EXPECT_TRUE(last.value().prediction.has_value());

  server.value()->stop();
  service.value()->stop();
}

TEST(SocketTest, RoundTripBitIdenticalUnderShortReadsAndEintr) {
  // The full server↔client path with every socket operation subjected to
  // short reads/writes and EINTR storms: reassembly and retry must be
  // invisible — same bytes, no errors. (No drops here: this asserts the
  // benign faults change nothing; drop handling is covered in fault_test.)
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  rs::ServerOptions server_options;
  server_options.tcp_port = 0;
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok()) << server.error().message;

  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(reference.ok());

  rc::FaultSpec spec;
  spec.short_rw = 0.5;
  spec.eintr = 0.3;
  rc::FaultInjector::Scope scope(123, spec);
  auto client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
  ASSERT_TRUE(client.ok()) << client.error().message;
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto response = client.value().predict_source(kSourceKernel);
    ASSERT_TRUE(response.ok()) << response.error().message;
    EXPECT_TRUE(bitwise_equal(response.value().pareto, reference.value().pareto));
  }

  server.value()->stop();
  service.value()->stop();
}

TEST(SocketTest, PipelinedClientHelperMatchesSequentialCalls) {
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  rs::ServerOptions server_options;
  server_options.tcp_port = 0;
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok());

  auto client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
  ASSERT_TRUE(client.ok());
  const auto sequential = client.value().predict_source(kSourceKernel);
  ASSERT_TRUE(sequential.ok());

  std::vector<rco::Predictor::SourceRequest> sources(
      5, {kSourceKernel, ""});
  sources[2].source = "kernel void broken( {";  // per-slot error, in place
  const auto many = client.value().predict_source_many(sources);
  ASSERT_EQ(many.size(), sources.size());
  for (std::size_t i = 0; i < many.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(many[i].ok());
      continue;
    }
    ASSERT_TRUE(many[i].ok()) << i << ": " << many[i].error().message;
    EXPECT_TRUE(bitwise_equal(many[i].value().pareto, sequential.value().pareto)) << i;
  }

  server.value()->stop();
  service.value()->stop();
}

// --- binary framing & chunked source streaming --------------------------------

TEST(BinaryProtocolTest, NegotiatedRoundTripsBitIdenticalAcrossShards) {
  // The same requests over (a) the default JSON framing and (b) a
  // negotiated binary connection must produce byte-identical predictions —
  // to each other and to the direct Predictor — at every shard count.
  PoolGuard guard;
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto kernels = request_mix(4);
  const auto feature_reference = direct.value().predict_batch(kernels);
  ASSERT_TRUE(feature_reference.ok());
  const auto source_reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(source_reference.ok());

  for (const std::size_t shards : {1u, 2u, 4u}) {
    rs::ServiceOptions options;
    options.shards = shards;
    auto service = rs::Service::from_model(trained_model(), options);
    ASSERT_TRUE(service.ok());
    rs::ServerOptions server_options;
    server_options.tcp_port = 0;
    auto server = rs::SocketServer::start(*service.value(), server_options);
    ASSERT_TRUE(server.ok()) << server.error().message;

    auto json_client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
    auto binary_client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
    ASSERT_TRUE(json_client.ok() && binary_client.ok());
    auto negotiated = binary_client.value().negotiate_binary();
    ASSERT_TRUE(negotiated.ok()) << negotiated.error().message;
    EXPECT_EQ(negotiated.value(), rs::kProtocolVersion);
    EXPECT_TRUE(binary_client.value().binary());
    EXPECT_FALSE(json_client.value().binary());

    for (std::size_t i = 0; i < kernels.size(); ++i) {
      auto via_json = json_client.value().predict(kernels[i]);
      auto via_binary = binary_client.value().predict(kernels[i]);
      ASSERT_TRUE(via_json.ok()) << via_json.error().message;
      ASSERT_TRUE(via_binary.ok()) << via_binary.error().message;
      EXPECT_TRUE(bitwise_equal(via_binary.value().pareto,
                                feature_reference.value()[i].pareto))
          << "kernel " << i << " shards=" << shards;
      EXPECT_TRUE(bitwise_equal(via_binary.value().pareto, via_json.value().pareto));
      EXPECT_EQ(via_binary.value().kernel, via_json.value().kernel);
    }
    auto source_binary = binary_client.value().predict_source(kSourceKernel);
    ASSERT_TRUE(source_binary.ok()) << source_binary.error().message;
    EXPECT_TRUE(bitwise_equal(source_binary.value().pareto,
                              source_reference.value().pareto))
        << "shards=" << shards;

    // Errors travel the binary framing too, still per-request.
    auto bad = binary_client.value().predict_source("kernel void broken( {");
    EXPECT_FALSE(bad.ok());
    auto after = binary_client.value().predict_source(kSourceKernel);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(bitwise_equal(after.value().pareto, source_reference.value().pareto));

    // Introspection over binary frames matches the JSON answers.
    auto binary_metrics = binary_client.value().metrics();
    auto json_metrics = json_client.value().metrics();
    ASSERT_TRUE(binary_metrics.ok() && json_metrics.ok());
    EXPECT_EQ(metric_value(binary_metrics.value(), "repro_requests_total"),
              metric_value(json_metrics.value(), "repro_requests_total"));

    server.value()->stop();
    service.value()->stop();
  }
}

TEST(BinaryProtocolTest, ChunkedStreamMatchesUnstreamedAtEverySplit) {
  // predict_source_stream must be bit-identical to plain predict_source on
  // the concatenated bytes at any chunk boundary — 1 byte at a time up to
  // the whole source in one chunk.
  PoolGuard guard;
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(reference.ok());

  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  rs::ServerOptions server_options;
  server_options.tcp_port = 0;
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok());

  auto client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
  ASSERT_TRUE(client.ok());
  auto negotiated = client.value().negotiate_binary();
  ASSERT_TRUE(negotiated.ok());
  ASSERT_EQ(negotiated.value(), rs::kProtocolVersion);

  const std::string source = kSourceKernel;
  const std::size_t splits[] = {1, 7, 64, 1024, source.size()};
  for (const std::size_t split : splits) {
    std::size_t offset = 0;
    auto provider = [&]() -> std::optional<std::string> {
      if (offset >= source.size()) return std::nullopt;
      const std::size_t n = std::min(split, source.size() - offset);
      std::string chunk = source.substr(offset, n);
      offset += n;
      return chunk;
    };
    auto response = client.value().predict_source_stream(provider);
    ASSERT_TRUE(response.ok()) << response.error().message << " split=" << split;
    EXPECT_EQ(response.value().kernel, reference.value().kernel);
    EXPECT_TRUE(bitwise_equal(response.value().pareto, reference.value().pareto))
        << "split=" << split;
  }

  // The stream requests are visible in the server's counters.
  auto metrics = client.value().metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metric_value(metrics.value(), "repro_streamed_total"),
            static_cast<double>(std::size(splits)));

  server.value()->stop();
  service.value()->stop();
}

TEST(BinaryProtocolTest, StreamServesSourceLargerThanLineBoundInBoundedMemory) {
  // A source far larger than max_line_bytes is un-servable as one JSON line
  // (the framing bound kills the connection) but streams through chunked
  // frames fine — and the server never buffers more than a frame at a time:
  // its per-connection peak message buffer stays within a few line bounds
  // while the source is two orders of magnitude larger.
  PoolGuard guard;
  std::string big_source = kSourceKernel;
  big_source.reserve(260 << 10);
  while (big_source.size() < (256 << 10)) {
    big_source += "// padding comment line to inflate the translation unit\n";
  }
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_source(big_source);
  ASSERT_TRUE(reference.ok()) << reference.error().message;

  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  rs::ServerOptions server_options;
  server_options.tcp_port = 0;
  server_options.max_line_bytes = 4096;
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok());

  {
    // The whole-line JSON path cannot carry it: the request exceeds the
    // framing bound and the connection dies with an error.
    auto json_client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
    ASSERT_TRUE(json_client.ok());
    auto refused = json_client.value().predict_source(big_source);
    EXPECT_FALSE(refused.ok());
  }

  {
    auto client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
    ASSERT_TRUE(client.ok());
    auto negotiated = client.value().negotiate_binary();
    ASSERT_TRUE(negotiated.ok());
    ASSERT_EQ(negotiated.value(), rs::kProtocolVersion);

    std::size_t offset = 0;
    auto provider = [&]() -> std::optional<std::string> {
      if (offset >= big_source.size()) return std::nullopt;
      const std::size_t n = std::min<std::size_t>(512, big_source.size() - offset);
      std::string chunk = big_source.substr(offset, n);
      offset += n;
      return chunk;
    };
    auto response = client.value().predict_source_stream(provider);
    ASSERT_TRUE(response.ok()) << response.error().message;
    EXPECT_TRUE(bitwise_equal(response.value().pareto, reference.value().pareto));
  }  // disconnect: the connection's buffering peak folds into the gauge

  server.value()->stop();
  const double peak =
      service.value()->registry().gauge("repro_peak_message_bytes")->value();
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, static_cast<double>(3 * server_options.max_line_bytes))
      << "request buffering must be bounded by the frame size, not the source";

  service.value()->stop();
}

TEST(BinaryProtocolTest, NegotiationDowngradesAgainstJsonOnlyServer) {
  // enable_binary=false makes the server an old-style JSON-only peer: hello
  // answers protocol 0 and the client stays on JSON lines, fully working.
  PoolGuard guard;
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  rs::ServerOptions server_options;
  server_options.tcp_port = 0;
  server_options.enable_binary = false;
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok());

  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(reference.ok());

  auto client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
  ASSERT_TRUE(client.ok());
  auto negotiated = client.value().negotiate_binary();
  ASSERT_TRUE(negotiated.ok()) << negotiated.error().message;
  EXPECT_EQ(negotiated.value(), 0u);
  EXPECT_FALSE(client.value().binary());

  auto response = client.value().predict_source(kSourceKernel);
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_TRUE(bitwise_equal(response.value().pareto, reference.value().pareto));

  // predict_source_stream still works on the downgraded connection — the
  // chunks are concatenated into one ordinary request.
  int calls = 0;
  auto provider = [&]() -> std::optional<std::string> {
    const std::string source = kSourceKernel;
    const std::size_t piece = source.size() / 3 + 1;
    if (static_cast<std::size_t>(calls) * piece >= source.size()) return std::nullopt;
    auto chunk = source.substr(static_cast<std::size_t>(calls) * piece, piece);
    ++calls;
    return chunk;
  };
  auto streamed = client.value().predict_source_stream(provider);
  ASSERT_TRUE(streamed.ok()) << streamed.error().message;
  EXPECT_TRUE(bitwise_equal(streamed.value().pareto, reference.value().pareto));

  server.value()->stop();
  service.value()->stop();
}

TEST(BinaryProtocolTest, NegotiationDowngradesAgainstPreHelloPeer) {
  // A peer that predates "hello" answers it with an ordinary JSON error
  // line (here: a raw fake speaking exactly that). negotiate_binary must
  // treat the error reply as "JSON only", not as a failure.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string line;
    char c = 0;
    while (::read(fd, &c, 1) == 1 && c != '\n') line.push_back(c);
    std::string reply = formatted(
        rs::format_error_into, rs::best_effort_id(line),
        rc::parse_error("protocol: unknown request type \"hello\""), nullptr);
    reply.push_back('\n');
    (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
    ::close(fd);
  });

  auto client = rs::SocketClient::connect_tcp(ntohs(addr.sin_port));
  ASSERT_TRUE(client.ok()) << client.error().message;
  auto negotiated = client.value().negotiate_binary();
  ASSERT_TRUE(negotiated.ok()) << negotiated.error().message;
  EXPECT_EQ(negotiated.value(), 0u);
  EXPECT_FALSE(client.value().binary());

  peer.join();
  ::close(listener);
}

// --- observability: traced requests and the metrics request kind --------------

TEST(ObservabilityTest, TracedRequestCarriesStagesAndStaysBitIdentical) {
  // A traced predict_source must come back with the full worker stage set
  // (parse, admission, batch, execute, reply) and — trace aside — the exact
  // bytes an untraced request gets: the trace is the one deliberately
  // nondeterministic reply field (docs/DETERMINISM.md), never part of the
  // prediction. Checked at several shard counts over both framings.
  PoolGuard guard;
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(reference.ok());

  for (const std::size_t shards : {1u, 2u, 4u}) {
    rs::ServiceOptions options;
    options.shards = shards;
    auto service = rs::Service::from_model(trained_model(), options);
    ASSERT_TRUE(service.ok());
    rs::ServerOptions server_options;
    server_options.tcp_port = 0;
    auto server = rs::SocketServer::start(*service.value(), server_options);
    ASSERT_TRUE(server.ok()) << server.error().message;

    for (const bool binary : {false, true}) {
      auto client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
      ASSERT_TRUE(client.ok()) << client.error().message;
      if (binary) {
        auto negotiated = client.value().negotiate_binary();
        ASSERT_TRUE(negotiated.ok()) << negotiated.error().message;
        ASSERT_EQ(negotiated.value(), rs::kProtocolVersion);
      }

      // Untraced by default: no trace rides the reply.
      auto plain = client.value().predict_source(kSourceKernel);
      ASSERT_TRUE(plain.ok()) << plain.error().message;
      EXPECT_FALSE(client.value().last_trace().has_value());

      client.value().set_trace_enabled(true);
      auto traced = client.value().predict_source(kSourceKernel);
      ASSERT_TRUE(traced.ok()) << traced.error().message;
      EXPECT_TRUE(bitwise_equal(traced.value().pareto, reference.value().pareto))
          << "shards=" << shards << " binary=" << binary;
      EXPECT_TRUE(bitwise_equal(traced.value().pareto, plain.value().pareto));

      ASSERT_TRUE(client.value().last_trace().has_value())
          << "shards=" << shards << " binary=" << binary;
      const auto& trace = *client.value().last_trace();
      std::vector<std::string> stages;
      for (const auto& s : trace.stages) stages.push_back(s.stage);
      for (const char* expected :
           {"parse", "admission", "batch", "execute", "reply"}) {
        EXPECT_NE(std::find(stages.begin(), stages.end(), expected),
                  stages.end())
            << "missing stage " << expected << " shards=" << shards
            << " binary=" << binary;
      }
      EXPECT_GE(stages.size(), 5u);

      // Back off: the next request is untraced again.
      client.value().set_trace_enabled(false);
      auto untraced = client.value().predict_source(kSourceKernel);
      ASSERT_TRUE(untraced.ok());
      EXPECT_FALSE(client.value().last_trace().has_value());
    }

    server.value()->stop();
    service.value()->stop();
  }
}

TEST(ObservabilityTest, TracedErrorReplyAnswersWhereItFailed) {
  // The trace rides error replies too — a rejected request still tells the
  // client which stage it reached.
  PoolGuard guard;
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  rs::ServerOptions server_options;
  server_options.tcp_port = 0;
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok());

  auto client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
  ASSERT_TRUE(client.ok());
  client.value().set_trace_enabled(true);
  auto bad = client.value().predict_source("kernel void broken( {");
  ASSERT_FALSE(bad.ok());
  ASSERT_TRUE(client.value().last_trace().has_value());
  EXPECT_FALSE(client.value().last_trace()->stages.empty());

  server.value()->stop();
  service.value()->stop();
}

TEST(ObservabilityTest, MetricsRequestAnsweredInlineOverBothFramings) {
  // The "metrics" request is answered on the connection thread like
  // health, in both framings, exposing the service's counters from the
  // registry the service was given.
  PoolGuard guard;
  repro::obs::Registry registry;
  rs::ServiceOptions options;
  options.registry = &registry;
  auto service = rs::Service::from_model(trained_model(), options);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(&service.value()->registry(), &registry);
  rs::ServerOptions server_options;
  server_options.tcp_port = 0;
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok());

  auto client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
  ASSERT_TRUE(client.ok());
  const auto kernels = request_mix(3);
  for (const auto& kernel : kernels) {
    ASSERT_TRUE(client.value().predict(kernel).ok());
  }

  auto metrics = client.value().metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.error().message;
  bool found = false;
  for (const auto& [name, value] : metrics.value().values) {
    if (name == "repro_requests_total") {
      EXPECT_EQ(value, 3.0);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "repro_requests_total missing";
  EXPECT_NE(metrics.value().text.find("repro_requests_total 3"),
            std::string::npos)
      << metrics.value().text;
  EXPECT_NE(metrics.value().text.find("repro_request_latency_us_count"),
            std::string::npos);

  // The binary framing answers the same snapshot shape.
  auto binary_client = rs::SocketClient::connect_tcp(server.value()->tcp_port());
  ASSERT_TRUE(binary_client.ok());
  auto negotiated = binary_client.value().negotiate_binary();
  ASSERT_TRUE(negotiated.ok());
  ASSERT_EQ(negotiated.value(), rs::kProtocolVersion);
  auto binary_metrics = binary_client.value().metrics();
  ASSERT_TRUE(binary_metrics.ok()) << binary_metrics.error().message;
  EXPECT_EQ(binary_metrics.value().values.size(), metrics.value().values.size());
  EXPECT_NE(binary_metrics.value().text.find("repro_requests_total"),
            std::string::npos);

  server.value()->stop();
  service.value()->stop();
}

TEST(ObservabilityTest, EveryProtocolErrorIsCountedInTheRegistry) {
  // A framing fault (an overlong line) and an unparseable request each
  // count once in the registry the metrics request exposes.
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  rs::ServerOptions server_options;
  server_options.tcp_port = 0;
  server_options.max_line_bytes = 64;
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok()) << server.error().message;

  const std::string nope = "{\"id\":1,\"type\":\"nope\"}\n";
  // Longer than one 4 KB socket read, so it can never arrive whole: the
  // splitter sees it pass max_line_bytes unterminated (a framing fault).
  const std::string overlong = std::string(8192, 'x') + "\n";
  const auto replies =
      parse_replies(exchange_raw(server.value()->tcp_port(), nope + overlong));
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_TRUE(replies[0].error.has_value());
  EXPECT_EQ(replies[0].id, 1u);
  EXPECT_EQ(replies[0].error->code, rc::ErrorCode::kParseError);
  ASSERT_TRUE(replies[1].error.has_value());  // answered once, then closed

  EXPECT_EQ(service.value()->registry().counter("repro_protocol_errors_total")->value(),
            2u);
  EXPECT_EQ(service.value()->registry().counter("repro_connections_total")->value(), 1u);
  EXPECT_EQ(service.value()->stats().requests, 0u);

  server.value()->stop();
  service.value()->stop();
}

TEST(ObservabilityTest, EachServiceCountsInItsOwnRegistry) {
  // Two default-configured services in one process: each metrics reply
  // reports only its own server's traffic.
  std::vector<std::unique_ptr<rs::Service>> services;
  std::vector<std::unique_ptr<rs::SocketServer>> servers;
  for (int i = 0; i < 2; ++i) {
    auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
    ASSERT_TRUE(service.ok());
    services.push_back(std::move(service).take());
    rs::ServerOptions server_options;
    server_options.tcp_port = 0;
    auto server = rs::SocketServer::start(*services.back(), server_options);
    ASSERT_TRUE(server.ok()) << server.error().message;
    servers.push_back(std::move(server).take());
  }
  EXPECT_NE(&services[0]->registry(), &services[1]->registry());

  const std::size_t sent[] = {3, 5};
  for (std::size_t i = 0; i < 2; ++i) {
    auto client = rs::SocketClient::connect_tcp(servers[i]->tcp_port());
    ASSERT_TRUE(client.ok()) << client.error().message;
    for (const auto& kernel : request_mix(sent[i])) {
      ASSERT_TRUE(client.value().predict(kernel).ok());
    }
  }
  for (std::size_t i = 0; i < 2; ++i) {
    auto client = rs::SocketClient::connect_tcp(servers[i]->tcp_port());
    ASSERT_TRUE(client.ok()) << client.error().message;
    auto metrics = client.value().metrics();
    ASSERT_TRUE(metrics.ok()) << metrics.error().message;
    EXPECT_EQ(metric_value(metrics.value(), "repro_requests_total"),
              static_cast<double>(sent[i]))
        << "server " << i;
    EXPECT_EQ(services[i]->stats().requests, sent[i]);
  }

  for (std::size_t i = 0; i < 2; ++i) {
    servers[i]->stop();
    services[i]->stop();
  }
}

TEST(ObservabilityTest, RetiredStatsRequestIsAnsweredNotDropped) {
  // "stats" is no longer a request kind: in either framing it gets a
  // parse_error reply carrying its id, and the connection keeps serving.
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  rs::ServerOptions server_options;
  server_options.tcp_port = 0;
  auto server = rs::SocketServer::start(*service.value(), server_options);
  ASSERT_TRUE(server.ok()) << server.error().message;

  const auto kernel = request_mix(1)[0];
  rs::WireRequest predict;
  predict.kernel = kernel.kernel_name;
  predict.features = kernel.counts;

  std::string wire = "{\"id\":4,\"type\":\"stats\"}\n";
  predict.id = 5;
  wire += rs::format_request(predict) + "\n";
  // A binary request frame with kind byte 3 (the retired stats kind): a
  // health frame with its kind byte (after the u64 id) rewritten.
  rs::WireRequest health;
  health.id = 6;
  health.kind = rs::RequestKind::kHealth;
  std::string retired = rs::binary::format_request_frame(health);
  retired[rs::binary::kHeaderBytes + 8] = 3;
  wire += retired;
  predict.id = 7;
  wire += rs::binary::format_request_frame(predict);

  const auto replies = parse_replies(exchange_raw(server.value()->tcp_port(), wire));
  ASSERT_EQ(replies.size(), 4u);
  for (const std::size_t i : {0u, 2u}) {
    EXPECT_EQ(replies[i].id, i == 0 ? 4u : 6u);
    ASSERT_TRUE(replies[i].error.has_value()) << "reply " << i;
    EXPECT_EQ(replies[i].error->code, rc::ErrorCode::kParseError);
  }
  for (const std::size_t i : {1u, 3u}) {
    EXPECT_EQ(replies[i].id, i == 1 ? 5u : 7u);
    EXPECT_TRUE(replies[i].prediction.has_value()) << "reply " << i;
  }
  EXPECT_EQ(service.value()->registry().counter("repro_protocol_errors_total")->value(),
            2u);

  server.value()->stop();
  service.value()->stop();
}
