// The multi-process serving fleet, exercised in-process: the front
// balancer must be invisible to clients — responses bit-identical to a
// direct Predictor at any backend count, per-connection response order
// preserved — and worker loss must cost latency, never an error: requests
// pending on a dying backend are re-dispatched to live ones, and a backend
// that comes back on the same endpoint is re-adopted by the maintenance
// thread. (The true multi-process version of these assertions, with real
// repro_serve workers and kill -9, lives in scripts/fleet_smoke.sh.)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fault.hpp"
#include "serve/protocol.hpp"

#include "benchgen/benchgen.hpp"
#include "core/measurement.hpp"
#include "core/model.hpp"
#include "core/predictor.hpp"
#include "fleet/balancer.hpp"
#include "gpusim/simulator.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace rc = repro::common;
namespace rco = repro::core;
namespace rb = repro::benchgen;
namespace rg = repro::gpusim;
namespace rs = repro::serve;
namespace rf = repro::fleet;

namespace {

/// What an `_into` reply formatter appends to an empty buffer.
template <class... Params, class... Args>
std::string formatted(void (*format_into)(std::string&, Params...), Args&&... args) {
  std::string out;
  format_into(out, std::forward<Args>(args)...);
  return out;
}

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

/// Same small training setup as serve_test.cpp: train once per binary.
std::vector<rb::MicroBenchmark> small_suite() {
  static const auto subset = [] {
    const auto full = rb::generate_training_suite().value();
    std::vector<rb::MicroBenchmark> out;
    for (std::size_t i = 0; i < full.size(); i += 8) out.push_back(full[i]);
    return out;
  }();
  return subset;
}

std::shared_ptr<const rco::FrequencyModel> trained_model() {
  static const auto model = [] {
    const rco::SimulatorBackend backend(rg::DeviceModel::titan_x());
    rco::TrainingOptions options;
    options.num_configs = 8;
    auto m = rco::FrequencyModel::train(backend, small_suite(), options);
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

const char* kSourceKernel = R"CL(
float damp(float v) { return v * 0.9375f + 0.0625f; }
kernel void saxpy_damped(global float* x, global float* y, float a, int n) {
  int gid = get_global_id(0);
  if (gid < n) y[gid] = damp(a * x[gid] + y[gid]);
}
)CL";

/// One in-process stand-in for a repro_serve worker: a Service over the
/// shared model plus a SocketServer (TCP by default, Unix when a path is
/// given). stop() mimics a worker death — pending work surfaces as EOF and
/// kUnavailable errors, exactly what the balancer must absorb.
struct InProcWorker {
  std::unique_ptr<rs::Service> service;
  std::unique_ptr<rs::SocketServer> server;

  /// Each worker's Service owns its registry, so in-process workers never
  /// share counters.
  static InProcWorker start(const std::string& unix_path = {}) {
    InProcWorker worker;
    auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
    EXPECT_TRUE(service.ok());
    worker.service = std::move(service).take();
    rs::ServerOptions options;
    if (unix_path.empty()) {
      options.tcp_port = 0;
    } else {
      options.unix_path = unix_path;
    }
    auto server = rs::SocketServer::start(*worker.service, options);
    EXPECT_TRUE(server.ok()) << server.error().message;
    worker.server = std::move(server).take();
    return worker;
  }

  rf::BackendEndpoint endpoint() const {
    if (!server->unix_path().empty()) return {server->unix_path(), -1};
    return {"", server->tcp_port()};
  }

  void stop() {
    server->stop();
    service->stop();
  }

  /// What this worker admitted: its repro_requests_total.
  [[nodiscard]] std::uint64_t requests() const {
    return service->registry().counter("repro_requests_total")->value();
  }
};

/// One counter from the balancer's own registry.
std::uint64_t balancer_count(const rf::Balancer& balancer, const char* name) {
  return balancer.registry().counter(name)->value();
}

/// Writes `wire` on a fresh loopback TCP connection, half-closes it, and
/// returns every byte the peer sends before its EOF.
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
    tv.tv_sec = 30;  // a peer that never closes fails instead of hanging
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char chunk[4096];
    for (ssize_t n = 0; (n = ::recv(fd, chunk, sizeof chunk, 0)) > 0;) {
      received.append(chunk, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return received;
}

std::vector<rco::Predictor::SourceRequest> source_burst(std::size_t n) {
  return std::vector<rco::Predictor::SourceRequest>(n, {kSourceKernel, ""});
}

/// A listening socket on an ephemeral 127.0.0.1 port, which lands in
/// `port`; -1 on failure.
int listen_loopback(int& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  port = ntohs(addr.sin_port);
  return fd;
}

/// A listening Unix socket at `path`; -1 on failure.
int listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The JSON reply that settles the offer on `line` on protocol 2.
std::string hello_acceptance(std::string_view line) {
  std::string reply = formatted(rs::format_hello_response_into, rs::best_effort_id(line),
                                rs::kProtocolVersion);
  reply.push_back('\n');
  return reply;
}

/// A fake worker that negotiates protocol 2, then answers every request
/// frame with a retryable "unavailable" error frame after a fixed delay — so
/// the balancer re-dispatches each reply, burning the request's deadline
/// budget one slice at a time.
class UnavailableBackend {
 public:
  explicit UnavailableBackend(std::chrono::milliseconds reply_delay)
      : reply_delay_(reply_delay), listener_(listen_loopback(port_)) {
    EXPECT_GE(listener_, 0);
    acceptor_ = std::thread([this] { accept_loop(); });
  }
  ~UnavailableBackend() { stop(); }

  void stop() {
    if (stopping_.exchange(true)) return;
    ::shutdown(listener_, SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    ::close(listener_);
  }
  [[nodiscard]] int port() const { return port_; }

 private:
  void accept_loop() {
    std::vector<std::thread> conns;
    for (;;) {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) break;  // stop() shut the listener down
      conns.emplace_back([fd, delay = reply_delay_] {
        rs::MessageSplitter splitter;
        char chunk[4096];
        for (;;) {
          const ssize_t n = ::read(fd, chunk, sizeof chunk);
          if (n < 0 && errno == EINTR) continue;
          if (n <= 0) break;
          splitter.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
          for (auto next = splitter.next(); next.ok() && next.value().has_value();
               next = splitter.next()) {
            const rs::WireMessage& message = *next.value();
            std::string reply;
            if (!message.binary) {
              reply = hello_acceptance(message.payload);
            } else {
              std::this_thread::sleep_for(delay);
              reply = formatted(rs::binary::format_error_frame_into,
                                rs::binary::best_effort_id(message.payload),
                                rc::unavailable("always draining"), nullptr);
            }
            (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
          }
        }
        ::close(fd);
      });
    }
    for (auto& conn : conns) conn.join();
  }

  std::chrono::milliseconds reply_delay_;
  int port_ = 0;
  int listener_ = -1;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
};

}  // namespace

// --- the fleet's headline contract --------------------------------------------

TEST(BalancerTest, BitIdenticalToDirectPredictorAtEveryBackendCount) {
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto source_reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(source_reference.ok()) << source_reference.error().message;

  const auto kernels = [&] {
    std::vector<repro::clfront::StaticFeatures> out;
    const auto suite = small_suite();
    for (std::size_t i = 0; i < 12; ++i) out.push_back(suite[i % suite.size()].features);
    return out;
  }();
  const auto feature_reference = direct.value().predict_batch(kernels);
  ASSERT_TRUE(feature_reference.ok());

  for (const std::size_t backends : {1u, 2u, 4u}) {
    std::vector<InProcWorker> workers;
    std::vector<rf::BackendEndpoint> endpoints;
    for (std::size_t i = 0; i < backends; ++i) {
      workers.push_back(InProcWorker::start());
      endpoints.push_back(workers.back().endpoint());
    }
    rf::BalancerOptions options;
    options.tcp_port = 0;
    auto balancer = rf::Balancer::start(endpoints, options);
    ASSERT_TRUE(balancer.ok()) << balancer.error().message;
    EXPECT_EQ(balancer.value()->alive_backends(), backends);

    auto client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
    ASSERT_TRUE(client.ok()) << client.error().message;

    // Feature requests, strict round trips.
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      auto response = client.value().predict(kernels[i]);
      ASSERT_TRUE(response.ok()) << response.error().message << " backends=" << backends;
      EXPECT_EQ(response.value().kernel, feature_reference.value()[i].kernel);
      EXPECT_TRUE(bitwise_equal(response.value().pareto,
                                feature_reference.value()[i].pareto))
          << "kernel " << i << " backends=" << backends;
    }

    // A pipelined source burst: responses must come back in request order
    // on this connection even though they fan out across backends.
    const auto burst = client.value().predict_source_many(source_burst(8));
    ASSERT_EQ(burst.size(), 8u);
    for (const auto& r : burst) {
      ASSERT_TRUE(r.ok()) << r.error().message << " backends=" << backends;
      EXPECT_EQ(r.value().kernel, "saxpy_damped");
      EXPECT_TRUE(bitwise_equal(r.value().pareto, source_reference.value().pareto))
          << "backends=" << backends;
    }

    // Per-request errors stay per-request through the balancer too.
    auto bad = client.value().predict_source("kernel void broken( {");
    EXPECT_FALSE(bad.ok());
    auto after = client.value().predict_source(kSourceKernel);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(bitwise_equal(after.value().pareto, source_reference.value().pareto));

    balancer.value()->stop();
    const std::uint64_t forwarded =
        balancer_count(*balancer.value(), "repro_balancer_requests_total");
    EXPECT_EQ(forwarded, kernels.size() + 8 + 2);
    // What each worker admitted, from its own registry.
    std::uint64_t served_total = 0;
    std::uint64_t max_served = 0;
    for (const auto& worker : workers) {
      served_total += worker.requests();
      max_served = std::max(max_served, worker.requests());
    }
    EXPECT_GE(served_total, forwarded);  // redispatches can only add
    if (backends > 1) {
      // Least-loaded with round-robin tie-break must actually spread work.
      EXPECT_LT(max_served, served_total);
    }
    for (auto& worker : workers) worker.stop();
  }
}

// --- fault handling -----------------------------------------------------------

TEST(BalancerTest, BackendDeathMidBurstLosesNoRequests) {
  std::vector<InProcWorker> workers;
  std::vector<rf::BackendEndpoint> endpoints;
  for (std::size_t i = 0; i < 2; ++i) {
    workers.push_back(InProcWorker::start());
    endpoints.push_back(workers.back().endpoint());
  }
  rf::BalancerOptions options;
  options.tcp_port = 0;
  auto balancer = rf::Balancer::start(endpoints, options);
  ASSERT_TRUE(balancer.ok()) << balancer.error().message;

  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(reference.ok());

  // Pipelined burst from a client thread; kill one backend while it runs.
  constexpr std::size_t kBurst = 32;
  std::vector<rc::Result<rco::Predictor::KernelPrediction>> responses;
  std::thread client_thread([&] {
    auto client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
    ASSERT_TRUE(client.ok()) << client.error().message;
    responses = client.value().predict_source_many(source_burst(kBurst));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  workers[0].stop();  // in-flight and queued work must move to worker 1
  client_thread.join();

  ASSERT_EQ(responses.size(), kBurst);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok())
        << "request " << i << ": " << responses[i].error().message;
    EXPECT_TRUE(bitwise_equal(responses[i].value().pareto, reference.value().pareto))
        << "request " << i;
  }

  balancer.value()->stop();
  workers[1].stop();
}

TEST(BalancerTest, ReconnectsToRestartedBackend) {
  TempDir dir("repro-fleet-reconnect");
  const std::string sock = (dir.path / "worker.sock").string();
  auto worker = InProcWorker::start(sock);

  rf::BalancerOptions options;
  options.tcp_port = 0;
  options.health_interval = std::chrono::milliseconds(100);
  auto balancer = rf::Balancer::start({{sock, -1}}, options);
  ASSERT_TRUE(balancer.ok()) << balancer.error().message;

  auto client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().predict_source(kSourceKernel).ok());

  worker.stop();
  const auto gone_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (balancer.value()->alive_backends() != 0 &&
         std::chrono::steady_clock::now() < gone_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(balancer.value()->alive_backends(), 0u);
  // With no live worker the client sees a retryable error, not a hang.
  auto while_down = client.value().predict_source(kSourceKernel);
  ASSERT_FALSE(while_down.ok());
  EXPECT_EQ(while_down.error().code, rc::ErrorCode::kUnavailable);

  // Same endpoint comes back (the supervisor respawns onto the same socket
  // path); the maintenance thread must re-adopt it without help.
  worker = InProcWorker::start(sock);
  const auto back_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (balancer.value()->alive_backends() != 1 &&
         std::chrono::steady_clock::now() < back_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(balancer.value()->alive_backends(), 1u);
  auto after = client.value().predict_source(kSourceKernel);
  ASSERT_TRUE(after.ok()) << after.error().message;

  EXPECT_GE(balancer_count(*balancer.value(), "repro_balancer_reconnects_total"), 1u);
  EXPECT_GE(balancer_count(*balancer.value(), "repro_balancer_backend_failures_total"),
            1u);
  balancer.value()->stop();
  worker.stop();
}

// --- deadlines across re-dispatch ---------------------------------------------

TEST(BalancerTest, DeadlineBudgetDeductedAcrossRedispatch) {
  // The only backend answers every request "unavailable" after ~30ms, so
  // the balancer re-dispatches in a loop. With the ORIGINAL budget forwarded
  // each time, the loop would only stop at max_dispatch_attempts (set
  // absurdly high here); deducting elapsed time means the client must see
  // kDeadlineExceeded once the 250ms budget is burned.
  UnavailableBackend backend(std::chrono::milliseconds(30));
  rf::BalancerOptions options;
  options.tcp_port = 0;
  options.health_interval = std::chrono::milliseconds(0);  // no pings
  options.max_dispatch_attempts = 1000;
  auto balancer = rf::Balancer::start({{"", backend.port()}}, options);
  ASSERT_TRUE(balancer.ok()) << balancer.error().message;

  auto client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
  ASSERT_TRUE(client.ok()) << client.error().message;
  client.value().set_deadline_ms(250.0);

  const auto t0 = std::chrono::steady_clock::now();
  auto response = client.value().predict_source(kSourceKernel);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, rc::ErrorCode::kDeadlineExceeded)
      << response.error().message;
  EXPECT_TRUE(rc::is_retryable(response.error().code));
  // The budget actually bounded the retry loop: well past the deadline is
  // fine (one in-flight slice can finish), but nowhere near 1000 * 30ms.
  EXPECT_GE(elapsed, std::chrono::milliseconds(200));
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_GE(balancer_count(*balancer.value(), "repro_balancer_redispatches_total"),
            1u);

  balancer.value()->stop();
  backend.stop();
}

// --- backend framing and backend writes ---------------------------------------

TEST(BalancerTest, RefusesAWorkerThatDoesNotNegotiate) {
  // The front speaks binary frames to every worker, so a worker that
  // answers "hello" with an error cannot be served through: start() fails
  // with that worker's error.
  int port = 0;
  const int listener = listen_loopback(port);
  ASSERT_GE(listener, 0);
  std::thread worker([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string line;
    char c = 0;
    while (::read(fd, &c, 1) == 1 && c != '\n') line.push_back(c);
    std::string reply =
        formatted(rs::format_error_into, rs::best_effort_id(line),
                  rc::parse_error("protocol: unknown request type \"hello\""), nullptr);
    reply.push_back('\n');
    (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
    ::close(fd);
  });

  rf::BalancerOptions options;
  options.tcp_port = 0;
  auto balancer = rf::Balancer::start({{"", port}}, options);
  worker.join();
  ::close(listener);
  ASSERT_FALSE(balancer.ok()) << "started on a worker that did not negotiate";
  EXPECT_EQ(balancer.error().code, rc::ErrorCode::kParseError);
  EXPECT_EQ(balancer.error().message, "protocol: unknown request type \"hello\"");
}

TEST(BalancerTest, StalledBackendWriteDoesNotHoldBackRepliesItAlreadyGot) {
  // A scripted worker negotiates, reads one predict, stops reading, and
  // answers that predict 0.5 s later. Meanwhile a second client floods a
  // 16 MB chunk stream through the front into the same worker, so the
  // front's write to it stalls. The reply the worker already sent must
  // reach its client then, not when the stalled write times out (3 s).
  TempDir dir("repro-fleet-stall");
  const std::string sock = (dir.path / "worker.sock").string();
  const int listener = listen_unix(sock);
  ASSERT_GE(listener, 0);

  std::promise<void> got_predict;
  std::future<void> predict_read = got_predict.get_future();
  std::promise<void> release;
  std::thread worker([listener, &got_predict, released = release.get_future()] {
    const int fd = ::accept(listener, nullptr, nullptr);
    // A reconnect must fail fast, not hang in a handshake nobody answers.
    ::close(listener);
    // Byte by byte, so the worker never reads past the message it wants.
    rs::MessageSplitter splitter;
    const auto next_payload = [&]() -> std::string {
      for (char c = 0;;) {
        auto next = splitter.next();
        if (!next.ok()) return {};
        if (next.value().has_value()) return std::string(next.value()->payload);
        if (::read(fd, &c, 1) != 1) return {};
        splitter.feed(std::string_view(&c, 1));
      }
    };
    const std::string hello = hello_acceptance(next_payload());
    (void)::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL);
    const std::uint64_t id = rs::binary::best_effort_id(next_payload());
    got_predict.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    rco::Predictor::KernelPrediction prediction;
    prediction.kernel = "scripted";
    const std::string reply = rs::binary::format_prediction_frame(id, prediction);
    (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
    released.wait();
    ::close(fd);
  });

  rf::BalancerOptions options;
  options.tcp_port = 0;
  options.health_interval = std::chrono::milliseconds(0);  // no pings
  options.io_timeout = std::chrono::seconds(3);
  auto balancer = rf::Balancer::start({{sock, -1}}, options);
  ASSERT_TRUE(balancer.ok()) << balancer.error().message;

  rc::Result<rco::Predictor::KernelPrediction> flooded = rc::internal_error("not run");
  std::thread flood([&] {
    predict_read.wait();
    auto client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
    if (!client.ok()) return;
    if (auto negotiated = client.value().negotiate_binary(); !negotiated.ok()) return;
    const std::string piece(64u << 10, ' ');
    std::size_t streamed = 0;
    flooded = client.value().predict_source_stream([&]() -> std::optional<std::string> {
      if (streamed >= (16u << 20)) return std::nullopt;
      streamed += piece.size();
      return piece;
    });
  });

  auto client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
  ASSERT_TRUE(client.ok()) << client.error().message;
  const auto t0 = std::chrono::steady_clock::now();
  auto reply = client.value().predict("stalled", {});
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  release.set_value();
  worker.join();
  flood.join();
  balancer.value()->stop();

  ASSERT_TRUE(reply.ok()) << reply.error().message;
  EXPECT_EQ(reply.value().kernel, "scripted");
  EXPECT_GE(elapsed, std::chrono::milliseconds(450));
  EXPECT_LT(elapsed, std::chrono::milliseconds(2000))
      << "the reply waited for the stalled write to time out";
  // The stream dies with its worker connection: a retryable refusal.
  ASSERT_FALSE(flooded.ok());
  EXPECT_EQ(flooded.error().code, rc::ErrorCode::kUnavailable) << flooded.error().message;
}

// --- socket faults through the whole fleet path -------------------------------

TEST(BalancerTest, RoundTripBitIdenticalUnderSocketFaults) {
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(reference.ok());

  std::vector<InProcWorker> workers;
  std::vector<rf::BackendEndpoint> endpoints;
  for (std::size_t i = 0; i < 2; ++i) {
    workers.push_back(InProcWorker::start());
    endpoints.push_back(workers.back().endpoint());
  }
  rf::BalancerOptions options;
  options.tcp_port = 0;
  auto balancer = rf::Balancer::start(endpoints, options);
  ASSERT_TRUE(balancer.ok()) << balancer.error().message;

  {
    // Benign faults only (no drops): short reads/writes and EINTR storms on
    // every socket hop — client↔balancer and balancer↔worker — must change
    // nothing about the bytes that come back.
    rc::FaultSpec spec;
    spec.short_rw = 0.5;
    spec.eintr = 0.3;
    rc::FaultInjector::Scope scope(123, spec);

    auto client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
    ASSERT_TRUE(client.ok()) << client.error().message;
    for (int i = 0; i < 3; ++i) {
      auto response = client.value().predict_source(kSourceKernel);
      ASSERT_TRUE(response.ok()) << response.error().message;
      EXPECT_EQ(response.value().kernel, "saxpy_damped");
      EXPECT_TRUE(bitwise_equal(response.value().pareto, reference.value().pareto))
          << "round trip " << i;
    }
  }

  balancer.value()->stop();
  for (auto& worker : workers) worker.stop();
}

// --- balancer-addressed health and the balancer's own counters ---------------

TEST(BalancerTest, AnswersHealthItself) {
  auto worker = InProcWorker::start();
  rf::BalancerOptions options;
  options.tcp_port = 0;
  auto balancer = rf::Balancer::start({worker.endpoint()}, options);
  ASSERT_TRUE(balancer.ok()) << balancer.error().message;

  auto client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
  ASSERT_TRUE(client.ok());
  auto health = client.value().health();
  ASSERT_TRUE(health.ok()) << health.error().message;
  EXPECT_GE(health.value().uptime_s, 0.0);

  ASSERT_TRUE(client.value().predict_source(kSourceKernel).ok());
  auto after = client.value().health();
  ASSERT_TRUE(after.ok()) << after.error().message;
  EXPECT_EQ(after.value().queue_depth, 0u);
  EXPECT_EQ(balancer_count(*balancer.value(), "repro_balancer_requests_total"), 1u);
  EXPECT_EQ(balancer_count(*balancer.value(), "repro_balancer_connections_total"), 1u);

  balancer.value()->stop();
  worker.stop();
}

TEST(BalancerTest, CountsConnectionsAndProtocolErrorsInItsRegistry) {
  // An unparseable request and a framing fault (an overlong line), each on
  // its own client connection, count once each in the balancer's registry.
  auto worker = InProcWorker::start();
  rf::BalancerOptions options;
  options.tcp_port = 0;
  options.max_line_bytes = 64;
  auto balancer = rf::Balancer::start({worker.endpoint()}, options);
  ASSERT_TRUE(balancer.ok()) << balancer.error().message;

  const int port = balancer.value()->tcp_port();
  const std::string nope = exchange_raw(port, "{\"id\":1,\"type\":\"nope\"}\n");
  auto nope_reply = rs::parse_response(nope.substr(0, nope.find('\n')));
  ASSERT_TRUE(nope_reply.ok()) << nope;
  EXPECT_EQ(nope_reply.value().id, 1u);
  ASSERT_TRUE(nope_reply.value().error.has_value());
  EXPECT_EQ(nope_reply.value().error->code, rc::ErrorCode::kParseError);
  // Longer than one 4 KB socket read: it passes max_line_bytes unterminated.
  const std::string overlong = exchange_raw(port, std::string(8192, 'x') + "\n");
  auto overlong_reply = rs::parse_response(overlong.substr(0, overlong.find('\n')));
  ASSERT_TRUE(overlong_reply.ok()) << overlong;
  EXPECT_TRUE(overlong_reply.value().error.has_value());

  EXPECT_EQ(balancer_count(*balancer.value(), "repro_balancer_protocol_errors_total"),
            2u);
  EXPECT_EQ(balancer_count(*balancer.value(), "repro_balancer_connections_total"), 2u);
  EXPECT_EQ(balancer_count(*balancer.value(), "repro_balancer_requests_total"), 0u);
  EXPECT_EQ(worker.requests(), 0u);  // nothing reached the worker

  balancer.value()->stop();
  worker.stop();
}

// --- binary framing & chunked streams through the balancer --------------------

TEST(BalancerTest, ChunkedStreamThroughBalancerBitIdentical) {
  // A chunk-streamed predict_source forwarded through the balancer must be
  // bit-identical to the direct predictor at every chunk split — and a
  // plain JSON client on the same balancer must be unaffected by the binary
  // traffic next to it.
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(reference.ok());

  std::vector<InProcWorker> workers;
  std::vector<rf::BackendEndpoint> endpoints;
  for (std::size_t i = 0; i < 2; ++i) {
    workers.push_back(InProcWorker::start());
    endpoints.push_back(workers.back().endpoint());
  }
  rf::BalancerOptions options;
  options.tcp_port = 0;
  auto balancer = rf::Balancer::start(endpoints, options);
  ASSERT_TRUE(balancer.ok()) << balancer.error().message;

  auto binary_client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
  auto json_client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
  ASSERT_TRUE(binary_client.ok() && json_client.ok());
  auto negotiated = binary_client.value().negotiate_binary();
  ASSERT_TRUE(negotiated.ok()) << negotiated.error().message;
  ASSERT_EQ(negotiated.value(), rs::kProtocolVersion);

  const std::string source = kSourceKernel;
  for (const std::size_t split : {std::size_t{1}, std::size_t{37}, source.size()}) {
    std::size_t offset = 0;
    auto provider = [&]() -> std::optional<std::string> {
      if (offset >= source.size()) return std::nullopt;
      const std::size_t n = std::min(split, source.size() - offset);
      std::string chunk = source.substr(offset, n);
      offset += n;
      return chunk;
    };
    auto streamed = binary_client.value().predict_source_stream(provider);
    ASSERT_TRUE(streamed.ok()) << streamed.error().message << " split=" << split;
    EXPECT_TRUE(bitwise_equal(streamed.value().pareto, reference.value().pareto))
        << "split=" << split;

    auto via_json = json_client.value().predict_source(kSourceKernel);
    ASSERT_TRUE(via_json.ok()) << via_json.error().message;
    EXPECT_TRUE(bitwise_equal(via_json.value().pareto, reference.value().pareto));
  }

  balancer.value()->stop();
  for (auto& worker : workers) worker.stop();
}

TEST(BalancerTest, BackendDeathMidStreamFailsRetryablyWithoutRedispatch) {
  // A partially-streamed request cannot be replayed (the balancer does not
  // buffer chunks): when the backend dies mid-stream the client must see a
  // retryable kUnavailable — promptly, not after a hang — and the balancer
  // must keep serving. Fresh requests then land on nothing until the worker
  // returns, so this uses a single disposable worker.
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(reference.ok());

  auto worker = InProcWorker::start();
  rf::BalancerOptions options;
  options.tcp_port = 0;
  auto balancer = rf::Balancer::start({worker.endpoint()}, options);
  ASSERT_TRUE(balancer.ok()) << balancer.error().message;

  auto client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
  ASSERT_TRUE(client.ok());
  auto negotiated = client.value().negotiate_binary();
  ASSERT_TRUE(negotiated.ok());
  ASSERT_EQ(negotiated.value(), rs::kProtocolVersion);

  const std::string source = kSourceKernel;
  int calls = 0;
  auto provider = [&]() -> std::optional<std::string> {
    ++calls;
    if (calls == 1) return source.substr(0, source.size() / 2);
    if (calls == 2) {
      // Kill the backend between chunks: the stream is now half-forwarded.
      worker.stop();
      return source.substr(source.size() / 2);
    }
    return std::nullopt;
  };
  auto streamed = client.value().predict_source_stream(provider);
  ASSERT_FALSE(streamed.ok()) << "half-streamed request must not succeed";
  EXPECT_EQ(streamed.error().code, rc::ErrorCode::kUnavailable)
      << streamed.error().message;

  balancer.value()->stop();
}

// --- observability through the balancer ---------------------------------------

TEST(BalancerTest, TracedRequestMergesBalancerAndWorkerStages) {
  // A traced request through the balancer must return one merged trace:
  // the balancer's own stages (parse, dispatch, reply) plus the worker's
  // stage set spliced in between — at least five distinct stages end to
  // end — and the prediction must stay bit-identical to the direct
  // Predictor at every worker count, over both framings.
  auto direct = rco::Predictor::from_model(trained_model());
  ASSERT_TRUE(direct.ok());
  const auto reference = direct.value().predict_source(kSourceKernel);
  ASSERT_TRUE(reference.ok());

  for (const std::size_t backends : {1u, 2u, 4u}) {
    std::vector<InProcWorker> workers;
    std::vector<rf::BackendEndpoint> endpoints;
    for (std::size_t i = 0; i < backends; ++i) {
      workers.push_back(InProcWorker::start());
      endpoints.push_back(workers.back().endpoint());
    }
    rf::BalancerOptions options;
    options.tcp_port = 0;
    auto balancer = rf::Balancer::start(endpoints, options);
    ASSERT_TRUE(balancer.ok()) << balancer.error().message;

    for (const bool binary : {false, true}) {
      auto client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
      ASSERT_TRUE(client.ok()) << client.error().message;
      if (binary) {
        auto negotiated = client.value().negotiate_binary();
        ASSERT_TRUE(negotiated.ok()) << negotiated.error().message;
        ASSERT_EQ(negotiated.value(), rs::kProtocolVersion);
      }
      client.value().set_trace_enabled(true);

      auto response = client.value().predict_source(kSourceKernel);
      ASSERT_TRUE(response.ok())
          << response.error().message << " backends=" << backends;
      EXPECT_TRUE(bitwise_equal(response.value().pareto,
                                reference.value().pareto))
          << "backends=" << backends << " binary=" << binary;

      ASSERT_TRUE(client.value().last_trace().has_value())
          << "backends=" << backends << " binary=" << binary;
      const auto& trace = *client.value().last_trace();
      std::vector<std::string> stages;
      for (const auto& s : trace.stages) stages.push_back(s.stage);
      for (const char* expected :
           {"balancer.parse", "balancer.dispatch", "parse", "execute",
            "balancer.reply"}) {
        EXPECT_NE(std::find(stages.begin(), stages.end(), expected),
                  stages.end())
            << "missing stage " << expected << " backends=" << backends
            << " binary=" << binary;
      }
      EXPECT_GE(stages.size(), 5u);
    }

    balancer.value()->stop();
    for (auto& worker : workers) worker.stop();
  }
}

TEST(BalancerTest, AggregatesWorkerMetricsWithItsOwn) {
  // The balancer answers "metrics" by scraping every live worker and
  // merging: counters sum across workers, and the balancer's own
  // repro_balancer_* series join the result. Each worker's Service owns its
  // registry, so the sum is a real sum, not N copies of one shared count.
  constexpr std::size_t kBackends = 2;
  std::vector<InProcWorker> workers;
  std::vector<rf::BackendEndpoint> endpoints;
  for (std::size_t i = 0; i < kBackends; ++i) {
    workers.push_back(InProcWorker::start());
    endpoints.push_back(workers.back().endpoint());
  }
  rf::BalancerOptions options;
  options.tcp_port = 0;
  auto balancer = rf::Balancer::start(endpoints, options);
  ASSERT_TRUE(balancer.ok()) << balancer.error().message;

  auto client = rs::SocketClient::connect_tcp(balancer.value()->tcp_port());
  ASSERT_TRUE(client.ok());
  constexpr std::size_t kRequests = 8;
  const auto burst = client.value().predict_source_many(source_burst(kRequests));
  ASSERT_EQ(burst.size(), kRequests);
  for (const auto& r : burst) ASSERT_TRUE(r.ok()) << r.error().message;

  auto metrics = client.value().metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.error().message;
  const auto& values = metrics.value().values;
  auto value_of = [&values](const std::string& name) -> double {
    for (const auto& [n, v] : values) {
      if (n == name) return v;
    }
    return -1.0;
  };
  // The workers' counters, summed. Dispatches can exceed requests (a slice
  // may be re-dispatched) but every request executed exactly once.
  EXPECT_EQ(value_of("repro_requests_total"), static_cast<double>(kRequests));
  EXPECT_EQ(value_of("repro_source_requests_total"),
            static_cast<double>(kRequests));
  // The balancer's own series ride along.
  EXPECT_EQ(value_of("repro_balancer_requests_total"),
            static_cast<double>(kRequests));
  EXPECT_GE(value_of("repro_balancer_dispatches_total"),
            static_cast<double>(kRequests));
  EXPECT_GE(value_of("repro_balancer_backends_alive"),
            static_cast<double>(kBackends));
  // The merged text form announces the scrape width.
  EXPECT_NE(metrics.value().text.find("# merged across 2 worker(s)"),
            std::string::npos)
      << metrics.value().text;

  // Both workers actually served (least-loaded spreads a pipelined burst),
  // so the sum is a genuine cross-worker aggregate.
  for (const auto& worker : workers) EXPECT_GT(worker.requests(), 0u);

  balancer.value()->stop();
  for (auto& worker : workers) worker.stop();
}

// --- the connection core's stream rules, at both ends -----------------------

namespace {

/// A raw loopback connection that writes frames and reads replies one at a
/// time, so a test can tell a reply that comes at once from one that comes
/// later (or never: a read gives up after 5 s).
class RawConnection {
 public:
  explicit RawConnection(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  [[nodiscard]] bool send(const std::string& bytes) const {
    return connected_ && ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
                             static_cast<ssize_t>(bytes.size());
  }

  /// The next reply frame, decoded; an error when none arrives in time.
  rc::Result<rs::WireResponse> next_reply() {
    for (;;) {
      auto next = splitter_.next();
      if (!next.ok()) return next.error();
      if (next.value().has_value()) return rs::binary::parse_response(next.value()->payload);
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return rc::io_error("no reply within 5 s");
      splitter_.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    }
  }

 private:
  int fd_;
  bool connected_ = false;
  rs::MessageSplitter splitter_;
};

std::string begin_frame(std::uint64_t id) {
  rs::binary::SourceBegin begin;
  begin.id = id;
  return rs::binary::format_source_begin(begin);
}

std::string hello_frame(std::uint64_t id) {
  rs::WireRequest hello;
  hello.id = id;
  hello.kind = rs::RequestKind::kHello;
  hello.max_protocol = rs::kProtocolVersion;
  return rs::binary::format_request_frame(hello);
}

void expect_error(const rc::Result<rs::WireResponse>& reply, std::uint64_t id,
                  rc::ErrorCode code, const std::string& message) {
  ASSERT_TRUE(reply.ok()) << reply.error().message;
  EXPECT_EQ(reply.value().id, id);
  ASSERT_TRUE(reply.value().error.has_value());
  EXPECT_EQ(reply.value().error->code, code);
  EXPECT_EQ(reply.value().error->message, message);
}

/// The four stream and frame rules of the connection core, over raw binary
/// frames, against an endpoint whose max_inflight is 4. `protocol_errors`
/// is the owner's protocol-error counter.
void expect_stream_rules(int port, const repro::obs::Counter* protocol_errors) {
  RawConnection conn(port);

  // 1. A duplicate Begin id is a parse_error carrying that id.
  SCOPED_TRACE("1: duplicate Begin id");
  ASSERT_TRUE(conn.send(begin_frame(1) + begin_frame(1)));
  expect_error(conn.next_reply(), 1, rc::ErrorCode::kParseError,
               "binary: duplicate stream id");
  ASSERT_TRUE(conn.send(rs::binary::format_source_abort(1)));  // never answered

  // 2. A response frame sent as a request is a parse_error.
  SCOPED_TRACE("2: response frame");
  ASSERT_TRUE(conn.send(rs::binary::format_prediction_frame(2, {})));
  expect_error(conn.next_reply(), 2, rc::ErrorCode::kParseError,
               "binary: unexpected response frame");

  // 3. The max_inflight+1-th open stream is refused at once — before any
  //    stream ends — retryably; the four open streams still complete.
  SCOPED_TRACE("3: open-stream bound");
  std::string begins;
  for (std::uint64_t id = 10; id <= 14; ++id) begins += begin_frame(id);
  ASSERT_TRUE(conn.send(begins));
  expect_error(conn.next_reply(), 14, rc::ErrorCode::kUnavailable,
               "binary: too many open streams");
  std::string ends;
  for (std::uint64_t id = 10; id <= 13; ++id) {
    ends += rs::binary::format_source_chunk(id, kSourceKernel);
    ends += rs::binary::format_source_end(id);
  }
  ASSERT_TRUE(conn.send(ends));
  for (std::uint64_t id = 10; id <= 13; ++id) {
    auto reply = conn.next_reply();
    ASSERT_TRUE(reply.ok()) << reply.error().message;
    EXPECT_EQ(reply.value().id, id);
    EXPECT_TRUE(reply.value().prediction.has_value()) << "stream " << id;
  }

  // 4. A Chunk, End or Abort for an unknown id gets no reply (the hello
  //    behind it answers first) and counts one protocol error.
  SCOPED_TRACE("4: unknown stream id");
  const std::string unknown[] = {rs::binary::format_source_chunk(99, "x"),
                                 rs::binary::format_source_end(99),
                                 rs::binary::format_source_abort(99)};
  std::uint64_t marker = 100;
  for (const std::string& frame : unknown) {
    const std::uint64_t before = protocol_errors->value();
    ASSERT_TRUE(conn.send(frame + hello_frame(marker)));
    auto reply = conn.next_reply();
    ASSERT_TRUE(reply.ok()) << reply.error().message;
    EXPECT_EQ(reply.value().id, marker);
    EXPECT_TRUE(reply.value().protocol.has_value());
    EXPECT_EQ(protocol_errors->value(), before + 1);
    ++marker;
  }
}

}  // namespace

TEST(RawFrameTest, WorkerEnforcesStreamRules) {
  auto service = rs::Service::from_model(trained_model(), rs::ServiceOptions{});
  ASSERT_TRUE(service.ok());
  rs::ServerOptions options;
  options.tcp_port = 0;
  options.max_inflight = 4;
  auto server = rs::SocketServer::start(*service.value(), options);
  ASSERT_TRUE(server.ok()) << server.error().message;

  expect_stream_rules(server.value()->tcp_port(),
                      service.value()->registry().counter("repro_protocol_errors_total"));

  server.value()->stop();
  service.value()->stop();
}

TEST(RawFrameTest, FrontEnforcesStreamRules) {
  auto worker = InProcWorker::start();
  rf::BalancerOptions options;
  options.tcp_port = 0;
  options.max_inflight = 4;
  auto balancer = rf::Balancer::start({worker.endpoint()}, options);
  ASSERT_TRUE(balancer.ok()) << balancer.error().message;

  expect_stream_rules(
      balancer.value()->tcp_port(),
      balancer.value()->registry().counter("repro_balancer_protocol_errors_total"));

  balancer.value()->stop();
  worker.stop();
}
