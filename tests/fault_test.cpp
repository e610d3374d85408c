// The fault-injection layer and the timeout-aware socket I/O it hooks:
// REPRO_FAULTS spec parsing (loud rejection of typos — a silently inert
// chaos spec would make the soak lie), seed determinism of the decision
// stream, common::net::read_some/write_all behaviour under injected short
// reads/writes, EINTR storms, and connection drops, the per-op timeouts
// that keep a silent peer from wedging a client, and the SocketClient
// connect path under injected refusals.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <tuple>
#include <vector>

#include "common/fault.hpp"
#include "common/net.hpp"
#include "serve/client.hpp"

namespace rc = repro::common;
namespace rn = repro::common::net;
namespace rs = repro::serve;

using rc::FaultInjector;
using rc::FaultSpec;

namespace {

/// A connected AF_UNIX stream pair, closed on destruction.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

/// Drain exactly `n` bytes from fd via read_some (reassembly loop).
std::string read_exactly(int fd, std::size_t n) {
  std::string out;
  char chunk[256];
  while (out.size() < n) {
    const auto r = rn::read_some(fd, chunk, sizeof chunk,
                                 std::chrono::milliseconds(2000));
    if (r.status != rn::IoStatus::kOk) break;
    out.append(chunk, r.bytes);
  }
  return out;
}

}  // namespace

// --- spec parsing -------------------------------------------------------------

TEST(FaultSpecTest, ParsesTheFullKnobSet) {
  const auto parsed = FaultInjector::parse(
      "42:short_rw=0.3,eintr=0.2,drop=0.01,connect_fail=0.5,delay_ms=2,delay_p=0.1");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().first, 42u);
  const FaultSpec& spec = parsed.value().second;
  EXPECT_DOUBLE_EQ(spec.short_rw, 0.3);
  EXPECT_DOUBLE_EQ(spec.eintr, 0.2);
  EXPECT_DOUBLE_EQ(spec.drop, 0.01);
  EXPECT_DOUBLE_EQ(spec.connect_fail, 0.5);
  EXPECT_DOUBLE_EQ(spec.delay_p, 0.1);
  EXPECT_EQ(spec.delay_ms.count(), 2);
  EXPECT_TRUE(spec.any());

  // Whitespace and an empty tail entry are tolerated; a zero spec is legal
  // but injects nothing.
  const auto spaced = FaultInjector::parse("7: short_rw = 1 ,");
  ASSERT_TRUE(spaced.ok()) << spaced.error().message;
  EXPECT_DOUBLE_EQ(spaced.value().second.short_rw, 1.0);
  const auto zero = FaultInjector::parse("7:");
  ASSERT_TRUE(zero.ok());
  EXPECT_FALSE(zero.value().second.any());
}

TEST(FaultSpecTest, RejectsTyposLoudly) {
  // Every malformed spec is an error — never a silently inert injector.
  for (const char* bad :
       {"no-colon", ":short_rw=1", "x7:short_rw=1", "7:short_rw",
        "7:short_rw=oops", "7:short_rw=1.5", "7:eintr=-0.1", "7:shortrw=0.5",
        "7:drop=2", "7:delay_p=1.01"}) {
    EXPECT_FALSE(FaultInjector::parse(bad).ok()) << bad;
  }
}

// --- determinism --------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameDecisionStream) {
  FaultSpec spec;
  spec.short_rw = 0.5;
  spec.eintr = 0.3;
  spec.drop = 0.2;
  using Decision = std::tuple<bool, bool, bool>;
  const auto sample = [&](std::uint64_t seed) {
    FaultInjector::Scope scope(seed, spec);
    std::vector<Decision> out;
    for (int i = 0; i < 64; ++i) {
      const auto d = FaultInjector::next_io();
      out.emplace_back(d.eintr, d.drop, d.clamp);
    }
    return out;
  };
  EXPECT_EQ(sample(9), sample(9));    // reproducible given the seed
  EXPECT_NE(sample(9), sample(10));   // and actually seed-driven
}

TEST(FaultInjectorTest, ScopeRestoresDisabledState) {
  ASSERT_FALSE(FaultInjector::enabled());  // tests run without REPRO_FAULTS
  {
    FaultSpec spec;
    spec.eintr = 1.0;
    FaultInjector::Scope scope(1, spec);
    EXPECT_TRUE(FaultInjector::enabled());
  }
  EXPECT_FALSE(FaultInjector::enabled());
}

// --- net helpers under injection ----------------------------------------------

TEST(NetFaultTest, ShortWritesAndReadsReassemble) {
  SocketPair pair;
  FaultSpec spec;
  spec.short_rw = 1.0;  // every operation clamped to one byte
  FaultInjector::Scope scope(3, spec);

  const std::string message = "short pieces still make a whole line\n";
  const auto wr = rn::write_all(pair.fds[0], message, std::chrono::milliseconds(2000));
  EXPECT_EQ(wr.status, rn::IoStatus::kOk);
  EXPECT_EQ(wr.bytes, message.size());  // one byte at a time, all delivered
  EXPECT_EQ(read_exactly(pair.fds[1], message.size()), message);
}

TEST(NetFaultTest, EintrStormIsRetriedToCompletion) {
  SocketPair pair;
  FaultSpec spec;
  spec.eintr = 0.8;  // most operations interrupted once, then retried
  spec.short_rw = 0.5;
  FaultInjector::Scope scope(11, spec);

  const std::string message = "EINTR is not an error\n";
  const auto wr = rn::write_all(pair.fds[0], message, std::chrono::milliseconds(2000));
  EXPECT_EQ(wr.status, rn::IoStatus::kOk);
  EXPECT_EQ(read_exactly(pair.fds[1], message.size()), message);
}

TEST(NetFaultTest, InjectedDropSurfacesAsConnectionReset) {
  SocketPair pair;
  // Real bytes in flight first: the read path only consults the injector
  // once poll() reports the fd readable, so an idle socket would time out
  // instead of exercising the drop.
  ASSERT_EQ(rn::write_all(pair.fds[0], "payload", std::chrono::milliseconds(500)).status,
            rn::IoStatus::kOk);

  FaultSpec spec;
  spec.drop = 1.0;
  FaultInjector::Scope scope(5, spec);

  char buf[8];
  const auto rd = rn::read_some(pair.fds[1], buf, sizeof buf,
                                std::chrono::milliseconds(500));
  EXPECT_EQ(rd.status, rn::IoStatus::kError);
  EXPECT_EQ(rd.err, ECONNRESET);
  const auto wr = rn::write_all(pair.fds[0], "doomed", std::chrono::milliseconds(500));
  EXPECT_EQ(wr.status, rn::IoStatus::kError);
  EXPECT_EQ(wr.err, ECONNRESET);
}

// --- timeouts (no injection) --------------------------------------------------

TEST(NetTimeoutTest, ReadTimesOutOnASilentPeer) {
  SocketPair pair;
  char buf[8];
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = rn::read_some(pair.fds[0], buf, sizeof buf,
                               std::chrono::milliseconds(60));
  EXPECT_EQ(r.status, rn::IoStatus::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(50));
}

TEST(NetTimeoutTest, WriteTimesOutOnceBuffersFillAndNobodyReads) {
  SocketPair pair;
  const std::string blob(1 << 22, 'x');  // far past any default socket buffer
  const auto r = rn::write_all(pair.fds[0], blob, std::chrono::milliseconds(80));
  EXPECT_EQ(r.status, rn::IoStatus::kTimeout);
  EXPECT_LT(r.bytes, blob.size());  // partial progress, then stalled
}

TEST(NetTimeoutTest, EofIsDistinctFromTimeout) {
  SocketPair pair;
  ::close(pair.fds[1]);
  pair.fds[1] = -1;
  char buf[8];
  const auto r = rn::read_some(pair.fds[0], buf, sizeof buf,
                               std::chrono::milliseconds(500));
  EXPECT_EQ(r.status, rn::IoStatus::kEof);
}

// --- SocketClient under faults ------------------------------------------------

TEST(ClientFaultTest, IoTimeoutTurnsASilentServerIntoRetryableUnavailable) {
  // A listener that accepts the TCP handshake (kernel backlog) but never
  // reads or writes: without the io_timeout this round trip would hang the
  // client forever.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  rs::ConnectOptions options;
  options.io_timeout = std::chrono::milliseconds(150);
  auto client = rs::SocketClient::connect_tcp(ntohs(addr.sin_port), options);
  ASSERT_TRUE(client.ok()) << client.error().message;
  const auto t0 = std::chrono::steady_clock::now();
  auto reply = client.value().health();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, rc::ErrorCode::kUnavailable);
  EXPECT_TRUE(rc::is_retryable(reply.error().code));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  ::close(listener);
}

TEST(ClientFaultTest, InjectedConnectRefusalRidesTheBackoffPath) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);

  {
    // Every attempt refused: the bounded backoff must exhaust and report.
    FaultSpec spec;
    spec.connect_fail = 1.0;
    FaultInjector::Scope scope(2, spec);
    rs::ConnectOptions retry;
    retry.attempts = 3;
    retry.initial_backoff = std::chrono::milliseconds(1);
    auto refused = rs::SocketClient::connect_tcp(port, retry);
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.error().message.find("attempt 3/3"), std::string::npos)
        << refused.error().message;
  }
  // Injection gone, same listener: the connect succeeds.
  auto fine = rs::SocketClient::connect_tcp(port);
  EXPECT_TRUE(fine.ok()) << (fine.ok() ? "" : fine.error().message);
  ::close(listener);
}
