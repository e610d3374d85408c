// The fleet's front balancer: one client-facing endpoint speaking the
// worker's wire protocol, dispatching every prediction request over a
// persistent backend connection to one of N repro_serve workers.
//
//   clients ──▶ acceptor ──▶ conn reader ─┬─▶ backend 0 (pending map, reader)
//               (both         dispatch:   ├─▶ backend 1       …
//                framings)    least-loaded└─▶ backend N-1
//                             RR tie-break
//
// The client side is the connection core a worker runs too
// (serve/connection.hpp): the listener, each connection's pipelined
// reader/writer pair, hello/health/metrics, and the chunk-stream rules —
// including the open-stream bound at max_inflight. So the wire contract is
// byte for byte the one repro_serve speaks directly, by construction. What
// the balancer adds is its owner side: a predict request is forwarded, a
// chunk stream is routed to one worker and forwarded frame by frame without
// buffering, and the worker's reply comes back as the client's. Request ids
// are rewritten per backend (each backend connection has its own id space)
// and mapped back before the reply is written, so clients keep their own
// ids and strict per-connection response order.
//
// Whatever framing a client speaks, the front speaks binary protocol 2 to
// every worker: each backend connection negotiates it with "hello" (bounded
// by io_timeout), and a worker that does not negotiate is a failed connect.
// Start-up connects retry 8 times with a backoff from 50 ms, riding out
// workers that are still binding their sockets.
//
// Fault handling: when a backend connection drops (worker crash, graceful
// restart) every request pending on it is re-dispatched to a live worker,
// and responses carrying the retryable "unavailable" code (a worker
// draining for shutdown) are re-dispatched the same way — clients never
// observe a worker death, only added latency. Re-dispatch cannot change
// reply bytes: a prediction depends only on the request and the shared
// model, never on which worker serves it (the fleet bit-identity tests
// assert this at 1/2/4 workers). A maintenance thread reconnects dead
// backends with bounded backoff and pings live ones with "health" requests.
//
// A balancer-addressed "health" request is answered by the balancer itself
// (its own uptime; queue_depth = requests currently pending on backends).
// A "metrics" request aggregates: each live worker is scraped over its
// backend connection, the flat name→value snapshots are merged (counters
// and gauges sum; per-worker quantile/max expansions take the max), and the
// balancer's own repro_balancer_* metrics ride along. Those live in a
// registry the balancer owns — registry() — and are its only counts.
//
// Traced requests (wire "trace") get balancer-side stages — balancer.parse,
// balancer.dispatch, balancer.redispatch, balancer.reply — merged around
// the worker's own stage table in the reply. The trace member is forwarded
// unchanged while ids are rewritten, so one trace id follows the request
// end to end.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "obs/metrics.hpp"

namespace repro::fleet {

/// One worker endpoint. A non-empty unix_path wins over tcp_port (the
/// in-process tests back the balancer with TCP servers; the process fleet
/// uses the supervisor's per-worker unix sockets).
struct BackendEndpoint {
  std::string unix_path;
  int tcp_port = -1;
};

struct BalancerOptions {
  /// Client-facing endpoint, same semantics as ServerOptions.
  std::string unix_path;
  int tcp_port = -1;  // 0 = ephemeral, reported by tcp_port()
  std::size_t max_line_bytes = 1 << 20;
  /// Per client connection, like ServerOptions::max_inflight: the
  /// pipelining window and the bound on open chunk streams.
  std::size_t max_inflight = 64;
  /// Period of the maintenance tick (reconnects + health pings). Zero
  /// disables pings but keeps reconnects on a 50ms tick.
  std::chrono::milliseconds health_interval{1000};
  /// A request is re-dispatched at most this many times before its client
  /// sees the unavailable error (guards against a fleet dying mid-burst).
  int max_dispatch_attempts = 4;
  /// Progress timeout on backend I/O: the hello handshake and every write
  /// are bounded by it, a write that cannot make progress fails the
  /// connection, and a backend that stays silent this long *while requests
  /// are outstanding on it* is declared dead and torn down (its pending
  /// requests re-dispatch). An idle backend connection never times out —
  /// quiet is not dead. Also bounds client-facing reply writes.
  std::chrono::milliseconds io_timeout{10000};
};

class Balancer {
 public:
  /// Connect to every backend (with backoff), then bind, listen, accept.
  [[nodiscard]] static common::Result<std::unique_ptr<Balancer>> start(
      std::vector<BackendEndpoint> backends, const BalancerOptions& options);

  ~Balancer();
  Balancer(const Balancer&) = delete;
  Balancer& operator=(const Balancer&) = delete;

  /// Stop accepting, fail whatever is still pending, join all threads.
  /// Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] int tcp_port() const noexcept;
  [[nodiscard]] const std::string& unix_path() const noexcept;

  /// The balancer's own repro_balancer_* counters and gauges (workers'
  /// series are not in it; a "metrics" scrape merges those in per request).
  [[nodiscard]] obs::Registry& registry() const noexcept;
  /// Backends currently connected (tests; racy by nature).
  [[nodiscard]] std::size_t alive_backends() const;

 private:
  Balancer();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace repro::fleet
