#include "fleet/balancer.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <future>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/arena.hpp"
#include "common/buffer_pool.hpp"
#include "common/log.hpp"
#include "common/net.hpp"
#include "common/queue.hpp"
#include "serve/protocol.hpp"

namespace repro::fleet {

namespace {

common::Error errno_error(const std::string& what) {
  return common::io_error(what + ": " + std::strerror(errno));
}

bool write_all(int fd, std::string_view data, std::chrono::milliseconds timeout) {
  return common::net::write_all(fd, data, timeout).status ==
         common::net::IoStatus::kOk;
}

struct BackendConn {
  int fd = -1;
  bool binary = false;  // negotiated framing for this backend connection
};

common::Result<BackendConn> connect_endpoint(const BackendEndpoint& endpoint,
                                             const serve::ConnectOptions& options) {
  auto client = !endpoint.unix_path.empty()
                    ? serve::SocketClient::connect_unix(endpoint.unix_path, options)
                    : serve::SocketClient::connect_tcp(endpoint.tcp_port, options);
  if (!client.ok()) return client.error();
  // Negotiate per backend connection: a mixed fleet (some workers upgraded,
  // some not) works — each backend is spoken to in its own framing, and
  // protocol 0 just means this one stays on JSON lines. An IO failure here
  // is a connect failure (the worker died mid-handshake).
  auto version = client.value().negotiate_binary();
  if (!version.ok()) return version.error();
  BackendConn conn;
  conn.binary = version.value() >= 1;
  conn.fd = client.value().release_fd();
  return conn;
}

std::string endpoint_name(const BackendEndpoint& endpoint) {
  return !endpoint.unix_path.empty() ? endpoint.unix_path
                                     : "127.0.0.1:" + std::to_string(endpoint.tcp_port);
}

}  // namespace

struct Balancer::Impl {
  /// One forwarded request. `request` keeps the client-side id; the copy
  /// sent to a backend gets that backend's id, so the entry can move
  /// between backends (re-dispatch) without the client noticing.
  struct Pending {
    serve::WireRequest request;  // deadline_ms stays the ORIGINAL budget
    /// When the balancer took custody. Every dispatch (first try or
    /// re-dispatch) deducts the time elapsed since then from the wire
    /// deadline, so a retry can never resurrect a dead budget.
    std::chrono::steady_clock::time_point arrival;
    int attempts = 0;
    bool internal = false;  // maintenance health ping: no one awaits it
    /// A chunk-streamed predict_source. The balancer forwards its chunks as
    /// they arrive and buffers none of them, so the request can NEVER be
    /// re-dispatched — losing the backend mid-stream surfaces a retryable
    /// kUnavailable to the client, which still holds the bytes.
    bool streamed = false;
    /// Non-null when the client asked to be traced: balancer-side stages
    /// (parse/dispatch/redispatch) stamped against this balancer's own
    /// clock; the connection writer merges the worker's stages in and adds
    /// balancer.reply.
    obs::RequestTracePtr trace;
    std::promise<serve::WireResponse> promise;
  };
  using PendingPtr = std::shared_ptr<Pending>;

  struct Backend {
    BackendEndpoint endpoint;

    /// Guards fd/generation/alive/next_id/pending. Never held across a
    /// socket write — see write_mutex.
    std::mutex state_mutex;
    int fd = -1;
    /// Bumped on every (re)connect; a dispatcher that registered against an
    /// older generation must not touch the (possibly recycled) fd.
    std::uint64_t generation = 0;
    std::atomic<bool> alive{false};
    /// Framing negotiated for the current connection (re-negotiated on every
    /// reconnect — a worker may be replaced by an older or newer binary).
    std::atomic<bool> binary{false};
    bool reader_exited = false;  // reader finished; maintenance may join+close
    std::uint64_t next_id = 1;
    std::map<std::uint64_t, PendingPtr> pending;  // ordered: redispatch in id order

    /// Serializes writes from concurrent client connections; close() takes
    /// both mutexes, so a write never races the fd teardown.
    std::mutex write_mutex;

    std::atomic<std::size_t> outstanding{0};
    std::thread reader;

    // Maintenance bookkeeping (maintenance thread only).
    std::chrono::steady_clock::time_point next_reconnect{};
    std::chrono::milliseconds backoff{50};
  };

  BalancerOptions options;
  /// Resolved buffer pool (options.buffer_pool or the process-global one);
  /// backs every splitter's input buffer on both sides of the balancer.
  common::BufferPool* pool = nullptr;
  std::vector<std::unique_ptr<Backend>> backends;
  std::atomic<std::size_t> rr_next{0};
  std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();

  int listen_fd = -1;
  int bound_tcp_port = -1;
  std::string bound_unix_path;

  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::thread acceptor;
  std::mutex conn_mutex;
  std::list<std::unique_ptr<Conn>> conns;

  std::thread maintenance;
  std::atomic<bool> stopping{false};
  std::once_flag stop_once;

  /// The balancer's own metrics — never shared with a worker's, so an
  /// in-process fleet cannot double-count when a "metrics" scrape merges
  /// backend snapshots with these. Instrument pointers are resolved once at
  /// start; point-in-time gauges are set at scrape time by gather_metrics.
  obs::Registry registry;
  obs::Counter* obs_connections = nullptr;
  obs::Counter* obs_requests = nullptr;
  obs::Counter* obs_protocol_errors = nullptr;
  obs::Counter* obs_dispatches = nullptr;
  obs::Counter* obs_redispatches = nullptr;
  obs::Counter* obs_backend_failures = nullptr;
  obs::Counter* obs_reconnects = nullptr;
  /// High-water mark, across finished client connections, of bytes
  /// buffered for one message (same contract as the worker's gauge).
  obs::Gauge* obs_peak_message_bytes = nullptr;

  void accept_loop();
  void serve_connection(int fd);
  void reap_finished_locked();
  void maintenance_loop();

  void start_reader(Backend& backend);
  void backend_reader(Backend& backend);
  void teardown_backend(Backend& backend);
  Backend* pick_backend(bool need_binary = false);
  void dispatch(const PendingPtr& pending);
  void fail_pending(const PendingPtr& pending, const common::Error& error);
  void send_health_ping(Backend& backend);
  /// Register + write a balancer-originated request addressed to this one
  /// backend, bypassing pick_backend — health pings and metrics scrapes are
  /// per-backend by nature. Sent as a JSON line (framing is detected per
  /// message, so it interleaves safely with binary traffic). On failure the
  /// entry is reclaimed, the reader is woken to run the teardown, and the
  /// pending promise resolves with a retryable error.
  void send_to_backend(Backend& backend, const PendingPtr& pending);
  /// One bounded round of per-backend "metrics" scrapes, merged with the
  /// balancer's own registry.
  [[nodiscard]] serve::WireMetrics gather_metrics();
  [[nodiscard]] double uptime_s() const;
};

Balancer::Balancer() : impl_(std::make_unique<Impl>()) {}

common::Result<std::unique_ptr<Balancer>> Balancer::start(
    std::vector<BackendEndpoint> backends, const BalancerOptions& options) {
  if (backends.empty()) {
    return common::invalid_argument("Balancer: need at least one backend");
  }
  std::unique_ptr<Balancer> balancer(new Balancer());
  Impl& impl = *balancer->impl_;
  impl.options = options;
  impl.pool = options.buffer_pool != nullptr ? options.buffer_pool
                                             : &common::BufferPool::global();
  obs::Registry& registry = impl.registry;
  impl.obs_connections = registry.counter("repro_balancer_connections_total");
  impl.obs_requests = registry.counter("repro_balancer_requests_total");
  impl.obs_protocol_errors = registry.counter("repro_balancer_protocol_errors_total");
  impl.obs_dispatches = registry.counter("repro_balancer_dispatches_total");
  impl.obs_redispatches = registry.counter("repro_balancer_redispatches_total");
  impl.obs_backend_failures = registry.counter("repro_balancer_backend_failures_total");
  impl.obs_reconnects = registry.counter("repro_balancer_reconnects_total");
  impl.obs_peak_message_bytes = registry.gauge("repro_balancer_peak_message_bytes");

  // Backends first: a balancer that cannot reach its fleet should fail
  // loudly at startup, not accept clients it cannot serve. The connect
  // backoff rides out workers that are still binding their sockets.
  for (auto& endpoint : backends) {
    auto backend = std::make_unique<Impl::Backend>();
    backend->endpoint = std::move(endpoint);
    auto conn = connect_endpoint(backend->endpoint, options.connect);
    if (!conn.ok()) return conn.error();
    backend->fd = conn.value().fd;
    backend->binary.store(conn.value().binary, std::memory_order_release);
    backend->generation = 1;
    backend->alive.store(true, std::memory_order_release);
    impl.backends.push_back(std::move(backend));
  }
  for (auto& backend : impl.backends) impl.start_reader(*backend);

  // Client-facing listener (mirrors SocketServer::start).
  int fd = -1;
  if (!options.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options.unix_path.size() >= sizeof(addr.sun_path)) {
      return common::invalid_argument("Balancer: unix path too long: " +
                                      options.unix_path);
    }
    std::strncpy(addr.sun_path, options.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return errno_error("Balancer: socket(AF_UNIX)");
    ::unlink(options.unix_path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      auto err = errno_error("Balancer: bind(" + options.unix_path + ")");
      ::close(fd);
      return err;
    }
    impl.bound_unix_path = options.unix_path;
  } else if (options.tcp_port >= 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return errno_error("Balancer: socket(AF_INET)");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options.tcp_port));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      auto err = errno_error("Balancer: bind(127.0.0.1:" +
                             std::to_string(options.tcp_port) + ")");
      ::close(fd);
      return err;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      auto err = errno_error("Balancer: getsockname");
      ::close(fd);
      return err;
    }
    impl.bound_tcp_port = static_cast<int>(ntohs(bound.sin_port));
  } else {
    return common::invalid_argument("Balancer: configure either unix_path or tcp_port");
  }
  if (::listen(fd, 64) != 0) {
    auto err = errno_error("Balancer: listen");
    ::close(fd);
    return err;
  }
  impl.listen_fd = fd;
  impl.acceptor = std::thread([&impl] { impl.accept_loop(); });
  impl.maintenance = std::thread([&impl] { impl.maintenance_loop(); });
  return balancer;
}

// --- backend side -------------------------------------------------------------

void Balancer::Impl::start_reader(Backend& backend) {
  backend.reader = std::thread([this, &backend] { backend_reader(backend); });
}

void Balancer::Impl::backend_reader(Backend& backend) {
  const int fd = backend.fd;  // stable for this reader's lifetime
  serve::MessageSplitter splitter(options.max_line_bytes, /*accept_binary=*/true,
                                  pool);
  char chunk[4096];
  bool read_loop_done = false;
  // Progress-based liveness: read in short ticks; a backend that stays
  // silent past io_timeout *while it owes replies* is declared dead (its
  // pending re-dispatch via teardown). An idle connection — nothing
  // outstanding — can stay quiet forever; quiet is not dead.
  auto last_progress = std::chrono::steady_clock::now();
  while (!read_loop_done) {
    const auto r = common::net::read_some(fd, chunk, sizeof chunk,
                                          std::chrono::milliseconds(250));
    if (r.status == common::net::IoStatus::kTimeout) {
      if (backend.outstanding.load(std::memory_order_relaxed) == 0) {
        last_progress = std::chrono::steady_clock::now();
        continue;
      }
      if (options.io_timeout.count() > 0 &&
          std::chrono::steady_clock::now() - last_progress >= options.io_timeout) {
        common::log_warn() << "Balancer: backend "
                           << endpoint_name(backend.endpoint)
                           << " silent past io_timeout with requests "
                              "outstanding; tearing down";
        break;
      }
      continue;
    }
    if (r.status != common::net::IoStatus::kOk) break;  // EOF, error, shutdown
    last_progress = std::chrono::steady_clock::now();
    splitter.feed(std::string_view(chunk, r.bytes));

    for (;;) {
      auto next = splitter.next();
      if (!next.ok()) {
        common::log_warn() << "Balancer: framing fault from "
                           << endpoint_name(backend.endpoint) << ": "
                           << next.error().to_string();
        read_loop_done = true;
        break;
      }
      if (!next.value().has_value()) break;  // need more bytes
      const serve::WireMessage& message = *next.value();

      auto response = [&]() -> common::Result<serve::WireResponse> {
        if (!message.binary) return serve::parse_response(message.payload);
        if (message.frame != serve::binary::FrameType::kResponse) {
          return common::parse_error("Balancer: unexpected frame from worker");
        }
        return serve::binary::parse_response(message.payload);
      }();
      if (!response.ok()) {
        // A worker speaking gibberish cannot be correlated to a pending
        // entry; drop the connection and let teardown re-dispatch.
        common::log_warn() << "Balancer: unparseable response from "
                           << endpoint_name(backend.endpoint) << ": "
                           << response.error().to_string();
        read_loop_done = true;
        break;
      }
      PendingPtr pending;
      {
        std::lock_guard lock(backend.state_mutex);
        const auto it = backend.pending.find(response.value().id);
        if (it != backend.pending.end()) {
          pending = it->second;
          backend.pending.erase(it);
        }
      }
      if (pending == nullptr) continue;  // stale id; nothing owed
      backend.outstanding.fetch_sub(1, std::memory_order_relaxed);
      if (pending->internal) continue;  // a health ping: the reply is proof of life
      if (response.value().error.has_value() &&
          response.value().error->code == common::ErrorCode::kUnavailable &&
          !pending->streamed && !stopping.load(std::memory_order_acquire)) {
        // The worker is draining for a graceful restart — move the request
        // to a live worker instead of surfacing the refusal. A streamed
        // request cannot move (its chunks were never buffered here): the
        // refusal goes back to the client, which can retry the stream.
        obs_redispatches->inc();
        dispatch(pending);
        continue;
      }
      pending->promise.set_value(std::move(response.value()));
    }
    if (read_loop_done) break;
  }
  teardown_backend(backend);
}

void Balancer::Impl::teardown_backend(Backend& backend) {
  std::map<std::uint64_t, PendingPtr> orphans;
  {
    std::lock_guard lock(backend.state_mutex);
    backend.alive.store(false, std::memory_order_release);
    orphans.swap(backend.pending);
    if (backend.fd >= 0) ::shutdown(backend.fd, SHUT_RDWR);
    backend.reader_exited = true;
  }
  backend.outstanding.fetch_sub(orphans.size(), std::memory_order_relaxed);
  if (!orphans.empty() || !stopping.load(std::memory_order_acquire)) {
    obs_backend_failures->inc();
    obs_redispatches->inc(orphans.size());
  }
  // Re-dispatch in backend-id (= send) order. Order cannot change reply
  // bytes — each reply depends only on its own request — it just keeps the
  // failover deterministic and easy to reason about. A partially-streamed
  // request is the one thing that can NOT move: its chunks were forwarded,
  // not buffered, so only the client can replay them. It fails retryably.
  for (auto& [id, pending] : orphans) {
    (void)id;
    if (pending->internal) continue;
    if (pending->streamed) {
      fail_pending(pending,
                   common::unavailable("Balancer: backend lost mid-stream"));
      continue;
    }
    dispatch(pending);
  }
}

Balancer::Impl::Backend* Balancer::Impl::pick_backend(bool need_binary) {
  // Least-loaded among the live backends; the rotating scan start makes
  // ties round-robin (the fallback when loads are equal, e.g. all zero).
  // A chunk stream needs a binary-framing backend — its chunks cannot be
  // expressed on a JSON-only connection.
  const std::size_t n = backends.size();
  const std::size_t start = rr_next.fetch_add(1, std::memory_order_relaxed) % n;
  Backend* best = nullptr;
  std::size_t best_load = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Backend* candidate = backends[(start + i) % n].get();
    if (!candidate->alive.load(std::memory_order_acquire)) continue;
    if (need_binary && !candidate->binary.load(std::memory_order_acquire)) continue;
    const std::size_t load = candidate->outstanding.load(std::memory_order_relaxed);
    if (best == nullptr || load < best_load) {
      best = candidate;
      best_load = load;
    }
  }
  return best;
}

void Balancer::Impl::fail_pending(const PendingPtr& pending,
                                  const common::Error& error) {
  if (pending->internal) return;
  serve::WireResponse response;
  response.id = pending->request.id;
  response.error = error;
  pending->promise.set_value(std::move(response));
}

void Balancer::Impl::dispatch(const PendingPtr& pending) {
  for (;;) {
    if (stopping.load(std::memory_order_acquire)) {
      fail_pending(pending, common::unavailable("Balancer: shutting down"));
      return;
    }
    if (pending->attempts >= options.max_dispatch_attempts) {
      fail_pending(pending,
                   common::unavailable("Balancer: request re-dispatched " +
                                       std::to_string(pending->attempts) +
                                       " times without an answer"));
      return;
    }
    // Deadline accounting happens here, once per dispatch attempt: whatever
    // the client's budget was, the backend only gets what is left of it.
    // When nothing is left the request fails *here* — a re-dispatch must
    // not resurrect a deadline the first attempt already spent.
    double remaining_ms = 0.0;
    if (pending->request.deadline_ms.has_value()) {
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - pending->arrival)
              .count();
      remaining_ms = *pending->request.deadline_ms - elapsed_ms;
      if (remaining_ms <= 0.0) {
        fail_pending(pending, common::deadline_exceeded(
                                  "Balancer: deadline budget exhausted after " +
                                  std::to_string(pending->attempts) +
                                  " dispatch attempt(s)"));
        return;
      }
    }
    Backend* backend = pick_backend();
    if (backend == nullptr) {
      fail_pending(pending, common::unavailable("Balancer: no live workers"));
      return;
    }
    ++pending->attempts;
    obs::stamp(pending->trace, pending->attempts == 1 ? "balancer.dispatch"
                                                      : "balancer.redispatch");

    std::uint64_t backend_id = 0;
    std::uint64_t generation = 0;
    {
      std::lock_guard lock(backend->state_mutex);
      if (!backend->alive.load(std::memory_order_relaxed)) continue;
      backend_id = backend->next_id++;
      generation = backend->generation;
      backend->pending.emplace(backend_id, pending);
    }
    backend->outstanding.fetch_add(1, std::memory_order_relaxed);

    serve::WireRequest request = pending->request;
    request.id = backend_id;
    if (request.deadline_ms.has_value()) request.deadline_ms = remaining_ms;
    // Speak the backend's negotiated framing; the request itself is
    // framing-agnostic, so JSON clients ride binary backends and vice versa.
    std::string line;
    if (backend->binary.load(std::memory_order_acquire)) {
      line = serve::binary::format_request_frame(request);
    } else {
      line = serve::format_request(request);
      line.push_back('\n');
    }

    bool written = false;
    {
      // write_mutex serializes concurrent client connections onto the one
      // backend connection; the generation check keeps a dispatcher that
      // lost a race with reconnect off the new connection's fd.
      std::lock_guard wlock(backend->write_mutex);
      std::lock_guard slock(backend->state_mutex);
      if (backend->generation == generation && backend->fd >= 0) {
        written = write_all(backend->fd, line, options.io_timeout);
      }
    }
    if (written) {
      obs_dispatches->inc();
      return;
    }
    // Write failed (worker died between pick and write). Wake the reader so
    // teardown runs, reclaim the entry if teardown has not already — if it
    // has, teardown owns the re-dispatch and this loop must not double it.
    bool ours = false;
    {
      std::lock_guard lock(backend->state_mutex);
      ours = backend->pending.erase(backend_id) > 0;
      if (backend->generation == generation && backend->fd >= 0) {
        ::shutdown(backend->fd, SHUT_RDWR);
      }
    }
    if (!ours) return;
    backend->outstanding.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Balancer::Impl::send_to_backend(Backend& backend, const PendingPtr& pending) {
  std::uint64_t backend_id = 0;
  std::uint64_t generation = 0;
  {
    std::lock_guard lock(backend.state_mutex);
    if (!backend.alive.load(std::memory_order_relaxed)) {
      fail_pending(pending, common::unavailable("Balancer: backend not alive"));
      return;
    }
    backend_id = backend.next_id++;
    generation = backend.generation;
    backend.pending.emplace(backend_id, pending);
  }
  backend.outstanding.fetch_add(1, std::memory_order_relaxed);
  serve::WireRequest request = pending->request;
  request.id = backend_id;
  std::string line = serve::format_request(request);
  line.push_back('\n');
  bool written = false;
  {
    std::lock_guard wlock(backend.write_mutex);
    std::lock_guard slock(backend.state_mutex);
    if (backend.generation == generation && backend.fd >= 0) {
      written = write_all(backend.fd, line, options.io_timeout);
    }
  }
  if (!written) {
    bool ours = false;
    {
      std::lock_guard lock(backend.state_mutex);
      ours = backend.pending.erase(backend_id) > 0;
      if (backend.generation == generation && backend.fd >= 0) {
        ::shutdown(backend.fd, SHUT_RDWR);  // reader runs the teardown
      }
    }
    if (ours) {
      backend.outstanding.fetch_sub(1, std::memory_order_relaxed);
      fail_pending(pending,
                   common::unavailable("Balancer: backend write failed"));
    }
  }
}

void Balancer::Impl::send_health_ping(Backend& backend) {
  auto pending = std::make_shared<Pending>();
  pending->internal = true;
  pending->request.kind = serve::RequestKind::kHealth;
  send_to_backend(backend, pending);
}

serve::WireMetrics Balancer::Impl::gather_metrics() {
  // Scrape every live worker over its existing backend connection. The
  // pending entries are marked streamed so they can never re-dispatch — a
  // snapshot is per-backend; moving it would answer for the wrong worker —
  // and a backend lost mid-scrape resolves them with an error via teardown,
  // which the merge below simply skips.
  std::vector<std::future<serve::WireResponse>> probes;
  for (auto& backend : backends) {
    if (!backend->alive.load(std::memory_order_acquire)) continue;
    auto pending = std::make_shared<Pending>();
    pending->streamed = true;
    pending->request.kind = serve::RequestKind::kMetrics;
    pending->arrival = std::chrono::steady_clock::now();
    probes.push_back(pending->promise.get_future());
    send_to_backend(*backend, pending);
  }

  // Merge rule: counters and sums add across workers; per-worker quantile
  // and max expansions take the max (a fleet p99 is at least some worker's
  // p99 — summing them would be meaningless).
  const auto merged_by_max = [](std::string_view name) {
    for (std::string_view suffix : {"_p50_us", "_p95_us", "_p99_us", "_max_us"}) {
      if (name.size() >= suffix.size() &&
          name.substr(name.size() - suffix.size()) == suffix) {
        return true;
      }
    }
    return false;
  };
  std::map<std::string, double> merged;
  const auto merge_value = [&](const std::string& name, double value) {
    auto [it, inserted] = merged.emplace(name, value);
    if (!inserted) {
      it->second =
          merged_by_max(name) ? std::max(it->second, value) : it->second + value;
    }
  };
  // Workers answer metrics inline, so a short budget covers the fleet; one
  // that cannot answer in time is skipped rather than wedging the scrape.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::size_t scraped = 0;
  for (auto& probe : probes) {
    if (probe.wait_until(deadline) != std::future_status::ready) continue;
    serve::WireResponse response = probe.get();
    if (!response.metrics.has_value()) continue;
    ++scraped;
    for (const auto& [name, value] : response.metrics->values) {
      merge_value(name, value);
    }
  }

  // The balancer's own registry rides along (names are disjoint by the
  // repro_balancer_ prefix), with its gauges stamped at scrape time.
  registry.gauge("repro_balancer_uptime_seconds")->set(uptime_s());
  std::size_t outstanding = 0;
  std::size_t alive = 0;
  for (const auto& backend : backends) {
    outstanding += backend->outstanding.load(std::memory_order_relaxed);
    if (backend->alive.load(std::memory_order_acquire)) ++alive;
  }
  registry.gauge("repro_balancer_pending")->set(static_cast<double>(outstanding));
  registry.gauge("repro_balancer_backends_alive")->set(static_cast<double>(alive));
  registry.gauge("repro_balancer_backends_scraped")->set(static_cast<double>(scraped));
  for (const auto& [name, value] : registry.snapshot_values()) {
    merge_value(name, value);
  }

  serve::WireMetrics wire;
  wire.values.assign(merged.begin(), merged.end());
  // Regenerated flat text: per-worker histogram buckets do not survive the
  // merge (scrape a worker directly for its bucket lines).
  std::string text = "# merged across " + std::to_string(scraped) + " worker(s)\n";
  char buffer[64];
  for (const auto& [name, value] : merged) {
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    text += name;
    text += ' ';
    text += buffer;
    text += '\n';
  }
  wire.text = std::move(text);
  return wire;
}

void Balancer::Impl::maintenance_loop() {
  auto last_ping = std::chrono::steady_clock::now();
  while (!stopping.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto now = std::chrono::steady_clock::now();

    for (auto& backend_ptr : backends) {
      Backend& backend = *backend_ptr;
      bool joinable = false;
      {
        std::lock_guard lock(backend.state_mutex);
        joinable = backend.reader_exited && backend.reader.joinable();
      }
      if (joinable) {
        backend.reader.join();
        // Both mutexes: no dispatcher can be mid-write on the fd.
        std::lock_guard wlock(backend.write_mutex);
        std::lock_guard slock(backend.state_mutex);
        if (backend.fd >= 0) ::close(backend.fd);
        backend.fd = -1;
        backend.reader_exited = false;
        backend.next_reconnect = now;  // eligible immediately
      }

      bool want_reconnect = false;
      {
        std::lock_guard lock(backend.state_mutex);
        want_reconnect = backend.fd < 0 && !backend.reader.joinable() &&
                         now >= backend.next_reconnect;
      }
      if (want_reconnect) {
        serve::ConnectOptions one_shot;  // backoff lives in next_reconnect
        auto conn = connect_endpoint(backend.endpoint, one_shot);
        if (conn.ok()) {
          {
            std::lock_guard lock(backend.state_mutex);
            backend.fd = conn.value().fd;
            backend.binary.store(conn.value().binary, std::memory_order_release);
            ++backend.generation;
            backend.alive.store(true, std::memory_order_release);
          }
          backend.backoff = std::chrono::milliseconds(50);
          start_reader(backend);
          obs_reconnects->inc();
          common::log_info() << "Balancer: reconnected to "
                             << endpoint_name(backend.endpoint);
        } else {
          backend.backoff = std::min(backend.backoff * 2,
                                     std::chrono::milliseconds(2000));
          backend.next_reconnect = now + backend.backoff;
        }
      }
    }

    if (options.health_interval.count() > 0 && now - last_ping >= options.health_interval) {
      last_ping = now;
      for (auto& backend : backends) {
        if (backend->alive.load(std::memory_order_acquire)) {
          send_health_ping(*backend);
        }
      }
    }
  }
}

// --- client side --------------------------------------------------------------

void Balancer::Impl::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      if (stopping.load(std::memory_order_acquire)) return;
      if (err == ECONNABORTED || err == EMFILE || err == ENFILE) {
        common::log_warn() << "Balancer: accept: " << std::strerror(err);
        if (err != ECONNABORTED) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        continue;
      }
      common::log_error() << "Balancer: accept failed permanently: "
                          << std::strerror(err) << "; no longer accepting";
      return;
    }
    std::lock_guard lock(conn_mutex);
    if (stopping.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    reap_finished_locked();
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    conns.push_back(std::move(conn));
    try {
      raw->thread = std::thread([this, raw] {
        serve_connection(raw->fd);
        ::shutdown(raw->fd, SHUT_RDWR);
        {
          std::lock_guard lock(conn_mutex);
          reap_finished_locked();
        }
        raw->done.store(true, std::memory_order_release);
      });
    } catch (const std::system_error& e) {
      // Same refusal as SocketServer::accept_loop.
      conns.pop_back();
      ::close(fd);
      common::log_warn() << "Balancer: cannot start a connection thread ("
                         << e.what() << "); connection closed";
    }
  }
}

void Balancer::Impl::reap_finished_locked() {
  for (auto it = conns.begin(); it != conns.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = conns.erase(it);
    } else {
      ++it;
    }
  }
}

double Balancer::Impl::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
      .count();
}

void Balancer::Impl::serve_connection(int fd) {
  // Counted on the connection thread, like SocketServer: the count includes
  // this connection before any of its requests is answered.
  obs_connections->inc();
  // Same pipelined reader/writer split as SocketServer::serve_connection:
  // in-order reply queue, bounded by max_inflight. The difference is where
  // a reply comes from — a promise fulfilled by whichever backend reader
  // ends up holding the request. Replies mirror their request's framing.
  struct PendingReply {
    std::uint64_t id = 0;
    bool binary = false;
    std::optional<std::future<serve::WireResponse>> response;
    std::string immediate;
    /// The forwarded request's balancer-side trace; the writer merges the
    /// worker's stages into it and stamps balancer.reply.
    obs::RequestTracePtr trace;
  };
  common::BoundedQueue<PendingReply> replies(
      std::max<std::size_t>(1, options.max_inflight));
  std::atomic<bool> write_failed{false};
  const auto write_replies = [&] {
    while (auto pending = replies.pop()) {
      if (write_failed.load(std::memory_order_relaxed)) continue;  // drain only
      std::string reply;
      if (pending->response.has_value()) {
        serve::WireResponse response = pending->response->get();
        // Merge order: balancer pre-dispatch stages, the worker's stage
        // table (offsets against the WORKER's clock — per-hop, never
        // rebased), then balancer.reply against this balancer's clock.
        std::optional<obs::Trace> trace;
        if (pending->trace != nullptr) {
          if (response.trace.has_value()) {
            pending->trace->append(response.trace->stages);
          }
          pending->trace->stamp("balancer.reply");
          trace = pending->trace->snapshot();
        }
        const obs::Trace* trace_ptr = trace.has_value() ? &*trace : nullptr;
        const common::Error malformed =
            common::internal_error("Balancer: malformed backend reply");
        if (pending->binary) {
          if (response.prediction.has_value()) {
            reply = serve::binary::format_prediction_frame(
                pending->id, *response.prediction, trace_ptr);
          } else if (response.error.has_value()) {
            reply = serve::binary::format_error_frame(pending->id, *response.error,
                                                      trace_ptr);
          } else {
            reply = serve::binary::format_error_frame(pending->id, malformed);
          }
        } else {
          if (response.prediction.has_value()) {
            reply = serve::format_response(pending->id, *response.prediction,
                                           trace_ptr);
          } else if (response.error.has_value()) {
            reply = serve::format_error(pending->id, *response.error, trace_ptr);
          } else {
            reply = serve::format_error(pending->id, malformed);
          }
        }
      } else {
        reply = std::move(pending->immediate);
      }
      if (!pending->binary) reply.push_back('\n');
      if (!write_all(fd, reply, options.io_timeout)) {
        write_failed.store(true, std::memory_order_relaxed);
        ::shutdown(fd, SHUT_RD);
      }
    }
  };
  std::thread writer;
  try {
    writer = std::thread(write_replies);
  } catch (const std::system_error& e) {
    common::log_warn() << "Balancer: cannot start a reply writer (" << e.what()
                       << "); connection closed";
    return;
  }

  auto count_protocol_error = [&] { obs_protocol_errors->inc(); };
  // Writes one frame to a routed stream's backend under the same
  // generation-checked double-mutex discipline as dispatch(). Returns false
  // when the backend is gone (caller marks the route broken).
  auto write_to_backend = [&](Backend& backend, std::uint64_t generation,
                              std::string_view bytes) {
    std::lock_guard wlock(backend.write_mutex);
    std::lock_guard slock(backend.state_mutex);
    if (backend.generation != generation || backend.fd < 0) return false;
    return write_all(backend.fd, bytes, options.io_timeout);
  };

  // One live chunk stream per client request id: where its frames are being
  // forwarded. The balancer is a pass-through — it never buffers chunks, so
  // peak memory per stream is one frame.
  struct StreamRoute {
    Backend* backend = nullptr;
    std::uint64_t backend_id = 0;
    std::uint64_t generation = 0;
    PendingPtr pending;
    bool broken = false;  // forwarding failed; End still surfaces the error
  };
  std::unordered_map<std::uint64_t, StreamRoute> routes;

  // Decoded WireRequests from either framing meet here.
  auto handle_request = [&](serve::WireRequest wire, bool is_binary) {
    PendingReply pending;
    pending.binary = is_binary;
    pending.id = wire.id;
    if (wire.kind == serve::RequestKind::kHello) {
      // The balancer negotiates for itself: its client-facing connection
      // always speaks both framings, whatever the workers speak.
      const std::uint32_t negotiated =
          std::min(wire.max_protocol, serve::kProtocolVersion);
      pending.immediate =
          is_binary ? serve::binary::format_hello_frame(wire.id, negotiated)
                    : serve::format_hello_response(wire.id, negotiated);
      replies.push(std::move(pending));
      return;
    }
    if (wire.kind == serve::RequestKind::kHealth) {
      // The balancer answers for itself — a client asking the fleet
      // endpoint for health wants the fleet front, not one worker.
      std::size_t outstanding = 0;
      for (const auto& backend : backends) {
        outstanding += backend->outstanding.load(std::memory_order_relaxed);
      }
      const serve::WireHealth health{uptime_s(), outstanding};
      pending.immediate = is_binary ? serve::binary::format_health_frame(wire.id, health)
                                    : serve::format_health_response(wire.id, health);
      replies.push(std::move(pending));
      return;
    }
    if (wire.kind == serve::RequestKind::kMetrics) {
      // Aggregation runs on this reader thread: scrapes come from dedicated
      // monitoring connections (repro_top), and the gather is bounded, so
      // stalling this connection's decode briefly is fine.
      const serve::WireMetrics merged = gather_metrics();
      pending.immediate = is_binary
                              ? serve::binary::format_metrics_frame(wire.id, merged)
                              : serve::format_metrics_response(wire.id, merged);
      replies.push(std::move(pending));
      return;
    }
    obs_requests->inc();
    auto forwarded = std::make_shared<Pending>();
    forwarded->request = std::move(wire);
    forwarded->arrival = std::chrono::steady_clock::now();
    if (forwarded->request.trace.has_value()) {
      forwarded->trace =
          std::make_shared<obs::RequestTrace>(*forwarded->request.trace);
      forwarded->trace->stamp("balancer.parse");
      pending.trace = forwarded->trace;
    }
    pending.response = forwarded->promise.get_future();
    // Push before dispatch: the queue bound is the pipelining window, and
    // it must count this request before the next message is decoded.
    replies.push(std::move(pending));
    dispatch(forwarded);
  };

  serve::MessageSplitter splitter(options.max_line_bytes, /*accept_binary=*/true,
                                  pool);
  // Backs the intermediate JSON document inside parse_request; reset after
  // every message (the decoded WireRequest owns plain heap strings).
  common::Arena arena;
  char chunk[4096];
  bool framing_fault = false;
  for (;;) {
    // Blocking (timeout 0): an idle client connection is legitimate.
    const auto rd = common::net::read_some(fd, chunk, sizeof chunk,
                                           std::chrono::milliseconds(0));
    if (rd.status != common::net::IoStatus::kOk) break;
    splitter.feed(std::string_view(chunk, rd.bytes));

    for (;;) {
      auto next = splitter.next();
      if (!next.ok()) {
        count_protocol_error();
        PendingReply pending;
        pending.immediate = serve::format_error(0, next.error());
        replies.push(std::move(pending));
        framing_fault = true;
        break;
      }
      if (!next.value().has_value()) break;  // need more bytes
      serve::WireMessage message = std::move(*next.value());

      if (!message.binary) {
        auto request = serve::parse_request(message.payload, &arena);
        if (!request.ok()) {
          count_protocol_error();
          PendingReply pending;
          pending.id = serve::best_effort_id(message.payload);
          pending.immediate = serve::format_error(pending.id, request.error());
          replies.push(std::move(pending));
        } else {
          handle_request(std::move(request).take(), /*is_binary=*/false);
        }
        arena.reset();
        continue;
      }

      switch (message.frame) {
        case serve::binary::FrameType::kRequest: {
          auto request = serve::binary::parse_request(message.payload);
          if (!request.ok()) {
            count_protocol_error();
            PendingReply pending;
            pending.binary = true;
            pending.id = serve::binary::best_effort_id(message.payload);
            pending.immediate =
                serve::binary::format_error_frame(pending.id, request.error());
            replies.push(std::move(pending));
          } else {
            handle_request(std::move(request).take(), /*is_binary=*/true);
          }
          break;
        }
        case serve::binary::FrameType::kSourceBegin: {
          auto begin = serve::binary::parse_source_begin(message.payload);
          if (!begin.ok()) {
            count_protocol_error();
            PendingReply pending;
            pending.binary = true;
            pending.id = serve::binary::best_effort_id(message.payload);
            pending.immediate =
                serve::binary::format_error_frame(pending.id, begin.error());
            replies.push(std::move(pending));
            break;
          }
          auto& open = begin.value();
          if (routes.find(open.id) != routes.end()) {
            count_protocol_error();
            PendingReply pending;
            pending.binary = true;
            pending.id = open.id;
            pending.immediate = serve::binary::format_error_frame(
                open.id, common::parse_error("binary: duplicate stream id"));
            replies.push(std::move(pending));
            break;
          }
          obs_requests->inc();
          auto pending_entry = std::make_shared<Pending>();
          pending_entry->streamed = true;
          pending_entry->request.id = open.id;
          pending_entry->request.kind = serve::RequestKind::kPredictSource;
          pending_entry->request.deadline_ms = open.deadline_ms;
          pending_entry->arrival = std::chrono::steady_clock::now();
          // Route selection retries write failures like dispatch(), but only
          // for the Begin frame — once a chunk has been forwarded the stream
          // is pinned to its backend.
          StreamRoute route;
          route.pending = pending_entry;
          bool routed = false;
          while (pending_entry->attempts < options.max_dispatch_attempts &&
                 !stopping.load(std::memory_order_acquire)) {
            Backend* backend = pick_backend(/*need_binary=*/true);
            if (backend == nullptr) break;
            ++pending_entry->attempts;
            std::uint64_t backend_id = 0;
            std::uint64_t generation = 0;
            {
              std::lock_guard lock(backend->state_mutex);
              if (!backend->alive.load(std::memory_order_relaxed)) continue;
              backend_id = backend->next_id++;
              generation = backend->generation;
              backend->pending.emplace(backend_id, pending_entry);
            }
            backend->outstanding.fetch_add(1, std::memory_order_relaxed);
            serve::binary::SourceBegin fwd;
            fwd.id = backend_id;
            fwd.kernel = open.kernel;
            fwd.deadline_ms = open.deadline_ms;
            if (write_to_backend(*backend, generation,
                                 serve::binary::format_source_begin(fwd))) {
              route.backend = backend;
              route.backend_id = backend_id;
              route.generation = generation;
              routed = true;
              break;
            }
            bool ours = false;
            {
              std::lock_guard lock(backend->state_mutex);
              ours = backend->pending.erase(backend_id) > 0;
              if (backend->generation == generation && backend->fd >= 0) {
                ::shutdown(backend->fd, SHUT_RDWR);
              }
            }
            if (ours) backend->outstanding.fetch_sub(1, std::memory_order_relaxed);
          }
          if (!routed) {
            PendingReply pending;
            pending.binary = true;
            pending.id = open.id;
            pending.immediate = serve::binary::format_error_frame(
                open.id,
                common::unavailable("Balancer: no stream-capable worker"));
            replies.push(std::move(pending));
            break;
          }
          routes.emplace(open.id, std::move(route));
          break;
        }
        case serve::binary::FrameType::kSourceChunk: {
          auto source_chunk = serve::binary::parse_source_chunk(message.payload);
          if (!source_chunk.ok()) {
            count_protocol_error();
            break;
          }
          auto it = routes.find(source_chunk.value().id);
          if (it == routes.end()) {
            count_protocol_error();
            break;
          }
          StreamRoute& route = it->second;
          if (route.broken) break;  // error already owed at End
          if (!write_to_backend(*route.backend, route.generation,
                                serve::binary::format_source_chunk(
                                    route.backend_id, source_chunk.value().data))) {
            // Backend died mid-stream: the teardown fails the pending entry
            // with a retryable error; stop forwarding, keep the route so the
            // client's End still collects that error in order.
            route.broken = true;
          }
          break;
        }
        case serve::binary::FrameType::kSourceEnd: {
          auto end = serve::binary::parse_source_end(message.payload);
          if (!end.ok()) {
            count_protocol_error();
            break;
          }
          auto it = routes.find(end.value());
          if (it == routes.end()) {
            count_protocol_error();
            break;
          }
          StreamRoute& route = it->second;
          if (!route.broken &&
              !write_to_backend(*route.backend, route.generation,
                                serve::binary::format_source_end(route.backend_id))) {
            route.broken = true;
          }
          // The reply slot is taken at End — matching the worker, which also
          // answers streams at End; a broken route's promise is resolved by
          // the backend teardown, never left dangling.
          PendingReply pending;
          pending.binary = true;
          pending.id = end.value();
          pending.response = route.pending->promise.get_future();
          routes.erase(it);
          replies.push(std::move(pending));
          break;
        }
        case serve::binary::FrameType::kSourceAbort: {
          auto abort = serve::binary::parse_source_abort(message.payload);
          if (!abort.ok()) {
            count_protocol_error();
            break;
          }
          auto it = routes.find(abort.value());
          if (it == routes.end()) {
            count_protocol_error();
            break;
          }
          StreamRoute& route = it->second;
          if (!route.broken) {
            (void)write_to_backend(*route.backend, route.generation,
                                   serve::binary::format_source_abort(route.backend_id));
          }
          // The worker never answers an abort — reclaim the pending entry
          // ourselves (backend ids are never reused, so a stale erase is a
          // harmless no-op).
          {
            std::lock_guard lock(route.backend->state_mutex);
            if (route.backend->pending.erase(route.backend_id) > 0) {
              route.backend->outstanding.fetch_sub(1, std::memory_order_relaxed);
            }
          }
          routes.erase(it);
          break;
        }
        case serve::binary::FrameType::kResponse: {
          count_protocol_error();
          PendingReply pending;
          pending.binary = true;
          pending.id = serve::binary::best_effort_id(message.payload);
          pending.immediate = serve::binary::format_error_frame(
              pending.id,
              common::parse_error("binary: unexpected response frame"));
          replies.push(std::move(pending));
          break;
        }
      }
    }
    if (framing_fault) break;
  }
  // A connection that dies with open streams: tell their backends to drop
  // the half-streamed requests (best effort) and reclaim the entries, so a
  // worker never waits on chunks that can no longer arrive.
  for (auto& [id, route] : routes) {
    (void)id;
    if (!route.broken) {
      (void)write_to_backend(*route.backend, route.generation,
                             serve::binary::format_source_abort(route.backend_id));
    }
    std::lock_guard lock(route.backend->state_mutex);
    if (route.backend->pending.erase(route.backend_id) > 0) {
      route.backend->outstanding.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  replies.close();
  writer.join();
  obs_peak_message_bytes->set_max(static_cast<double>(splitter.peak_buffered_bytes()));
}

// --- lifecycle ----------------------------------------------------------------

Balancer::~Balancer() {
  if (impl_ != nullptr) stop();
}

void Balancer::stop() {
  std::call_once(impl_->stop_once, [this] {
    Impl& impl = *impl_;
    impl.stopping.store(true, std::memory_order_release);
    if (impl.maintenance.joinable()) impl.maintenance.join();

    // Listener down first: no new clients while the fleet detaches.
    if (impl.listen_fd >= 0) ::shutdown(impl.listen_fd, SHUT_RDWR);
    if (impl.acceptor.joinable()) impl.acceptor.join();
    if (impl.listen_fd >= 0) ::close(impl.listen_fd);

    // Backends next: readers exit, teardown fails whatever is pending with
    // "unavailable" (stopping suppresses re-dispatch), so every client
    // future is resolved before the connection writers drain below.
    for (auto& backend : impl.backends) {
      std::lock_guard lock(backend->state_mutex);
      if (backend->fd >= 0) ::shutdown(backend->fd, SHUT_RDWR);
    }
    for (auto& backend : impl.backends) {
      if (backend->reader.joinable()) backend->reader.join();
      std::lock_guard wlock(backend->write_mutex);
      std::lock_guard slock(backend->state_mutex);
      if (backend->fd >= 0) ::close(backend->fd);
      backend->fd = -1;
    }

    std::list<std::unique_ptr<Impl::Conn>> conns;
    {
      std::lock_guard lock(impl.conn_mutex);
      conns.swap(impl.conns);
    }
    for (auto& conn : conns) ::shutdown(conn->fd, SHUT_RDWR);
    for (auto& conn : conns) {
      if (conn->thread.joinable()) conn->thread.join();
      ::close(conn->fd);
    }
    if (!impl.bound_unix_path.empty()) ::unlink(impl.bound_unix_path.c_str());
  });
}

int Balancer::tcp_port() const noexcept { return impl_->bound_tcp_port; }

const std::string& Balancer::unix_path() const noexcept {
  return impl_->bound_unix_path;
}

obs::Registry& Balancer::registry() const noexcept { return impl_->registry; }

std::size_t Balancer::alive_backends() const {
  std::size_t alive = 0;
  for (const auto& backend : impl_->backends) {
    if (backend->alive.load(std::memory_order_acquire)) ++alive;
  }
  return alive;
}

}  // namespace repro::fleet
