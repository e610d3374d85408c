#include "fleet/balancer.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/buffer_pool.hpp"
#include "common/log.hpp"
#include "common/net.hpp"
#include "serve/client.hpp"
#include "serve/connection.hpp"
#include "serve/protocol.hpp"

namespace repro::fleet {

namespace {

/// Connect attempts at start, with a backoff from 50 ms (fleet startup
/// races); a reconnect tries once, and its backoff lives in the maintenance
/// loop.
constexpr int kStartConnectAttempts = 8;
constexpr std::chrono::milliseconds kStartConnectBackoff{50};

bool write_all(int fd, std::string_view data, std::chrono::milliseconds timeout) {
  return common::net::write_all(fd, data, timeout).status ==
         common::net::IoStatus::kOk;
}

/// Connect to a worker, negotiate binary protocol 2 (the one framing the
/// front speaks to workers) and return the connected fd. A worker that does
/// not negotiate, or dies mid-handshake, is a failed connect. The handshake
/// is backend I/O, so `io_timeout` bounds it.
common::Result<int> connect_endpoint(const BackendEndpoint& endpoint, int attempts,
                                     std::chrono::milliseconds io_timeout) {
  serve::ConnectOptions options;
  options.attempts = attempts;
  options.initial_backoff = kStartConnectBackoff;
  options.io_timeout = io_timeout;
  auto client = !endpoint.unix_path.empty()
                    ? serve::SocketClient::connect_unix(endpoint.unix_path, options)
                    : serve::SocketClient::connect_tcp(endpoint.tcp_port, options);
  if (!client.ok()) return client.error();
  if (auto version = client.value().negotiate_binary(); !version.ok()) {
    return version.error();
  }
  return client.value().release_fd();
}

std::string endpoint_name(const BackendEndpoint& endpoint) {
  return !endpoint.unix_path.empty() ? endpoint.unix_path
                                     : "127.0.0.1:" + std::to_string(endpoint.tcp_port);
}

}  // namespace

/// The front's side of the connection core: a predict request is forwarded
/// to a backend worker, a chunk stream is routed to one and forwarded frame
/// by frame, and the worker's WireResponse comes back as the reply.
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
    /// clock; reply() merges the worker's stages in and adds
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
    /// Bumped on every (re)connect; a sender that registered against an
    /// older generation must not touch the (possibly recycled) fd.
    std::uint64_t generation = 0;
    std::atomic<bool> alive{false};
    bool reader_exited = false;  // reader finished; maintenance may join+close
    std::uint64_t next_id = 1;
    std::map<std::uint64_t, PendingPtr> pending;  // ordered: redispatch in id order

    /// Held across every socket write, serializing the client connections
    /// that share this backend connection. The fd is closed only under both
    /// mutexes, so it stays open for as long as a write holds this one.
    std::mutex write_mutex;

    std::atomic<std::size_t> outstanding{0};
    std::thread reader;

    // Maintenance bookkeeping (maintenance thread only).
    std::chrono::steady_clock::time_point next_reconnect{};
    std::chrono::milliseconds backoff{50};
  };

  /// One open chunk stream of a client connection: where its frames are
  /// being forwarded. The balancer is a pass-through — it never buffers
  /// chunks, so peak memory per stream is one frame.
  struct StreamRoute {
    Backend* backend = nullptr;
    std::uint64_t backend_id = 0;
    std::uint64_t generation = 0;
    PendingPtr pending;
    bool broken = false;  // forwarding failed; End still surfaces the error
  };

  // The connection core's owner interface (serve/connection.hpp).
  using Response = serve::WireResponse;
  using Stream = StreamRoute;
  static constexpr std::string_view kParseStage = "balancer.parse";

  BalancerOptions options;
  std::vector<std::unique_ptr<Backend>> backends;
  std::atomic<std::size_t> rr_next{0};
  std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();

  std::thread maintenance;
  std::atomic<bool> stopping{false};
  std::once_flag stop_once;

  /// The balancer's own metrics — never shared with a worker's, so an
  /// in-process fleet cannot double-count when a "metrics" scrape merges
  /// backend snapshots with these. Instrument pointers are resolved once at
  /// start; point-in-time gauges are set at scrape time by metrics().
  obs::Registry registry;
  obs::Counter* obs_requests = nullptr;
  obs::Counter* obs_dispatches = nullptr;
  obs::Counter* obs_redispatches = nullptr;
  obs::Counter* obs_backend_failures = nullptr;
  obs::Counter* obs_reconnects = nullptr;

  /// Client connections: their options and listener.
  serve::ConnectionOptions connection;
  std::unique_ptr<serve::Listener> listener;

  void maintenance_loop();

  void start_reader(Backend& backend);
  void backend_reader(Backend& backend);
  void teardown_backend(Backend& backend);
  Backend* pick_backend();
  void dispatch(const PendingPtr& pending);
  void fail_pending(const PendingPtr& pending, const common::Error& error);

  /// What send() did with one pending entry.
  struct Sent {
    enum Status {
      kOk,         // registered and written
      kNotAlive,   // the backend was down; nothing registered
      kFailed,     // the write failed; the entry is reclaimed
      kOrphaned,   // the write failed and the teardown owns the entry now
    } status = kOk;
    std::uint64_t backend_id = 0;
    std::uint64_t generation = 0;
  };
  /// Register `pending` on `backend` under a fresh backend id, then write
  /// the frame `encode(backend_id)` returns. On a failed write, reclaim the
  /// entry unless the teardown got there first.
  template <class Encode>
  Sent send(Backend& backend, const PendingPtr& pending, Encode&& encode);
  /// Write `bytes` under write_mutex alone, so the backend's reader can
  /// match the replies it already got while a write stalls. A sender that
  /// lost a race with a reconnect (its generation is stale) stays off the
  /// new connection's fd. A failed write may have left part of a frame on
  /// the stream, so it takes the backend out of rotation and shuts the fd
  /// down; the reader then runs the teardown.
  bool write_to_backend(Backend& backend, std::uint64_t generation,
                        std::string_view bytes);
  void send_health_ping(Backend& backend);
  /// Send a balancer-originated request frame to this one backend, bypassing
  /// pick_backend — health pings and metrics scrapes are per-backend by
  /// nature. On failure the pending promise resolves with a retryable error.
  void send_to_backend(Backend& backend, const PendingPtr& pending);
  [[nodiscard]] double uptime_s() const;

  // --- connection owner (one client connection's thread) ---
  serve::WireHealth health();
  /// One bounded round of per-backend "metrics" scrapes, merged with the
  /// balancer's own registry.
  serve::WireMetrics metrics();
  std::future<Response> submit(serve::WireRequest request,
                               const obs::RequestTracePtr& trace);
  common::Result<StreamRoute> open_stream(serve::binary::SourceBegin begin);
  void feed(StreamRoute& route, std::string_view bytes);
  std::future<Response> finish(StreamRoute& route);
  void abort(StreamRoute& route);
  serve::ReplyView reply(Response& response, obs::RequestTracePtr& trace);
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
  obs::Registry& registry = impl.registry;
  impl.obs_requests = registry.counter("repro_balancer_requests_total");
  impl.obs_dispatches = registry.counter("repro_balancer_dispatches_total");
  impl.obs_redispatches = registry.counter("repro_balancer_redispatches_total");
  impl.obs_backend_failures = registry.counter("repro_balancer_backend_failures_total");
  impl.obs_reconnects = registry.counter("repro_balancer_reconnects_total");
  serve::ConnectionOptions& connection = impl.connection;
  connection.name = "Balancer";
  connection.max_line_bytes = options.max_line_bytes;
  connection.max_inflight = options.max_inflight;
  connection.write_timeout = options.io_timeout;
  connection.connections = registry.counter("repro_balancer_connections_total");
  connection.protocol_errors = registry.counter("repro_balancer_protocol_errors_total");
  connection.peak_message_bytes = registry.gauge("repro_balancer_peak_message_bytes");

  // Backends first: a balancer that cannot reach its fleet should fail
  // loudly at startup, not accept clients it cannot serve. The connect
  // backoff rides out workers that are still binding their sockets.
  for (auto& endpoint : backends) {
    auto backend = std::make_unique<Impl::Backend>();
    backend->endpoint = std::move(endpoint);
    auto fd = connect_endpoint(backend->endpoint, kStartConnectAttempts, options.io_timeout);
    if (!fd.ok()) return fd.error();
    backend->fd = fd.value();
    backend->generation = 1;
    backend->alive.store(true, std::memory_order_release);
    impl.backends.push_back(std::move(backend));
  }
  for (auto& backend : impl.backends) impl.start_reader(*backend);

  auto listener = serve::Listener::start(
      connection.name, options.unix_path, options.tcp_port,
      [owner = &impl](int fd) { serve::serve_connection(fd, *owner, owner->connection); });
  if (!listener.ok()) return listener.error();
  impl.listener = std::move(listener).take();
  impl.maintenance = std::thread([owner = &impl] { owner->maintenance_loop(); });
  return balancer;
}

// --- backend side -------------------------------------------------------------

void Balancer::Impl::start_reader(Backend& backend) {
  backend.reader = std::thread([this, &backend] { backend_reader(backend); });
}

void Balancer::Impl::backend_reader(Backend& backend) {
  const int fd = backend.fd;  // stable for this reader's lifetime
  serve::MessageSplitter splitter(options.max_line_bytes, &common::BufferPool::global());
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
        if (!message.binary || message.frame != serve::binary::FrameType::kResponse) {
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

Balancer::Impl::Backend* Balancer::Impl::pick_backend() {
  // Least-loaded among the live backends; the rotating scan start makes
  // ties round-robin (the fallback when loads are equal, e.g. all zero).
  const std::size_t n = backends.size();
  const std::size_t start = rr_next.fetch_add(1, std::memory_order_relaxed) % n;
  Backend* best = nullptr;
  std::size_t best_load = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Backend* candidate = backends[(start + i) % n].get();
    if (!candidate->alive.load(std::memory_order_acquire)) continue;
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

template <class Encode>
Balancer::Impl::Sent Balancer::Impl::send(Backend& backend, const PendingPtr& pending,
                                          Encode&& encode) {
  Sent sent;
  {
    std::lock_guard lock(backend.state_mutex);
    if (!backend.alive.load(std::memory_order_relaxed)) {
      sent.status = Sent::kNotAlive;
      return sent;
    }
    sent.backend_id = backend.next_id++;
    sent.generation = backend.generation;
    backend.pending.emplace(sent.backend_id, pending);
  }
  backend.outstanding.fetch_add(1, std::memory_order_relaxed);
  if (write_to_backend(backend, sent.generation, encode(sent.backend_id))) return sent;
  // Reclaim the entry unless the teardown already did — then the teardown
  // owns its re-dispatch or failure, and must not see it doubled.
  bool ours = false;
  {
    std::lock_guard lock(backend.state_mutex);
    ours = backend.pending.erase(sent.backend_id) > 0;
  }
  if (ours) backend.outstanding.fetch_sub(1, std::memory_order_relaxed);
  sent.status = ours ? Sent::kFailed : Sent::kOrphaned;
  return sent;
}

bool Balancer::Impl::write_to_backend(Backend& backend, std::uint64_t generation,
                                      std::string_view bytes) {
  std::lock_guard wlock(backend.write_mutex);
  int fd = -1;
  {
    std::lock_guard slock(backend.state_mutex);
    if (backend.generation != generation || backend.fd < 0) return false;
    fd = backend.fd;
  }
  if (write_all(fd, bytes, options.io_timeout)) return true;
  // write_mutex keeps this connection current: no reconnect can replace it
  // before the fd is closed. The backend leaves rotation now, not when its
  // reader gets scheduled: otherwise the next pick can land on the same dead
  // worker for every remaining attempt. Reconnection keys off reader_exited
  // and fd.
  std::lock_guard slock(backend.state_mutex);
  backend.alive.store(false, std::memory_order_release);
  ::shutdown(fd, SHUT_RDWR);
  return false;
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
    const Sent sent = send(*backend, pending, [&](std::uint64_t backend_id) {
      serve::WireRequest request = pending->request;
      request.id = backend_id;
      if (request.deadline_ms.has_value()) request.deadline_ms = remaining_ms;
      return serve::binary::format_request_frame(request);
    });
    switch (sent.status) {
      case Sent::kOk: obs_dispatches->inc(); return;
      case Sent::kOrphaned: return;  // the teardown re-dispatches it
      case Sent::kNotAlive:
      case Sent::kFailed: break;     // pick again
    }
  }
}

void Balancer::Impl::send_to_backend(Backend& backend, const PendingPtr& pending) {
  const Sent sent = send(backend, pending, [&](std::uint64_t backend_id) {
    serve::WireRequest request = pending->request;
    request.id = backend_id;
    return serve::binary::format_request_frame(request);
  });
  if (sent.status == Sent::kNotAlive) {
    fail_pending(pending, common::unavailable("Balancer: backend not alive"));
  } else if (sent.status == Sent::kFailed) {
    fail_pending(pending, common::unavailable("Balancer: backend write failed"));
  }
}

void Balancer::Impl::send_health_ping(Backend& backend) {
  auto pending = std::make_shared<Pending>();
  pending->internal = true;
  pending->request.kind = serve::RequestKind::kHealth;
  send_to_backend(backend, pending);
}

serve::WireMetrics Balancer::Impl::metrics() {
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
        auto fd = connect_endpoint(backend.endpoint, 1, options.io_timeout);
        if (fd.ok()) {
          {
            std::lock_guard lock(backend.state_mutex);
            backend.fd = fd.value();
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

double Balancer::Impl::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
      .count();
}

// --- client side: the connection core's owner ----------------------------------

serve::WireHealth Balancer::Impl::health() {
  // The balancer answers for itself — a client asking the fleet endpoint
  // for health wants the fleet front, not one worker.
  std::size_t outstanding = 0;
  for (const auto& backend : backends) {
    outstanding += backend->outstanding.load(std::memory_order_relaxed);
  }
  return {uptime_s(), outstanding};
}

std::future<serve::WireResponse> Balancer::Impl::submit(
    serve::WireRequest request, const obs::RequestTracePtr& trace) {
  obs_requests->inc();
  auto forwarded = std::make_shared<Pending>();
  forwarded->request = std::move(request);
  forwarded->arrival = std::chrono::steady_clock::now();
  forwarded->trace = trace;
  auto future = forwarded->promise.get_future();
  dispatch(forwarded);
  return future;
}

common::Result<Balancer::Impl::StreamRoute> Balancer::Impl::open_stream(
    serve::binary::SourceBegin begin) {
  obs_requests->inc();
  auto entry = std::make_shared<Pending>();
  entry->streamed = true;
  entry->request.id = begin.id;
  entry->request.kind = serve::RequestKind::kPredictSource;
  entry->request.deadline_ms = begin.deadline_ms;
  entry->arrival = std::chrono::steady_clock::now();
  // Route selection retries write failures like dispatch(), but only for
  // the Begin frame — once a chunk has been forwarded the stream is pinned
  // to its backend.
  while (entry->attempts < options.max_dispatch_attempts &&
         !stopping.load(std::memory_order_acquire)) {
    Backend* backend = pick_backend();
    if (backend == nullptr) break;
    ++entry->attempts;
    const Sent sent = send(*backend, entry, [&](std::uint64_t backend_id) {
      serve::binary::SourceBegin forward;
      forward.id = backend_id;
      forward.kernel = begin.kernel;
      forward.deadline_ms = begin.deadline_ms;
      return serve::binary::format_source_begin(forward);
    });
    if (sent.status == Sent::kOk || sent.status == Sent::kOrphaned) {
      // An orphaned entry was already failed retryably by the teardown: the
      // route starts broken, and End collects that error in order.
      return StreamRoute{backend, sent.backend_id, sent.generation, entry,
                         /*broken=*/sent.status == Sent::kOrphaned};
    }
  }
  return common::unavailable("Balancer: no stream-capable worker");
}

void Balancer::Impl::feed(StreamRoute& route, std::string_view bytes) {
  if (route.broken) return;  // error already owed at End
  if (!write_to_backend(*route.backend, route.generation,
                        serve::binary::format_source_chunk(route.backend_id, bytes))) {
    // Backend died mid-stream: the teardown fails the pending entry with a
    // retryable error; stop forwarding, keep the route so the client's End
    // still collects that error in order.
    route.broken = true;
  }
}

std::future<serve::WireResponse> Balancer::Impl::finish(StreamRoute& route) {
  if (!route.broken &&
      !write_to_backend(*route.backend, route.generation,
                        serve::binary::format_source_end(route.backend_id))) {
    route.broken = true;
  }
  // A broken route's promise is resolved by the backend teardown, never
  // left dangling.
  return route.pending->promise.get_future();
}

void Balancer::Impl::abort(StreamRoute& route) {
  // Tell the backend to drop the half-streamed request (best effort), so a
  // worker never waits on chunks that can no longer arrive.
  if (!route.broken) {
    (void)write_to_backend(*route.backend, route.generation,
                           serve::binary::format_source_abort(route.backend_id));
  }
  // The worker never answers an abort — reclaim the pending entry here
  // (backend ids are never reused, so a stale erase is a harmless no-op).
  std::lock_guard lock(route.backend->state_mutex);
  if (route.backend->pending.erase(route.backend_id) > 0) {
    route.backend->outstanding.fetch_sub(1, std::memory_order_relaxed);
  }
}

serve::ReplyView Balancer::Impl::reply(serve::WireResponse& response,
                                       obs::RequestTracePtr& trace) {
  // Merge order: balancer pre-dispatch stages, the worker's stage table
  // (offsets against the WORKER's clock — per-hop, never rebased), then
  // balancer.reply against this balancer's clock.
  if (trace != nullptr) {
    if (response.trace.has_value()) trace->append(response.trace->stages);
    trace->stamp("balancer.reply");
  }
  if (response.prediction.has_value()) return {&*response.prediction, nullptr};
  if (response.error.has_value()) return {nullptr, &*response.error};
  // A worker reply that is neither is answered as an untraced error.
  static const common::Error malformed =
      common::internal_error("Balancer: malformed backend reply");
  trace.reset();
  return {nullptr, &malformed};
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
    if (impl.listener != nullptr) impl.listener->stop_accepting();

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

    if (impl.listener != nullptr) impl.listener->close_connections();
  });
}

int Balancer::tcp_port() const noexcept { return impl_->listener->tcp_port(); }

const std::string& Balancer::unix_path() const noexcept {
  return impl_->listener->unix_path();
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
