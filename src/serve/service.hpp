// The in-process prediction service: a bounded admission queue and a
// sharded worker pool over core::Predictor. Each shard pulls its own batch:
//
//   submit()          admission queue                shards (one model)
//   submit_source() ─▶ (BoundedQueue, ◀──pop_batch── shard 0: Predictor ─▶ promises
//     seq#              FIFO)         ◀──pop_batch── shard 1: Predictor ─▶ promises
//                                     ◀──pop_batch── …
//
// A shard blocks until a request is queued, then takes it together with
// whatever else is already waiting, up to max_batch, under one lock, and
// sorts that batch by seq# before serving it. An idle service therefore
// serves a request at once; under load, the backlog that builds while every
// shard is busy becomes the next batch. There is no timer.
//
// Requests carry either pre-extracted features (submit) or raw OpenCL-C
// source (submit_source). Source requests are featurized on the worker
// shard that serves their batch — through the shard Predictor's
// core::FeaturePipeline — so featurization parallelizes across shards and
// never blocks the submitting (connection) thread; a featurization failure
// resolves only that request's promise, never its batch neighbours'.
//
// Determinism: a request's prediction depends only on its features and the
// trained model — never on which batch, shard, or thread served it — so
// every response is bit-identical to a direct Predictor::predict_batch call
// at any shard count, max_batch, and REPRO_THREADS setting
// (tests/serve_test.cpp asserts this with memcmp). Batch assembly itself is
// made reproducible-by-construction: requests carry arrival sequence
// numbers and each batch is sorted by them before it is served, so a batch's
// composition is a deterministic function of which requests it coalesced.
//
// Shutdown: stop() (or the destructor) closes the admission queue, the
// shards drain what was already admitted, every queued request is still
// answered, and late submit() calls fail fast with an unavailable error.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "clfront/features.hpp"
#include "clfront/stream.hpp"
#include "common/status.hpp"
#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace repro::serve {

struct ServiceOptions {
  /// Worker shards; each owns a Predictor over the shared trained model.
  std::size_t shards = 1;
  /// A shard takes at most this many queued requests into one
  /// predict_batch call.
  std::size_t max_batch = 16;
  /// Admission-queue bound; submit() blocks when full (backpressure).
  std::size_t queue_capacity = 1024;
  /// Load shedding: when non-zero, submit() rejects (kUnavailable,
  /// retryable) any request whose estimated queue delay — admission backlog
  /// × EWMA of per-request service time ÷ shards — already exceeds this
  /// bound, or the request's own deadline. Zero disables shedding (the
  /// bounded queue's blocking backpressure is then the only limit).
  std::chrono::microseconds max_queue_delay{0};
  /// Metrics registry the service's counters/histograms register in — and
  /// that a SocketServer over this service counts into. Null = a registry
  /// the Service owns, so two services in one process never share counts.
  obs::Registry* registry = nullptr;
};

class Service {
 public:
  using Response = common::Result<core::Predictor::KernelPrediction>;

  /// Serve an already-trained model — typically Predictor::share_model() of
  /// a Predictor::Builder that trained (or loaded) it through a
  /// core::ModelCache — and start the shard workers.
  [[nodiscard]] static common::Result<std::unique_ptr<Service>> from_model(
      std::shared_ptr<const core::FrequencyModel> model, const ServiceOptions& options);

  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Absolute point after which a request must not be predicted. Requests
  /// that are already expired at submit resolve kDeadlineExceeded without
  /// ever entering batch assembly; ones that expire while queued are dropped
  /// by the shard worker before featurization/prediction.
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  /// Enqueue one request; the future resolves when its batch is served.
  /// Blocks while the admission queue is full; resolves immediately with an
  /// error after stop(). A non-null `trace` opts the request into per-stage
  /// timing stamps (admission, batch, execute) — untraced requests pay one
  /// pointer test per stamp site.
  [[nodiscard]] std::future<Response> submit(clfront::StaticFeatures features,
                                             Deadline deadline = {},
                                             obs::RequestTracePtr trace = nullptr);

  /// Enqueue a raw-source request; featurization happens on the worker
  /// shard inside the batch (the serving half of Predictor::predict_source).
  [[nodiscard]] std::future<Response> submit_source(std::string source,
                                                    std::string kernel = {},
                                                    Deadline deadline = {},
                                                    obs::RequestTracePtr trace = nullptr);

  /// An in-progress streamed source request: chunks are featurized
  /// incrementally through a clfront::SourceFeeder as they arrive off the
  /// wire, so peak memory is bounded by the feeder's pending window — never
  /// the full source. finish() enqueues the resolved features exactly like
  /// submit(); the result is bit-identical to submit_source() on the
  /// concatenated bytes at any chunk split (the feeder's chunk-invariance
  /// contract). Feed errors are sticky and surface from finish().
  class SourceStream {
   public:
    SourceStream(SourceStream&&) = default;
    SourceStream& operator=(SourceStream&&) = default;
    SourceStream(const SourceStream&) = delete;
    SourceStream& operator=(const SourceStream&) = delete;

    /// Append the next chunk; boundaries may fall anywhere. Errors are
    /// sticky — callers may stop early or keep feeding harmlessly.
    common::Status feed(std::string_view chunk);

    /// End of input: settle featurization and enqueue the request. Exactly
    /// one call resolves the returned future; further calls fail fast.
    [[nodiscard]] std::future<Response> finish();

    /// Peak bytes the feeder ever buffered (the bounded window the memory
    /// contract is about).
    [[nodiscard]] std::size_t peak_pending_bytes() const noexcept;

   private:
    friend class Service;
    SourceStream(Service* service, clfront::SourceFeeder feeder,
                 std::string kernel, Deadline deadline)
        : service_(service),
          feeder_(std::make_unique<clfront::SourceFeeder>(std::move(feeder))),
          kernel_(std::move(kernel)),
          deadline_(deadline) {}

    Service* service_;
    std::unique_ptr<clfront::SourceFeeder> feeder_;
    std::string kernel_;
    Deadline deadline_;
    bool finished_ = false;
  };

  /// Open a streamed source request under the pipeline's own input
  /// budgets (the same bounds submit_source obeys).
  [[nodiscard]] SourceStream begin_stream(std::string kernel = {},
                                          Deadline deadline = {});

  /// Blocking convenience around submit() / submit_source().
  [[nodiscard]] Response predict(clfront::StaticFeatures features);
  [[nodiscard]] Response predict_source(std::string source, std::string kernel = {});

  /// Submit all, then gather in input order.
  [[nodiscard]] std::vector<Response> predict_many(
      std::vector<clfront::StaticFeatures> kernels);

  /// Graceful shutdown: admitted requests are served, new ones refused.
  /// Idempotent; also run by the destructor.
  void stop();

  /// A snapshot of the service's registry counters (repro_*_total), so
  /// in-process callers need not look them up by name.
  struct Stats {
    std::uint64_t requests = 0;         // admitted (both kinds)
    std::uint64_t source_requests = 0;  // admitted submit_source requests
    std::uint64_t rejected = 0;         // submit() after stop
    std::uint64_t batches = 0;          // predict_batch calls issued
    std::uint64_t shed = 0;               // refused at admission by load shedding
    std::uint64_t deadline_exceeded = 0;  // expired before prediction
    std::uint64_t streamed = 0;           // admitted via SourceStream::finish
  };
  [[nodiscard]] Stats stats() const;
  /// Where this service — and any SocketServer over it — counts: the
  /// registry named by ServiceOptions::registry, or the service's own.
  [[nodiscard]] obs::Registry& registry() const noexcept;
  /// Requests admitted but not yet pulled into a batch by a shard — the
  /// backlog a "health" wire response reports as queue_depth, and the one
  /// load shedding estimates its delay from.
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const ServiceOptions& options() const noexcept { return options_; }
  [[nodiscard]] const core::FrequencyModel& model() const noexcept { return *model_; }

 private:
  Service(std::shared_ptr<const core::FrequencyModel> model, ServiceOptions options);
  void start(std::vector<core::Predictor> shard_predictors);
  void shard_loop(std::size_t shard_index);

  struct Request {
    std::uint64_t seq = 0;
    std::variant<clfront::StaticFeatures, core::Predictor::SourceRequest> payload;
    Deadline deadline;
    /// Admission time; feeds the latency histogram when the batch resolves.
    std::chrono::steady_clock::time_point arrival;
    /// Null unless the request asked to be traced.
    obs::RequestTracePtr trace;
    std::promise<Response> promise;
  };
  using Batch = std::vector<Request>;

  [[nodiscard]] std::future<Response> enqueue(Request request, bool is_source,
                                              bool is_streamed = false);

  std::shared_ptr<const core::FrequencyModel> model_;
  ServiceOptions options_;
  struct Impl;  // queue, threads, counters (keeps <thread> out of the header)
  std::unique_ptr<Impl> impl_;
};

}  // namespace repro::serve
