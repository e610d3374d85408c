#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#include "common/queue.hpp"

namespace repro::serve {

namespace {

/// Admission-queue bound; submit() blocks when it is full (backpressure).
constexpr std::size_t kAdmissionCapacity = 1024;

common::Error unavailable_error() {
  // kUnavailable, not kUnsupported: clients (and the fleet balancer's
  // re-dispatch) must be able to tell "shutting down, retry elsewhere" from
  // a request the service genuinely cannot serve.
  return common::unavailable("serve::Service: stopped");
}

common::Error deadline_error() {
  return common::deadline_exceeded("serve::Service: deadline expired");
}

}  // namespace

struct Service::Impl {
  explicit Impl(const ServiceOptions& options)
      : registry(options.registry != nullptr ? *options.registry : owned_registry),
        admission(kAdmissionCapacity) {
    // One name lookup each at construction; the hot paths below touch only
    // the cached pointers (one relaxed atomic per event).
    obs_requests = registry.counter("repro_requests_total");
    obs_source_requests = registry.counter("repro_source_requests_total");
    obs_rejected = registry.counter("repro_rejected_total");
    obs_batches = registry.counter("repro_batches_total");
    obs_shed = registry.counter("repro_shed_total");
    obs_deadline_exceeded = registry.counter("repro_deadline_exceeded_total");
    obs_streamed = registry.counter("repro_streamed_total");
    obs_latency = registry.histogram("repro_request_latency_us");
  }

  obs::Registry owned_registry;  // unused when ServiceOptions::registry is set
  obs::Registry& registry;
  /// The one queue every shard pulls its batches from.
  common::BoundedQueue<Request> admission;
  std::vector<core::Predictor> shard_predictors;
  std::vector<std::thread> shard_threads;
  std::atomic<std::uint64_t> next_seq{0};
  std::atomic<bool> stopped{false};
  std::once_flag stop_once;
  // EWMA of per-request service time (µs), fed by the shard workers and
  // read by admission when shedding is on. 0 until the first batch
  // completes — shedding never fires cold.
  std::mutex ewma_mutex;
  double ewma_service_us = 0.0;

  // obs instruments (registry-owned; see the constructor).
  obs::Counter* obs_requests = nullptr;
  obs::Counter* obs_source_requests = nullptr;
  obs::Counter* obs_rejected = nullptr;
  obs::Counter* obs_batches = nullptr;
  obs::Counter* obs_shed = nullptr;
  obs::Counter* obs_deadline_exceeded = nullptr;
  obs::Counter* obs_streamed = nullptr;
  obs::Histogram* obs_latency = nullptr;
};

Service::Service(std::shared_ptr<const core::FrequencyModel> model,
                 ServiceOptions options)
    : model_(std::move(model)), options_(options) {
  options_.shards = std::max<std::size_t>(1, options_.shards);
  options_.max_batch = std::max<std::size_t>(1, options_.max_batch);
  impl_ = std::make_unique<Impl>(options_);
}

common::Result<std::unique_ptr<Service>> Service::from_model(
    std::shared_ptr<const core::FrequencyModel> model, const ServiceOptions& options) {
  if (model == nullptr) {
    return common::invalid_argument("serve::Service: null model");
  }
  std::unique_ptr<Service> service(new Service(std::move(model), options));

  // Each shard owns its Predictor; all share the one immutable model.
  std::vector<core::Predictor> shard_predictors;
  shard_predictors.reserve(service->options_.shards);
  for (std::size_t s = 0; s < service->options_.shards; ++s) {
    auto predictor = core::Predictor::from_model(service->model_);
    if (!predictor.ok()) return predictor.error();
    shard_predictors.push_back(std::move(predictor).take());
  }
  service->start(std::move(shard_predictors));
  return service;
}

void Service::start(std::vector<core::Predictor> shard_predictors) {
  impl_->shard_predictors = std::move(shard_predictors);
  impl_->shard_threads.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    impl_->shard_threads.emplace_back([this, s] { shard_loop(s); });
  }
}

Service::~Service() {
  if (impl_ != nullptr) stop();
}

void Service::stop() {
  std::call_once(impl_->stop_once, [this] {
    impl_->stopped.store(true, std::memory_order_release);
    // Closing admission lets the shards drain what was admitted and exit.
    impl_->admission.close();
    for (auto& t : impl_->shard_threads) {
      if (t.joinable()) t.join();
    }
  });
}

std::future<Service::Response> Service::submit(clfront::StaticFeatures features,
                                               Deadline deadline,
                                               obs::RequestTracePtr trace) {
  Request request;
  request.payload = std::move(features);
  request.deadline = deadline;
  request.trace = std::move(trace);
  return enqueue(std::move(request), /*is_source=*/false);
}

std::future<Service::Response> Service::submit_source(std::string source,
                                                      std::string kernel,
                                                      Deadline deadline,
                                                      obs::RequestTracePtr trace) {
  Request request;
  request.payload =
      core::Predictor::SourceRequest{std::move(source), std::move(kernel)};
  request.deadline = deadline;
  request.trace = std::move(trace);
  return enqueue(std::move(request), /*is_source=*/true);
}

Service::SourceStream Service::begin_stream(std::string kernel, Deadline deadline) {
  // The feeder inherits the pipeline's budgets, so a streamed request obeys
  // the same input bound as submit_source.
  return SourceStream(
      this,
      clfront::SourceFeeder(impl_->shard_predictors.front().pipeline().stream_options()),
      std::move(kernel), deadline);
}

common::Status Service::SourceStream::feed(std::string_view chunk) {
  if (finished_) {
    return common::internal_error("serve::SourceStream: feed after finish");
  }
  return feeder_->feed(chunk);
}

std::future<Service::Response> Service::SourceStream::finish() {
  std::promise<Response> failed;
  auto fail = [&](common::Error error) {
    auto future = failed.get_future();
    failed.set_value(std::move(error));
    return future;
  };
  if (finished_) {
    return fail(common::internal_error("serve::SourceStream: already finished"));
  }
  finished_ = true;
  if (auto status = feeder_->finish(); !status.ok()) {
    return fail(status.error());
  }
  auto features = feeder_->features(kernel_);
  if (!features.ok()) {
    return fail(features.error());
  }
  // From here the request is indistinguishable from submit(): featurization
  // already happened incrementally, so only the (fixed-size) feature vector
  // enters batch assembly. Counted as a source request AND a streamed one.
  Request request;
  request.payload = std::move(features).take();
  request.deadline = deadline_;
  return service_->enqueue(std::move(request), /*is_source=*/true,
                           /*is_streamed=*/true);
}

std::size_t Service::SourceStream::peak_pending_bytes() const noexcept {
  return feeder_->peak_pending_bytes();
}

std::future<Service::Response> Service::enqueue(Request request, bool is_source,
                                                bool is_streamed) {
  auto future = request.promise.get_future();
  const auto now = std::chrono::steady_clock::now();
  request.arrival = now;
  // An expired deadline never enters batch assembly: answer right here, and
  // do not count it as an admitted request.
  if (request.deadline.has_value() && *request.deadline <= now) {
    request.promise.set_value(deadline_error());
    impl_->obs_deadline_exceeded->inc();
    return future;
  }
  // Load shedding: refuse work that would only be served stale. The
  // estimate is backlog × EWMA service time ÷ shards — deliberately crude,
  // but it is zero when the service is keeping up and grows linearly once
  // it is not, which is the only distinction shedding needs.
  if (options_.max_queue_delay.count() > 0) {
    double est_us = 0.0;
    {
      std::lock_guard lock(impl_->ewma_mutex);
      est_us = impl_->ewma_service_us;
    }
    est_us *= static_cast<double>(impl_->admission.size()) /
              static_cast<double>(options_.shards);
    const bool over_bound =
        est_us > static_cast<double>(options_.max_queue_delay.count());
    const bool over_deadline =
        request.deadline.has_value() &&
        now + std::chrono::microseconds(static_cast<long>(est_us)) >=
            *request.deadline;
    if (over_bound || over_deadline) {
      request.promise.set_value(common::unavailable(
          "serve::Service: overloaded (estimated queue delay " +
          std::to_string(static_cast<long>(est_us)) + "us)"));
      impl_->obs_shed->inc();
      return future;
    }
  }
  // The sequence number is taken immediately before the push; the queue's
  // FIFO order under its mutex can interleave differently, which is why a
  // shard re-sorts each batch it pulls by seq before serving it.
  request.seq = impl_->next_seq.fetch_add(1, std::memory_order_relaxed);
  // The request is moved into the queue; keep the (usually null) trace
  // handle so the admission stamp lands after a successful push.
  obs::RequestTracePtr trace = request.trace;
  if (impl_->stopped.load(std::memory_order_acquire) ||
      !impl_->admission.push(std::move(request))) {
    // A refused push leaves `request` intact — resolve its promise with the
    // shutdown error so the future above still answers.
    request.promise.set_value(unavailable_error());
    impl_->obs_rejected->inc();
    return future;
  }
  obs::stamp(trace, "admission");
  impl_->obs_requests->inc();
  if (is_source) impl_->obs_source_requests->inc();
  if (is_streamed) impl_->obs_streamed->inc();
  return future;
}

Service::Response Service::predict(clfront::StaticFeatures features) {
  return submit(std::move(features)).get();
}

Service::Response Service::predict_source(std::string source, std::string kernel) {
  return submit_source(std::move(source), std::move(kernel)).get();
}

std::vector<Service::Response> Service::predict_many(
    std::vector<clfront::StaticFeatures> kernels) {
  std::vector<std::future<Response>> futures;
  futures.reserve(kernels.size());
  for (auto& k : kernels) futures.push_back(submit(std::move(k)));
  std::vector<Response> out;
  out.reserve(futures.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

void Service::shard_loop(std::size_t shard_index) {
  core::Predictor& predictor = impl_->shard_predictors[shard_index];
  // Per-shard scratch, cleared (capacity kept) every batch, so steady-state
  // batch service performs no vector allocations. Shard-local — no locking.
  Batch batch;
  std::vector<clfront::StaticFeatures> features;
  std::vector<std::size_t> slots;  // batch index serving features[k]
  batch.reserve(options_.max_batch);
  features.reserve(options_.max_batch);
  slots.reserve(options_.max_batch);
  // Block for the first request, then take whatever queued behind it; 0
  // means the queue is closed and drained.
  for (; impl_->admission.pop_batch(batch, options_.max_batch) > 0; batch.clear()) {
    // Deterministic batch assembly: the batch is ordered by arrival
    // sequence number, not by queue-mutex interleaving.
    std::sort(batch.begin(), batch.end(),
              [](const Request& a, const Request& b) { return a.seq < b.seq; });
    impl_->obs_batches->inc();

    // Featurize source payloads here, on the shard — a request's features
    // depend only on its own bytes, so where this runs cannot change the
    // output. A featurization failure answers just that request; everything
    // that featurized joins the batch prediction. Only the promises are
    // needed after this — move, don't copy.
    features.clear();
    slots.clear();
    const auto batch_start = std::chrono::steady_clock::now();
    std::uint64_t expired = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto& request = batch[i];
      // A deadline that ran out while the request sat in a queue: answer it
      // now, spend nothing on featurization or prediction. Checked once per
      // batch, not per-predict — close enough, and keeps the hot loop flat.
      if (request.deadline.has_value() && *request.deadline <= batch_start) {
        request.promise.set_value(deadline_error());
        ++expired;
        continue;
      }
      obs::stamp(request.trace, "batch");
      if (auto* ready = std::get_if<clfront::StaticFeatures>(&request.payload)) {
        features.push_back(std::move(*ready));
        slots.push_back(i);
        continue;
      }
      auto& source = std::get<core::Predictor::SourceRequest>(request.payload);
      auto extracted = predictor.pipeline().featurize(source.source, source.kernel);
      if (extracted.ok()) {
        features.push_back(std::move(extracted).take());
        slots.push_back(i);
      } else {
        request.promise.set_value(extracted.error());
      }
    }
    if (expired > 0) impl_->obs_deadline_exceeded->inc(expired);
    if (features.empty()) continue;

    auto predictions = predictor.predict_batch(features);
    const auto batch_end = std::chrono::steady_clock::now();

    // Feed the shedding estimator BEFORE resolving the promises: per-request
    // service time over this batch (featurize + predict, amortized). The
    // ordering matters — anyone unblocked by these promises (a client that
    // warms up, then bursts) must find the sample already published, or the
    // burst races a zero EWMA and nothing sheds. EWMA with a 0.2 step —
    // reacts within a handful of batches, ignores single outliers.
    const double elapsed_us =
        std::chrono::duration<double, std::micro>(batch_end - batch_start)
            .count();
    const double sample = elapsed_us / static_cast<double>(features.size());
    {
      std::lock_guard lock(impl_->ewma_mutex);
      impl_->ewma_service_us = impl_->ewma_service_us == 0.0
                                   ? sample
                                   : 0.8 * impl_->ewma_service_us + 0.2 * sample;
    }

    // Admission-to-prediction latency, one histogram sample per request —
    // all against the single batch_end clock read above.
    for (std::size_t slot : slots) {
      auto& request = batch[slot];
      obs::stamp(request.trace, "execute");
      impl_->obs_latency->observe_us(
          std::chrono::duration<double, std::micro>(batch_end - request.arrival)
              .count());
    }
    if (predictions.ok()) {
      auto& results = predictions.value();
      for (std::size_t k = 0; k < slots.size(); ++k) {
        batch[slots[k]].promise.set_value(std::move(results[k]));
      }
    } else {
      for (std::size_t slot : slots) {
        batch[slot].promise.set_value(predictions.error());
      }
    }
  }
}

Service::Stats Service::stats() const {
  Stats stats;
  stats.requests = impl_->obs_requests->value();
  stats.source_requests = impl_->obs_source_requests->value();
  stats.rejected = impl_->obs_rejected->value();
  stats.batches = impl_->obs_batches->value();
  stats.shed = impl_->obs_shed->value();
  stats.deadline_exceeded = impl_->obs_deadline_exceeded->value();
  stats.streamed = impl_->obs_streamed->value();
  return stats;
}

obs::Registry& Service::registry() const noexcept { return impl_->registry; }

std::size_t Service::queue_depth() const { return impl_->admission.size(); }

}  // namespace repro::serve
