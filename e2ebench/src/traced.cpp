// The traced run: the workload's request stream replayed through the public
// entry point of each layer, with a span around every call.
//
// Layers are replayed one at a time on the same requests, so each span is a
// real measured duration. To read self times off one tree per request, a
// layer's inner layers are laid as child spans from its start: request j's
// balancer round trip contains its worker round trip, which contains the
// four codec calls and its Service time, which contains (source workloads)
// its featurization and its predict_pareto call, which contains
// predict_all and the skyline. Self time is then a span minus what its
// children cover.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <thread>

#include "benchgen/benchgen.hpp"
#include "gpusim/device.hpp"
#include "obs/metrics.hpp"
#include "pareto/pareto.hpp"
#include "serve/model_cache.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "system.hpp"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;
using Prediction = core::Predictor::KernelPrediction;

/// Requests per layer replay.
constexpr std::size_t kReplay = 1000;
/// Requests/s of the socket and balancer replays: one blocking client,
/// paced well below any workload's light rate.
constexpr double kReplayRate = 500.0;
/// Seconds of the in-process Service replay at the workload's service rate.
constexpr double kServiceSeconds = 1.5;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Simulator measurements with the time spent in them and their count.
class TimingBackend final : public core::MeasurementBackend {
 public:
  TimingBackend() : inner_(gpusim::DeviceModel::titan_x()) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const gpusim::FrequencyDomain& domain() const override { return inner_.domain(); }
  [[nodiscard]] common::Result<std::vector<core::MeasuredPoint>> measure(
      const gpusim::KernelProfile& profile,
      std::span<const gpusim::FrequencyConfig> configs) const override {
    const auto t0 = Clock::now();
    auto points = inner_.measure(profile, configs);
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    ++calls_;
    return points;
  }
  [[nodiscard]] double seconds() const { return static_cast<double>(ns_.load()) * 1e-9; }
  [[nodiscard]] double calls() const { return static_cast<double>(calls_.load()); }

 private:
  core::SimulatorBackend inner_;
  mutable std::atomic<std::int64_t> ns_{0};
  mutable std::atomic<std::int64_t> calls_{0};
};

struct Setup {
  std::shared_ptr<const core::FrequencyModel> model;
  double train_total_s = 0.0;  // suite generation + measurement + fit + save
};

Setup setup_breakdown(Report& rep, const RunDir& run) {
  auto t0 = Clock::now();
  auto suite = must(benchgen::generate_training_suite(), "training suite");
  const double suite_s = us_between(t0, Clock::now()) / 1e6;
  TimingBackend backend;
  t0 = Clock::now();
  auto model = must(core::FrequencyModel::train(backend, suite, core::TrainingOptions{}), "train");
  const double train_s = us_between(t0, Clock::now()) / 1e6;
  const std::string path = run.sub("model") + "/model.txt";
  t0 = Clock::now();
  if (auto st = serve::save_model_atomic(model, path); !st.ok()) {
    throw std::runtime_error("save: " + st.error().to_string());
  }
  const double save_ms = us_between(t0, Clock::now()) / 1000.0;
  t0 = Clock::now();
  auto loaded = must(serve::load_cached_model(path), "load");
  const double load_ms = us_between(t0, Clock::now()) / 1000.0;
  rep.set("setup.suite_gen_s", suite_s);
  rep.set("setup.measure_s", backend.seconds());
  rep.set("setup.measure_calls", backend.calls());
  rep.set("setup.fit_s", train_s - backend.seconds());
  rep.set("setup.model_save_ms", save_ms);
  rep.set("setup.model_load_ms", load_ms);
  return {std::make_shared<const core::FrequencyModel>(std::move(loaded)),
          suite_s + train_s + save_ms / 1000.0};
}

/// Per-request durations (µs) of each layer replay, index-aligned.
struct Replay {
  std::vector<std::uint32_t> items;
  std::vector<double> featurize, core, ml, skyline, allocs;
  std::vector<double> enc_req, dec_req, enc_reply, dec_reply, req_bytes, reply_bytes;
  std::vector<double> service, socket, balancer, balancer_start;
};

std::vector<gpusim::FrequencyConfig> modeled_configs(const core::FrequencyModel& model) {
  auto configs = model.domain().sample_configs(model.training_configs().size());
  if (const auto* mem_L = model.domain().find_domain(gpusim::MemLevel::kL)) {
    std::erase_if(configs, [&](const auto& c) { return c.mem_mhz == mem_L->mem_mhz; });
  }
  return configs;
}

void replay_library(Replay& rp, const Pool& pool, const core::Predictor& predictor,
                    const std::vector<Prediction>& refs, AllocCounter allocations,
                    std::size_t& failed) {
  const auto configs = modeled_configs(predictor.model());
  for (std::size_t j = 0; j < rp.items.size(); ++j) {
    const Item& item = pool.items[rp.items[j]];
    auto t0 = Clock::now();
    auto featurized = predictor.pipeline().featurize(item.source, item.kernel);
    rp.featurize.push_back(us_between(t0, Clock::now()));
    if (!featurized.ok()) ++failed;
    const bool source = item.request.kind == serve::RequestKind::kPredictSource;
    clfront::StaticFeatures f = source && featurized.ok() ? featurized.value() : item.features;

    const std::uint64_t a0 = allocations != nullptr ? allocations() : 0;
    t0 = Clock::now();
    auto pareto = predictor.predict_pareto(f);
    rp.core.push_back(us_between(t0, Clock::now()));
    rp.allocs.push_back(allocations != nullptr ? static_cast<double>(allocations() - a0) : -1.0);
    if (!pareto.ok() || !identical({refs[rp.items[j]].kernel, pareto.value()}, refs[rp.items[j]])) {
      ++failed;
    }

    t0 = Clock::now();
    const auto all = predictor.model().predict_all(f, configs);
    rp.ml.push_back(us_between(t0, Clock::now()));
    std::vector<pareto::Point> points;
    points.reserve(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      points.push_back({all[i].speedup, all[i].energy, static_cast<std::uint32_t>(i)});
    }
    t0 = Clock::now();
    const auto front = pareto::pareto_set_fast(points);
    rp.skyline.push_back(us_between(t0, Clock::now()));
    if (front.empty()) ++failed;
  }
}

void replay_codec(Replay& rp, Pool& pool, bool binary, const std::vector<Prediction>& refs,
                  std::size_t& failed) {
  std::string req;
  std::string reply;
  for (std::size_t j = 0; j < rp.items.size(); ++j) {
    serve::WireRequest& request = pool.items[rp.items[j]].request;
    request.id = j + 1;
    request.trace.reset();
    const std::size_t header = binary ? serve::binary::kHeaderBytes : 0;
    req.clear();
    auto t0 = Clock::now();
    encode_request(binary, request, req);
    rp.enc_req.push_back(us_between(t0, Clock::now()));
    rp.req_bytes.push_back(static_cast<double>(req.size()));
    const std::string_view req_payload(req.data() + header,
                                       req.size() - header - (binary ? 0 : 1));
    t0 = Clock::now();
    auto parsed = binary ? serve::binary::parse_request(req_payload)
                         : serve::parse_request(req_payload);
    rp.dec_req.push_back(us_between(t0, Clock::now()));
    if (!parsed.ok() || parsed.value().id != request.id) ++failed;

    const Prediction& ref = refs[rp.items[j]];
    reply.clear();
    t0 = Clock::now();
    if (binary) {
      serve::binary::format_prediction_frame_into(reply, request.id, ref);
    } else {
      serve::format_response_into(reply, request.id, ref);
      reply.push_back('\n');
    }
    rp.enc_reply.push_back(us_between(t0, Clock::now()));
    rp.reply_bytes.push_back(static_cast<double>(reply.size()));
    const std::string_view reply_payload(reply.data() + header,
                                         reply.size() - header - (binary ? 0 : 1));
    t0 = Clock::now();
    auto decoded = binary ? serve::binary::parse_response(reply_payload)
                          : serve::parse_response(reply_payload);
    rp.dec_reply.push_back(us_between(t0, Clock::now()));
    if (!decoded.ok() || !decoded.value().prediction ||
        !identical(*decoded.value().prediction, ref)) {
      ++failed;
    }
  }
}

std::future<serve::Service::Response> submit(serve::Service& svc, const Item& item,
                                             obs::RequestTracePtr trace = nullptr) {
  if (item.request.kind == serve::RequestKind::kPredictSource) {
    return svc.submit_source(item.source, item.kernel, {}, std::move(trace));
  }
  return svc.submit(item.features, {}, std::move(trace));
}

/// Service::submit → ready on an in-process Service with a worker's
/// options: one request at a time (the replay), then open loop at the
/// workload's service rate with stage stamps.
void replay_service(Report& rep, Replay& rp, const Pool& pool,
                    std::shared_ptr<const core::FrequencyModel> model,
                    const std::vector<Prediction>& refs, const Options& o, std::size_t& failed) {
  obs::Registry registry;
  serve::ServiceOptions options;
  options.shards = 2;  // repro_serve's default
  options.registry = &registry;
  auto svc = must(serve::Service::from_model(std::move(model), options), "Service");

  for (std::size_t j = 0; j < rp.items.size(); ++j) {
    const Item& item = pool.items[rp.items[j]];
    const auto t0 = Clock::now();
    auto got = submit(*svc, item).get();
    rp.service.push_back(us_between(t0, Clock::now()));
    if (!got.ok() || !identical(got.value(), refs[rp.items[j]])) ++failed;
  }

  const auto due = poisson_schedule(phase_seed(o.seed, 23), spec_for(o.workload).service_rate,
                                    kServiceSeconds);
  const auto items = draw(pool, phase_seed(o.seed, 24), due.size());
  struct Slot {
    std::future<serve::Service::Response> future;
    obs::RequestTracePtr trace;
  };
  std::vector<Slot> slots(due.size());
  std::atomic<std::size_t> submitted{0};
  std::vector<double> latency, queue_wait, batch_wait;
  const auto before = svc->stats();
  const auto t0 = Clock::now();
  std::thread collector([&] {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      while (submitted.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      auto got = slots[i].future.get();
      latency.push_back(us_between(t0, Clock::now()) - due[i]);
      if (!got.ok() || !identical(got.value(), refs[items[i]])) ++failed;
      double admission = 0, batch = 0, execute = 0;
      for (const auto& st : slots[i].trace->snapshot().stages) {
        if (st.stage == "admission") admission = st.us;
        if (st.stage == "batch") batch = st.us;
        if (st.stage == "execute") execute = st.us;
      }
      queue_wait.push_back(batch - admission);
      batch_wait.push_back(execute - batch);
    }
  });
  for (std::size_t i = 0; i < due.size(); ++i) {
    while (us_between(t0, Clock::now()) < due[i]) {
      const double left = due[i] - us_between(t0, Clock::now());
      if (left > 200.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(left - 100.0));
      }
    }
    slots[i].trace = std::make_shared<obs::RequestTrace>(i + 1);
    slots[i].future = submit(*svc, pool.items[items[i]], slots[i].trace);
    submitted.store(i + 1, std::memory_order_release);
  }
  collector.join();
  const auto after = svc->stats();
  svc->stop();

  const Summary lat = summarize(latency);
  rep.set("serve.service_us.p50", lat.p50);
  rep.set("serve.service_us.p99", lat.tail);
  rep.set("serve.service_seq_us.p50", summarize(rp.service).p50);
  rep.set("serve.batch_size.mean", static_cast<double>(after.requests - before.requests) /
                                       static_cast<double>(after.batches - before.batches));
  rep.set("serve.queue_wait_us.p50", summarize(queue_wait).p50);
  rep.set("serve.batch_wait_us.p50", summarize(batch_wait).p50);
}

/// Blocking round trips paced at kReplayRate; durations into `out` (and
/// start times into `starts`), counters of `pid` before and after.
std::pair<ProcSample, ProcSample> replay_socket(const std::string& path, bool binary,
                                                const Pool& pool, const Replay& rp,
                                                const std::vector<Prediction>& refs, pid_t pid,
                                                std::vector<double>& out,
                                                std::vector<double>* starts,
                                                Clock::time_point epoch, std::size_t& failed) {
  auto client = must(serve::SocketClient::connect_unix(path), "connect");
  if (binary && must(client.negotiate_binary(), "negotiate") < 2) {
    throw std::runtime_error("binary framing declined");
  }
  const ProcSample before = sample_proc(pid);
  const auto t0 = Clock::now();
  for (std::size_t j = 0; j < rp.items.size(); ++j) {
    const double due = static_cast<double>(j) * 1e6 / kReplayRate;
    const double left = due - us_between(t0, Clock::now());
    if (left > 0) std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(left));
    const auto s = Clock::now();
    auto got = predict_item(client, pool.items[rp.items[j]]);
    out.push_back(us_between(s, Clock::now()));
    if (starts != nullptr) starts->push_back(us_between(epoch, s));
    if (!got.ok() || !identical(got.value(), refs[rp.items[j]])) ++failed;
  }
  return {before, sample_proc(pid)};
}

double p50(const std::vector<double>& v) { return summarize(v).p50; }

/// One request's layer durations (µs), in the order of the tree below.
struct LayerTimes {
  double start, balancer, socket, enc_req, dec_req, enc_reply, dec_reply, service, featurize,
      core, ml, skyline;
};

LayerTimes request_times(const Replay& rp, std::size_t j) {
  return {rp.balancer_start[j], rp.balancer[j],  rp.socket[j],  rp.enc_req[j],
          rp.dec_req[j],        rp.enc_reply[j], rp.dec_reply[j], rp.service[j],
          rp.featurize[j],      rp.core[j],      rp.ml[j],      rp.skyline[j]};
}

LayerTimes median_times(const Replay& rp) {
  return {0.0,           p50(rp.balancer),  p50(rp.socket),  p50(rp.enc_req),
          p50(rp.dec_req), p50(rp.enc_reply), p50(rp.dec_reply), p50(rp.service),
          p50(rp.featurize), p50(rp.core),    p50(rp.ml),      p50(rp.skyline)};
}

/// Lay one request's layer durations out as a span tree (see the top of
/// this file).
void add_tree(SpanLog& log, std::uint64_t request, const LayerTimes& t, bool source) {
  const double s = t.start;
  const int bal = log.add("fleet.balancer_rt", request, -1, s, s + t.balancer);
  const int sock = log.add("serve.socket_rt", request, bal, s, s + t.socket);
  double x = s;
  for (const auto& [name, d] : {std::pair{"serve.codec.encode_req", t.enc_req},
                                std::pair{"serve.codec.decode_req", t.dec_req},
                                std::pair{"serve.codec.encode_reply", t.enc_reply},
                                std::pair{"serve.codec.decode_reply", t.dec_reply}}) {
    log.add(name, request, sock, x, x + d);
    x += d;
  }
  const int svc = log.add("serve.service", request, sock, x, x + t.service);
  if (source) {
    log.add("clfront.featurize", request, svc, x, x + t.featurize);
    x += t.featurize;
  }
  const int core = log.add("core.predict_pareto", request, svc, x, x + t.core);
  log.add("ml.predict_all", request, core, x, x + t.ml);
  log.add("pareto.skyline", request, core, x + t.ml, x + t.ml + t.skyline);
}

/// Sum of the self times of the first span named `root` and everything
/// below it.
double subtree_self_us(const SpanLog& log, const std::string& root) {
  const auto& spans = log.spans();
  std::vector<bool> inside(spans.size(), false);  // parents precede children
  bool found = false;
  double total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    inside[i] = (!found && spans[i].name == root) ||
                (parent >= 0 && inside[static_cast<std::size_t>(parent)]);
    found = found || inside[i];
    if (!inside[i]) continue;
    std::vector<Span> children;
    for (const Span& c : spans) {
      if (c.parent == static_cast<int>(i)) children.push_back(c);
    }
    total += self_time(spans[i], children);
  }
  return total;
}

}  // namespace

Report run_traced(const Options& o, AllocCounter allocations) {
  const auto& spec = spec_for(o.workload);
  const bool source = o.workload == Workload::kWorkerSource;
  Report rep;
  Pool pool = load_pool(o.workload);
  const Streams streams = make_streams(o, pool);
  RunDir run(std::string(workload_name(o.workload)) + "-" + std::to_string(o.seed) + "-trace");
  const auto epoch = Clock::now();

  // Setup, layer by layer, then the same setup as the fleet does it.
  const Setup setup = setup_breakdown(rep, run);
  const auto predictor = must(core::Predictor::from_model(setup.model), "Predictor");
  const auto refs = must(reference_replies(predictor, pool), "reference replies");
  Server fleet = must(start_server(true, run.sub("fleet"), pool.items[streams.probe]), "fleet");
  rep.set("setup.coord_s", fleet.setup_s - setup.train_total_s);
  const bool first_ok =
      fleet.first_reply.ok() && identical(fleet.first_reply.value(), refs[streams.probe]);
  rep.count(1, first_ok ? 0 : 1, "fleet reply differs from the in-process model");

  // Layer replays over one request stream.
  Replay rp;
  rp.items = draw(pool, phase_seed(o.seed, 21), kReplay);
  std::size_t failed = 0;
  replay_library(rp, pool, predictor, refs, allocations, failed);
  replay_codec(rp, pool, spec.binary, refs, failed);
  replay_service(rep, rp, pool, setup.model, refs, o, failed);
  const auto worker = replay_socket(fleet.worker_socks.at(0), spec.binary, pool, rp, refs,
                                    fleet.pids.at(1), rp.socket, nullptr, epoch, failed);
  const auto front = replay_socket(fleet.front, spec.binary, pool, rp, refs, fleet.pids[0],
                                   rp.balancer, &rp.balancer_start, epoch, failed);
  rep.count(6 * kReplay + static_cast<std::size_t>(kServiceSeconds * spec.service_rate), failed,
            "a layer replay differed from the reference");

  // Every replayed request's tree goes to the span file; self times are
  // read off the tree of the median request (each layer at its median),
  // since layers replayed separately pair up only in distribution.
  SpanLog log;
  for (std::size_t j = 0; j < kReplay; ++j) add_tree(log, j, request_times(rp, j), source);
  SpanLog median;
  add_tree(median, 0, median_times(rp), source);
  const auto self = [&](const char* name) { return median.self_times(name).at(0); };
  double bytes = 0;
  for (auto i : rp.items) bytes += static_cast<double>(pool.items[i].source.size());
  double featurize_total = 0;
  for (double d : rp.featurize) featurize_total += d;
  const Summary feat = summarize(rp.featurize);
  rep.set("clfront.featurize_us.p50", feat.p50);
  rep.set("clfront.featurize_us.p99", feat.tail);
  rep.set("clfront.ns_per_byte", featurize_total * 1000.0 / bytes);
  const Summary core = summarize(rp.core);
  rep.set("core.predict_pareto_us.p50", core.p50);
  rep.set("core.predict_pareto_us.p99", core.tail);
  rep.set("core.self_us", self("core.predict_pareto"));
  rep.set("core.allocs_per_call", p50(rp.allocs));
  rep.set("ml.predict_all_us.p50", p50(rp.ml));
  rep.set("pareto.skyline_us.p50", p50(rp.skyline));
  rep.set("serve.codec.encode_req_us", p50(rp.enc_req));
  rep.set("serve.codec.decode_req_us", p50(rp.dec_req));
  rep.set("serve.codec.encode_reply_us", p50(rp.enc_reply));
  rep.set("serve.codec.decode_reply_us", p50(rp.dec_reply));
  rep.set("serve.codec.req_bytes", p50(rp.req_bytes));
  rep.set("serve.codec.reply_bytes", p50(rp.reply_bytes));
  const Summary sock = summarize(rp.socket);
  rep.set("serve.socket_rt_us.p50", sock.p50);
  rep.set("serve.socket_rt_us.p99", sock.tail);
  rep.set("serve.socket_self_us", self("serve.socket_rt"));
  const double n = static_cast<double>(kReplay);
  rep.set("proc.worker.ctxsw_per_req", (worker.second.ctxsw - worker.first.ctxsw) / n);
  rep.set("proc.worker.threads", worker.second.threads);
  const Summary bal = summarize(rp.balancer);
  rep.set("fleet.balancer_rt_us.p50", bal.p50);
  rep.set("fleet.balancer_rt_us.p99", bal.tail);
  rep.set("fleet.hop_self_us", self("fleet.balancer_rt"));
  rep.set("proc.front.cpu_us_per_req", (front.second.cpu_s - front.first.cpu_s) * 1e6 / n);
  rep.set("proc.front.ctxsw_per_req", (front.second.ctxsw - front.first.ctxsw) / n);
  rep.set("proc.front.threads", front.second.threads);

  // The workload's own system under its light and heavy streams, traced
  // and untraced: the traced light latency the self times should explain,
  // and the CPU tracing costs.
  std::vector<PhaseResult> phases;
  double cpu_untraced = 0;
  double cpu_traced = 0;
  const double slo_us = spec.slo_ms * 1000.0;
  if (o.workload == Workload::kLibraryBatch) {
    SpanLog calls;
    phases.push_back(library_open_loop(predictor, pool, refs, streams.light, streams.light_due,
                                       slo_us, &calls));
    phases.push_back(library_open_loop(predictor, pool, refs, streams.heavy, streams.heavy_due,
                                       slo_us, nullptr));
    phases.push_back(library_open_loop(predictor, pool, refs, streams.heavy, streams.heavy_due,
                                       slo_us, &calls));
    cpu_untraced = phases[1].gen_cpu_s / static_cast<double>(phases[1].sent);
    cpu_traced = phases[2].gen_cpu_s / static_cast<double>(phases[2].sent);
  } else {
    const std::string target = source ? fleet.worker_socks[0] : fleet.front;
    const std::vector<pid_t> pids =
        source ? std::vector<pid_t>{fleet.pids.at(1)} : fleet.pids;
    auto gen = must(LoadGen::connect(target, kConnections, spec.binary), "connect");
    phases.push_back(
        gen.open_loop(pool, refs, streams.light, streams.light_due, true, slo_us));
    for (bool traced : {false, true}) {
      const ProcSample before = sample_procs(pids);
      phases.push_back(
          gen.open_loop(pool, refs, streams.heavy, streams.heavy_due, traced, slo_us));
      const ProcSample after = sample_procs(pids);
      const auto& r = phases.back();
      (traced ? cpu_traced : cpu_untraced) =
          (after.cpu_s - before.cpu_s) / static_cast<double>(r.correct + r.failed);
    }
  }
  double lag_p99 = 0;
  double gen_cpu = 0;
  double sent = 0;
  double max_outstanding = 0;
  for (const auto& r : phases) {
    rep.count(r.sent, r.failed, r.first_error);
    std::string why;
    if (!r.valid(&why)) rep.note("INVALID traced phase: " + why);
    lag_p99 = std::max(lag_p99, summarize(r.lag_us).tail);
    gen_cpu += r.gen_cpu_s;
    sent += static_cast<double>(r.sent);
    max_outstanding = std::max(max_outstanding, static_cast<double>(r.max_outstanding));
  }
  const double traced_light_ms = summarize(phases[0].latency_us).p50 / 1000.0;
  rep.set("trace.lat_p50_ms.light", traced_light_ms);
  rep.set("trace.overhead_pct", 100.0 * (cpu_traced - cpu_untraced) / cpu_untraced);
  rep.set("gen.lag_p99_ms", lag_p99 / 1000.0);
  rep.set("gen.cpu_us_per_req", gen_cpu * 1e6 / sent);
  rep.set("gen.max_outstanding", max_outstanding);

  // What the self times along the workload's own path add up to: the
  // balancer round trip on fleet_features, the worker round trip on
  // worker_source, the predict_pareto call on library_batch.
  const char* root = o.workload == Workload::kFleetFeatures ? "fleet.balancer_rt"
                     : source                                ? "serve.socket_rt"
                                                             : "core.predict_pareto";
  rep.set("trace.accounted_pct", 100.0 * subtree_self_us(median, root) / 1000.0 / traced_light_ms);

  // obs: a metrics scrape through the balancer (it merges every worker's).
  {
    auto client = must(serve::SocketClient::connect_unix(fleet.front), "connect");
    std::vector<double> scrapes;
    for (int i = 0; i < 20; ++i) {
      const auto t0 = Clock::now();
      if (!client.metrics().ok()) rep.count(0, 1, "metrics scrape failed");
      scrapes.push_back(us_between(t0, Clock::now()) / 1000.0);
    }
    rep.attempted += 20;
    rep.set("obs.scrape_ms", p50(scrapes));
  }
  fleet.child.stop();

  std::filesystem::create_directories(".bench_build/trace");
  const std::string spans_path = ".bench_build/trace/" + std::string(workload_name(o.workload)) +
                                 "-seed" + std::to_string(o.seed) + ".spans.csv";
  if (log.write_csv(spans_path)) rep.note("spans written to " + spans_path);
  return rep;
}

}  // namespace e2e
