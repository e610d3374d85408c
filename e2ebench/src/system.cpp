#include "system.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>

#include "serve/model_cache.hpp"

namespace e2e {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

Pool load_pool(Workload w) {
  return must(w == Workload::kWorkerSource ? source_pool() : feature_pool(), "request pool");
}

Streams make_streams(const Options& o, const Pool& pool) {
  const auto& spec = spec_for(o.workload);
  Streams s;
  s.light_due = poisson_schedule(phase_seed(o.seed, 1), spec.light_rate,
                                 kOpenLoopShare * o.seconds);
  s.light = draw(pool, phase_seed(o.seed, 2), s.light_due.size());
  s.heavy_due = poisson_schedule(phase_seed(o.seed, 3), spec.heavy_rate,
                                 kOpenLoopShare * o.seconds);
  s.heavy = draw(pool, phase_seed(o.seed, 4), s.heavy_due.size());
  s.capacity = draw(pool, phase_seed(o.seed, 5), 8192);
  s.warmup = draw(pool, phase_seed(o.seed, 6), 1024);
  s.probe = draw(pool, phase_seed(o.seed, 7), 1)[0];
  return s;
}

std::vector<Block> split_blocks(const std::vector<std::uint32_t>& items,
                                const std::vector<double>& due_us, double seconds) {
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(seconds / kBlockSeconds)));
  const double block_us = seconds * 1e6 / static_cast<double>(n);
  std::vector<Block> blocks(n);
  for (std::size_t i = 0; i < due_us.size(); ++i) {
    const auto k = std::min(n - 1, static_cast<std::size_t>(due_us[i] / block_us));
    blocks[k].items.push_back(items[i]);
    blocks[k].due_us.push_back(due_us[i] - static_cast<double>(k) * block_us);
  }
  return blocks;
}

RunDir::RunDir(const std::string& name)
    : path_(".bench_build/run/" + name + "-" + std::to_string(::getpid())) {
  fs::remove_all(path_);
  fs::create_directories(path_);
}

RunDir::~RunDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

std::string RunDir::sub(const std::string& name) const {
  const std::string dir = path_ + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

common::Result<core::Predictor::KernelPrediction> predict_item(serve::SocketClient& client,
                                                               const Item& item) {
  if (item.request.kind == serve::RequestKind::kPredictSource) {
    return client.predict_source(item.source, item.kernel);
  }
  return client.predict(item.request.kernel, *item.request.features);
}

common::Result<Server> start_server(bool fleet, const std::string& dir, const Item& probe) {
  Server server;
  server.dir = dir;
  std::vector<std::string> argv;
  if (fleet) {
    argv = {E2E_FLEET_BIN, "--unix", "front.sock", "--workers", "2", "--dir", ".",
            "--cache-dir", "cache"};
    server.front = dir + "/front.sock";
  } else {
    argv = {E2E_SERVE_BIN, "--unix", "serve.sock", "--cache-dir", "cache"};
    server.front = dir + "/serve.sock";
  }
  const auto t0 = Clock::now();
  auto child = Child::spawn(argv, dir, dir + "/stderr.log");
  if (!child.ok()) return child.error();
  server.child = std::move(child).take();
  if (auto ready = server.child.wait_line("READY", std::chrono::seconds(120)); !ready.ok()) {
    return ready.error();
  }
  serve::ConnectOptions connect;
  connect.io_timeout = std::chrono::milliseconds(30000);
  auto client = serve::SocketClient::connect_unix(server.front, connect);
  if (!client.ok()) return client.error();
  server.first_reply = predict_item(client.value(), probe);
  server.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();

  server.pids.push_back(server.child.pid());
  if (fleet) {
    for (pid_t pid : worker_pids(server.child.lines())) server.pids.push_back(pid);
    for (std::size_t i = 0; i + 1 < server.pids.size(); ++i) {
      server.worker_socks.push_back(dir + "/worker-" + std::to_string(i) + ".sock");
    }
  } else {
    server.worker_socks.push_back(server.front);
  }
  return server;
}

common::Result<core::Predictor> reference_from_cache(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir + "/cache")) {
    if (entry.path().extension() != ".model") continue;
    auto model = serve::load_cached_model(entry.path().string());
    if (!model.ok()) return model.error();
    return core::Predictor::from_model(
        std::make_shared<const core::FrequencyModel>(std::move(model).take()));
  }
  return common::not_found("no saved model under " + dir + "/cache");
}

namespace {

double since_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

void record_reply(PhaseResult& r, const common::Result<std::vector<core::PredictedPoint>>& got,
                  const core::Predictor::KernelPrediction& ref, const std::string& kernel,
                  double latency_us, double slo_us) {
  if (got.ok() && identical({kernel, got.value()}, ref)) {
    ++r.correct;
    r.latency_us.push_back(latency_us);
    if (latency_us <= slo_us) ++r.within_slo;
  } else {
    ++r.failed;
    if (r.first_error.empty()) {
      r.first_error = got.ok() ? "differs from a second, direct call" : got.error().to_string();
    }
  }
}

}  // namespace

PhaseResult library_open_loop(const core::Predictor& predictor, const Pool& pool,
                              const std::vector<core::Predictor::KernelPrediction>& refs,
                              const std::vector<std::uint32_t>& items,
                              const std::vector<double>& due_us, double slo_us,
                              SpanLog* spans) {
  PhaseResult r;
  r.latency_us.reserve(due_us.size());
  r.lag_us.reserve(due_us.size());
  const double cpu0 = self_cpu_s();
  const auto t0 = Clock::now();
  double prev_end = 0.0;
  for (std::size_t i = 0; i < due_us.size(); ++i) {
    const double due = due_us[i];
    // Spin rather than sleep: a sleeping vCPU on a busy host can wake
    // milliseconds late, and that lateness would read as call latency.
    while (since_us(t0) < due) {
    }
    const std::uint32_t idx = items[i % items.size()];
    const Item& item = pool.items[idx];
    const double start = since_us(t0);
    auto got = predictor.predict_pareto(item.features);
    const double end = since_us(t0);
    if (spans != nullptr) spans->add("core.predict_pareto", i, -1, start, end);
    ++r.sent;
    // The caller is the generator: only a start later than both the due
    // time and the previous call's end is the generator running late.
    r.lag_us.push_back(start - std::max(due, prev_end));
    prev_end = end;
    r.max_outstanding = 1;  // one caller, one call at a time
    record_reply(r, got, refs[idx], item.features.kernel_name, end - due, slo_us);
  }
  r.seconds = since_us(t0) / 1e6;
  r.gen_cpu_s = self_cpu_s() - cpu0;
  return r;
}

PhaseResult library_capacity(const core::Predictor& predictor, const Pool& pool,
                             const std::vector<core::Predictor::KernelPrediction>& refs,
                             const std::vector<std::uint32_t>& items, double seconds,
                             std::size_t batch) {
  PhaseResult r;
  std::vector<clfront::StaticFeatures> features(batch);
  std::vector<std::uint32_t> picked(batch);
  std::size_t cursor = 0;
  const double cpu0 = self_cpu_s();
  const auto t0 = Clock::now();
  while (since_us(t0) < seconds * 1e6) {
    for (std::size_t k = 0; k < batch; ++k) {
      picked[k] = items[cursor++ % items.size()];
      features[k] = pool.items[picked[k]].features;
    }
    auto got = predictor.predict_batch(features);
    const double done = since_us(t0) / 1e6;
    r.sent += batch;
    for (std::size_t k = 0; k < batch; ++k) {
      const bool good = got.ok() && identical(got.value()[k], refs[picked[k]]);
      good ? ++r.correct : ++r.failed;
      if (good) r.done_s.push_back(done);
      if (!good && r.first_error.empty()) {
        r.first_error = got.ok() ? "predict_batch differs from a direct call"
                                 : got.error().to_string();
      }
    }
  }
  r.seconds = since_us(t0) / 1e6;
  r.gen_cpu_s = self_cpu_s() - cpu0;
  return r;
}

}  // namespace e2e
