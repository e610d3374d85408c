#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <optional>

#include "run.hpp"
#include "stats.hpp"
#include "system.hpp"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

/// Record one open-loop phase's median latency (the median of its blocks'
/// medians), its pooled percentiles and block medians as notes (tails are
/// too noisy on a shared host to gate on; slo_frac.heavy is the gated view
/// of the tail) and its validity.
void report_latency(Report& rep, const char* phase, const PhaseResult& r) {
  const Summary p90 = summarize(r.latency_us, 90.0);
  const Summary p99 = summarize(r.latency_us, 99.0);
  rep.set(std::string("lat_p50_ms.") + phase, median(r.block_p50_us) / 1000.0);
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: sent %zu, correct %zu, latency over n=%zu: p50 %.4f ms, p90 %.4f ms, "
                "p%.2f %.4f ms%s; generator lag p99 %.4f ms",
                phase, r.sent, r.correct, p99.n, p99.p50 / 1000.0, p90.tail / 1000.0, p99.tail_p,
                p99.tail / 1000.0, p99.tail_supported ? "" : " (p99 unsupported)",
                summarize(r.lag_us).tail / 1000.0);
  rep.note(line);
  std::string blocks = std::string(phase) + ": p50 of each block, ms:";
  for (double p : r.block_p50_us) {
    std::snprintf(line, sizeof line, " %.3f", p / 1000.0);
    blocks += line;
  }
  rep.note(blocks);
  std::string why;
  if (!r.valid(&why)) rep.note(std::string("INVALID phase ") + phase + ": " + why);
  rep.count(r.sent, r.failed, r.first_error);
}

void note_setups(Report& rep, const std::vector<double>& setups) {
  std::string line = "setup_s over " + std::to_string(setups.size()) + " cold starts:";
  for (double s : setups) line += " " + std::to_string(s);
  rep.note(line + " s");
}

Report run_library(const Options& o, Pool& pool, const Streams& s) {
  const auto& spec = spec_for(o.workload);
  Report rep;
  std::vector<double> setups;
  std::optional<core::Predictor> predictor;
  for (int k = 0; k < kSetups; ++k) {
    predictor.reset();
    const auto t0 = Clock::now();
    auto built = must(core::Predictor::builder().build(), "Predictor::build");
    auto first = built.predict_pareto(pool.items[s.probe].features);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    auto second = built.predict_pareto(pool.items[s.probe].features);
    const bool same = first.ok() && second.ok() &&
                      identical({"", first.value()}, {"", second.value()});
    rep.count(1, same ? 0 : 1, "setup probe differs from a second, direct call");
    predictor.emplace(std::move(built));
  }
  const auto refs = must(reference_replies(*predictor, pool), "reference replies");
  const double slo_us = spec.slo_ms * 1000.0;

  const auto warm_due = poisson_schedule(phase_seed(o.seed, 8), spec.light_rate, 0.3);
  const auto warm = library_open_loop(*predictor, pool, refs, s.warmup, warm_due, slo_us, nullptr);
  rep.count(warm.sent, warm.failed, warm.first_error);
  const auto light_blocks = split_blocks(s.light, s.light_due, kOpenLoopShare * o.seconds);
  const auto heavy_blocks = split_blocks(s.heavy, s.heavy_due, kOpenLoopShare * o.seconds);
  const double slice_s = kCapacityShare * o.seconds / static_cast<double>(light_blocks.size());
  PhaseResult light;
  PhaseResult heavy;
  PhaseResult cap;
  std::vector<double> cap_rates;
  for (std::size_t k = 0; k < light_blocks.size(); ++k) {
    const Block& lb = light_blocks[k];
    const Block& hb = heavy_blocks[k];
    light.absorb(library_open_loop(*predictor, pool, refs, lb.items, lb.due_us, slo_us, nullptr));
    heavy.absorb(library_open_loop(*predictor, pool, refs, hb.items, hb.due_us, slo_us, nullptr));
    PhaseResult slice =
        library_capacity(*predictor, pool, refs, s.capacity, slice_s, kLibraryBatchSize);
    cap_rates.push_back(rate_within(slice.done_s, slice.seconds));
    cap.absorb(std::move(slice));
  }
  report_latency(rep, "light", light);
  report_latency(rep, "heavy", heavy);
  rep.count(cap.sent, cap.failed, cap.first_error);

  rep.set("setup_s", median(setups));
  rep.set("capacity_rps", median(cap_rates));
  rep.set("slo_frac.heavy",
          static_cast<double>(heavy.within_slo) / static_cast<double>(heavy.sent));
  rep.set("cpu_us_per_req", cap.gen_cpu_s * 1e6 / static_cast<double>(cap.correct + cap.failed));
  rep.set("peak_rss_mb", sample_proc(::getpid()).vm_hwm_mb);
  note_setups(rep, setups);
  return rep;
}

Report run_server(const Options& o, Pool& pool, const Streams& s) {
  const auto& spec = spec_for(o.workload);
  const bool fleet = o.workload == Workload::kFleetFeatures;
  Report rep;
  RunDir run(std::string(workload_name(o.workload)) + "-" + std::to_string(o.seed));
  std::vector<double> setups;
  std::vector<common::Result<core::Predictor::KernelPrediction>> firsts;
  std::optional<Server> server;
  for (int k = 0; k < kSetups; ++k) {
    if (server) server->child.stop();
    server.emplace(must(start_server(fleet, run.sub("s" + std::to_string(k)), pool.items[s.probe]),
                        "cold start"));
    setups.push_back(server->setup_s);
    firsts.push_back(server->first_reply);
  }
  const auto reference = must(reference_from_cache(server->dir), "reference model");
  const auto refs = must(reference_replies(reference, pool), "reference replies");
  for (const auto& first : firsts) {
    const bool same = first.ok() && identical(first.value(), refs[s.probe]);
    rep.count(1, same ? 0 : 1,
              first.ok() ? "setup reply differs from the reference" : first.error().to_string());
  }

  auto gen = must(LoadGen::connect(server->front, kConnections, spec.binary), "connect");
  const double slo_us = spec.slo_ms * 1000.0;
  const auto warm = gen.closed_loop(pool, refs, s.warmup, 0.5, 4);
  rep.count(warm.sent, warm.failed, warm.first_error);
  const auto light_blocks = split_blocks(s.light, s.light_due, kOpenLoopShare * o.seconds);
  const auto heavy_blocks = split_blocks(s.heavy, s.heavy_due, kOpenLoopShare * o.seconds);
  const double slice_s = kCapacityShare * o.seconds / static_cast<double>(light_blocks.size());
  PhaseResult light;
  PhaseResult heavy;
  PhaseResult cap;
  std::vector<double> cap_rates;
  double heavy_cpu_s = 0.0;  // serving processes' CPU over the heavy blocks
  for (std::size_t k = 0; k < light_blocks.size(); ++k) {
    const Block& lb = light_blocks[k];
    const Block& hb = heavy_blocks[k];
    light.absorb(gen.open_loop(pool, refs, lb.items, lb.due_us, false, slo_us));
    const ProcSample before = sample_procs(server->pids);
    heavy.absorb(gen.open_loop(pool, refs, hb.items, hb.due_us, false, slo_us));
    const ProcSample after = sample_procs(server->pids);
    if (!before.ok || !after.ok) throw std::runtime_error("a serving process vanished");
    heavy_cpu_s += after.cpu_s - before.cpu_s;
    PhaseResult slice = gen.closed_loop(pool, refs, s.capacity, slice_s, kWindow);
    cap_rates.push_back(rate_within(slice.done_s, slice_s));
    cap.absorb(std::move(slice));
  }
  report_latency(rep, "light", light);
  report_latency(rep, "heavy", heavy);
  rep.count(cap.sent, cap.failed, cap.first_error);
  const ProcSample end = sample_procs(server->pids);
  server->child.stop();
  if (!end.ok) throw std::runtime_error("a serving process vanished");

  rep.set("setup_s", median(setups));
  rep.set("capacity_rps", median(cap_rates));
  rep.set("slo_frac.heavy",
          static_cast<double>(heavy.within_slo) / static_cast<double>(heavy.sent));
  rep.set("cpu_us_per_req",
          heavy_cpu_s * 1e6 / static_cast<double>(heavy.correct + heavy.failed));
  rep.set("peak_rss_mb", end.vm_hwm_mb);
  note_setups(rep, setups);
  return rep;
}

}  // namespace

Report run_end_to_end(const Options& o) {
  Pool pool = load_pool(o.workload);
  const Streams s = make_streams(o, pool);
  return o.workload == Workload::kLibraryBatch ? run_library(o, pool, s) : run_server(o, pool, s);
}

}  // namespace e2e
