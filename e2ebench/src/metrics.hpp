// Every metric the benchmark reports, by name and unit — the single list
// the output, the tests and BENCHMARK.json agree on.
#pragma once

#include <string_view>

namespace e2e {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  /// Per-layer metrics: the end-to-end metric (and workload) a change to
  /// this layer should move.
  std::string_view moves = {};
};

/// Reported with --trace 0, on every workload.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"capacity_rps", "req/s"},
    {"lat_p50_ms.light", "ms"},
    {"lat_p50_ms.heavy", "ms"},
    {"slo_frac.heavy", "share"},
    {"cpu_us_per_req", "us"},
    {"peak_rss_mb", "MB"},
};

/// Reported with --trace 1, on every workload.
inline constexpr MetricDef kPerLayer[] = {
    {"clfront.featurize_us.p50", "us", "worker_source capacity_rps, cpu_us_per_req, lat_p50_ms.*"},
    {"clfront.featurize_us.p99", "us", "worker_source slo_frac.heavy"},
    {"clfront.ns_per_byte", "ns/B", "worker_source capacity_rps, cpu_us_per_req"},
    {"core.predict_pareto_us.p50", "us", "fleet_features, worker_source lat_p50_ms.*, capacity_rps"},
    {"core.predict_pareto_us.p99", "us", "fleet_features, worker_source slo_frac.heavy"},
    {"core.self_us", "us", "fleet_features cpu_us_per_req, lat_p50_ms.light"},
    {"core.allocs_per_call", "count", "fleet_features cpu_us_per_req, capacity_rps"},
    {"ml.predict_all_us.p50", "us", "fleet_features, worker_source lat_p50_ms.*, cpu_us_per_req"},
    {"pareto.skyline_us.p50", "us", "fleet_features cpu_us_per_req"},
    {"serve.codec.encode_req_us", "us", "cpu_us_per_req on the workload whose framing changed"},
    {"serve.codec.decode_req_us", "us", "cpu_us_per_req on the workload whose framing changed"},
    {"serve.codec.encode_reply_us", "us", "cpu_us_per_req on the workload whose framing changed"},
    {"serve.codec.decode_reply_us", "us", "cpu_us_per_req on the workload whose framing changed"},
    {"serve.codec.req_bytes", "B", "cpu_us_per_req on the workload whose framing changed"},
    {"serve.codec.reply_bytes", "B", "cpu_us_per_req on the workload whose framing changed"},
    {"serve.service_us.p50", "us", "fleet_features lat_p50_ms.heavy, capacity_rps"},
    {"serve.service_us.p99", "us", "fleet_features slo_frac.heavy"},
    {"serve.service_seq_us.p50", "us", "fleet_features lat_p50_ms.light"},
    {"serve.batch_size.mean", "count", "fleet_features capacity_rps"},
    {"serve.queue_wait_us.p50", "us", "fleet_features lat_p50_ms.heavy"},
    {"serve.batch_wait_us.p50", "us", "fleet_features lat_p50_ms.heavy"},
    {"serve.socket_rt_us.p50", "us", "fleet_features, worker_source lat_p50_ms.light"},
    {"serve.socket_rt_us.p99", "us", "fleet_features, worker_source slo_frac.heavy"},
    {"serve.socket_self_us", "us", "fleet_features, worker_source lat_p50_ms.light, cpu_us_per_req"},
    {"proc.worker.ctxsw_per_req", "count", "fleet_features, worker_source cpu_us_per_req"},
    {"proc.worker.threads", "count", "fleet_features, worker_source peak_rss_mb"},
    {"fleet.balancer_rt_us.p50", "us", "fleet_features lat_p50_ms.light only"},
    {"fleet.balancer_rt_us.p99", "us", "fleet_features slo_frac.heavy only"},
    {"fleet.hop_self_us", "us", "fleet_features lat_p50_ms.light only"},
    {"proc.front.cpu_us_per_req", "us", "fleet_features cpu_us_per_req only"},
    {"proc.front.ctxsw_per_req", "count", "fleet_features cpu_us_per_req only"},
    {"proc.front.threads", "count", "fleet_features peak_rss_mb only"},
    {"obs.scrape_ms", "ms", "fleet_features cpu_us_per_req"},
    {"trace.overhead_pct", "%", "fleet_features cpu_us_per_req"},
    {"trace.lat_p50_ms.light", "ms", "the traced counterpart of lat_p50_ms.light"},
    {"trace.accounted_pct", "%", "share of trace.lat_p50_ms.light the self times explain"},
    {"setup.suite_gen_s", "s", "setup_s on every workload"},
    {"setup.measure_s", "s", "setup_s on every workload"},
    {"setup.measure_calls", "count", "setup_s on every workload"},
    {"setup.fit_s", "s", "setup_s on every workload"},
    {"setup.model_save_ms", "ms", "setup_s on every workload"},
    {"setup.model_load_ms", "ms", "setup_s on every workload"},
    {"setup.coord_s", "s", "fleet_features setup_s only"},
    {"gen.lag_p99_ms", "ms", "validity of every run"},
    {"gen.cpu_us_per_req", "us", "validity of every run"},
    {"gen.max_outstanding", "count", "validity of every run"},
};

}  // namespace e2e
