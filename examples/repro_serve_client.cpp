// repro_serve_client — query a running repro_serve instance.
//
//   repro_serve_client --unix /tmp/repro.sock [--file kernel.cl] [--kernel NAME]
//   repro_serve_client --tcp 7070             [--file kernel.cl] [--kernel NAME]
//                      [--pipeline N]
//
// Sends the kernel source (a built-in SAXPY demo when --file is omitted) as
// a predict_source request — features are extracted on the server's worker
// shards — and prints the predicted Pareto-optimal frequency
// configurations. --pipeline N sends N copies back-to-back on one
// connection before reading any response, exercising the server's
// pipelined decode (responses must come back in request order).
//
// --dump prints the prediction as exact machine-readable rows instead of
// the pretty table: doubles with %.17g round-trip bit-exactly, so two
// --dump outputs are byte-identical iff the predictions are bit-identical.
// The fleet smoke test diffs a direct repro_serve against the balancer at
// several worker counts this way.
//
// --deadline-ms X stamps every request with a relative deadline; the server
// answers "deadline_exceeded" (retryable) instead of predicting late.
//
// --pipeline N --dump switches to the chaos-soak report: one line per
// request — "req I ok <fnv1a-of-dump>" / "req I retryable <msg>" /
// "req I error <msg>" — and exits 0 iff no request hit a NON-retryable
// error. Identical hashes == bit-identical predictions; retryable errors
// (worker draining, overload shed, expired deadline) are expected under
// chaos and do not fail the burst.
//
// --metrics prints the server's metrics-registry exposition instead of
// predicting — every counter it keeps (against a balancer: merged across
// the fleet).
//
// --trace asks every hop for per-stage timings and prints the stage table
// on stderr (stderr so --dump stdout stays byte-comparable). In pipeline
// mode the table of the last-read response is printed after the burst —
// the smoke/chaos scripts use that to show where a failing fleet spends
// its time.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"

using namespace repro;

namespace {

const char* kDemoKernel = R"CL(
kernel void saxpy_demo(global float* x, global float* y, float a, int n) {
  int gid = get_global_id(0);
  if (gid < n) y[gid] = a * x[gid] + y[gid];
}
)CL";

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--unix PATH | --tcp PORT) [--file kernel.cl] [--kernel NAME]\n"
               "          [--pipeline N] [--dump] [--deadline-ms X] [--trace]\n"
               "          [--metrics]\n",
               argv0);
  return 2;
}

void print_last_trace(serve::SocketClient& client) {
  if (client.last_trace().has_value()) {
    std::fputs(obs::format_trace_table(*client.last_trace()).c_str(), stderr);
  }
}

/// The exact --dump text of one prediction (the bit-identity format).
std::string dump_text(const core::Predictor::KernelPrediction& prediction) {
  std::string out = "kernel " + prediction.kernel + "\n";
  char row[160];
  for (const auto& p : prediction.pareto) {
    std::snprintf(row, sizeof row, "%d %d %.17g %.17g %d\n", p.config.core_mhz,
                  p.config.mem_mhz, p.speedup, p.energy, p.heuristic ? 1 : 0);
    out += row;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path;
  int tcp_port = -1;
  std::string file;
  std::string kernel_name;
  std::size_t pipeline = 0;
  bool dump = false;
  bool trace = false;
  bool want_metrics = false;
  double deadline_ms = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--unix" && has_value) {
      unix_path = argv[++i];
    } else if (arg == "--tcp" && has_value) {
      tcp_port = std::atoi(argv[++i]);
    } else if (arg == "--file" && has_value) {
      file = argv[++i];
    } else if (arg == "--kernel" && has_value) {
      kernel_name = argv[++i];
    } else if (arg == "--pipeline" && has_value) {
      pipeline = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--dump") {
      dump = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--metrics") {
      want_metrics = true;
    } else if (arg == "--deadline-ms" && has_value) {
      deadline_ms = std::strtod(argv[++i], nullptr);
    } else {
      return usage(argv[0]);
    }
  }
  if (unix_path.empty() && tcp_port < 0) return usage(argv[0]);

  std::string source = kDemoKernel;
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", file.c_str());
      return 1;
    }
    std::ostringstream oss;
    oss << in.rdbuf();
    source = oss.str();
  }

  auto client = unix_path.empty() ? serve::SocketClient::connect_tcp(tcp_port)
                                  : serve::SocketClient::connect_unix(unix_path);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.error().to_string().c_str());
    return 1;
  }
  if (deadline_ms > 0.0) client.value().set_deadline_ms(deadline_ms);
  if (trace) client.value().set_trace_enabled(true);

  if (want_metrics) {
    auto metrics = client.value().metrics();
    if (!metrics.ok()) {
      std::fprintf(stderr, "metrics: %s\n", metrics.error().to_string().c_str());
      return 1;
    }
    std::fputs(metrics.value().text.c_str(), stdout);
    return 0;
  }

  if (pipeline > 0) {
    const std::vector<core::Predictor::SourceRequest> sources(
        pipeline, {source, kernel_name});
    const auto responses = client.value().predict_source_many(sources);
    if (trace) print_last_trace(client.value());
    if (dump) {
      // Chaos-soak report: every request accounted for, retryable errors
      // expected (worker draining, overload shed, expired deadline) — only
      // a non-retryable error or a lost request fails the burst.
      std::size_t ok = 0, retryable = 0, failed = 0;
      for (std::size_t i = 0; i < responses.size(); ++i) {
        const auto& r = responses[i];
        if (r.ok()) {
          ++ok;
          std::printf("req %zu ok %016llx\n", i,
                      static_cast<unsigned long long>(
                          common::fnv1a(dump_text(r.value()))));
        } else if (common::is_retryable(r.error().code)) {
          ++retryable;
          std::printf("req %zu retryable %s\n", i, r.error().to_string().c_str());
        } else {
          ++failed;
          std::printf("req %zu error %s\n", i, r.error().to_string().c_str());
        }
      }
      std::printf("pipelined: %zu ok, %zu retryable, %zu failed of %zu\n", ok,
                  retryable, failed, responses.size());
      return failed == 0 ? 0 : 1;
    }
    std::size_t ok = 0;
    for (const auto& r : responses) {
      if (r.ok()) {
        ++ok;
      } else {
        std::fprintf(stderr, "pipelined predict: %s\n", r.error().to_string().c_str());
      }
    }
    std::printf("pipelined: %zu/%zu responses OK, in request order\n", ok,
                responses.size());
    return ok == responses.size() ? 0 : 1;
  }

  auto prediction = client.value().predict_source(source, kernel_name);
  if (trace) print_last_trace(client.value());
  if (!prediction.ok()) {
    std::fprintf(stderr, "predict: %s\n", prediction.error().to_string().c_str());
    return 1;
  }

  if (dump) {
    std::printf("kernel %s\n", prediction.value().kernel.c_str());
    for (const auto& p : prediction.value().pareto) {
      std::printf("%d %d %.17g %.17g %d\n", p.config.core_mhz, p.config.mem_mhz,
                  p.speedup, p.energy, p.heuristic ? 1 : 0);
    }
    return 0;
  }

  std::printf("kernel %s — predicted Pareto-optimal configurations:\n",
              prediction.value().kernel.c_str());
  std::printf("%-28s %10s %14s\n", "configuration", "speedup", "norm. energy");
  for (const auto& p : prediction.value().pareto) {
    std::printf("core %4d MHz / mem %4d MHz   %8.3f %14.3f%s\n", p.config.core_mhz,
                p.config.mem_mhz, p.speedup, p.energy,
                p.heuristic ? "   (mem-L heuristic)" : "");
  }
  return 0;
}
