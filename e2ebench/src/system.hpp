// The systems under test and the pieces every run shares: starting
// repro_fleet / repro_serve cold, building the reference predictor from the
// model the server saved, and the in-process open loop of library_batch.
#pragma once

#include <sys/types.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/predictor.hpp"
#include "loadgen.hpp"
#include "proc.hpp"
#include "requests.hpp"
#include "run.hpp"
#include "serve/client.hpp"
#include "spans.hpp"

namespace e2e {

/// The value of `r`, or a runtime_error naming `what`.
template <typename T>
T must(common::Result<T> r, const char* what) {
  if (!r.ok()) throw std::runtime_error(std::string(what) + ": " + r.error().to_string());
  return std::move(r).take();
}

[[nodiscard]] Pool load_pool(Workload w);

/// The request streams of one run: the same for the end-to-end and the
/// traced run of one seed.
struct Streams {
  std::vector<double> light_due, heavy_due;  // µs from each phase's start
  std::vector<std::uint32_t> light, heavy, capacity, warmup;
  std::uint32_t probe = 0;  // the setup probe's item
};

[[nodiscard]] Streams make_streams(const Options& o, const Pool& pool);

/// One block of an open-loop phase: the requests due in it, with due times
/// relative to the block's start.
struct Block {
  std::vector<std::uint32_t> items;
  std::vector<double> due_us;
};

/// Cut a phase of `seconds` into equal blocks of about kBlockSeconds.
[[nodiscard]] std::vector<Block> split_blocks(const std::vector<std::uint32_t>& items,
                                              const std::vector<double>& due_us,
                                              double seconds);

/// A scratch directory under .bench_build/run, removed on destruction.
class RunDir {
 public:
  explicit RunDir(const std::string& name);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  /// A fresh subdirectory.
  [[nodiscard]] std::string sub(const std::string& name) const;

 private:
  std::string path_;
};

/// A running repro_fleet (front + workers) or lone repro_serve.
struct Server {
  Child child;
  std::string dir;                       // its working directory
  std::string front;                     // the socket clients use
  std::vector<std::string> worker_socks; // fleet: each worker's own socket
  std::vector<pid_t> pids;               // serving processes, front first
  double setup_s = 0.0;                  // spawn to first reply
  common::Result<core::Predictor::KernelPrediction> first_reply =
      common::internal_error("no reply");
};

/// Spawn cold in `dir` (empty model cache), wait for READY, send `probe`
/// over a fresh connection and time spawn → reply.
[[nodiscard]] common::Result<Server> start_server(bool fleet, const std::string& dir,
                                                  const Item& probe);

/// The model a server saved into `<dir>/cache`, as a reference predictor.
[[nodiscard]] common::Result<core::Predictor> reference_from_cache(const std::string& dir);

/// One blocking predict of `item` over `client` (framing as negotiated).
[[nodiscard]] common::Result<core::Predictor::KernelPrediction> predict_item(
    serve::SocketClient& client, const Item& item);

/// library_batch's open loop: one caller thread calls predict_pareto at
/// each scheduled time (busy-waiting until then) and times each call
/// from its scheduled time. With `spans`, each call is recorded as a span.
[[nodiscard]] PhaseResult library_open_loop(const core::Predictor& predictor, const Pool& pool,
                                            const std::vector<core::Predictor::KernelPrediction>& refs,
                                            const std::vector<std::uint32_t>& items,
                                            const std::vector<double>& due_us, double slo_us,
                                            SpanLog* spans);

/// library_batch's capacity phase: predict_batch over `batch`-sized slices
/// of `items` for `seconds`.
[[nodiscard]] PhaseResult library_capacity(const core::Predictor& predictor, const Pool& pool,
                                           const std::vector<core::Predictor::KernelPrediction>& refs,
                                           const std::vector<std::uint32_t>& items,
                                           double seconds, std::size_t batch);

}  // namespace e2e
