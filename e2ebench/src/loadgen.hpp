// The load generator: one thread, one poll loop, at most four non-blocking
// Unix-socket connections to the program under test.
//
// Open-loop phases send each request at its scheduled (Poisson) time
// whether or not earlier replies arrived, and time it from that scheduled
// time, so a stall is charged to every request queued behind it. Closed-loop
// phases keep a fixed window of requests outstanding per connection. Every
// reply is decoded with the public codec and compared bit for bit with the
// reference reply of the item that was sent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/predictor.hpp"
#include "requests.hpp"
#include "serve/protocol.hpp"

namespace e2e {

struct PhaseResult {
  std::size_t sent = 0;
  std::size_t correct = 0;
  std::size_t failed = 0;          // error replies, mismatches, timeouts
  std::size_t within_slo = 0;      // correct and no slower than the limit
  std::vector<double> latency_us;  // correct replies only
  std::vector<double> done_s;      // their completion times, from the phase start
  std::vector<double> lag_us;      // open loop: actual send time − scheduled time
  std::size_t max_outstanding = 0;
  std::size_t backlog_at_end = 0;  // open loop: outstanding when the schedule ended
  double seconds = 0.0;            // how long the phase sent
  double gen_cpu_s = 0.0;          // this process's CPU over the phase
  std::string first_error;
  std::vector<double> block_p50_us;  // per block, when absorbed block by block

  /// Fold one block of the same phase into this result.
  void absorb(PhaseResult block);

  /// An open-loop phase is invalid when its generator ran late or its
  /// backlog was still growing when the schedule ended.
  [[nodiscard]] bool valid(std::string* why = nullptr) const;
};

/// Generator-side validity limits.
inline constexpr double kMaxLagP99Us = 2000.0;
inline constexpr std::size_t kMaxBacklog = 512;

class LoadGen {
 public:
  /// Connect `connections` sockets to `path`; with `binary`, negotiate the
  /// binary framing on each (fails if the peer declines).
  [[nodiscard]] static common::Result<LoadGen> connect(const std::string& path,
                                                       std::size_t connections, bool binary);
  LoadGen(LoadGen&&) noexcept;
  LoadGen& operator=(LoadGen&&) noexcept;
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;
  ~LoadGen();

  /// Send items[i] at due_us[i] (µs after the phase starts), round-robin
  /// over the connections. With `trace`, every request carries a trace id.
  [[nodiscard]] PhaseResult open_loop(Pool& pool,
                                      const std::vector<core::Predictor::KernelPrediction>& refs,
                                      const std::vector<std::uint32_t>& items,
                                      const std::vector<double>& due_us, bool trace,
                                      double slo_us);

  /// Keep `window` requests outstanding per connection for `seconds`,
  /// cycling through `items`; then drain.
  [[nodiscard]] PhaseResult closed_loop(Pool& pool,
                                        const std::vector<core::Predictor::KernelPrediction>& refs,
                                        const std::vector<std::uint32_t>& items, double seconds,
                                        std::size_t window);

  struct Conn;  // one connection's buffers and in-flight requests

 private:
  explicit LoadGen(std::vector<Conn> conns, bool binary);

  std::vector<Conn> conns_;
  bool binary_ = true;
  std::uint64_t next_id_ = 1;
};

/// Decode one reply message of the given framing.
[[nodiscard]] common::Result<serve::WireResponse> decode_reply(const serve::WireMessage& message);

}  // namespace e2e
