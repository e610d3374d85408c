// ε-insensitive Support Vector Regression trained with an SMO solver
// (sequential minimal optimization with maximal-violating-pair working-set
// selection, LIBSVM-style formulation).
//
// The paper (§3.4) uses two SVR instances:
//   * speedup model:            linear kernel, C = 1000, ε = 0.1
//   * normalized-energy model:  RBF kernel, γ = 0.1, C = 1000, ε = 0.1
//
// The dual problem for ε-SVR over n samples is expressed with 2n box-
// constrained variables β (the first n play the role of α, the last n of α*)
// subject to Σ y_s β_s = 0 with labels y_s = +1 (s < n) / −1 (s ≥ n).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "ml/kernel.hpp"
#include "ml/model.hpp"

namespace repro::ml {

/// \brief Dense symmetric kernel matrix over the rows of `x`, row-major
/// float storage of size rows² — the reference the trainer's row cache is
/// tested against, and the `simd_kernel_matrix` perf case.
///
/// Batched SIMD evaluate_row per row over the upper triangle, block-tiled
/// mirror writes, parallel over the thread pool, and bit-deterministic at
/// any thread count or SIMD backend. Training does not use it: Svr::fit
/// reads K through KernelRowCache.
[[nodiscard]] std::vector<float> build_kernel_matrix_f32(const Matrix& x,
                                                         const KernelFunction& kernel);

/// Row-storage budget of the kernel row cache behind every Svr::fit. At the
/// paper's 4,240 training samples it holds 1,978 rows, more than either
/// SVR's SMO run reads (1,592 linear, 942 RBF), so no row is computed twice.
inline constexpr std::size_t kKernelCacheBytes = std::size_t{32} << 20;

/// \brief The SVR trainer's view of the kernel matrix: rows computed on
/// demand and kept in a least-recently-used cache under a byte budget, as
/// LIBSVM does (Chang & Lin, ACM TIST 2011).
///
/// A missing row i is `evaluate_row(x.row(i), x, 0, n)` cast to float, and
/// the diagonal is computed once, up front. Every cell equals the one
/// build_kernel_matrix_f32 holds, bit for bit: the kernels are bitwise
/// symmetric under the 4-lane contract and evaluate_row is free of batch
/// boundaries (docs/DETERMINISM.md). The cache keeps
/// max(2, min(n, budget / (4n))) rows; a slot's storage becomes resident
/// when it is first filled, so memory is O(min(budget, touched rows) + n).
///
/// A pointer returned by row() stays valid until its row is evicted, and
/// the next call never evicts the row returned most recently — SMO holds
/// row i while it fetches row j. `x` must outlive the cache. Not
/// thread-safe: one cache per fit.
class KernelRowCache {
 public:
  KernelRowCache(const Matrix& x, const KernelFunction& kernel, std::size_t budget_bytes);
  /// Frees the row block and hands the heap's free pages back to the
  /// system, so the rows a fit touched leave the process with its cache.
  ~KernelRowCache();
  KernelRowCache(const KernelRowCache&) = delete;
  KernelRowCache& operator=(const KernelRowCache&) = delete;

  /// Row i of K, n floats.
  [[nodiscard]] const float* row(std::size_t i);
  /// K(i, i).
  [[nodiscard]] float diag(std::size_t i) const noexcept { return diag_[i]; }

  /// Rows filled so far, counting each recomputation after an eviction.
  [[nodiscard]] std::size_t rows_computed() const noexcept { return rows_computed_; }
  /// Bytes of row storage ever written: the peak, since slots are reused.
  [[nodiscard]] std::size_t peak_bytes() const noexcept {
    return row_of_.size() * n_ * sizeof(float);
  }

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  const Matrix& x_;
  KernelFunction kernel_;
  std::size_t n_;
  std::size_t max_slots_;
  std::vector<float> diag_;
  std::vector<double> buf_;  // evaluate_row scratch, n doubles
  /// max_slots_ rows of n floats, left uninitialized: the pages of a slot
  /// become resident when its first row is written.
  std::unique_ptr<float[]> storage_;
  std::vector<std::size_t> slot_of_;     // row -> slot, or kNoSlot
  std::vector<std::size_t> row_of_;      // slot -> row, slots in use
  std::vector<std::uint64_t> last_use_;  // slot -> clock_ at its last request
  std::uint64_t clock_ = 0;
  std::size_t rows_computed_ = 0;
};

struct SvrParams {
  KernelFunction kernel = KernelFunction::linear();
  double c = 1000.0;       // box constraint (paper: C = 1000)
  double epsilon = 0.1;    // ε-insensitive tube (paper: ε = 0.1)
  double tol = 1e-3;       // KKT violation stopping tolerance
  std::int64_t max_iter = 2'000'000;  // safety cap for the SMO loop
  /// Ridge added to the kernel diagonal during training. The training sets
  /// of this domain contain near-duplicate rows (one kernel sampled at many
  /// configurations), which makes Q singular — especially with the linear
  /// kernel, whose rank is bounded by the feature dimension — and SMO
  /// convergence pathologically slow at C = 1000. A small jitter restores
  /// strict positive-definiteness at negligible cost to the fit.
  double diag_jitter = 0.05;
};

/// Result diagnostics of a training run.
struct SvrTrainingInfo {
  std::int64_t iterations = 0;
  bool converged = false;
  std::size_t support_vectors = 0;
  /// KernelRowCache diagnostics of the fit; not serialized (0 after load).
  std::size_t kernel_rows_computed = 0;
  std::size_t kernel_cache_peak_bytes = 0;
};

class Svr final : public Regressor {
 public:
  Svr() = default;
  explicit Svr(SvrParams params) : params_(params) {}

  void fit(const Matrix& x, const std::vector<double>& y) override;
  [[nodiscard]] double predict_one(std::span<const double> x) const override;
  /// Batch override: evaluates every row of `x` against the support-vector
  /// matrix in one blocked pass (parallelized over rows). Per row, kernel
  /// contributions accumulate in support-vector order, so the result is
  /// bit-identical to predict_one at any thread count.
  [[nodiscard]] std::vector<double> predict(const Matrix& x) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] bool fitted() const noexcept override { return fitted_; }
  [[nodiscard]] std::size_t num_features() const noexcept override { return sv_.cols(); }

  [[nodiscard]] const SvrParams& params() const noexcept { return params_; }
  [[nodiscard]] const SvrTrainingInfo& training_info() const noexcept { return info_; }
  [[nodiscard]] double bias() const noexcept { return b_; }
  [[nodiscard]] std::size_t num_support_vectors() const noexcept { return sv_.rows(); }
  /// Support vectors, one per row, and their coefficients α_s − α_s*: the
  /// decision function is bias() + Σ_s coefficients()[s] · k(sv_s, x).
  [[nodiscard]] const Matrix& support_vectors() const noexcept { return sv_; }
  [[nodiscard]] const std::vector<double>& coefficients() const noexcept { return sv_coef_; }

  /// Text round-trip for model persistence.
  [[nodiscard]] std::string serialize() const override;
  [[nodiscard]] static common::Result<Svr> deserialize(const std::string& text);

 private:
  SvrParams params_;
  SvrTrainingInfo info_;
  Matrix sv_;                      // support vectors, one per row
  std::vector<double> sv_coef_;    // α_i − α_i* per support vector
  double b_ = 0.0;
  bool fitted_ = false;
};

}  // namespace repro::ml
