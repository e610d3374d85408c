#include "ml/svr.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/log.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"

namespace repro::ml {

namespace {

constexpr double kTau = 1e-12;  // floor for the quadratic coefficient

/// Support-vector block length for the blocked decision function: 64
/// kernel values (one evaluate_row batch) stay L1-resident alongside the
/// matching coefficient block.
constexpr std::size_t kSvBlock = 64;

/// Kernel evaluations (rows × support vectors) under which Svr::predict
/// stays on the calling thread: below ~2^15 evaluations the pass is
/// microseconds and a fan-out costs more in wake-ups and latch waits than
/// it saves.
constexpr std::size_t kSerialEvaluations = 32768;

/// Row-block edge for the dense kernel-matrix fill; 16 rows keep the mirror
/// stripe (16 floats = one cache line per destination row) dense.
constexpr std::size_t kCacheBlock = 16;

/// Shared decision function: b + Σ_s coef[s] * k(sv_s, x), evaluated in
/// ascending kSvBlock batches — each batch is one SIMD evaluate_row plus a
/// 4-lane dot against the coefficient block, and the per-batch partial sums
/// accumulate in block order. predict_one and the batched predict both
/// funnel through this exact sequence, so they agree bit for bit.
double decision(const KernelFunction& kernel, const Matrix& sv,
                const std::vector<double>& coef, double b, std::span<const double> x,
                std::span<double> buf) noexcept {
  double acc = b;
  const std::size_t n_sv = sv.rows();
  for (std::size_t sb = 0; sb < n_sv; sb += kSvBlock) {
    const std::size_t len = std::min(kSvBlock, n_sv - sb);
    kernel.evaluate_row(x, sv, sb, sb + len, buf);
    acc += common::simd::dot({coef.data() + sb, len}, {buf.data(), len});
  }
  return acc;
}

}  // namespace

std::vector<float> build_kernel_matrix_f32(const Matrix& x, const KernelFunction& kernel) {
  // Parallel over kCacheBlock-row blocks of the upper triangle: the block
  // holding row min(r, c) computes cell (r, c) — every cell is written
  // exactly once, by one block, so chunks touch disjoint cells and the
  // matrix is bit-identical at any thread count. The triangular workload
  // is balanced by pairing block p with block nb-1-p. Each row is one
  // batched SIMD evaluate_row; the mirror (column) writes are deferred and
  // done per block with the target index innermost, so they hit
  // ~kCacheBlock*4-byte runs of each destination row instead of one float
  // every n*4 bytes — at n = 2000 the naive mirror's scattered misses cost
  // more than the kernel math.
  const std::size_t n = x.rows();
  std::vector<float> k_storage(n * n);
  float* k = k_storage.data();
  const std::size_t nb = (n + kCacheBlock - 1) / kCacheBlock;
  const auto fill_block = [&x, &kernel, k, n](std::size_t b, std::span<double> buf) {
    const std::size_t i_lo = b * kCacheBlock;
    const std::size_t i_hi = std::min(n, i_lo + kCacheBlock);
    for (std::size_t i = i_lo; i < i_hi; ++i) {
      kernel.evaluate_row(x.row(i), x, i, n, buf);
      float* row = k + i * n;
      for (std::size_t j = i; j < n; ++j) row[j] = static_cast<float>(buf[j - i]);
    }
    // Mirror the block's rows into its column stripe: k(j, i) = k(i, j).
    for (std::size_t j = i_lo + 1; j < n; ++j) {
      float* dst = k + j * n;
      const std::size_t i_top = std::min(i_hi, j);
      for (std::size_t i = i_lo; i < i_top; ++i) dst[i] = k[i * n + j];
    }
  };
  const auto body = [&fill_block, nb, n](std::size_t lo, std::size_t hi) {
    std::vector<double> buf(n);
    for (std::size_t p = lo; p < hi; ++p) {
      fill_block(p, buf);
      if (nb - 1 - p != p) fill_block(nb - 1 - p, buf);
    }
  };
  // A small kernel matrix (n*n cells) is cheaper to fill than to fan out —
  // same body over the full block range, so the cells are the same bits.
  if (n * n < 16384) {
    body(0, (nb + 1) / 2);
  } else {
    common::ThreadPool::global().parallel_for(0, (nb + 1) / 2, 1, body);
  }
  return k_storage;
}

KernelRowCache::KernelRowCache(const Matrix& x, const KernelFunction& kernel,
                               std::size_t budget_bytes)
    : x_(x),
      kernel_(kernel),
      n_(x.rows()),
      max_slots_(std::max<std::size_t>(
          2, std::min(n_, budget_bytes / (sizeof(float) * std::max<std::size_t>(n_, 1))))),
      diag_(n_),
      buf_(n_),
      storage_(std::make_unique_for_overwrite<float[]>(max_slots_ * n_)),
      slot_of_(n_, kNoSlot) {
  // Each diagonal cell is the first cell of the dense fill's row call.
  for (std::size_t i = 0; i < n_; ++i) {
    kernel_.evaluate_row(x_.row(i), x_, i, i + 1, buf_);
    diag_[i] = static_cast<float>(buf_[0]);
  }
}

KernelRowCache::~KernelRowCache() {
  storage_.reset();
#if defined(__GLIBC__)
  // glibc maps a process's first row block on its own, and freeing it
  // raises glibc's mmap and trim thresholds past the block size. Later
  // blocks therefore come from the heap, and their touched pages would stay
  // resident after the free: the trim hands them back. The block stays a
  // malloc block on purpose: the raised thresholds keep the serving path's
  // large per-request buffers on the heap, instead of mapping and faulting
  // them in on every request.
  malloc_trim(0);
#endif
}

const float* KernelRowCache::row(std::size_t i) {
  std::size_t s = slot_of_[i];
  if (s == kNoSlot) {
    if (row_of_.size() < max_slots_) {
      s = row_of_.size();
      row_of_.push_back(i);
      last_use_.push_back(0);
    } else {
      // Evict the least recently used row. The row returned last holds the
      // newest stamp and there are at least two slots, so it survives.
      s = static_cast<std::size_t>(
          std::min_element(last_use_.begin(), last_use_.end()) - last_use_.begin());
      slot_of_[row_of_[s]] = kNoSlot;
      row_of_[s] = i;
    }
    slot_of_[i] = s;
    kernel_.evaluate_row(x_.row(i), x_, 0, n_, buf_);
    float* out = storage_.get() + s * n_;
    for (std::size_t j = 0; j < n_; ++j) out[j] = static_cast<float>(buf_[j]);
    ++rows_computed_;
  }
  last_use_[s] = ++clock_;
  return storage_.get() + s * n_;
}

void Svr::fit(const Matrix& x, const std::vector<double>& y) {
  const std::size_t n = x.rows();
  if (n == 0) throw std::invalid_argument("Svr::fit: empty training set");
  if (y.size() != n) throw std::invalid_argument("Svr::fit: |y| != rows(X)");
  const double c = params_.c;
  const double eps = params_.epsilon;

  // K is read only through the row cache: diagonal cells from diag(),
  // every other cell from row(). The whole fit runs on the calling thread —
  // a 4,240-entry row costs ~10 µs, less than a fan-out would.
  KernelRowCache cache(x, params_.kernel, kKernelCacheBytes);

  // 2n-variable formulation: s < n carries label +1 (α), s >= n label −1 (α*).
  const std::size_t m = 2 * n;
  std::vector<double> beta(m, 0.0);
  std::vector<double> grad(m);   // G_s = Σ_t Q_st β_t + p_s; initially p_s
  std::vector<std::int8_t> label(m);
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] = eps - y[i];
    grad[i + n] = eps + y[i];
    label[i] = +1;
    label[i + n] = -1;
  }

  const auto q = [&](std::size_t s, std::size_t t) -> double {
    const float k = s % n == t % n ? cache.diag(s % n) : cache.row(s % n)[t % n];
    const double base = static_cast<double>(label[s]) * static_cast<double>(label[t]) *
                        static_cast<double>(k);
    return s == t ? base + params_.diag_jitter : base;
  };

  // Diagonal of Q (label signs square away), with the stabilising jitter.
  std::vector<double> q_diag(m);
  for (std::size_t s = 0; s < m; ++s) {
    q_diag[s] = static_cast<double>(cache.diag(s % n)) + params_.diag_jitter;
  }

  std::int64_t iter = 0;
  bool converged = false;
  for (; iter < params_.max_iter; ++iter) {
    // Second-order working-set selection (LIBSVM WSS2):
    // i maximizes −y_s G_s over I_up; j minimizes the quadratic gain
    // −b²/a over I_low among points violating against i.
    double g_max = -std::numeric_limits<double>::infinity();
    double g_min = std::numeric_limits<double>::infinity();
    std::size_t best_i = m;
    for (std::size_t s = 0; s < m; ++s) {
      const double v = -static_cast<double>(label[s]) * grad[s];
      const bool in_up = (label[s] > 0) ? (beta[s] < c) : (beta[s] > 0.0);
      const bool in_low = (label[s] > 0) ? (beta[s] > 0.0) : (beta[s] < c);
      if (in_up && v > g_max) {
        g_max = v;
        best_i = s;
      }
      if (in_low && v < g_min) g_min = v;
    }
    if (best_i == m || g_max - g_min < params_.tol) {
      converged = true;
      break;
    }
    const std::size_t i = best_i;
    const float* qrow_i = cache.row(i % n);
    const double yi = static_cast<double>(label[i]);

    std::size_t best_j = m;
    double best_obj = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < m; ++s) {
      const bool in_low = (label[s] > 0) ? (beta[s] > 0.0) : (beta[s] < c);
      if (!in_low) continue;
      const double v = -static_cast<double>(label[s]) * grad[s];
      const double b_val = g_max - v;
      if (b_val <= 0.0) continue;
      const double q_is = yi * static_cast<double>(label[s]) *
                          static_cast<double>(qrow_i[s % n]);
      double a = q_diag[i] + q_diag[s] - 2.0 * q_is;
      if (a <= 0.0) a = kTau;
      const double obj = -(b_val * b_val) / a;
      if (obj < best_obj) {
        best_obj = obj;
        best_j = s;
      }
    }
    if (best_j == m) {
      converged = true;
      break;
    }
    const std::size_t j = best_j;

    // Two-variable subproblem (LIBSVM update rules, equal box C).
    const double old_bi = beta[i];
    const double old_bj = beta[j];
    if (label[i] != label[j]) {
      double quad = q(i, i) + q(j, j) + 2.0 * q(i, j);
      if (quad <= 0.0) quad = kTau;
      const double delta = (-grad[i] - grad[j]) / quad;
      const double diff = beta[i] - beta[j];
      beta[i] += delta;
      beta[j] += delta;
      if (diff > 0.0) {
        if (beta[j] < 0.0) {
          beta[j] = 0.0;
          beta[i] = diff;
        }
      } else {
        if (beta[i] < 0.0) {
          beta[i] = 0.0;
          beta[j] = -diff;
        }
      }
      if (diff > 0.0) {
        if (beta[i] > c) {
          beta[i] = c;
          beta[j] = c - diff;
        }
      } else {
        if (beta[j] > c) {
          beta[j] = c;
          beta[i] = c + diff;
        }
      }
    } else {
      double quad = q(i, i) + q(j, j) - 2.0 * q(i, j);
      if (quad <= 0.0) quad = kTau;
      const double delta = (grad[i] - grad[j]) / quad;
      const double sum = beta[i] + beta[j];
      beta[i] -= delta;
      beta[j] += delta;
      if (sum > c) {
        if (beta[i] > c) {
          beta[i] = c;
          beta[j] = sum - c;
        }
      } else {
        if (beta[j] < 0.0) {
          beta[j] = 0.0;
          beta[i] = sum;
        }
      }
      if (sum > c) {
        if (beta[j] > c) {
          beta[j] = c;
          beta[i] = sum - c;
        }
      } else {
        if (beta[i] < 0.0) {
          beta[i] = 0.0;
          beta[j] = sum;
        }
      }
    }

    // Gradient maintenance: G_s += Q_si Δβ_i + Q_sj Δβ_j. The 2n entries
    // split into the two label halves (s < n carries y = +1, s >= n carries
    // y = −1 over the same kernel rows), each a SIMD-fused element-wise
    // update grad[s] += y * (li * K_i[s] + lj * K_j[s]).
    const double d_i = beta[i] - old_bi;
    const double d_j = beta[j] - old_bj;
    if (d_i == 0.0 && d_j == 0.0) continue;
    const float* row_i = cache.row(i % n);
    const float* row_j = cache.row(j % n);
    const double li = static_cast<double>(label[i]) * d_i;
    const double lj = static_cast<double>(label[j]) * d_j;
    common::simd::add_scaled_pair_f32({grad.data(), n}, row_i, row_j, li, lj, +1.0);
    common::simd::add_scaled_pair_f32({grad.data() + n, n}, row_i, row_j, li, lj, -1.0);
    // Jitter contributes only on the exact diagonal of the 2n-dim problem.
    grad[i] += params_.diag_jitter * d_i;
    grad[j] += params_.diag_jitter * d_j;
  }

  if (!converged) {
    common::log_warn() << "Svr::fit hit max_iter=" << params_.max_iter
                       << " before reaching tol=" << params_.tol;
  }

  // Bias (−rho in LIBSVM terms) from the KKT conditions.
  {
    double ub = std::numeric_limits<double>::infinity();
    double lb = -std::numeric_limits<double>::infinity();
    double sum_free = 0.0;
    std::size_t n_free = 0;
    for (std::size_t s = 0; s < m; ++s) {
      const double yg = static_cast<double>(label[s]) * grad[s];
      if (beta[s] >= c) {
        if (label[s] < 0) ub = std::min(ub, yg);
        else lb = std::max(lb, yg);
      } else if (beta[s] <= 0.0) {
        if (label[s] > 0) ub = std::min(ub, yg);
        else lb = std::max(lb, yg);
      } else {
        ++n_free;
        sum_free += yg;
      }
    }
    const double rho = n_free > 0 ? sum_free / static_cast<double>(n_free) : (ub + lb) / 2.0;
    b_ = -rho;
  }

  // Collapse to support vectors: coefficient c_i = α_i − α_i*.
  std::size_t num_sv = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (beta[i] - beta[i + n] != 0.0) ++num_sv;
  }
  sv_ = Matrix(0, x.cols());  // keeps the input width even with no support vectors
  sv_.reserve_rows(num_sv, x.cols());
  sv_coef_.clear();
  sv_coef_.reserve(num_sv);
  for (std::size_t i = 0; i < n; ++i) {
    const double coef = beta[i] - beta[i + n];
    if (coef != 0.0) {
      sv_.push_row(x.row(i));
      sv_coef_.push_back(coef);
    }
  }

  info_.iterations = iter;
  info_.converged = converged;
  info_.support_vectors = sv_.rows();
  info_.kernel_rows_computed = cache.rows_computed();
  info_.kernel_cache_peak_bytes = cache.peak_bytes();
  fitted_ = true;
}

double Svr::predict_one(std::span<const double> x) const {
  if (!fitted_) throw std::logic_error("Svr::predict_one before fit");
  if (x.size() != sv_.cols()) throw std::invalid_argument("Svr::predict: width mismatch");
  std::array<double, kSvBlock> buf;
  return decision(params_.kernel, sv_, sv_coef_, b_, x, buf);
}

std::vector<double> Svr::predict(const Matrix& x) const {
  if (!fitted_) throw std::logic_error("Svr::predict before fit");
  if (x.rows() > 0 && x.cols() != sv_.cols()) {
    throw std::invalid_argument("Svr::predict: width mismatch");
  }
  const std::size_t n_sv = sv_.rows();
  std::vector<double> out(x.rows(), b_);
  // One blocked pass over (test rows x support vectors) instead of x.rows()
  // independent predict_one loops: the support-vector block stays hot in
  // cache across the rows of a block. Per row the blocks accumulate in the
  // same ascending order as decision() — bit-identical to predict_one, and
  // deterministic under threading because rows write disjoint slots.
  const auto body = [&](std::size_t lo, std::size_t hi) {
    // Stack scratch, never thread_local: while parallel_for's caller waits
    // it runs other callers' chunks, which re-enter predict on this thread.
    std::array<double, kSvBlock> buf;
    for (std::size_t sb = 0; sb < n_sv; sb += kSvBlock) {
      const std::size_t len = std::min(kSvBlock, n_sv - sb);
      const std::span<double> k(buf.data(), len);
      for (std::size_t r = lo; r < hi; ++r) {
        params_.kernel.evaluate_row(x.row(r), sv_, sb, sb + len, k);
        out[r] += common::simd::dot({sv_coef_.data() + sb, len}, k);
      }
    }
  };
  // Rows accumulate in the same block order serial or fanned out —
  // bit-identical either way.
  if (x.rows() * n_sv < kSerialEvaluations) {
    body(0, x.rows());
  } else {
    common::ThreadPool::global().parallel_for(0, x.rows(), 32, body);
  }
  return out;
}

std::string Svr::name() const {
  return std::string("svr-") + to_string(params_.kernel.type);
}

std::string Svr::serialize() const {
  if (!fitted_) throw std::logic_error("Svr::serialize before fit");
  std::ostringstream oss;
  oss.precision(17);
  oss << "svr " << to_string(params_.kernel.type) << ' ' << params_.kernel.gamma << ' '
      << params_.kernel.coef0 << ' ' << params_.kernel.degree << ' ' << params_.c << ' '
      << params_.epsilon << ' ' << b_ << ' ' << sv_.rows() << ' ' << sv_.cols() << '\n';
  for (std::size_t i = 0; i < sv_.rows(); ++i) {
    oss << sv_coef_[i];
    for (double v : sv_.row(i)) oss << ' ' << v;
    oss << '\n';
  }
  return oss.str();
}

common::Result<Svr> Svr::deserialize(const std::string& text) {
  std::istringstream iss(text);
  std::string tag;
  std::string kernel_name;
  SvrParams params;
  double b = 0.0;
  std::size_t n_sv = 0;
  std::size_t dim = 0;
  if (!(iss >> tag >> kernel_name >> params.kernel.gamma >> params.kernel.coef0 >>
        params.kernel.degree >> params.c >> params.epsilon >> b >> n_sv >> dim) ||
      tag != "svr") {
    return common::parse_error("Svr: bad header");
  }
  const auto kt = kernel_type_from_string(kernel_name);
  if (!kt.ok()) return kt.error();
  params.kernel.type = kt.value();

  // A corrupt header must not drive the allocations below: every serialized
  // value occupies at least two bytes (digit + separator), so counts beyond
  // what the payload could hold are a parse error, not a bad_alloc.
  if (dim > text.size()) {
    return common::parse_error("Svr: dimension exceeds payload size");
  }
  if (n_sv > text.size() / (2 * (dim + 1)) + 1) {
    return common::parse_error("Svr: support-vector count exceeds payload size");
  }

  Svr model(params);
  model.b_ = b;
  model.sv_ = Matrix(0, dim);
  model.sv_.reserve_rows(n_sv, dim);
  model.sv_coef_.reserve(n_sv);
  std::vector<double> row(dim);
  for (std::size_t i = 0; i < n_sv; ++i) {
    double coef = 0.0;
    if (!(iss >> coef)) return common::parse_error("Svr: truncated SV coefficient");
    for (std::size_t d = 0; d < dim; ++d) {
      if (!(iss >> row[d])) return common::parse_error("Svr: truncated SV row");
    }
    model.sv_coef_.push_back(coef);
    model.sv_.push_row(row);
  }
  model.fitted_ = true;
  model.info_.support_vectors = n_sv;
  return model;
}

}  // namespace repro::ml
