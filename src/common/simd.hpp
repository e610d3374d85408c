/// \file simd.hpp
/// \brief Portable fixed-width SIMD layer for the inner math kernels.
///
/// Every hot inner loop of the prediction stack (ml::dot,
/// ml::squared_distance, the RBF/polynomial kernel evaluations, the blocked
/// Matrix::multiply micro-kernel, the MinMaxScaler passes, the SVR gradient
/// update) bottoms out here. Two backends implement the same operations:
///
///  - **std-simd** — `std::experimental::simd` with a fixed 4-lane double
///    vector, compiled in when `__has_include(<experimental/simd>)` and the
///    build did not pass `-DREPRO_SIMD=OFF`.
///  - **unrolled** — a manual 4-accumulator scalar unroll, always compiled,
///    used when std-simd is unavailable or disabled at runtime.
///
/// **Determinism contract.** Both backends perform the *identical* sequence
/// of IEEE-754 operations per output value:
///
///  1. Reductions keep `kLanes` (= 4) independent accumulators; main-loop
///     element `i` always lands in accumulator lane `i % 4`.
///  2. The tail (`n % 4` trailing elements) is folded element `t` into
///     accumulator lane `t`, in ascending order.
///  3. The final horizontal reduction is the fixed order
///     `((acc0 + acc1) + acc2) + acc3`.
///  4. Element-wise operations (scaling, min/max, fused gradient updates)
///     apply the same per-element expression in both backends.
///
/// Consequently the two backends return **bit-identical** results, the
/// `REPRO_SIMD` runtime toggle can never change an output, and callers keep
/// the thread-count invariance guaranteed by common::ThreadPool (see
/// docs/DETERMINISM.md). tests/simd_test.cpp asserts the equivalence over
/// aligned, unaligned and tail-remainder lengths.
///
/// Note the 4-lane layout is itself a *different* summation order than a
/// plain sequential loop, so results differ from the pre-SIMD scalar code in
/// the last ulps — deliberately: the lane layout is the contract, and it is
/// what both backends and every thread count reproduce. The pre-SIMD
/// sequential loops survive as `detail::*_sequential` for benchmarking.
#pragma once

#include <cstddef>
#include <span>

namespace repro::common::simd {

/// Fixed logical vector width (doubles per lane group) shared by both
/// backends. Independent of the hardware register width: on SSE2 the
/// std-simd backend lowers a 4-lane group to two 2-wide registers, on AVX2
/// to one 4-wide register — the operation order per lane is unchanged.
inline constexpr std::size_t kLanes = 4;

/// \brief True when the std::experimental::simd backend was compiled in.
///
/// False when the header is missing or the build passed `-DREPRO_SIMD=OFF`.
[[nodiscard]] bool available() noexcept;

/// \brief Runtime dispatch flag: use the std-simd backend when available?
///
/// Initialised once from the `REPRO_SIMD` environment variable — `0`, `off`
/// or `false` (case-insensitive) disable the vector backend, anything else
/// (including unset) enables it. Because the backends are bit-identical this
/// toggle is purely a performance A/B switch.
[[nodiscard]] bool enabled() noexcept;

/// \brief Override the runtime dispatch flag (benchmarks and tests).
/// \param on true selects the std-simd backend when `available()`.
void set_enabled(bool on) noexcept;

/// \brief Name of the backend `dot()` et al. currently dispatch to:
/// `"std-simd"` or `"unrolled"`.
[[nodiscard]] const char* backend_name() noexcept;

/// \brief Dot product of equal-length spans under the 4-lane reduction
/// contract. \pre a.size() == b.size().
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b) noexcept;

/// \brief Squared Euclidean distance of equal-length spans under the 4-lane
/// reduction contract. \pre a.size() == b.size().
[[nodiscard]] double squared_distance(std::span<const double> a,
                                      std::span<const double> b) noexcept;

/// \brief Element-wise min/max update: `mins[c] = min(mins[c], row[c])`,
/// `maxs[c] = max(maxs[c], row[c])` — one row of a MinMaxScaler::fit pass.
/// \pre mins.size() == maxs.size() == row.size(); no NaNs.
void update_min_max(std::span<double> mins, std::span<double> maxs,
                    std::span<const double> row) noexcept;

/// \brief Min–max normalisation of one row:
/// `out[c] = (row[c] - mins[c]) / (maxs[c] - mins[c])`, with constant
/// columns (`maxs[c] == mins[c]`) mapping to 0 exactly as the scalar code.
/// \pre all spans the same length; out may alias row.
void min_max_transform(std::span<double> out, std::span<const double> row,
                       std::span<const double> mins,
                       std::span<const double> maxs) noexcept;

/// \brief Inverse of min_max_transform:
/// `out[c] = mins[c] + row[c] * (maxs[c] - mins[c])`.
/// \pre all spans the same length; out may alias row.
void min_max_inverse(std::span<double> out, std::span<const double> row,
                     std::span<const double> mins,
                     std::span<const double> maxs) noexcept;

/// \brief Batched dot products against consecutive rows of a row-major
/// block: `out[j] = dot(x, rows + j * stride)` for `j < out.size()`.
///
/// Same per-element reduction contract as dot(); batching moves the backend
/// dispatch out of the inner loop (one check per batch, inlined kernels).
/// \pre every row spans x.size() doubles; stride >= x.size().
void dot_rows(std::span<double> out, std::span<const double> x, const double* rows,
              std::size_t stride) noexcept;

/// \brief Batched scaled squared distances against consecutive rows:
/// `out[j] = scale * squared_distance(x, rows + j * stride)`.
///
/// The RBF pre-pass: with `scale = -gamma` the output feeds exp_batch
/// directly. Same contract and batching rationale as dot_rows(). Each row
/// is read for x.size() doubles from `rows + j * stride`, so offsetting
/// `rows` by `c` selects columns `[c, c + x.size())` of a wider matrix.
void squared_distance_rows(std::span<double> out, std::span<const double> x,
                           const double* rows, std::size_t stride,
                           double scale) noexcept;

/// \brief Deterministic exponential: `exp(x)` to within ~2 ulp of libm.
///
/// Not std::exp — a fixed Cody–Waite range reduction plus degree-13 Horner
/// polynomial whose operation sequence is identical in the scalar and
/// vector backends, so exp of a value is the same bits everywhere (libm's
/// exp has no such guarantee across implementations, and cannot be
/// vectorized consistently with a scalar fallback). `exp_one(±0) == 1.0`
/// exactly; NaN propagates; x < -708.396… underflows to 0 and
/// x > 709.782… (including +infinity) overflows to +infinity.
[[nodiscard]] double exp_one(double x) noexcept;

/// \brief Batched deterministic exponential: `out[i] = exp_one(x[i])`.
///
/// The vector backend evaluates the polynomial 4 lanes at a time; every
/// element still gets exp_one's exact operation sequence, so the output is
/// bit-identical to calling exp_one in a loop. out may alias x.
/// \pre out.size() == x.size(); elements finite.
void exp_batch(std::span<double> out, std::span<const double> x) noexcept;

/// \brief Fused SVR gradient update over one label half:
/// `grad[i] += sign * (ca * double(a[i]) + cb * double(b[i]))`.
///
/// `a`/`b` are rows of the float kernel cache (length grad.size()); `sign`
/// is the label of the half (±1). Element-wise, so both backends produce the
/// same bits in any order.
void add_scaled_pair_f32(std::span<double> grad, const float* a, const float* b,
                         double ca, double cb, double sign) noexcept;

/// Backend-pinned entry points. `*_vector` uses the std-simd backend (it
/// aliases `*_unrolled` when `!available()`); `*_unrolled` is the portable
/// 4-accumulator fallback; `*_sequential` is the pre-SIMD single-accumulator
/// loop kept as the benchmark baseline. `vector` and `unrolled` are
/// bit-identical by the contract above; `sequential` is not (different
/// summation order) and must never back a production path.
namespace detail {

[[nodiscard]] double dot_sequential(const double* a, const double* b,
                                    std::size_t n) noexcept;
[[nodiscard]] double dot_unrolled(const double* a, const double* b,
                                  std::size_t n) noexcept;
[[nodiscard]] double dot_vector(const double* a, const double* b,
                                std::size_t n) noexcept;

[[nodiscard]] double squared_distance_sequential(const double* a, const double* b,
                                                 std::size_t n) noexcept;
[[nodiscard]] double squared_distance_unrolled(const double* a, const double* b,
                                               std::size_t n) noexcept;
[[nodiscard]] double squared_distance_vector(const double* a, const double* b,
                                             std::size_t n) noexcept;

}  // namespace detail

}  // namespace repro::common::simd
