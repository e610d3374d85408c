#include "common/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#if !defined(REPRO_SIMD_DISABLED) && __has_include(<experimental/simd>)
#define REPRO_HAVE_STD_SIMD 1
#include <experimental/simd>
#endif

namespace repro::common::simd {

namespace {

bool env_enabled() {
  const char* raw = std::getenv("REPRO_SIMD");
  if (raw == nullptr) return true;
  std::string v(raw);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return !(v == "0" || v == "off" || v == "false");
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_enabled()};
  return flag;
}

/// Fixed horizontal reduction order shared by every backend: lane 0 and 1
/// first, then 2, then 3.
inline double reduce_lanes(const double lanes[kLanes]) noexcept {
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

// --- deterministic exp -------------------------------------------------------
//
// exp(x) = 2^k * exp(r), k = round(x / ln2), r = x - k ln2 (Cody–Waite in
// two pieces), exp(r) by a degree-13 Taylor/Horner polynomial — |r| <=
// ln2/2, so the truncation error (~4e-18 relative) is below half an ulp.
// Every step is a fixed sequence of IEEE mul/add/sub, reproduced lane for
// lane by the vector backend.

constexpr double kLog2E = 1.4426950408889634074;       // 1 / ln 2
constexpr double kLn2Hi = 6.93147180369123816490e-01;  // high bits of ln 2
constexpr double kLn2Lo = 1.90821492927058770002e-10;  // ln 2 - kLn2Hi
constexpr double kRoundMagic = 6755399441055744.0;     // 1.5 * 2^52: adds round-to-nearest
constexpr double kExpUnderflow = -708.39641853226410622;  // exp(x) < DBL_MIN below this
constexpr double kExpOverflow = 709.78271289338399684;    // exp(x) > DBL_MAX above this

/// Taylor coefficients a_i = 1/i!, ascending degree.
constexpr double kA2 = 0.5;
constexpr double kA3 = 1.0 / 6.0;
constexpr double kA4 = 1.0 / 24.0;
constexpr double kA5 = 1.0 / 120.0;
constexpr double kA6 = 1.0 / 720.0;
constexpr double kA7 = 1.0 / 5040.0;
constexpr double kA8 = 1.0 / 40320.0;
constexpr double kA9 = 1.0 / 362880.0;
constexpr double kA10 = 1.0 / 3628800.0;
constexpr double kA11 = 1.0 / 39916800.0;
constexpr double kA12 = 1.0 / 479001600.0;
constexpr double kA13 = 1.0 / 6227020800.0;

/// The reduction + degree-13 Taylor polynomial in Estrin form (short
/// dependency chains — the Horner chain is what makes libm-style exp slow
/// to vectorize). Templated over the value type so the scalar and 4-lane
/// instantiations share the exact expression tree: per lane, the identical
/// sequence of IEEE operations, hence identical bits.
template <class V>
struct ExpReduced {
  V kd;  ///< round(x / ln2) as a double-valued integer
  V p;   ///< exp(r), r = x - kd * ln2
};

template <class V>
inline ExpReduced<V> exp_reduce(V x) noexcept {
  const V t = x * V(kLog2E);
  const V kd = (t + V(kRoundMagic)) - V(kRoundMagic);
  const V r = (x - kd * V(kLn2Hi)) - kd * V(kLn2Lo);
  const V r2 = r * r;
  const V r4 = r2 * r2;
  const V r8 = r4 * r4;
  const V q01 = V(1.0) + r;                        // a0 + a1 r
  const V q23 = V(kA2) + V(kA3) * r;
  const V q45 = V(kA4) + V(kA5) * r;
  const V q67 = V(kA6) + V(kA7) * r;
  const V q89 = V(kA8) + V(kA9) * r;
  const V q1011 = V(kA10) + V(kA11) * r;
  const V q1213 = V(kA12) + V(kA13) * r;
  const V q03 = q01 + q23 * r2;
  const V q47 = q45 + q67 * r2;
  const V q811 = q89 + q1011 * r2;
  const V q07 = q03 + q47 * r4;
  const V q815 = q811 + q1213 * r4;
  return {kd, q07 + q815 * r8};
}

/// Assemble 2^k for integral |k| <= 1023 by writing the exponent field.
inline double pow2_int(long long k) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
}

/// Scale the polynomial value by 2^k and resolve the clamped ranges. The
/// vector backend funnels each lane through this same function.
inline double exp_finish(double x, double p, double kd) noexcept {
  if (x != x) return x;  // NaN propagates (as libm's exp); the cast below would be UB
  if (x < kExpUnderflow) return 0.0;
  if (x > kExpOverflow) return std::numeric_limits<double>::infinity();
  const long long k = static_cast<long long>(kd);
  if (k > 1023) {
    // x in [~709.44, 709.78] rounds to k = 1024, whose exponent field would
    // be the Inf pattern even though exp(x) is still finite. Split the
    // scale: both multiplications by powers of two are exact, and the
    // second overflows to Inf only when the true result does.
    return (p * pow2_int(1023)) * pow2_int(k - 1023);
  }
  return p * pow2_int(k);
}

}  // namespace

bool available() noexcept {
#if defined(REPRO_HAVE_STD_SIMD)
  return true;
#else
  return false;
#endif
}

bool enabled() noexcept {
  return available() && enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

const char* backend_name() noexcept { return enabled() ? "std-simd" : "unrolled"; }

double exp_one(double x) noexcept {
  const auto [kd, p] = exp_reduce(x);
  return exp_finish(x, p, kd);
}

// --- unrolled backend (always compiled) --------------------------------------
//
// The portable statement of the contract: 4 accumulators, main-loop element
// i in lane i % 4, tail element t folded into lane t, reduce_lanes() last.

namespace detail {

double dot_sequential(const double* a, const double* b, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double squared_distance_sequential(const double* a, const double* b,
                                   std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double dot_unrolled(const double* a, const double* b, std::size_t n) noexcept {
  double lanes[kLanes] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n - n % kLanes;
  for (std::size_t i = 0; i < n4; i += kLanes) {
    lanes[0] += a[i + 0] * b[i + 0];
    lanes[1] += a[i + 1] * b[i + 1];
    lanes[2] += a[i + 2] * b[i + 2];
    lanes[3] += a[i + 3] * b[i + 3];
  }
  for (std::size_t t = 0; t < n - n4; ++t) lanes[t] += a[n4 + t] * b[n4 + t];
  return reduce_lanes(lanes);
}

double squared_distance_unrolled(const double* a, const double* b,
                                 std::size_t n) noexcept {
  double lanes[kLanes] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n - n % kLanes;
  for (std::size_t i = 0; i < n4; i += kLanes) {
    const double d0 = a[i + 0] - b[i + 0];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    lanes[0] += d0 * d0;
    lanes[1] += d1 * d1;
    lanes[2] += d2 * d2;
    lanes[3] += d3 * d3;
  }
  for (std::size_t t = 0; t < n - n4; ++t) {
    const double d = a[n4 + t] - b[n4 + t];
    lanes[t] += d * d;
  }
  return reduce_lanes(lanes);
}

}  // namespace detail

namespace {

void update_min_max_unrolled(double* mins, double* maxs, const double* row,
                             std::size_t n) noexcept {
  for (std::size_t c = 0; c < n; ++c) {
    mins[c] = std::min(mins[c], row[c]);
    maxs[c] = std::max(maxs[c], row[c]);
  }
}

void min_max_transform_unrolled(double* out, const double* row, const double* mins,
                                const double* maxs, std::size_t n) noexcept {
  for (std::size_t c = 0; c < n; ++c) {
    const double range = maxs[c] - mins[c];
    out[c] = range == 0.0 ? 0.0 : (row[c] - mins[c]) / range;
  }
}

void min_max_inverse_unrolled(double* out, const double* row, const double* mins,
                              const double* maxs, std::size_t n) noexcept {
  for (std::size_t c = 0; c < n; ++c) out[c] = mins[c] + row[c] * (maxs[c] - mins[c]);
}

void exp_batch_unrolled(double* out, const double* x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = exp_one(x[i]);
}

void add_scaled_pair_f32_unrolled(double* grad, const float* a, const float* b,
                                  double ca, double cb, double sign,
                                  std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] += sign * (ca * static_cast<double>(a[i]) + cb * static_cast<double>(b[i]));
  }
}

}  // namespace

// --- std-simd backend --------------------------------------------------------

#if defined(REPRO_HAVE_STD_SIMD)

namespace {

namespace stdx = std::experimental;
using vdouble = stdx::fixed_size_simd<double, static_cast<int>(kLanes)>;
using vfloat = stdx::fixed_size_simd<float, static_cast<int>(kLanes)>;

inline vdouble load(const double* p) noexcept {
  vdouble v;
  v.copy_from(p, stdx::element_aligned);
  return v;
}

}  // namespace

namespace detail {

double dot_vector(const double* a, const double* b, std::size_t n) noexcept {
  vdouble acc(0.0);
  const std::size_t n4 = n - n % kLanes;
  for (std::size_t i = 0; i < n4; i += kLanes) acc += load(a + i) * load(b + i);
  double lanes[kLanes];
  acc.copy_to(lanes, stdx::element_aligned);
  for (std::size_t t = 0; t < n - n4; ++t) lanes[t] += a[n4 + t] * b[n4 + t];
  return reduce_lanes(lanes);
}

double squared_distance_vector(const double* a, const double* b,
                               std::size_t n) noexcept {
  vdouble acc(0.0);
  const std::size_t n4 = n - n % kLanes;
  for (std::size_t i = 0; i < n4; i += kLanes) {
    const vdouble d = load(a + i) - load(b + i);
    acc += d * d;
  }
  double lanes[kLanes];
  acc.copy_to(lanes, stdx::element_aligned);
  for (std::size_t t = 0; t < n - n4; ++t) {
    const double d = a[n4 + t] - b[n4 + t];
    lanes[t] += d * d;
  }
  return reduce_lanes(lanes);
}

}  // namespace detail

namespace {

void update_min_max_vector(double* mins, double* maxs, const double* row,
                           std::size_t n) noexcept {
  const std::size_t n4 = n - n % kLanes;
  for (std::size_t c = 0; c < n4; c += kLanes) {
    const vdouble rv = load(row + c);
    // Explicit selects rather than stdx::min/max: std::min(a, b) keeps the
    // first argument on ties, stdx::min (minpd-style) keeps the second —
    // with signed zeros in play the two disagree in bits, and the contract
    // requires this backend to reproduce the scalar path exactly.
    vdouble mi = load(mins + c);
    stdx::where(rv < mi, mi) = rv;
    mi.copy_to(mins + c, stdx::element_aligned);
    vdouble ma = load(maxs + c);
    stdx::where(ma < rv, ma) = rv;
    ma.copy_to(maxs + c, stdx::element_aligned);
  }
  update_min_max_unrolled(mins + n4, maxs + n4, row + n4, n - n4);
}

void min_max_transform_vector(double* out, const double* row, const double* mins,
                              const double* maxs, std::size_t n) noexcept {
  const std::size_t n4 = n - n % kLanes;
  for (std::size_t c = 0; c < n4; c += kLanes) {
    const vdouble mi = load(mins + c);
    const vdouble range = load(maxs + c) - mi;
    vdouble res = (load(row + c) - mi) / range;
    stdx::where(range == vdouble(0.0), res) = 0.0;
    res.copy_to(out + c, stdx::element_aligned);
  }
  min_max_transform_unrolled(out + n4, row + n4, mins + n4, maxs + n4, n - n4);
}

void min_max_inverse_vector(double* out, const double* row, const double* mins,
                            const double* maxs, std::size_t n) noexcept {
  const std::size_t n4 = n - n % kLanes;
  for (std::size_t c = 0; c < n4; c += kLanes) {
    const vdouble mi = load(mins + c);
    const vdouble res = mi + load(row + c) * (load(maxs + c) - mi);
    res.copy_to(out + c, stdx::element_aligned);
  }
  min_max_inverse_unrolled(out + n4, row + n4, mins + n4, maxs + n4, n - n4);
}

void exp_batch_vector(double* out, const double* x, std::size_t n) noexcept {
  const std::size_t n4 = n - n % kLanes;
  for (std::size_t i = 0; i < n4; i += kLanes) {
    const auto [kd, p] = exp_reduce(load(x + i));
    // The 2^k scale and range clamps go lane by lane through the same
    // exp_finish the scalar path uses — identical bits by construction.
    double pl[kLanes];
    double kl[kLanes];
    p.copy_to(pl, stdx::element_aligned);
    kd.copy_to(kl, stdx::element_aligned);
    for (std::size_t l = 0; l < kLanes; ++l) out[i + l] = exp_finish(x[i + l], pl[l], kl[l]);
  }
  exp_batch_unrolled(out + n4, x + n4, n - n4);
}

void add_scaled_pair_f32_vector(double* grad, const float* a, const float* b,
                                double ca, double cb, double sign,
                                std::size_t n) noexcept {
  const vdouble vca(ca);
  const vdouble vcb(cb);
  const vdouble vsign(sign);
  const std::size_t n4 = n - n % kLanes;
  for (std::size_t i = 0; i < n4; i += kLanes) {
    vfloat af;
    vfloat bf;
    af.copy_from(a + i, stdx::element_aligned);
    bf.copy_from(b + i, stdx::element_aligned);
    const vdouble ad = stdx::static_simd_cast<vdouble>(af);
    const vdouble bd = stdx::static_simd_cast<vdouble>(bf);
    const vdouble res = load(grad + i) + vsign * (vca * ad + vcb * bd);
    res.copy_to(grad + i, stdx::element_aligned);
  }
  add_scaled_pair_f32_unrolled(grad + n4, a + n4, b + n4, ca, cb, sign, n - n4);
}

}  // namespace

#else  // !REPRO_HAVE_STD_SIMD — the vector entry points alias the fallback.

namespace detail {

double dot_vector(const double* a, const double* b, std::size_t n) noexcept {
  return dot_unrolled(a, b, n);
}

double squared_distance_vector(const double* a, const double* b,
                               std::size_t n) noexcept {
  return squared_distance_unrolled(a, b, n);
}

}  // namespace detail

#endif  // REPRO_HAVE_STD_SIMD

// --- dispatching public entry points -----------------------------------------

double dot(std::span<const double> a, std::span<const double> b) noexcept {
  return enabled() ? detail::dot_vector(a.data(), b.data(), a.size())
                   : detail::dot_unrolled(a.data(), b.data(), a.size());
}

double squared_distance(std::span<const double> a, std::span<const double> b) noexcept {
  return enabled() ? detail::squared_distance_vector(a.data(), b.data(), a.size())
                   : detail::squared_distance_unrolled(a.data(), b.data(), a.size());
}

void update_min_max(std::span<double> mins, std::span<double> maxs,
                    std::span<const double> row) noexcept {
#if defined(REPRO_HAVE_STD_SIMD)
  if (enabled()) {
    update_min_max_vector(mins.data(), maxs.data(), row.data(), row.size());
    return;
  }
#endif
  update_min_max_unrolled(mins.data(), maxs.data(), row.data(), row.size());
}

void min_max_transform(std::span<double> out, std::span<const double> row,
                       std::span<const double> mins,
                       std::span<const double> maxs) noexcept {
#if defined(REPRO_HAVE_STD_SIMD)
  if (enabled()) {
    min_max_transform_vector(out.data(), row.data(), mins.data(), maxs.data(),
                             row.size());
    return;
  }
#endif
  min_max_transform_unrolled(out.data(), row.data(), mins.data(), maxs.data(),
                             row.size());
}

void min_max_inverse(std::span<double> out, std::span<const double> row,
                     std::span<const double> mins,
                     std::span<const double> maxs) noexcept {
#if defined(REPRO_HAVE_STD_SIMD)
  if (enabled()) {
    min_max_inverse_vector(out.data(), row.data(), mins.data(), maxs.data(),
                           row.size());
    return;
  }
#endif
  min_max_inverse_unrolled(out.data(), row.data(), mins.data(), maxs.data(),
                           row.size());
}

void dot_rows(std::span<double> out, std::span<const double> x, const double* rows,
              std::size_t stride) noexcept {
  const std::size_t n = x.size();
#if defined(REPRO_HAVE_STD_SIMD)
  if (enabled()) {
    // Two rows per iteration — shared x loads, independent accumulator
    // chains; per-row operation order is exactly the contract sequence.
    const std::size_t n4 = n - n % kLanes;
    std::size_t j = 0;
    for (; j + 2 <= out.size(); j += 2) {
      const double* r0 = rows + j * stride;
      const double* r1 = r0 + stride;
      vdouble acc0(0.0);
      vdouble acc1(0.0);
      for (std::size_t i = 0; i < n4; i += kLanes) {
        const vdouble xv = load(x.data() + i);
        acc0 += xv * load(r0 + i);
        acc1 += xv * load(r1 + i);
      }
      double l0[kLanes];
      double l1[kLanes];
      acc0.copy_to(l0, stdx::element_aligned);
      acc1.copy_to(l1, stdx::element_aligned);
      for (std::size_t t = 0; t < n - n4; ++t) {
        l0[t] += x[n4 + t] * r0[n4 + t];
        l1[t] += x[n4 + t] * r1[n4 + t];
      }
      out[j] = reduce_lanes(l0);
      out[j + 1] = reduce_lanes(l1);
    }
    for (; j < out.size(); ++j) {
      out[j] = detail::dot_vector(x.data(), rows + j * stride, n);
    }
    return;
  }
#endif
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = detail::dot_unrolled(x.data(), rows + j * stride, n);
  }
}

void squared_distance_rows(std::span<double> out, std::span<const double> x,
                           const double* rows, std::size_t stride,
                           double scale) noexcept {
  const std::size_t n = x.size();
#if defined(REPRO_HAVE_STD_SIMD)
  if (enabled()) {
    // Two rows per iteration: the x loads are shared and the two
    // accumulator chains are independent, so the out-of-order core overlaps
    // them. Each row individually runs the exact contract sequence —
    // pairing changes scheduling, not per-row operation order.
    const std::size_t n4 = n - n % kLanes;
    std::size_t j = 0;
    for (; j + 2 <= out.size(); j += 2) {
      const double* r0 = rows + j * stride;
      const double* r1 = r0 + stride;
      vdouble acc0(0.0);
      vdouble acc1(0.0);
      for (std::size_t i = 0; i < n4; i += kLanes) {
        const vdouble xv = load(x.data() + i);
        const vdouble d0 = xv - load(r0 + i);
        const vdouble d1 = xv - load(r1 + i);
        acc0 += d0 * d0;
        acc1 += d1 * d1;
      }
      double l0[kLanes];
      double l1[kLanes];
      acc0.copy_to(l0, stdx::element_aligned);
      acc1.copy_to(l1, stdx::element_aligned);
      for (std::size_t t = 0; t < n - n4; ++t) {
        const double d0 = x[n4 + t] - r0[n4 + t];
        const double d1 = x[n4 + t] - r1[n4 + t];
        l0[t] += d0 * d0;
        l1[t] += d1 * d1;
      }
      out[j] = scale * reduce_lanes(l0);
      out[j + 1] = scale * reduce_lanes(l1);
    }
    for (; j < out.size(); ++j) {
      out[j] = scale * detail::squared_distance_vector(x.data(), rows + j * stride, n);
    }
    return;
  }
#endif
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = scale * detail::squared_distance_unrolled(x.data(), rows + j * stride, n);
  }
}

void exp_batch(std::span<double> out, std::span<const double> x) noexcept {
#if defined(REPRO_HAVE_STD_SIMD)
  if (enabled()) {
    exp_batch_vector(out.data(), x.data(), x.size());
    return;
  }
#endif
  exp_batch_unrolled(out.data(), x.data(), x.size());
}

void add_scaled_pair_f32(std::span<double> grad, const float* a, const float* b,
                         double ca, double cb, double sign) noexcept {
#if defined(REPRO_HAVE_STD_SIMD)
  if (enabled()) {
    add_scaled_pair_f32_vector(grad.data(), a, b, ca, cb, sign, grad.size());
    return;
  }
#endif
  add_scaled_pair_f32_unrolled(grad.data(), a, b, ca, cb, sign, grad.size());
}

}  // namespace repro::common::simd
