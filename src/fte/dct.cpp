#include "fte/dct.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define HSDL_DCT_AVX2 1
#endif

#include "common/check.hpp"
#include "common/cpuinfo.hpp"

namespace hsdl::fte {

DctPlan::DctPlan(std::size_t block_size) : block_(block_size) {
  HSDL_CHECK(block_size > 0);
  const auto B = block_;
  basis_.resize(B * B);
  const double inv_b = 1.0 / static_cast<double>(B);
  for (std::size_t m = 0; m < B; ++m) {
    const double scale =
        m == 0 ? std::sqrt(inv_b) : std::sqrt(2.0 * inv_b);
    for (std::size_t x = 0; x < B; ++x) {
      basis_[m * B + x] = static_cast<float>(
          scale * std::cos(std::numbers::pi * inv_b *
                           (static_cast<double>(x) + 0.5) *
                           static_cast<double>(m)));
    }
  }
}

namespace {

/// Per-call scratch for the separable passes: stack storage for the
/// common small kp x B case, heap beyond. Keeping scratch out of the plan
/// is what makes concurrent partial()/inverse_partial() calls on one
/// plan safe.
class Scratch {
 public:
  explicit Scratch(std::size_t n) {
    if (n > kStack) {
      heap_.resize(n);
      ptr_ = heap_.data();
    }
  }
  float* data() { return ptr_; }

 private:
  static constexpr std::size_t kStack = 4096;
  float stack_[kStack];
  std::vector<float> heap_;
  float* ptr_ = stack_;
};

// Pass 1 twins for one column: one 8-lane accumulator holds every
// frequency row while the B values stream by in ascending y, one multiply
// and one add per term (the AVX2 target excludes FMA), so the twins agree
// bitwise with each other and with partial(). A zero value is skipped:
// its term is +-0, and a sum that starts at +0 is never -0 under
// round-to-nearest, so adding it is a bitwise no-op.

bool column_pass1_scalar(const float* col, std::size_t B,
                         const float* basis_t, float* acc) {
  bool nonzero = false;
  for (std::size_t m = 0; m < DctPlan::kTransposedStride; ++m) acc[m] = 0.0f;
  for (std::size_t y = 0; y < B; ++y) {
    if (col[y] == 0.0f) continue;
    nonzero = true;
    for (std::size_t m = 0; m < DctPlan::kTransposedStride; ++m)
      acc[m] += basis_t[y * DctPlan::kTransposedStride + m] * col[y];
  }
  return nonzero;
}

#ifdef HSDL_DCT_AVX2
__attribute__((target("avx2"))) bool column_pass1_avx2(const float* col,
                                                       std::size_t B,
                                                       const float* basis_t,
                                                       float* acc) {
  bool nonzero = false;
  __m256 a = _mm256_setzero_ps();
  for (std::size_t y = 0; y < B; ++y) {
    if (col[y] == 0.0f) continue;
    nonzero = true;
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(basis_t + y * DctPlan::kTransposedStride),
                      _mm256_set1_ps(col[y]));
    a = _mm256_add_ps(a, prod);
  }
  _mm256_storeu_ps(acc, a);
  return nonzero;
}
#endif

// Pass 2 twins: one 8-lane accumulator per frequency row covers every n
// at once (basis_t rows are zero-padded to kTransposedStride), and one
// kernel call transforms a whole block — all MP rows share each basis
// load and the per-row call overhead disappears. Lanes are independent
// and each (m, n) output accumulates ascending-x multiply+add exactly
// like the scalar dot in partial(), so scalar and AVX2 agree bitwise.

template <std::size_t MP>
void corner_pass2_scalar(const float* tmp, std::size_t x0, std::size_t B,
                         std::size_t kp, const float* basis_t, float* out) {
  float acc[MP][8] = {};
  for (std::size_t x = 0; x < B; ++x) {
    const float* bt = basis_t + x * DctPlan::kTransposedStride;
    for (std::size_t m = 0; m < MP; ++m) {
      const float t = tmp[(x0 + x) * DctPlan::kTransposedStride + m];
      for (std::size_t n = 0; n < 8; ++n) acc[m][n] += t * bt[n];
    }
  }
  for (std::size_t m = 0; m < MP; ++m)
    for (std::size_t n = 0; n < kp; ++n) out[m * kp + n] = acc[m][n];
}

#ifdef HSDL_DCT_AVX2
template <std::size_t MP>
__attribute__((target("avx2"))) void corner_pass2_avx2(
    const float* tmp, std::size_t x0, std::size_t B, std::size_t kp,
    const float* basis_t, float* out) {
  __m256 acc[MP];
  for (std::size_t m = 0; m < MP; ++m) acc[m] = _mm256_setzero_ps();
  for (std::size_t x = 0; x < B; ++x) {
    const __m256 bt =
        _mm256_loadu_ps(basis_t + x * DctPlan::kTransposedStride);
    for (std::size_t m = 0; m < MP; ++m) {
      const __m256 prod = _mm256_mul_ps(
          _mm256_set1_ps(tmp[(x0 + x) * DctPlan::kTransposedStride + m]), bt);
      acc[m] = _mm256_add_ps(acc[m], prod);
    }
  }
  alignas(32) float lanes[8];
  for (std::size_t m = 0; m < MP; ++m) {
    _mm256_store_ps(lanes, acc[m]);
    for (std::size_t n = 0; n < kp; ++n) out[m * kp + n] = lanes[n];
  }
}
#endif

using CornerPass2Fn = void (*)(const float*, std::size_t, std::size_t,
                               std::size_t, const float*, float*);

CornerPass2Fn select_pass2(std::size_t mp) {
#ifdef HSDL_DCT_AVX2
  static constexpr CornerPass2Fn kAvx2[] = {
      &corner_pass2_avx2<1>, &corner_pass2_avx2<2>, &corner_pass2_avx2<3>,
      &corner_pass2_avx2<4>, &corner_pass2_avx2<5>, &corner_pass2_avx2<6>,
      &corner_pass2_avx2<7>, &corner_pass2_avx2<8>};
  if (cpu::has_avx2_fma()) return kAvx2[mp - 1];
#endif
  static constexpr CornerPass2Fn kScalar[] = {
      &corner_pass2_scalar<1>, &corner_pass2_scalar<2>,
      &corner_pass2_scalar<3>, &corner_pass2_scalar<4>,
      &corner_pass2_scalar<5>, &corner_pass2_scalar<6>,
      &corner_pass2_scalar<7>, &corner_pass2_scalar<8>};
  return kScalar[mp - 1];
}

}  // namespace

// out = C * in * C^T, evaluated as tmp = in * C^T (rows transformed),
// then out = C * tmp (columns transformed).
void DctPlan::forward(const float* in, float* out) const {
  partial(in, block_, out);
}

void DctPlan::partial(const float* in, std::size_t kp, float* out) const {
  HSDL_CHECK(kp > 0 && kp <= block_);
  const std::size_t B = block_;
  Scratch scratch(kp * B);
  float* tmp = scratch.data();  // kp x B: rows = frequency m, cols = x
  // tmp[m][x] = sum_y C[m][y] * in[y][x]  (transform columns)
  for (std::size_t m = 0; m < kp; ++m) {
    const float* cm = &basis_[m * B];
    for (std::size_t x = 0; x < B; ++x) tmp[m * B + x] = 0.0f;
    for (std::size_t y = 0; y < B; ++y) {
      const float c = cm[y];
      const float* row = &in[y * B];
      float* trow = &tmp[m * B];
      for (std::size_t x = 0; x < B; ++x) trow[x] += c * row[x];
    }
  }
  // out[m][n] = sum_x tmp[m][x] * C[n][x]  (transform rows)
  for (std::size_t m = 0; m < kp; ++m) {
    const float* trow = &tmp[m * B];
    for (std::size_t n = 0; n < kp; ++n) {
      const float* cn = &basis_[n * B];
      float acc = 0.0f;
      for (std::size_t x = 0; x < B; ++x) acc += trow[x] * cn[x];
      out[m * kp + n] = acc;
    }
  }
}

bool DctPlan::column_run_pass1(const float* col, const float* basis_t,
                               float* band, std::size_t x0,
                               std::size_t x1) const {
  float acc[kTransposedStride];
#ifdef HSDL_DCT_AVX2
  const bool nonzero = cpu::has_avx2_fma()
                           ? column_pass1_avx2(col, block_, basis_t, acc)
                           : column_pass1_scalar(col, block_, basis_t, acc);
#else
  const bool nonzero = column_pass1_scalar(col, block_, basis_t, acc);
#endif
  for (std::size_t x = x0; x < x1; ++x)
    std::copy_n(acc, kTransposedStride, band + x * kTransposedStride);
  return nonzero;
}

void DctPlan::partial_corner_from_band(const float* band, std::size_t x0,
                                       std::size_t kp, std::size_t mp,
                                       const float* basis_t,
                                       float* out) const {
  HSDL_CHECK(kp > 0 && kp <= 8 && mp > 0 && mp <= kp);
  select_pass2(mp)(band, x0, block_, kp, basis_t, out);
}

void DctPlan::transpose_corner_basis(std::size_t kp, float* bt) const {
  HSDL_CHECK(kp > 0 && kp <= 8 && kp <= block_);
  const std::size_t B = block_;
  for (std::size_t x = 0; x < B; ++x)
    for (std::size_t n = 0; n < kTransposedStride; ++n)
      bt[x * kTransposedStride + n] = n < kp ? basis_[n * B + x] : 0.0f;
}

void DctPlan::inverse(const float* in, float* out) const {
  inverse_partial(in, block_, out);
}

void DctPlan::inverse_partial(const float* in, std::size_t kp,
                              float* out) const {
  HSDL_CHECK(kp > 0 && kp <= block_);
  const std::size_t B = block_;
  Scratch scratch(kp * B);
  float* tmp = scratch.data();  // kp x B: tmp[m][x] = sum_n in[m][n] C[n][x]
  for (std::size_t m = 0; m < kp; ++m) {
    float* trow = &tmp[m * B];
    for (std::size_t x = 0; x < B; ++x) trow[x] = 0.0f;
    for (std::size_t n = 0; n < kp; ++n) {
      const float v = in[m * kp + n];
      if (v == 0.0f) continue;
      const float* cn = &basis_[n * B];
      for (std::size_t x = 0; x < B; ++x) trow[x] += v * cn[x];
    }
  }
  // out[y][x] = sum_m C[m][y] * tmp[m][x]
  for (std::size_t i = 0; i < B * B; ++i) out[i] = 0.0f;
  for (std::size_t m = 0; m < kp; ++m) {
    const float* cm = &basis_[m * B];
    const float* trow = &tmp[m * B];
    for (std::size_t y = 0; y < B; ++y) {
      const float c = cm[y];
      if (c == 0.0f) continue;
      float* orow = &out[y * B];
      for (std::size_t x = 0; x < B; ++x) orow[x] += c * trow[x];
    }
  }
}

}  // namespace hsdl::fte
