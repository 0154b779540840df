// 2-D discrete cosine transform over square blocks.
//
// Implements the paper's Step 2 (Section 3). We use the orthonormal DCT-II
// so the transform is exactly invertible by its transpose (DCT-III); the
// paper's un-normalized formula differs from this only by a fixed per-
// coefficient scale, which is irrelevant to any downstream learner and
// buys the clean "clip can be recovered from the tensor" property.
//
// Separable evaluation through a precomputed basis matrix gives
// O(B^3) per block; `partial()` computes only the low-frequency
// top-left kp x kp corner in O(kp * B^2), which is what feature tensor
// extraction needs (the zig-zag keeps only the first k coefficients).
#pragma once

#include <cstddef>
#include <vector>

namespace hsdl::fte {

/// Precomputed DCT plan for a fixed block size B. Immutable after
/// construction: every member function is const and touches no shared
/// state, so one plan can serve many threads concurrently (batched
/// feature extraction parallelizes over clips against a single plan).
class DctPlan {
 public:
  explicit DctPlan(std::size_t block_size);

  std::size_t block_size() const { return block_; }

  /// Forward 2-D orthonormal DCT-II. `in` and `out` are B*B row-major.
  void forward(const float* in, float* out) const;

  /// Inverse (DCT-III); exact inverse of forward().
  void inverse(const float* in, float* out) const;

  /// Partial forward: computes only coefficients (m, n) with m < kp and
  /// n < kp, written to `out` as kp x kp row-major. Identical values to the
  /// corresponding corner of forward().
  void partial(const float* in, std::size_t kp, float* out) const;

  /// Inverse from a partial kp x kp corner (higher coefficients zero).
  void inverse_partial(const float* in, std::size_t kp, float* out) const;

  // --- Banded fast path -----------------------------------------------
  // Feature extraction runs partial() on every BxB block of a raster. The
  // column pass (pass 1) only combines pixels within one column of one
  // band of B rows, so it runs once per *column run* — a stretch of
  // bitwise-identical columns — and its frequency values are broadcast
  // across the run into an x-major band buffer (one 8-lane vector per
  // column). The row pass (pass 2) then reads each block's columns out of
  // the band. Each output element accumulates the same terms in the same
  // order as partial(), so the results are bitwise identical; a Manhattan
  // clip has a handful of distinct columns per band, so pass 1 all but
  // disappears.

  /// Row stride of the zero-padded transposed basis used by both passes
  /// (and its lane count: one 8-wide vector covers every frequency of a
  /// kp <= 8 corner).
  static constexpr std::size_t kTransposedStride = 8;

  /// Pass 1 for one column run: transforms the B values of `col` into
  /// band[x*kTransposedStride + m] = sum_y C[m][y]*col[y] for every lane m
  /// and every x in [x0, x1) (lanes m >= kp are 0). Accumulates ascending
  /// y, one multiply and one add per term, like partial(). `basis_t`
  /// comes from transpose_corner_basis(kp). Returns false when every value
  /// of `col` is zero: the run's band values are then all +0.
  bool column_run_pass1(const float* col, const float* basis_t, float* band,
                        std::size_t x0, std::size_t x1) const;

  /// Pass 2 for the block whose columns start at x0: out[m*kp + n] =
  /// sum_x band[(x0 + x)*kTransposedStride + m] * C[n][x], accumulated
  /// x-ascending like partial(), for the first `mp` frequency rows
  /// (mp <= kp; rows beyond mp are left untouched). `basis_t` comes from
  /// transpose_corner_basis(). Requires kp <= 8.
  void partial_corner_from_band(const float* band, std::size_t x0,
                                std::size_t kp, std::size_t mp,
                                const float* basis_t, float* out) const;

  /// Fills bt (B x kTransposedStride row-major, zero-padded) with
  /// bt[x*kTransposedStride + n] = basis[n][x] for n < kp: the transposed
  /// corner basis both passes read with stride-1 x-major access. Requires
  /// kp <= 8.
  void transpose_corner_basis(std::size_t kp, float* bt) const;

 private:
  std::size_t block_;
  // basis_[m * B + x] = s_m * cos(pi/B * (x + 0.5) * m)
  std::vector<float> basis_;
};

}  // namespace hsdl::fte
