// Feature tensor generation (paper Section 3).
//
// A clip raster of (n*B) x (n*B) pixels is divided into n x n blocks of
// B x B pixels; each block is DCT-transformed, zig-zag scanned, and
// truncated to its first k coefficients. The results are reassembled with
// block positions preserved, yielding a k x n x n tensor (channel-major:
// channel c holds the c-th zig-zag coefficient of every block). The
// transform is approximately invertible: reconstruct() inverts exactly the
// retained coefficients and zeroes the discarded high frequencies.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "fte/dct.hpp"
#include "layout/clip.hpp"
#include "layout/raster.hpp"

namespace hsdl::fte {

/// k x n x n feature tensor in channel-major (CHW) layout, ready to be the
/// input feature map stack of a CNN.
struct FeatureTensor {
  std::size_t n = 0;  ///< blocks per side
  std::size_t k = 0;  ///< coefficients kept per block (channels)
  std::vector<float> data;  ///< size k*n*n, data[(c*n + by)*n + bx]

  float& at(std::size_t c, std::size_t by, std::size_t bx) {
    return data[(c * n + by) * n + bx];
  }
  float at(std::size_t c, std::size_t by, std::size_t bx) const {
    return data[(c * n + by) * n + bx];
  }
};

struct FeatureTensorConfig {
  std::size_t blocks_per_side = 12;  ///< n; paper: 12
  std::size_t coeffs = 32;           ///< k; channels kept per block
  double nm_per_px = 2.0;  ///< raster pitch; paper: 1 nm/px, see DESIGN.md §5
  /// Divide coefficients by the block side so the DC channel is the block
  /// mean density (in [0, 1]) — keeps CNN input scale O(1) regardless of
  /// raster resolution. reconstruct() undoes the scaling.
  bool normalize = true;
};

/// Extracts feature tensors from clips/rasters; owns the DCT plan, so reuse
/// one extractor across a dataset.
class FeatureTensorExtractor {
 public:
  explicit FeatureTensorExtractor(const FeatureTensorConfig& config = {});

  const FeatureTensorConfig& config() const { return config_; }

  /// Extract from a pre-rasterized clip. The raster must be square with a
  /// side divisible by n.
  FeatureTensor extract(const layout::MaskImage& raster) const;

  /// Extracts the tensor of the clip's raster at config().nm_per_px,
  /// bitwise identical to extract(layout::rasterize(clip, nm_per_px)).
  FeatureTensor extract(const layout::Clip& clip) const;

  /// Extracts directly into caller-owned storage of exactly k*n*n floats,
  /// laid out channel-major like FeatureTensor::data. Allocation-free
  /// except for small per-call DCT scratch; the extract() overloads
  /// delegate here, so results are bitwise identical. Batch pipelines
  /// (the inference engine) point `out` at a slice of their input slab.
  void extract_into(const layout::MaskImage& raster,
                    std::span<float> out) const;

  /// Extracts the clip into `out` straight from its shapes: each band's
  /// column runs come from the snapped shape edges (layout::PixelGrid),
  /// so no raster is ever filled. Bitwise identical to
  /// extract_into(layout::rasterize(clip, config().nm_per_px), out).
  void extract_into(const layout::Clip& clip, std::span<float> out) const;

  /// Batched extraction, parallel over clips on the shared thread pool.
  /// Results are index-aligned with `clips` and bitwise identical to
  /// calling extract() serially (each clip is an independent output).
  std::vector<FeatureTensor> extract_batch(
      std::span<const layout::Clip> clips) const;

  /// The original per-block path: gathers each block and runs
  /// DctPlan::partial on the copy. It is the bitwise oracle both
  /// extract_into front-ends are tested against, and extract_into falls
  /// back to it for corners the band cannot hold (kp > 8). Validates the
  /// raster as extract_into does.
  FeatureTensor extract_reference(const layout::MaskImage& raster) const;

  /// Inverse: reassembles an approximate raster from a tensor.
  /// `block_px` chooses the output block resolution (use the same value as
  /// extraction for a like-for-like comparison).
  layout::MaskImage reconstruct(const FeatureTensor& tensor,
                                std::size_t block_px) const;

 private:
  const DctPlan& plan_for(std::size_t block) const;

  FeatureTensorConfig config_;
  // Plans are cached per block size (tests exercise several resolutions).
  // unique_ptr keeps plan addresses stable across cache growth and the
  // mutex makes the lazy insert safe under extract_batch's parallelism;
  // the plans themselves are immutable and shared freely once built.
  // The atomic caches the most recently used plan so the steady state
  // (one block size, many threads) never touches the mutex — the old
  // lock-per-extract was the main scaling bottleneck of extract_batch.
  mutable std::mutex plans_mu_;
  mutable std::vector<std::pair<std::size_t, std::unique_ptr<DctPlan>>>
      plans_;
  mutable std::atomic<const DctPlan*> plan_cache_{nullptr};
};

}  // namespace hsdl::fte
