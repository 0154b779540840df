#include "fte/feature_tensor.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/refmode.hpp"
#include "common/trace.hpp"
#include "fte/zigzag.hpp"

namespace hsdl::fte {
namespace {

/// corner_for_prefix rebuilds the full zig-zag walk (allocating) for
/// every candidate corner size, which is far too slow to re-derive per
/// window on the serving path. The answer only depends on (B, k), so
/// cache the last result per thread — serving hits one shape forever.
std::size_t cached_corner_for_prefix(std::size_t block, std::size_t k) {
  thread_local std::size_t c_block = 0, c_k = 0, c_kp = 0;
  if (c_block != block || c_k != k) {
    c_kp = corner_for_prefix(block, k);
    c_block = block;
    c_k = k;
  }
  return c_kp;
}

}  // namespace

FeatureTensorExtractor::FeatureTensorExtractor(
    const FeatureTensorConfig& config)
    : config_(config) {
  HSDL_CHECK(config.blocks_per_side > 0);
  HSDL_CHECK(config.coeffs > 0);
  HSDL_CHECK(config.nm_per_px > 0.0);
}

const DctPlan& FeatureTensorExtractor::plan_for(std::size_t block) const {
  // Lock-free fast path: extraction hits one block size almost always, so
  // the last plan used is published in an atomic. Plans are immutable and
  // never deallocated while the extractor lives, so a stale pointer is
  // safe to read — it either matches or we fall through to the mutex.
  const DctPlan* cached = plan_cache_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->block_size() == block) return *cached;
  std::lock_guard<std::mutex> lock(plans_mu_);
  for (const auto& [size, plan] : plans_) {
    if (size == block) {
      plan_cache_.store(plan.get(), std::memory_order_release);
      return *plan;
    }
  }
  plans_.emplace_back(block, std::make_unique<DctPlan>(block));
  const DctPlan* fresh = plans_.back().second.get();
  plan_cache_.store(fresh, std::memory_order_release);
  return *fresh;
}

namespace {

/// Checks a width x height pixel grid and the `out` size against the
/// config; returns the block side B.
std::size_t checked_block(const FeatureTensorConfig& cfg, std::size_t width,
                          std::size_t height, std::size_t out_size) {
  const std::size_t n = cfg.blocks_per_side;
  const std::size_t k = cfg.coeffs;
  HSDL_CHECK_MSG(width == height,
                 "feature tensor extraction expects a square raster, got "
                     << width << "x" << height);
  HSDL_CHECK_MSG(width % n == 0, "raster side " << width
                                                << " is not divisible into "
                                                << n << " blocks");
  const std::size_t B = width / n;
  HSDL_CHECK_MSG(k <= B * B, "cannot keep " << k << " coefficients from a "
                                            << B << "x" << B << " block");
  HSDL_CHECK_MSG(out_size == k * n * n,
                 "extract_into expects " << k * n * n << " floats, got "
                                         << out_size);
  return B;
}

/// The banded path handles every corner size the zig-zag prefix of a real
/// config produces (kp <= 8 covers k <= 36); exotic test configs and
/// reference mode take the original per-block path.
bool use_reference(std::size_t block, std::size_t k) {
  return runtime::reference_mode() ||
         cached_corner_for_prefix(block, k) > DctPlan::kTransposedStride;
}

FeatureTensor zero_tensor(const FeatureTensorConfig& cfg) {
  const std::size_t n = cfg.blocks_per_side, k = cfg.coeffs;
  return {n, k, std::vector<float>(k * n * n, 0.0f)};
}

void count_tensor(std::size_t n) {
  if (!metrics::enabled()) return;
  static metrics::Counter& tensors = metrics::counter("fte.tensors");
  static metrics::Counter& blocks = metrics::counter("fte.dct_blocks");
  tensors.increment();
  blocks.add(static_cast<std::uint64_t>(n) * n);
}

/// The banded pipeline both front-ends share. For each band of B pixel
/// rows starting at row y0, `fill_band(y0, emit)` describes the band as
/// consecutive column runs covering [0, width): it calls emit(col, x0, x1)
/// with the B values every column of [x0, x1) holds. Pass 1 runs once per
/// run, pass 2 and the zig-zag epilogue once per block — except on blocks
/// every column of which is zero: their band values are all +0, which
/// makes every corner sum +0, so those blocks are written as +0 directly.
template <class FillBand>
void extract_banded(const DctPlan& plan, const FeatureTensorConfig& cfg,
                    std::size_t width, FillBand&& fill_band,
                    std::span<float> out) {
  const std::size_t n = cfg.blocks_per_side;
  const std::size_t k = cfg.coeffs;
  const std::size_t B = plan.block_size();
  const std::size_t kp = cached_corner_for_prefix(B, k);

  // The zig-zag prefix, resolved once per extract instead of once per
  // block (zigzag_take re-derives the walk — and allocates — per call).
  // Its row extent also caps the pass-2 work: the first k positions of a
  // kp x kp corner rarely reach row kp-1 (16 coefficients of a 6x6 corner
  // top out at row 4), and rows the scan never reads need not be
  // transformed at all.
  thread_local std::vector<std::pair<std::size_t, std::size_t>> order;
  thread_local std::size_t order_kp = 0;
  if (order_kp != kp) {
    order = zigzag_order(kp);
    order_kp = kp;
  }
  std::size_t mp = 0;
  for (std::size_t c = 0; c < k; ++c)
    mp = std::max(mp, order[c].first + 1);

  // Thread-local scratch: extract_batch runs this on pool threads; each
  // buffer is fully (re)written per call, and resize() is a no-op once
  // warm, so batches run allocation-free.
  thread_local std::vector<float> band, basis_t, corner;
  thread_local std::vector<char> live;
  band.resize(width * DctPlan::kTransposedStride);
  basis_t.resize(B * DctPlan::kTransposedStride);
  corner.resize(kp * kp);
  plan.transpose_corner_basis(kp, basis_t.data());
  const auto emit = [&](const float* col, std::size_t x0, std::size_t x1) {
    if (plan.column_run_pass1(col, basis_t.data(), band.data(), x0, x1))
      std::fill(live.begin() + x0 / B, live.begin() + (x1 - 1) / B + 1, 1);
  };

  const float scale = cfg.normalize ? 1.0f / static_cast<float>(B) : 1.0f;
  for (std::size_t by = 0; by < n; ++by) {
    live.assign(n, 0);
    fill_band(by * B, emit);
    for (std::size_t bx = 0; bx < n; ++bx) {
      if (!live[bx]) {
        for (std::size_t c = 0; c < k; ++c) out[(c * n + by) * n + bx] = 0.0f;
        continue;
      }
      plan.partial_corner_from_band(band.data(), bx * B, kp, mp,
                                    basis_t.data(), corner.data());
      for (std::size_t c = 0; c < k; ++c)
        out[(c * n + by) * n + bx] =
            corner[order[c].first * kp + order[c].second] * scale;
    }
  }
}

}  // namespace

void FeatureTensorExtractor::extract_into(const layout::MaskImage& raster,
                                          std::span<float> out) const {
  HSDL_TRACE_SPAN("fte.extract");
  count_tensor(config_.blocks_per_side);
  const std::size_t B =
      checked_block(config_, raster.width(), raster.height(), out.size());
  if (use_reference(B, config_.coeffs)) {
    extract_reference(raster, out);
    return;
  }
  // Raster front-end: column x starts a new run when it differs bitwise
  // from column x-1 in any row of the band. A row identical to the one
  // above it adds no such difference, so only the band's distinct rows
  // are scanned.
  const std::size_t width = raster.width();
  thread_local std::vector<std::uint32_t> differs;
  thread_local std::vector<float> col;
  col.resize(B);
  extract_banded(
      plan_for(B), config_, width,
      [&](std::size_t y0, const auto& emit) {
        differs.assign(width, 0);
        for (std::size_t y = y0; y < y0 + B; ++y) {
          const float* r = raster.row(y);
          if (y > y0 && std::memcmp(r, r - width, width * sizeof(float)) == 0)
            continue;
          for (std::size_t x = 1; x < width; ++x)
            differs[x] |= std::bit_cast<std::uint32_t>(r[x]) ^
                          std::bit_cast<std::uint32_t>(r[x - 1]);
        }
        for (std::size_t x0 = 0, x1 = 1; x0 < width; x0 = x1++) {
          while (x1 < width && differs[x1] == 0) ++x1;
          for (std::size_t y = 0; y < B; ++y) col[y] = raster.row(y0 + y)[x0];
          emit(col.data(), x0, x1);
        }
      },
      out);
}

void FeatureTensorExtractor::extract_reference(const layout::MaskImage& raster,
                                               std::span<float> out) const {
  const std::size_t n = config_.blocks_per_side;
  const std::size_t k = config_.coeffs;
  const std::size_t B = raster.width() / n;  // checked by extract_into
  const DctPlan& plan = plan_for(B);
  // Partial DCT: only the corner covering the first k zig-zag positions.
  const std::size_t kp = cached_corner_for_prefix(B, k);

  std::vector<float> block(B * B);
  std::vector<float> corner(kp * kp);
  std::vector<float> scan(k);
  for (std::size_t by = 0; by < n; ++by) {
    for (std::size_t bx = 0; bx < n; ++bx) {
      // Gather the block (row-major copy out of the raster).
      for (std::size_t y = 0; y < B; ++y) {
        const float* src = raster.row(by * B + y) + bx * B;
        float* dst = &block[y * B];
        for (std::size_t x = 0; x < B; ++x) dst[x] = src[x];
      }
      plan.partial(block.data(), kp, corner.data());
      zigzag_take(corner.data(), kp, k, scan.data());
      const float scale =
          config_.normalize ? 1.0f / static_cast<float>(B) : 1.0f;
      for (std::size_t c = 0; c < k; ++c)
        out[(c * n + by) * n + bx] = scan[c] * scale;
    }
  }
}

void FeatureTensorExtractor::extract_into(const layout::Clip& clip,
                                          std::span<float> out) const {
  const layout::PixelGrid grid =
      layout::pixel_grid(clip.window, config_.nm_per_px);
  const std::size_t B =
      checked_block(config_, grid.width, grid.height, out.size());
  if (use_reference(B, config_.coeffs)) {
    extract_into(layout::rasterize(clip, config_.nm_per_px), out);
    return;
  }
  HSDL_TRACE_SPAN("fte.extract");
  count_tensor(config_.blocks_per_side);
  // Clip front-end: a band's columns can only change at the x-edges of the
  // snapped shapes that reach into it. Between two edges a column is 1 on
  // the rows the shapes spanning it cover — exactly the pixels
  // rasterize() would set — and equal neighbours merge into one run.
  thread_local std::vector<layout::PixelRect> rects, in_band;
  thread_local std::vector<std::size_t> xs;
  thread_local std::vector<float> cur, next;
  rects.clear();
  for (const geom::Rect& shape : clip.shapes)
    if (const layout::PixelRect p = grid.snap(shape); !p.empty())
      rects.push_back(p);
  extract_banded(
      plan_for(B), config_, grid.width,
      [&](std::size_t y0, const auto& emit) {
        in_band.clear();
        xs.assign(1, 0);
        for (const layout::PixelRect& r : rects) {
          if (r.y1 <= y0 || r.y0 >= y0 + B) continue;
          in_band.push_back({r.x0, r.x1, std::max(r.y0, y0) - y0,
                             std::min(r.y1, y0 + B) - y0});
          xs.insert(xs.end(), {r.x0, r.x1});
        }
        std::sort(xs.begin(), xs.end());
        xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
        cur.assign(B, 0.0f);
        std::size_t run = 0;
        for (const std::size_t x : xs) {
          if (x == grid.width) break;
          next.assign(B, 0.0f);
          for (const layout::PixelRect& r : in_band)
            if (r.x0 <= x && x < r.x1)
              std::fill(next.begin() + r.y0, next.begin() + r.y1, 1.0f);
          if (std::memcmp(next.data(), cur.data(), B * sizeof(float)) == 0)
            continue;
          if (x > run) emit(cur.data(), run, x);
          run = x;
          cur.swap(next);
        }
        emit(cur.data(), run, grid.width);
      },
      out);
}

FeatureTensor FeatureTensorExtractor::extract(
    const layout::MaskImage& raster) const {
  FeatureTensor out = zero_tensor(config_);
  extract_into(raster, out.data);
  return out;
}

FeatureTensor FeatureTensorExtractor::extract(const layout::Clip& clip) const {
  FeatureTensor out = zero_tensor(config_);
  extract_into(clip, out.data);
  return out;
}

std::vector<FeatureTensor> FeatureTensorExtractor::extract_batch(
    std::span<const layout::Clip> clips) const {
  HSDL_TRACE_SPAN("fte.extract_batch");
  std::vector<FeatureTensor> out(clips.size());
  parallel_for(0, clips.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) out[i] = extract(clips[i]);
  });
  return out;
}

layout::MaskImage FeatureTensorExtractor::reconstruct(
    const FeatureTensor& tensor, std::size_t block_px_arg) const {
  const std::size_t n = tensor.n;
  const std::size_t k = tensor.k;
  const std::size_t B = block_px_arg;
  HSDL_CHECK(n > 0 && k > 0 && B > 0);
  HSDL_CHECK(tensor.data.size() == k * n * n);
  HSDL_CHECK(k <= B * B);

  const DctPlan& plan = plan_for(B);
  const std::size_t kp = cached_corner_for_prefix(B, k);

  layout::MaskImage img(n * B, n * B, config_.nm_per_px);
  std::vector<float> scan(k);
  std::vector<float> corner(kp * kp);
  std::vector<float> block(B * B);
  for (std::size_t by = 0; by < n; ++by) {
    for (std::size_t bx = 0; bx < n; ++bx) {
      const float unscale =
          config_.normalize ? static_cast<float>(B) : 1.0f;
      for (std::size_t c = 0; c < k; ++c)
        scan[c] = tensor.at(c, by, bx) * unscale;
      zigzag_put(scan.data(), k, kp, corner.data());
      plan.inverse_partial(corner.data(), kp, block.data());
      for (std::size_t y = 0; y < B; ++y) {
        float* dst = img.row(by * B + y) + bx * B;
        const float* src = &block[y * B];
        for (std::size_t x = 0; x < B; ++x) dst[x] = src[x];
      }
    }
  }
  return img;
}

}  // namespace hsdl::fte
