#include "layout/raster.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace hsdl::layout {

MaskImage::MaskImage(std::size_t width, std::size_t height, double nm_per_px,
                     float fill)
    : width_(width),
      height_(height),
      nm_per_px_(nm_per_px),
      data_(width * height, fill) {
  HSDL_CHECK(width > 0 && height > 0);
  HSDL_CHECK(nm_per_px > 0.0);
}

void MaskImage::reset(std::size_t width, std::size_t height, double nm_per_px,
                      float fill) {
  HSDL_CHECK(width > 0 && height > 0);
  HSDL_CHECK(nm_per_px > 0.0);
  width_ = width;
  height_ = height;
  nm_per_px_ = nm_per_px;
  data_.assign(width * height, fill);  // assign() reuses capacity
  span_log_.clear();
  span_log_valid_ = false;
}

bool MaskImage::try_span_clear(std::size_t width, std::size_t height,
                               double nm_per_px) {
  if (!span_log_valid_ || width != width_ || height != height_ ||
      nm_per_px != nm_per_px_)
    return false;
  for (const auto& [y, x0, x1] : span_log_) {
    float* rowp = row(y);
    std::fill(rowp + x0, rowp + x1, 0.0f);
  }
  span_log_.clear();
  return true;
}

double MaskImage::mean() const {
  if (data_.empty()) return 0.0;
  double sum = 0.0;
  for (float v : data_) sum += v;
  return sum / static_cast<double>(data_.size());
}

double MaskImage::max_abs_diff(const MaskImage& a, const MaskImage& b) {
  HSDL_CHECK(a.width() == b.width() && a.height() == b.height());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(a.data()[i]) -
                                     static_cast<double>(b.data()[i])));
  return worst;
}

MaskImage rasterize(const Clip& clip, double nm_per_px) {
  MaskImage img;
  rasterize_into(clip, nm_per_px, img);
  return img;
}

PixelGrid pixel_grid(const geom::Rect& window, double nm_per_px) {
  HSDL_CHECK(!window.empty());
  const double wpx = static_cast<double>(window.width()) / nm_per_px;
  const double hpx = static_cast<double>(window.height()) / nm_per_px;
  HSDL_CHECK_MSG(std::abs(wpx - std::round(wpx)) < 1e-9 &&
                     std::abs(hpx - std::round(hpx)) < 1e-9,
                 "window " << window.width() << "x" << window.height()
                           << " nm is not an integer number of pixels at "
                           << nm_per_px << " nm/px");
  return {window, nm_per_px, static_cast<std::size_t>(std::llround(wpx)),
          static_cast<std::size_t>(std::llround(hpx))};
}

PixelRect PixelGrid::snap(const geom::Rect& shape) const {
  const geom::Rect r = shape.intersect(window);
  if (r.empty()) return {};
  // Pixel centre of column x sits at window.lo.x + (x + 0.5) * pitch; it
  // is covered by [r.lo.x, r.hi.x) iff
  // ceil((r.lo.x - 0.5*p - lo) / p) <= x < ceil((r.hi.x - 0.5*p - lo) / p).
  auto first_covered = [&](geom::Coord edge, geom::Coord lo,
                           std::size_t extent) {
    const double v = static_cast<double>(edge - lo) / nm_per_px - 0.5;
    const auto c = static_cast<long long>(std::ceil(v - 1e-12));
    return static_cast<std::size_t>(
        std::clamp(c, 0LL, static_cast<long long>(extent)));
  };
  return {first_covered(r.lo.x, window.lo.x, width),
          first_covered(r.hi.x, window.lo.x, width),
          first_covered(r.lo.y, window.lo.y, height),
          first_covered(r.hi.y, window.lo.y, height)};
}

void rasterize_into(const Clip& clip, double nm_per_px, MaskImage& img) {
  const PixelGrid grid = pixel_grid(clip.window, nm_per_px);
  if (!img.try_span_clear(grid.width, grid.height, nm_per_px))
    img.reset(grid.width, grid.height, nm_per_px);
  img.mark_span_logged();
  for (const geom::Rect& shape : clip.shapes) {
    const PixelRect p = grid.snap(shape);
    if (p.empty()) continue;
    for (std::size_t y = p.y0; y < p.y1; ++y) {
      float* rowp = img.row(y);
      std::fill(rowp + p.x0, rowp + p.x1, 1.0f);
      img.record_span(y, p.x0, p.x1);
    }
  }
}

}  // namespace hsdl::layout
