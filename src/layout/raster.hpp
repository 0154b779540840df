// Raster mask images and clip rasterization.
//
// Both feature extraction (DCT over pixel blocks) and lithography
// simulation consume a sampled binary mask. MaskImage is a dense row-major
// float grid with a physical pixel pitch in nanometres.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "layout/clip.hpp"

namespace hsdl::layout {

/// Dense row-major float image with physical pixel pitch.
class MaskImage {
 public:
  MaskImage() = default;
  MaskImage(std::size_t width, std::size_t height, double nm_per_px,
            float fill = 0.0f);

  /// Re-shapes this image in place and refills it with `fill`, keeping
  /// the existing allocation when it is large enough, so a caller that
  /// rasterizes many clips into one image stops paying an allocation +
  /// page-fault per clip.
  void reset(std::size_t width, std::size_t height, double nm_per_px,
             float fill = 0.0f);

  std::size_t width() const { return width_; }
  std::size_t height() const { return height_; }
  double nm_per_px() const { return nm_per_px_; }
  std::size_t size() const { return data_.size(); }

  float& at(std::size_t x, std::size_t y) { return data_[y * width_ + x]; }
  float at(std::size_t x, std::size_t y) const { return data_[y * width_ + x]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(std::size_t y) { return data_.data() + y * width_; }
  const float* row(std::size_t y) const { return data_.data() + y * width_; }

  /// Mean pixel value (image density for binary masks).
  double mean() const;

  /// Max |a - b| over all pixels; images must have identical shape.
  static double max_abs_diff(const MaskImage& a, const MaskImage& b);

  // --- Span-logged fast clear (used by rasterize_into) -------------------
  //
  // A loop that re-rasterizes into the same image thousands of times per
  // second pays more for the full refill in reset() than for the shape
  // fills themselves. rasterize_into instead logs every span it sets to 1;
  // the next call then only has to zero those spans, because every other
  // pixel is still 0 from the previous round. The log is only trusted
  // while no other writer touched the buffer: reset() and the constructors
  // invalidate it, and any code mutating a raster through row()/data()/at()
  // must call reset() before handing it back to rasterize_into.

  /// Zeroes just the logged spans when the shape is unchanged and the log
  /// is valid; returns false (caller must do a full reset) otherwise.
  bool try_span_clear(std::size_t width, std::size_t height,
                      double nm_per_px);
  /// Marks the buffer as fully span-logged from now on.
  void mark_span_logged() { span_log_valid_ = true; }
  void record_span(std::size_t y, std::size_t x0, std::size_t x1) {
    span_log_.push_back({y, x0, x1});
  }

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  double nm_per_px_ = 1.0;
  std::vector<float> data_;
  std::vector<std::array<std::size_t, 3>> span_log_;
  bool span_log_valid_ = false;
};

/// Pixels [x0, x1) x [y0, y1) of a window's pixel grid.
struct PixelRect {
  std::size_t x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  bool empty() const { return x0 >= x1 || y0 >= y1; }
};

/// The pixel grid of a clip window at a given pitch, and the one
/// pixel-snapping rule every consumer of clip geometry shares.
///
/// Pixel (x, y) covers the physical square
/// [window.lo + x*pitch, +pitch) x [window.lo + y*pitch, +pitch); a pixel is
/// covered by a shape when its *centre* falls inside it, which keeps
/// abutting shapes seamless.
struct PixelGrid {
  geom::Rect window;
  double nm_per_px = 1.0;
  std::size_t width = 0, height = 0;

  /// The pixels whose centres `shape` (clipped to the window) covers;
  /// empty when it covers none.
  PixelRect snap(const geom::Rect& shape) const;
};

/// Throws CheckError unless the window is non-empty and an integer
/// number of pixels on each side.
PixelGrid pixel_grid(const geom::Rect& window, double nm_per_px);

/// Rasterizes a clip to a binary mask: 1 on the pixels PixelGrid::snap
/// assigns to some shape, 0 elsewhere.
MaskImage rasterize(const Clip& clip, double nm_per_px);

/// Allocation-free variant: rasterizes into `img`, reset() to the right
/// shape (reusing its buffer). Pixel values are bitwise identical to
/// rasterize()'s.
void rasterize_into(const Clip& clip, double nm_per_px, MaskImage& img);

}  // namespace hsdl::layout
