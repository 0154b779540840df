#include "hotspot/scanner.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace hsdl::hotspot {
namespace {

/// Deterministic stand-in detector: flags windows whose clip density
/// exceeds a threshold.
class DensityThresholdDetector final : public Detector {
 public:
  explicit DensityThresholdDetector(double threshold)
      : threshold_(threshold) {}
  std::string name() const override { return "density-threshold"; }
  void train(std::span<const layout::LabeledClip>) override {}
  bool predict(const layout::Clip& clip) const override {
    ++calls;
    return clip.density() > threshold_;
  }
  mutable int calls = 0;

 private:
  double threshold_;
};

layout::Layout dense_corner_chip() {
  // 2400x2400 chip: the lower-left 1200-tile is solid, the rest sparse.
  std::vector<geom::Rect> shapes = {
      geom::Rect::from_xywh(0, 0, 1100, 1100),
      geom::Rect::from_xywh(1300, 1300, 50, 50)};
  return layout::Layout(geom::Rect::from_xywh(0, 0, 2400, 2400),
                        std::move(shapes));
}

TEST(ScannerTest, WindowCountMatchesGrid) {
  layout::Layout chip = dense_corner_chip();
  ChipScanner scanner(ScanConfig{1200, 1200});
  DensityThresholdDetector det(0.5);
  ScanReport report = scanner.scan(layout::FlatSource(chip), det);
  EXPECT_EQ(report.windows_scanned, 4u);
  EXPECT_EQ(det.calls, 4);
}

TEST(ScannerTest, StrideControlsOverlap) {
  layout::Layout chip = dense_corner_chip();
  ChipScanner scanner(ScanConfig{1200, 600});
  DensityThresholdDetector det(0.5);
  ScanReport report = scanner.scan(layout::FlatSource(chip), det);
  EXPECT_EQ(report.windows_scanned, 9u);  // 3x3 positions
}

TEST(ScannerTest, FlagsOnlyDenseWindows) {
  layout::Layout chip = dense_corner_chip();
  ChipScanner scanner(ScanConfig{1200, 1200});
  DensityThresholdDetector det(0.5);
  ScanReport report = scanner.scan(layout::FlatSource(chip), det);
  ASSERT_EQ(report.hits.size(), 1u);
  EXPECT_EQ(report.hits[0].window, geom::Rect::from_xywh(0, 0, 1200, 1200));
  EXPECT_DOUBLE_EQ(report.flagged_fraction(), 0.25);
}

TEST(ScannerTest, OdstAccountsFlaggedOnly) {
  layout::Layout chip = dense_corner_chip();
  ChipScanner scanner(ScanConfig{1200, 1200});
  DensityThresholdDetector det(0.5);
  ScanReport report = scanner.scan(layout::FlatSource(chip), det);
  EXPECT_NEAR(report.odst_seconds(), 10.0 + report.scan_seconds, 1e-9);
  EXPECT_DOUBLE_EQ(report.full_simulation_seconds(), 40.0);
  EXPECT_LT(report.odst_seconds(), report.full_simulation_seconds());
}

TEST(ScannerTest, LayoutSmallerThanWindowThrows) {
  layout::Layout tiny(geom::Rect::from_xywh(0, 0, 600, 600),
                      {geom::Rect::from_xywh(0, 0, 100, 100)});
  ChipScanner scanner(ScanConfig{1200, 1200});
  DensityThresholdDetector det(0.5);
  EXPECT_THROW(scanner.scan(layout::FlatSource(tiny), det), hsdl::CheckError);
}

TEST(ScannerTest, ConfigValidation) {
  EXPECT_THROW(ChipScanner(ScanConfig{0, 1200}), hsdl::CheckError);
  EXPECT_THROW(ChipScanner(ScanConfig{1200, 0}), hsdl::CheckError);
}

TEST(ScannerTest, ClipsPassedNormalized) {
  // Detectors expect origin-normalized clips (their rasterizer does too);
  // check the scanner normalizes far-from-origin windows.
  class WindowProbe final : public Detector {
   public:
    std::string name() const override { return "probe"; }
    void train(std::span<const layout::LabeledClip>) override {}
    bool predict(const layout::Clip& clip) const override {
      EXPECT_EQ(clip.window.lo, (geom::Point{0, 0}));
      return false;
    }
  };
  layout::Layout chip = dense_corner_chip();
  ChipScanner scanner(ScanConfig{1200, 1200});
  WindowProbe probe;
  scanner.scan(layout::FlatSource(chip), probe);
}

layout::Layout trailing_band_chip() {
  // 2900x2900 chip whose only dense patch sits past 2400 — entirely
  // inside the band a bare stride-1200 grid of 1200-windows never
  // visits. Density 400*400/1200^2 = 0.111.
  std::vector<geom::Rect> shapes = {
      geom::Rect::from_xywh(2450, 2450, 400, 400)};
  return layout::Layout(geom::Rect::from_xywh(0, 0, 2900, 2900),
                        std::move(shapes));
}

TEST(ScannerTest, TrailingBandIsScanned) {
  // Regression: windows overhanging the extent used to be skipped, so a
  // hotspot in the last partial band was invisible to the scan. The
  // final row/column now clamps to extent.hi - window_size.
  layout::Layout chip = trailing_band_chip();
  ChipScanner scanner(ScanConfig{1200, 1200});
  DensityThresholdDetector det(0.05);
  ScanReport report = scanner.scan(layout::FlatSource(chip), det);
  // Grid {0, 1200} plus the clamped position 1700, per axis.
  EXPECT_EQ(report.windows_scanned, 9u);
  ASSERT_EQ(report.hits.size(), 1u);
  EXPECT_EQ(report.hits[0].window,
            geom::Rect::from_xywh(1700, 1700, 1200, 1200));
}

TEST(ScannerTest, StrideAlignedExtentGetsNoExtraWindows) {
  // When the stride tiles the extent exactly, the clamp adds nothing.
  layout::Layout chip = dense_corner_chip();  // 2400 extent, stride 1200
  ChipScanner scanner(ScanConfig{1200, 1200});
  DensityThresholdDetector det(0.5);
  EXPECT_EQ(scanner.scan(layout::FlatSource(chip), det).windows_scanned, 4u);
}

TEST(ScannerTest, ClampedGridNeverDuplicatesWindows) {
  // Property sweep: whatever the stride/extent combination, no window
  // rect is ever scanned (or reported) twice. A clamped trailing origin
  // landing on an interior grid position used to produce exactly that.
  for (geom::Coord extent : {2400, 2500, 2900, 3000, 3100}) {
    for (geom::Coord stride : {300, 500, 700, 1200}) {
      layout::Layout chip(
          geom::Rect::from_xywh(0, 0, extent, extent),
          {geom::Rect::from_xywh(0, 0, 50, 50)});
      ChipScanner scanner(ScanConfig{1200, stride});
      DensityThresholdDetector flag_all(-1.0);  // every window is a hit
      ScanReport report = scanner.scan(layout::FlatSource(chip), flag_all);
      EXPECT_EQ(report.hits.size(), report.windows_scanned);
      std::set<std::pair<geom::Coord, geom::Coord>> seen;
      for (const ScanHit& hit : report.hits)
        EXPECT_TRUE(seen.insert({hit.window.lo.x, hit.window.lo.y}).second)
            << "duplicate window at (" << hit.window.lo.x << ", "
            << hit.window.lo.y << ") with extent " << extent << " stride "
            << stride;
    }
  }
}

TEST(ScannerTest, ReportBitwiseIdenticalAcrossThreadCounts) {
  layout::Layout chip = trailing_band_chip();
  ChipScanner scanner(ScanConfig{1200, 700});
  auto run = [&](std::size_t threads) {
    set_num_threads(threads);
    DensityThresholdDetector det(0.05);
    ScanReport r = scanner.scan(layout::FlatSource(chip), det);
    set_num_threads(0);
    return r;
  };
  const ScanReport base = run(1);
  for (std::size_t threads : {2u, 8u}) {
    const ScanReport r = run(threads);
    EXPECT_EQ(r.windows_scanned, base.windows_scanned);
    ASSERT_EQ(r.hits.size(), base.hits.size()) << threads << " threads";
    for (std::size_t i = 0; i < r.hits.size(); ++i) {
      EXPECT_EQ(r.hits[i].window, base.hits[i].window);
      // Bitwise, not approximate: the merge order must not depend on
      // the thread count.
      EXPECT_EQ(r.hits[i].probability, base.hits[i].probability);
    }
  }
}

}  // namespace
}  // namespace hsdl::hotspot
