// LayoutSource adapters (DESIGN.md §16): the FlatSource preserves the
// old flat scan semantics verbatim, and HierSource::window_key honours
// the WindowKey contract — equal keys imply bitwise-identical
// normalized clips — across repeated and nested placements.
#include "layout/layout_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "geom/polygon.hpp"
#include "layout/gds_stream.hpp"
#include "layout/gdsii.hpp"
#include "layout/layout.hpp"

namespace hsdl::layout {
namespace {

using geom::Point;
using geom::Polygon;
using geom::Rect;

/// TOP = 2x2 array of MACRO (bbox 100x100, pitch 200) with a gap
/// between instances, plus MACRO nesting a 2x1 array of UNIT.
GdsLibrary nested_array_lib() {
  GdsLibrary lib;
  GdsCell unit;
  unit.name = "UNIT";
  unit.boundaries.push_back(Polygon::from_rect(Rect::from_xywh(0, 0, 20, 20)));
  unit.layers.push_back(1);

  GdsCell macro;
  macro.name = "MACRO";
  macro.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(60, 60, 40, 40)));
  macro.layers.push_back(1);
  macro.refs.push_back({"UNIT", {0, 0}, 2, 1, 30, 0});

  GdsCell top;
  top.name = "TOP";
  top.refs.push_back({"MACRO", {0, 0}, 2, 2, 200, 200});
  lib.cells = {unit, macro, top};
  return lib;
}

Layout grid_chip(geom::Coord jitter) {
  std::vector<Rect> shapes;
  for (geom::Coord y = 0; y < 2400; y += 400)
    for (geom::Coord x = 0; x < 2400; x += 600)
      shapes.push_back(Rect::from_xywh(x + jitter, y, 180, 90));
  return Layout(Rect::from_xywh(0, 0, 2400, 2400), std::move(shapes));
}

TEST(FlatSourceTest, DelegatesAndNeverOffersKeys) {
  const Layout chip = grid_chip(0);
  const FlatSource source(chip);
  EXPECT_EQ(source.extent(), chip.extent());
  const Rect w = Rect::from_xywh(100, 100, 1200, 1200);
  const Clip direct = chip.extract_clip(w);
  const Clip via = source.extract_clip(w);
  EXPECT_EQ(via.window, direct.window);
  EXPECT_EQ(via.shapes, direct.shapes);
  EXPECT_EQ(source.window_key(w), std::nullopt);
}

TEST(FlatSourceTest, FingerprintTracksGeometry) {
  const Layout a = grid_chip(0);
  const Layout b = grid_chip(13);
  const Layout a2 = grid_chip(0);
  EXPECT_EQ(FlatSource(a).fingerprint(), FlatSource(a2).fingerprint());
  EXPECT_NE(FlatSource(a).fingerprint(), FlatSource(b).fingerprint());
}

TEST(HierSourceTest, FingerprintDependsOnLayer) {
  const HierLayout hier = hier_from_library(nested_array_lib());
  const HierSource l1(hier, 1);
  const HierSource l2(hier, 2);
  EXPECT_NE(l1.fingerprint(), l2.fingerprint());
  EXPECT_EQ(l1.fingerprint(), HierSource(hier, 1).fingerprint());
}

TEST(HierSourceTest, RepeatedInstancesShareAKey) {
  const HierLayout hier = hier_from_library(nested_array_lib());
  const HierSource source(hier, 1);
  // The same window offset inside each of the four MACRO instances.
  const Rect in_00 = Rect::from_xywh(10, 10, 80, 80);
  const Rect in_10 = Rect::from_xywh(210, 10, 80, 80);
  const Rect in_01 = Rect::from_xywh(10, 210, 80, 80);
  const auto k00 = source.window_key(in_00);
  const auto k10 = source.window_key(in_10);
  const auto k01 = source.window_key(in_01);
  ASSERT_TRUE(k00.has_value());
  EXPECT_FALSE(k00->empty_window);
  EXPECT_EQ(*k00, *k10);
  EXPECT_EQ(*k00, *k01);
  // The contract the cache leans on: equal keys, bitwise-equal
  // normalized clips.
  const Clip c00 = source.extract_clip(in_00).normalized();
  const Clip c10 = source.extract_clip(in_10).normalized();
  EXPECT_EQ(c00.shapes, c10.shapes);
  EXPECT_FALSE(c00.shapes.empty());
}

TEST(HierSourceTest, DifferentOffsetsGetDifferentKeys) {
  const HierLayout hier = hier_from_library(nested_array_lib());
  const HierSource source(hier, 1);
  const auto a = source.window_key(Rect::from_xywh(10, 10, 80, 80));
  const auto b = source.window_key(Rect::from_xywh(15, 10, 80, 80));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b);
}

TEST(HierSourceTest, StraddlingWindowGetsNoKey) {
  const HierLayout hier = hier_from_library(nested_array_lib());
  const HierSource source(hier, 1);
  // Overlaps the (0,0) and (1,0) MACRO instances: two contributing
  // subtrees at the top, so there is nothing cacheable to name.
  EXPECT_EQ(source.window_key(Rect::from_xywh(50, 10, 200, 80)),
            std::nullopt);
}

TEST(HierSourceTest, EmptyWindowsShareTheSentinel) {
  const HierLayout hier = hier_from_library(nested_array_lib());
  const HierSource source(hier, 1);
  // The gaps between array instances carry no geometry at all.
  const auto a = source.window_key(Rect::from_xywh(110, 110, 80, 80));
  const auto b = source.window_key(Rect::from_xywh(310, 110, 80, 80));
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->empty_window);
  EXPECT_EQ(*a, *b);
  EXPECT_TRUE(source.extract_clip(Rect::from_xywh(110, 110, 80, 80))
                  .shapes.empty());
}

TEST(HierSourceTest, TopLevelLocalShapesBlockKeys) {
  GdsLibrary lib = nested_array_lib();
  lib.cells[2].boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(120, 120, 30, 30)));
  lib.cells[2].layers.push_back(1);
  const HierLayout hier = hier_from_library(lib);
  const HierSource source(hier, 1);
  // Window over the top-level shape: stuck at TOP without descending.
  EXPECT_EQ(source.window_key(Rect::from_xywh(110, 110, 80, 80)),
            std::nullopt);
  // Windows fully inside an instance still descend and key normally.
  EXPECT_TRUE(source.window_key(Rect::from_xywh(210, 10, 80, 80))
                  .has_value());
}

TEST(HierSourceTest, DescendsThroughNestedArrays) {
  const HierLayout hier = hier_from_library(nested_array_lib());
  const HierSource source(hier, 1);
  // Fully inside one UNIT instance of one MACRO instance: the key names
  // UNIT, so it is shared across all eight UNIT placements chip-wide.
  const auto a = source.window_key(Rect::from_xywh(2, 2, 15, 15));
  const auto b = source.window_key(Rect::from_xywh(32, 2, 15, 15));    // UNIT #2
  const auto c = source.window_key(Rect::from_xywh(202, 2, 15, 15));   // MACRO #2
  const auto d = source.window_key(Rect::from_xywh(232, 202, 15, 15)); // both
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, *c);
  EXPECT_EQ(*a, *d);
  const Clip ca = source.extract_clip(Rect::from_xywh(2, 2, 15, 15));
  const Clip cd = source.extract_clip(Rect::from_xywh(232, 202, 15, 15));
  EXPECT_EQ(ca.normalized().shapes, cd.normalized().shapes);
}

TEST(HierSourceTest, ExtractClipMatchesFlattenOracle) {
  const GdsLibrary lib = nested_array_lib();
  const HierLayout hier = hier_from_library(lib);
  const HierSource source(hier, 1);
  const std::vector<Rect> flat =
      flatten_cell(lib, hier.cell(hier.top()).name, 1);
  const Rect w = Rect::from_xywh(30, 30, 250, 250);
  const Clip clip = source.extract_clip(w);
  EXPECT_EQ(clip.window, w);
  std::vector<Rect> want;
  for (const Rect& r : flat) {
    const Rect cut = r.intersect(w);
    if (!cut.empty()) want.push_back(cut);
  }
  std::vector<Rect> got = clip.shapes;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace hsdl::layout
