#include "layout/gdsii.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/check.hpp"
#include "layout/clip.hpp"
#include "layout/generator.hpp"

namespace hsdl::layout {
namespace {

using geom::Polygon;
using geom::Rect;

TEST(GdsRealTest, ZeroRoundTrips) {
  EXPECT_EQ(to_gds_real(0.0), 0u);
  EXPECT_DOUBLE_EQ(from_gds_real(0), 0.0);
}

TEST(GdsRealTest, KnownEncodingOfOne) {
  // 1.0 = 1/16 * 16^1: exponent 65, mantissa 2^52.
  const std::uint64_t bits = to_gds_real(1.0);
  EXPECT_EQ(bits >> 56, 65u);
  EXPECT_DOUBLE_EQ(from_gds_real(bits), 1.0);
}

TEST(GdsRealTest, RoundTripsTypicalValues) {
  for (double v : {1e-9, 1e-3, 0.5, 2.0, 1e6, 3.14159265358979,
                   6.25e-10}) {
    EXPECT_NEAR(from_gds_real(to_gds_real(v)), v, v * 1e-12) << v;
    EXPECT_NEAR(from_gds_real(to_gds_real(-v)), -v, v * 1e-12) << -v;
  }
}

TEST(GdsRealTest, SignBit) {
  EXPECT_EQ(to_gds_real(-1.0) >> 63, 1u);
  EXPECT_EQ(to_gds_real(1.0) >> 63, 0u);
}

Clip demo_clip() {
  Clip c;
  c.window = Rect::from_xywh(0, 0, 1200, 1200);
  c.shapes = {Rect::from_xywh(100, 100, 300, 40),
              Rect::from_xywh(600, 200, 40, 500),
              Rect::from_xywh(0, 900, 1200, 60)};
  return c;
}

/// One cell holding the clip's shapes as rectangle boundaries on `layer`.
GdsLibrary clip_library(const Clip& clip, std::int16_t layer = 1,
                        const std::string& cell_name = "CLIP") {
  GdsCell cell;
  cell.name = cell_name;
  for (const Rect& r : clip.shapes) {
    cell.boundaries.push_back(Polygon::from_rect(r));
    cell.layers.push_back(layer);
  }
  GdsLibrary lib;
  lib.cells.push_back(std::move(cell));
  return lib;
}

TEST(GdsiiTest, ClipRoundTrip) {
  const Clip original = demo_clip();
  std::stringstream ss;
  write_gds(ss, clip_library(original, 7, "TESTCLIP"));
  GdsLibrary lib = read_gds(ss);
  ASSERT_EQ(lib.cells.size(), 1u);
  EXPECT_EQ(lib.cells[0].name, "TESTCLIP");
  const std::vector<Rect> loaded = lib.cells[0].rects_on_layer(7);
  // Same rectangles (decomposition of a rect boundary is itself).
  ASSERT_EQ(loaded.size(), original.shapes.size());
  auto sorted = [](std::vector<Rect> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(loaded), sorted(original.shapes));
}

TEST(GdsiiTest, UnitsRoundTrip) {
  GdsLibrary lib = clip_library(demo_clip());
  lib.db_unit_meters = 1e-9;
  lib.user_unit = 1e-3;
  std::stringstream ss;
  write_gds(ss, lib);
  GdsLibrary loaded = read_gds(ss);
  EXPECT_NEAR(loaded.db_unit_meters, 1e-9, 1e-21);
  EXPECT_NEAR(loaded.user_unit, 1e-3, 1e-15);
}

TEST(GdsiiTest, LibraryNamePreserved) {
  GdsLibrary lib = clip_library(demo_clip());
  lib.name = "MYLIB";
  std::stringstream ss;
  write_gds(ss, lib);
  EXPECT_EQ(read_gds(ss).name, "MYLIB");
}

TEST(GdsiiTest, LayerFiltering) {
  Clip c = demo_clip();
  GdsLibrary lib = clip_library(c, 1);
  // Add one extra boundary on layer 2.
  lib.cells[0].boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 10, 10)));
  lib.cells[0].layers.push_back(2);
  std::stringstream ss;
  write_gds(ss, lib);
  GdsLibrary loaded = read_gds(ss);
  EXPECT_EQ(loaded.cells[0].rects_on_layer(1).size(), c.shapes.size());
  EXPECT_EQ(loaded.cells[0].rects_on_layer(2).size(), 1u);
  EXPECT_TRUE(loaded.cells[0].rects_on_layer(3).empty());
}

TEST(GdsiiTest, LShapedBoundaryDecomposes) {
  GdsLibrary lib;
  GdsCell cell;
  cell.name = "L";
  cell.boundaries.push_back(Polygon(
      {{0, 0}, {100, 0}, {100, 50}, {50, 50}, {50, 100}, {0, 100}}));
  cell.layers.push_back(1);
  lib.cells.push_back(cell);
  std::stringstream ss;
  write_gds(ss, lib);
  GdsLibrary loaded = read_gds(ss);
  auto rects = loaded.cells[0].rects_on_layer(1);
  geom::Area area = 0;
  for (const Rect& r : rects) area += r.area();
  EXPECT_EQ(area, 100 * 100 - 50 * 50);
}

TEST(GdsiiTest, MultipleCells) {
  GdsLibrary lib = clip_library(demo_clip(), 1, "A");
  GdsCell second;
  second.name = "B";
  second.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(5, 5, 20, 20)));
  second.layers.push_back(1);
  lib.cells.push_back(second);
  std::stringstream ss;
  write_gds(ss, lib);
  GdsLibrary loaded = read_gds(ss);
  ASSERT_EQ(loaded.cells.size(), 2u);
  EXPECT_EQ(loaded.cells[1].name, "B");
}

TEST(GdsiiTest, NegativeCoordinates) {
  GdsLibrary lib;
  GdsCell cell;
  cell.name = "NEG";
  cell.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(-500, -300, 100, 100)));
  cell.layers.push_back(1);
  lib.cells.push_back(cell);
  std::stringstream ss;
  write_gds(ss, lib);
  auto rects = read_gds(ss).cells[0].rects_on_layer(1);
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0].lo, (geom::Point{-500, -300}));
}

TEST(GdsiiTest, GeneratedClipsRoundTrip) {
  GeneratorConfig cfg;
  ClipGenerator gen(cfg, 99);
  for (int i = 0; i < 5; ++i) {
    Clip c = gen.generate();
    std::stringstream ss;
    write_gds(ss, clip_library(c));
    const std::vector<Rect> loaded = read_gds(ss).cells[0].rects_on_layer(1);
    geom::Area orig_area = 0, loaded_area = 0;
    for (const Rect& r : c.shapes) orig_area += r.area();
    for (const Rect& r : loaded) loaded_area += r.area();
    EXPECT_EQ(orig_area, loaded_area) << "clip " << i;
  }
}

GdsLibrary hierarchical_lib() {
  GdsLibrary lib;
  GdsCell leaf;
  leaf.name = "VIA";
  leaf.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 40, 40)));
  leaf.layers.push_back(1);

  GdsCell mid;
  mid.name = "PAIR";
  mid.refs.push_back({"VIA", {0, 0}});
  mid.refs.push_back({"VIA", {100, 0}});

  GdsCell top;
  top.name = "TOP";
  top.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(500, 500, 60, 60)));
  top.layers.push_back(1);
  top.refs.push_back({"PAIR", {0, 0}});
  top.refs.push_back({"PAIR", {0, 200}});

  lib.cells = {leaf, mid, top};
  return lib;
}

TEST(GdsiiSrefTest, RefsRoundTrip) {
  std::stringstream ss;
  write_gds(ss, hierarchical_lib());
  GdsLibrary loaded = read_gds(ss);
  ASSERT_EQ(loaded.cells.size(), 3u);
  const GdsCell& top = loaded.cells[2];
  ASSERT_EQ(top.refs.size(), 2u);
  EXPECT_EQ(top.refs[0].cell, "PAIR");
  EXPECT_EQ(top.refs[1].at, (geom::Point{0, 200}));
}

TEST(GdsiiSrefTest, FlattenResolvesHierarchy) {
  GdsLibrary lib = hierarchical_lib();
  auto rects = flatten_cell(lib, "TOP", 1);
  // 1 own boundary + 2 PAIR x 2 VIA = 5 rects.
  ASSERT_EQ(rects.size(), 5u);
  // The deepest instance: VIA at PAIR(0,200) + VIA(100,0).
  bool found = false;
  for (const Rect& r : rects)
    found |= r == Rect::from_xywh(100, 200, 40, 40);
  EXPECT_TRUE(found);
}

TEST(GdsiiSrefTest, FlattenAfterRoundTrip) {
  std::stringstream ss;
  write_gds(ss, hierarchical_lib());
  GdsLibrary loaded = read_gds(ss);
  auto a = flatten_cell(hierarchical_lib(), "TOP", 1);
  auto b = flatten_cell(loaded, "TOP", 1);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(GdsiiSrefTest, FlattenLeafIsItsOwnGeometry) {
  auto rects = flatten_cell(hierarchical_lib(), "VIA", 1);
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], Rect::from_xywh(0, 0, 40, 40));
}

TEST(GdsiiSrefTest, UnknownCellThrows) {
  EXPECT_THROW(flatten_cell(hierarchical_lib(), "NOPE", 1),
               hsdl::CheckError);
}

TEST(GdsiiSrefTest, ReferenceCycleDetected) {
  GdsLibrary lib;
  GdsCell a;
  a.name = "A";
  a.refs.push_back({"B", {0, 0}});
  GdsCell b;
  b.name = "B";
  b.refs.push_back({"A", {10, 10}});
  lib.cells = {a, b};
  EXPECT_THROW(flatten_cell(lib, "A", 1), hsdl::CheckError);
}

TEST(GdsiiTest, TruncatedStreamThrows) {
  std::stringstream ss;
  write_gds(ss, clip_library(demo_clip()));
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_gds(cut), hsdl::CheckError);
}

TEST(GdsiiTest, EmptyStreamThrows) {
  std::stringstream ss("");
  EXPECT_THROW(read_gds(ss), hsdl::CheckError);
}

TEST(GdsiiTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/clip.gds";
  write_gds_file(path, clip_library(demo_clip()));
  const GdsLibrary loaded = read_gds_file(path);
  ASSERT_EQ(loaded.cells.size(), 1u);
  EXPECT_EQ(loaded.cells[0].rects_on_layer(1).size(),
            demo_clip().shapes.size());
}

TEST(GdsiiTest, UnknownRecordsSkipped) {
  // Inject a TEXT-ish record (type 0x0C) between elements; reader must
  // skip it.
  std::stringstream ss;
  write_gds(ss, clip_library(demo_clip()));
  std::string data = ss.str();
  // Append before ENDLIB (last 4 bytes): a 4-byte unknown record.
  std::string unknown = {0x00, 0x04, 0x0C, 0x00};
  data.insert(data.size() - 4, unknown);
  std::stringstream patched(data);
  EXPECT_NO_THROW(read_gds(patched));
}

TEST(GdsReadOptionsTest, ValidateRejectsNonsense) {
  GdsReadOptions options;
  EXPECT_NO_THROW(options.validate());
  options.max_record_bytes = 3;  // smaller than a record header
  EXPECT_THROW(options.validate(), hsdl::CheckError);
  options = {};
  options.max_record_bytes = 70000;  // beyond the 16-bit length field
  EXPECT_THROW(options.validate(), hsdl::CheckError);
  options = {};
  options.layer_filter = 70000;  // beyond the 16-bit layer range
  EXPECT_THROW(options.validate(), hsdl::CheckError);
  options.layer_filter = -1;  // negative = keep all: valid
  EXPECT_NO_THROW(options.validate());
}

TEST(GdsReadOptionsTest, InvalidOptionsRejectedOnRead) {
  std::stringstream ss;
  write_gds(ss, clip_library(demo_clip()));
  GdsReadOptions options;
  options.max_record_bytes = 2;
  EXPECT_THROW(read_gds(ss, options), hsdl::CheckError);
}

TEST(GdsReadOptionsTest, LayerFilterKeepsOnlyThatLayer) {
  GdsLibrary lib = clip_library(demo_clip(), 1);
  lib.cells[0].boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 10, 10)));
  lib.cells[0].layers.push_back(2);
  std::stringstream ss;
  write_gds(ss, lib);
  GdsReadOptions options;
  options.layer_filter = 2;
  GdsLibrary loaded = read_gds(ss, options);
  EXPECT_EQ(loaded.cells[0].rects_on_layer(2).size(), 1u);
  EXPECT_TRUE(loaded.cells[0].rects_on_layer(1).empty());
}

TEST(GdsReadOptionsTest, MaxRecordBytesBoundsRecords) {
  std::stringstream ss;
  write_gds(ss, clip_library(demo_clip()));
  GdsReadOptions options;
  options.max_record_bytes = 16;  // BGNLIB timestamps are 28 bytes
  EXPECT_THROW(read_gds(ss, options), hsdl::CheckError);
}

TEST(GdsReadOptionsTest, StrictModeAcceptsOwnOutput) {
  std::stringstream ss;
  write_gds(ss, hierarchical_lib());
  GdsReadOptions options;
  options.skip_unknown = false;
  EXPECT_NO_THROW(read_gds(ss, options));
}

TEST(GdsReadOptionsTest, StrictModeRejectsUnknownRecords) {
  std::stringstream ss;
  write_gds(ss, clip_library(demo_clip()));
  std::string data = ss.str();
  const std::string unknown = {0x00, 0x04, 0x0C, 0x00};
  data.insert(data.size() - 4, unknown);
  std::stringstream patched(data);
  GdsReadOptions options;
  options.skip_unknown = false;
  EXPECT_THROW(read_gds(patched, options), hsdl::CheckError);
}

TEST(GdsiiSrefTest, ArefRoundTripsThroughWriteRead) {
  GdsLibrary lib = hierarchical_lib();
  lib.cells[2].refs.push_back({"VIA", {1000, 0}, 4, 3, 80, 60});
  std::stringstream ss;
  write_gds(ss, lib);
  GdsLibrary loaded = read_gds(ss);
  const GdsRef& ref = loaded.cells[2].refs[2];
  EXPECT_TRUE(ref.is_array());
  EXPECT_EQ(ref.cols, 4);
  EXPECT_EQ(ref.rows, 3);
  EXPECT_EQ(ref.col_pitch, 80);
  EXPECT_EQ(ref.row_pitch, 60);
  EXPECT_EQ(ref.instances(), 12);
  // Flatten expands the repetition: 5 original + 12 array VIAs.
  auto rects = flatten_cell(loaded, "TOP", 1);
  EXPECT_EQ(rects.size(), 17u);
  bool found = false;
  for (const Rect& r : rects)
    found |= r == Rect::from_xywh(1000 + 3 * 80, 2 * 60, 40, 40);
  EXPECT_TRUE(found);
}

TEST(GdsiiSrefTest, FlattenDepthGuarded) {
  // A 70-deep reference chain exceeds the hierarchy-depth ceiling.
  GdsLibrary lib;
  constexpr int kDepth = 70;
  for (int i = 0; i < kDepth; ++i) {
    GdsCell cell;
    cell.name = "C" + std::to_string(i);
    if (i + 1 < kDepth) cell.refs.push_back({"C" + std::to_string(i + 1),
                                             {0, 0}});
    lib.cells.push_back(cell);
  }
  lib.cells.back().boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 10, 10)));
  lib.cells.back().layers.push_back(1);
  EXPECT_THROW(flatten_cell(lib, "C0", 1), hsdl::CheckError);
}

TEST(GdsiiSrefTest, FlattenInstanceBlowupGuarded) {
  GdsLibrary lib;
  GdsCell unit;
  unit.name = "UNIT";
  unit.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 1, 1)));
  unit.layers.push_back(1);
  GdsCell top;
  top.name = "TOP";
  top.refs.push_back({"UNIT", {0, 0}, 4096, 4097, 10, 10});
  lib.cells = {unit, top};
  EXPECT_THROW(flatten_cell(lib, "TOP", 1), hsdl::CheckError);
}

/// Rectilinear staircase ring with 2 * steps + 2 vertices.
Polygon staircase(int steps) {
  std::vector<geom::Point> ring = {{0, 0}};
  for (int i = 0; i < steps; ++i) {
    ring.push_back({i + 1, i});
    ring.push_back({i + 1, i + 1});
  }
  ring.push_back({0, steps});
  return Polygon(std::move(ring));
}

TEST(GdsiiTest, LongestBoundaryRoundTrips) {
  // 8190 vertices + the closing one fill an XY record of 65528 bytes,
  // the most the 16-bit record length field can frame.
  GdsLibrary lib;
  GdsCell cell;
  cell.name = "STAIRS";
  cell.boundaries.push_back(staircase(4094));
  cell.layers.push_back(1);
  lib.cells.push_back(cell);
  std::stringstream ss;
  write_gds(ss, lib);
  const GdsLibrary loaded = read_gds(ss);
  ASSERT_EQ(loaded.cells[0].boundaries.size(), 1u);
  EXPECT_EQ(loaded.cells[0].boundaries[0].ring().size(), 8190u);
}

TEST(GdsiiTest, WriterRejectsUnrepresentableLibraries) {
  // Each library holds one value GDSII cannot carry: a coordinate or
  // an AREF end point outside int32, or a record past the 16-bit length
  // field. write_gds refuses it before writing a byte.
  std::vector<std::pair<std::string, GdsLibrary>> cases;
  {
    GdsLibrary lib = clip_library(demo_clip());
    lib.cells[0].boundaries.push_back(Polygon::from_rect(
        Rect::from_xywh(geom::Coord{1} << 32, 0, 10, 10)));
    lib.cells[0].layers.push_back(1);
    cases.emplace_back("coordinate beyond int32", lib);
  }
  {
    GdsLibrary lib = hierarchical_lib();
    lib.cells[2].refs.push_back({"PAIR", {0, 0}});
    lib.cells[2].refs.back().at.y = -(geom::Coord{1} << 31) - 1;
    cases.emplace_back("SREF origin below int32", lib);
  }
  {
    GdsLibrary lib = hierarchical_lib();
    // Origin and pitch fit, but the end point 0 + 2 * 2e9 does not.
    lib.cells[2].refs.push_back({"VIA", {0, 0}, 2, 1, 2'000'000'000, 0});
    cases.emplace_back("AREF end point beyond int32", lib);
  }
  {
    GdsLibrary lib;
    GdsCell cell;
    cell.name = "STAIRS";
    cell.boundaries.push_back(staircase(4095));  // 8192 vertices
    cell.layers.push_back(1);
    lib.cells.push_back(cell);
    cases.emplace_back("boundary of 8192 vertices", lib);
  }
  {
    GdsLibrary lib = clip_library(demo_clip(), 1, std::string(70000, 'N'));
    cases.emplace_back("70000-byte cell name", lib);
  }
  for (const auto& [what, lib] : cases) {
    std::ostringstream os;
    EXPECT_THROW(write_gds(os, lib), hsdl::CheckError) << what;
    EXPECT_TRUE(os.str().empty()) << what << ": partial stream written";
  }
}

}  // namespace
}  // namespace hsdl::layout
