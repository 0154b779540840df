// Hierarchical GDSII read (read_hier_gds, DESIGN.md §16): structural
// round-trips against the DOM and the flatten_cell oracle, lazy
// window queries vs the same oracle, AREF repetition round-trips,
// and the corruption sweep (bit flips, truncations, oversized record
// lengths, reference cycles) — a damaged stream is rejected with a
// CheckError-family diagnostic or parses to something valid, never a
// crash or foreign exception.
#include "layout/gds_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/io.hpp"
#include "layout/gdsii.hpp"

namespace hsdl::layout {
namespace {

using geom::Point;
using geom::Polygon;
using geom::Rect;

/// Two-level hierarchy with an AREF, an overlapping SREF and local top
/// shapes — every placement form the hierarchical read supports.
GdsLibrary hier_lib() {
  GdsLibrary lib;
  GdsCell via;
  via.name = "VIA";
  via.boundaries.push_back(Polygon::from_rect(Rect::from_xywh(0, 0, 40, 40)));
  via.layers.push_back(1);

  GdsCell pair;
  pair.name = "PAIR";
  pair.refs.push_back({"VIA", {0, 0}});
  pair.refs.push_back({"VIA", {100, 0}});

  GdsCell top;
  top.name = "TOP";
  top.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(500, 500, 60, 60)));
  top.layers.push_back(1);
  top.refs.push_back({"PAIR", {0, 0}, 3, 2, 300, 250});  // 3x2 array
  top.refs.push_back({"PAIR", {50, 100}});  // overlaps the array
  lib.cells = {via, pair, top};
  return lib;
}

std::string serialized(const GdsLibrary& lib) {
  std::ostringstream os;
  write_gds(os, lib);
  return os.str();
}

HierLayout read_hier(const std::string& bytes,
                     const GdsReadOptions& options = {}) {
  std::istringstream is(bytes);
  return read_hier_gds(is, options);
}

std::vector<Rect> sorted(std::vector<Rect> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Every shape on `layer`, through the lazy query over the whole extent.
std::vector<Rect> query_all(const HierLayout& hier, std::int16_t layer) {
  std::vector<Rect> out;
  hier.query(hier.extent(), layer, out);
  return out;
}

/// The DOM oracle: flatten_cell over the raw refs of the hierarchy's top.
std::vector<Rect> flat_oracle(const GdsLibrary& lib, const HierLayout& hier,
                              std::int16_t layer) {
  return flatten_cell(lib, hier.cell(hier.top()).name, layer);
}

enum class Outcome { kAccepted, kRejected, kForeignException };

Outcome try_read_hier(const std::string& bytes) {
  try {
    (void)read_hier(bytes);
    return Outcome::kAccepted;
  } catch (const CheckError&) {
    return Outcome::kRejected;
  } catch (...) {
    return Outcome::kForeignException;
  }
}

TEST(GdsStreamTest, MatchesDomReaderAndFlattenOracle) {
  const GdsLibrary lib = hier_lib();
  const HierLayout hier = read_hier(serialized(lib));
  ASSERT_EQ(hier.cells().size(), 3u);
  EXPECT_EQ(hier.cells()[hier.top()].name, "TOP");
  const std::vector<Rect> flat = flat_oracle(lib, hier, 1);
  EXPECT_EQ(sorted(query_all(hier, 1)), sorted(flat));
  // 1 top shape + (6 array + 1 single) PAIR x 2 VIA = 15 rects.
  EXPECT_EQ(flat.size(), 15u);
}

TEST(GdsStreamTest, ExtentIsFlattenedBbox) {
  const GdsLibrary lib = hier_lib();
  const HierLayout hier = read_hier(serialized(lib));
  Rect bbox;
  for (const Rect& r : flat_oracle(lib, hier, 1)) bbox = bbox.bbox_union(r);
  EXPECT_EQ(hier.extent(), bbox);
}

TEST(GdsStreamTest, QueryMatchesFlattenOracle) {
  const GdsLibrary lib = hier_lib();
  const HierLayout hier = read_hier(serialized(lib));
  const std::vector<Rect> flat = flat_oracle(lib, hier, 1);
  // Windows chosen to land inside one array instance, straddle two,
  // cover nothing, and cover everything.
  const Rect windows[] = {
      Rect::from_xywh(0, 0, 120, 120),
      Rect::from_xywh(250, 200, 400, 300),  // straddles array columns
      Rect::from_xywh(5000, 5000, 100, 100),
      hier.extent(),
      Rect::from_xywh(90, -10, 40, 500),
  };
  for (const Rect& w : windows) {
    std::vector<Rect> got;
    hier.query(w, 1, got);
    std::vector<Rect> want;
    for (const Rect& r : flat) {
      const Rect cut = r.intersect(w);
      if (!cut.empty()) want.push_back(cut);
    }
    EXPECT_EQ(sorted(got), sorted(want)) << "window " << w.lo.x << ","
                                         << w.lo.y;
  }
}

TEST(GdsStreamTest, ArefRepetitionRoundTrips) {
  const HierLayout hier = read_hier(serialized(hier_lib()));
  const HierCell& top = hier.cells()[hier.top()];
  ASSERT_EQ(top.placements.size(), 2u);
  const HierPlacement& array = top.placements[0];
  EXPECT_EQ(array.cols, 3);
  EXPECT_EQ(array.rows, 2);
  EXPECT_EQ(array.col_pitch, 300);
  EXPECT_EQ(array.row_pitch, 250);
  EXPECT_EQ(array.instances(), 6);
  EXPECT_EQ(array.origin(2, 1), (Point{600, 250}));
  // And through the DOM reader: the same GdsRef comes back.
  std::istringstream is(serialized(hier_lib()));
  const GdsLibrary loaded = read_gds(is);
  const GdsRef& ref = loaded.cells[2].refs[0];
  EXPECT_TRUE(ref.is_array());
  EXPECT_EQ(ref.cols, 3);
  EXPECT_EQ(ref.rows, 2);
  EXPECT_EQ(ref.col_pitch, 300);
  EXPECT_EQ(ref.row_pitch, 250);
}

// -- raw-record builders (for streams the writer cannot produce) ------------

void put_u16(std::string& s, std::uint16_t v) {
  s.push_back(static_cast<char>(v >> 8));
  s.push_back(static_cast<char>(v & 0xFF));
}

void put_i32(std::string& s, std::int32_t v) {
  put_u16(s, static_cast<std::uint16_t>(static_cast<std::uint32_t>(v) >> 16));
  put_u16(s, static_cast<std::uint16_t>(static_cast<std::uint32_t>(v)));
}

void rec(std::string& s, std::uint8_t type, std::uint8_t dtype,
         const std::string& payload = {}) {
  put_u16(s, static_cast<std::uint16_t>(payload.size() + 4));
  s.push_back(static_cast<char>(type));
  s.push_back(static_cast<char>(dtype));
  s += payload;
}

/// Minimal library: UNIT with one 40x40 rect, TOP with one AREF of UNIT
/// whose 3-point XY walks in the negative x direction (col_ref left of
/// the origin) — the writer always emits positive pitches, so this
/// exercises the reader's negative-pitch normalization.
std::string negative_pitch_stream() {
  std::string s;
  rec(s, 0x00, 0x02, std::string("\x02\x58", 2));  // HEADER v600
  rec(s, 0x01, 0x02, std::string(24, '\0'));       // BGNLIB
  rec(s, 0x02, 0x06, "NEG");                       // LIBNAME
  rec(s, 0x03, 0x05, std::string(16, '\0'));       // UNITS (zeros: ok)
  rec(s, 0x05, 0x02, std::string(24, '\0'));       // BGNSTR
  rec(s, 0x06, 0x06, "UNIT");                      // STRNAME
  {
    rec(s, 0x08, 0x00);                            // BOUNDARY
    std::string layer;
    put_u16(layer, 1);
    rec(s, 0x0D, 0x02, layer);                     // LAYER 1
    std::string xy;
    for (const Point p : {Point{0, 0}, Point{40, 0}, Point{40, 40},
                          Point{0, 40}, Point{0, 0}}) {
      put_i32(xy, static_cast<std::int32_t>(p.x));
      put_i32(xy, static_cast<std::int32_t>(p.y));
    }
    rec(s, 0x10, 0x03, xy);                        // XY
    rec(s, 0x11, 0x00);                            // ENDEL
  }
  rec(s, 0x07, 0x00);                              // ENDSTR
  rec(s, 0x05, 0x02, std::string(24, '\0'));       // BGNSTR
  rec(s, 0x06, 0x06, "TOP");                       // STRNAME
  {
    rec(s, 0x0B, 0x00);                            // AREF
    rec(s, 0x12, 0x06, "UNIT");                    // SNAME
    std::string colrow;
    put_u16(colrow, 3);                            // 3 cols
    put_u16(colrow, 1);                            // 1 row
    rec(s, 0x13, 0x02, colrow);                    // COLROW
    std::string xy;                                // origin (600, 0),
    put_i32(xy, 600);                              // col_ref 300 nm LEFT
    put_i32(xy, 0);                                // of it per column
    put_i32(xy, 600 - 3 * 100);
    put_i32(xy, 0);
    put_i32(xy, 600);
    put_i32(xy, 0);                                // row span 0 (1 row)
    rec(s, 0x10, 0x03, xy);                        // XY
    rec(s, 0x11, 0x00);                            // ENDEL
  }
  rec(s, 0x07, 0x00);                              // ENDSTR
  rec(s, 0x04, 0x00);                              // ENDLIB
  return s;
}

TEST(GdsStreamTest, NegativePitchArefNormalized) {
  const std::string bytes = negative_pitch_stream();
  const HierLayout hier = read_hier(bytes);
  const HierCell& top = hier.cells()[hier.top()];
  ASSERT_EQ(top.placements.size(), 1u);
  const HierPlacement& p = top.placements[0];
  EXPECT_EQ(p.cols, 3);
  EXPECT_GT(p.col_pitch, 0);  // normalized to a positive step
  EXPECT_EQ(p.col_pitch, 100);
  EXPECT_EQ(p.at, (Point{400, 0}));  // origin moved to the low corner
  // The oracle expands the raw negative-pitch AREF; the query path runs
  // on the normalized placement, and both must land on the same shapes.
  std::istringstream is(bytes);
  const std::vector<Rect> flat = sorted(flat_oracle(read_gds(is), hier, 1));
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].lo, (Point{400, 0}));
  EXPECT_EQ(flat[1].lo, (Point{500, 0}));
  EXPECT_EQ(flat[2].lo, (Point{600, 0}));
  EXPECT_EQ(sorted(query_all(hier, 1)), flat);
}

/// Hands `check` the io::IoError that read_gds and read_hier_gds each
/// raise on `bytes`; any other outcome fails the calling test.
template <typename Check>
void expect_io_error(const std::string& bytes, Check check) {
  for (int hier = 0; hier < 2; ++hier) {
    std::istringstream is(bytes);
    try {
      if (hier == 1)
        (void)read_hier_gds(is);
      else
        (void)read_gds(is);
      ADD_FAILURE() << "malformed stream accepted (hier=" << hier << ")";
    } catch (const io::IoError& e) {
      check(e);
    }
  }
}

TEST(GdsStreamTest, ShortUnitsPayloadRejectedWithPosition) {
  std::string s;
  rec(s, 0x00, 0x02, std::string("\x02\x58", 2));  // HEADER v600
  rec(s, 0x01, 0x02, std::string(24, '\0'));       // BGNLIB
  rec(s, 0x03, 0x05, std::string(8, '\0'));        // UNITS: 1 of 2 reals
  const std::size_t units_end = s.size();
  rec(s, 0x04, 0x00);                              // ENDLIB
  expect_io_error(s, [&](const io::IoError& e) {
    EXPECT_EQ(e.offset(), units_end) << e.what();
  });
}

TEST(GdsStreamTest, EndlibInsideStructureRejectedWithPosition) {
  std::string bad = serialized(hier_lib());
  // The writer ends with ENDSTR, ENDLIB; dropping ENDSTR leaves the last
  // structure open when ENDLIB arrives.
  const std::string endstr("\x00\x04\x07\x00", 4);
  ASSERT_EQ(bad.substr(bad.size() - 8, 4), endstr);
  bad.erase(bad.size() - 8, 4);
  expect_io_error(bad, [&](const io::IoError& e) {
    EXPECT_EQ(e.offset(), bad.size()) << e.what();
    EXPECT_NE(std::string(e.what()).find("ENDLIB inside structure"),
              std::string::npos)
        << e.what();
  });
}

TEST(GdsStreamTest, CyclicSrefRejected) {
  GdsLibrary lib;
  GdsCell t;
  t.name = "T";
  t.boundaries.push_back(Polygon::from_rect(Rect::from_xywh(0, 0, 10, 10)));
  t.layers.push_back(1);
  t.refs.push_back({"A", {0, 0}});
  GdsCell a;
  a.name = "A";
  a.refs.push_back({"B", {0, 0}});
  GdsCell b;
  b.name = "B";
  b.refs.push_back({"A", {10, 10}});
  lib.cells = {t, a, b};
  try {
    read_hier(serialized(lib));
    FAIL() << "cyclic hierarchy accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos)
        << e.what();
  }
}

TEST(GdsStreamTest, FullyCyclicLibraryRejected) {
  // A <-> B with no unreferenced cell at all: no top exists.
  GdsLibrary lib;
  GdsCell a;
  a.name = "A";
  a.refs.push_back({"B", {0, 0}});
  GdsCell b;
  b.name = "B";
  b.refs.push_back({"A", {0, 0}});
  lib.cells = {a, b};
  EXPECT_THROW(read_hier(serialized(lib)), CheckError);
}

TEST(GdsStreamTest, DuplicateCellNamesRejected) {
  GdsLibrary lib = hier_lib();
  lib.cells[1].name = "VIA";  // two cells named VIA
  EXPECT_THROW(read_hier(serialized(lib)), CheckError);
}

TEST(GdsStreamTest, UnknownReferenceRejected) {
  GdsLibrary lib = hier_lib();
  lib.cells[2].refs[0].cell = "GHOST";
  EXPECT_THROW(read_hier(serialized(lib)), CheckError);
}

TEST(GdsStreamTest, TwoUnreferencedTopsRejected) {
  GdsLibrary lib = hier_lib();
  GdsCell other;
  other.name = "OTHER";
  other.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 5, 5)));
  other.layers.push_back(1);
  lib.cells.push_back(other);
  EXPECT_THROW(read_hier(serialized(lib)), CheckError);
}

TEST(GdsStreamTest, EveryTruncationRejected) {
  const std::string good = serialized(hier_lib());
  ASSERT_EQ(try_read_hier(good), Outcome::kAccepted);
  for (std::size_t len = 0; len < good.size(); ++len)
    EXPECT_EQ(try_read_hier(good.substr(0, len)), Outcome::kRejected)
        << "truncated to " << len << " of " << good.size() << " bytes";
}

TEST(GdsStreamTest, BitFlipsNeverEscapeTheErrorTaxonomy) {
  // GDSII has no checksum, so a flipped bit may still parse (e.g. a
  // coordinate changed) — but it must either parse or be rejected with
  // a CheckError; anything else is a harness escape.
  const std::string good = serialized(hier_lib());
  for (std::size_t i = 0; i < good.size(); ++i)
    for (int b = 0; b < 8; ++b) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ (1 << b));
      EXPECT_NE(try_read_hier(bad), Outcome::kForeignException)
          << "bit flip at byte " << i << " bit " << b;
    }
}

TEST(GdsStreamTest, OversizedRecordLengthRejectedWithPosition) {
  std::string bad = serialized(hier_lib());
  // First record (HEADER) claims the 16-bit maximum — far past both
  // the stream end and any sane record.
  bad[0] = '\xFF';
  bad[1] = '\xFF';
  try {
    read_hier(bad);
    FAIL() << "oversized record length accepted";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.offset(), 0u);  // positioned at the damaged record
  }
}

TEST(GdsStreamTest, RecordBoundOptionEnforced) {
  GdsReadOptions options;
  options.max_record_bytes = 16;  // timestamps records are 28 bytes
  try {
    read_hier(serialized(hier_lib()), options);
    FAIL() << "record above the configured bound accepted";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("record bound"), std::string::npos)
        << e.what();
  }
}

TEST(GdsStreamTest, LayerFilterDropsOtherLayers) {
  GdsLibrary lib = hier_lib();
  lib.cells[2].boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 10, 10)));
  lib.cells[2].layers.push_back(2);
  GdsReadOptions options;
  options.layer_filter = 2;
  const HierLayout hier = read_hier(serialized(lib), options);
  EXPECT_EQ(query_all(hier, 2).size(), 1u);
  EXPECT_TRUE(query_all(hier, 1).empty());
}

TEST(GdsStreamTest, HierFromLibraryMatchesStreamRead) {
  const GdsLibrary lib = hier_lib();
  const HierLayout from_stream = read_hier(serialized(lib));
  const HierLayout from_lib = hier_from_library(lib);
  EXPECT_EQ(from_stream.fingerprint(), from_lib.fingerprint());
  EXPECT_EQ(from_stream.extent(), from_lib.extent());
  EXPECT_EQ(sorted(query_all(from_stream, 1)),
            sorted(query_all(from_lib, 1)));
}

TEST(GdsStreamTest, ContentHashSharedByCongruentCells) {
  GdsLibrary lib;
  GdsCell a;
  a.name = "A";
  a.boundaries.push_back(Polygon::from_rect(Rect::from_xywh(0, 0, 30, 30)));
  a.layers.push_back(1);
  GdsCell b = a;
  b.name = "B";  // identical content, different name
  GdsCell top;
  top.name = "TOP";
  top.refs.push_back({"A", {0, 0}});
  top.refs.push_back({"B", {500, 0}});
  lib.cells = {a, b, top};
  const HierLayout hier = hier_from_library(lib);
  EXPECT_EQ(hier.cells()[0].content_hash, hier.cells()[1].content_hash);
  EXPECT_NE(hier.cells()[0].content_hash,
            hier.cells()[hier.top()].content_hash);
}

TEST(GdsStreamTest, FlatInstanceCountMultipliesNestedArrays) {
  GdsLibrary lib;
  GdsCell unit;
  unit.name = "UNIT";
  unit.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 10, 10)));
  unit.layers.push_back(1);
  GdsCell row;
  row.name = "ROW";
  row.refs.push_back({"UNIT", {0, 0}, 10, 1, 20, 0});
  GdsCell top;
  top.name = "TOP";
  top.refs.push_back({"ROW", {0, 0}, 1, 5, 0, 20});
  lib.cells = {unit, row, top};
  const HierLayout hier = hier_from_library(lib);
  // 5 ROW placements, each placing 10 UNITs: 5 + 5*10 = 55.
  EXPECT_EQ(hier.flat_instance_count(), 55);
  EXPECT_EQ(query_all(hier, 1).size(), 50u);
  EXPECT_EQ(flat_oracle(lib, hier, 1).size(), 50u);
}

TEST(GdsStreamTest, AdversarialRepetitionGuarded) {
  GdsLibrary lib;
  GdsCell unit;
  unit.name = "UNIT";
  unit.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 1, 1)));
  unit.layers.push_back(1);
  GdsCell top;
  top.name = "TOP";
  // 4096 x 4097 > the 2^24 flatten ceiling — finalize is fine (lazy).
  // flatten_cell's refusal is pinned by
  // GdsiiSrefTest.FlattenInstanceBlowupGuarded.
  top.refs.push_back({"UNIT", {0, 0}, 4096, 4097, 10, 10});
  lib.cells = {unit, top};
  const HierLayout hier = hier_from_library(lib);
  EXPECT_GT(hier.flat_instance_count(), std::int64_t{1} << 24);
  // Lazy queries stay O(window): this does not expand the array.
  std::vector<Rect> out;
  hier.query(Rect::from_xywh(0, 0, 15, 15), 1, out);
  EXPECT_EQ(out.size(), 4u);  // origins (0,0),(10,0),(0,10),(10,10)
}

TEST(GdsStreamTest, PresentLayersAscending) {
  GdsLibrary lib = hier_lib();
  lib.cells[2].boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 10, 10)));
  lib.cells[2].layers.push_back(7);
  const HierLayout hier = hier_from_library(lib);
  EXPECT_EQ(hier.present_layers(), (std::vector<std::int16_t>{1, 7}));
}

TEST(GdsStreamTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hier.gds";
  write_gds_file(path, hier_lib());
  const HierLayout hier = read_hier_gds_file(path);
  EXPECT_EQ(hier.cells().size(), 3u);
}

}  // namespace
}  // namespace hsdl::layout
