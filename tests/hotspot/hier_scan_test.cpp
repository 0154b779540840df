// Hierarchical scan property tests (DESIGN.md §16): scanning a
// HierSource with a CellScanCache — serial, sharded 1/2/8 ways, or
// killed and resumed through the scan journal — produces a report
// bitwise identical to the flat-expanded scan of the same geometry, on
// generator-built hierarchies with nested and overlapping array
// placements.
#include "hotspot/scanner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "hotspot/detector.hpp"
#include "hotspot/engine/engine.hpp"
#include "hotspot/scan_cache.hpp"
#include "hotspot/scan_journal.hpp"
#include "layout/gds_stream.hpp"
#include "layout/gdsii.hpp"
#include "layout/layout.hpp"
#include "layout/layout_source.hpp"

namespace hsdl::hotspot {
namespace {

using geom::Point;
using geom::Polygon;
using geom::Rect;

CnnDetectorConfig small_config() {
  CnnDetectorConfig config;
  config.feature.blocks_per_side = 12;
  config.feature.coeffs = 8;
  config.feature.nm_per_px = 4.0;  // 1200 nm window -> 300 px raster
  config.cnn.stage1_maps = 4;
  config.cnn.stage2_maps = 4;
  config.cnn.fc_nodes = 8;
  return config;
}

ScanConfig band_per_row_config() {
  ScanConfig config;
  config.window_size = 1200;
  config.stride = 1200;
  config.band_rows = 1;
  return config;
}

/// MACRO spans exactly [0,2400)^2 (2x2 windows at stride 1200) with a
/// nested UNIT array and enough asymmetric local geometry that its four
/// windows score differently.
layout::GdsCell macro_cell() {
  layout::GdsCell macro;
  macro.name = "MACRO";
  const Rect local[] = {
      Rect::from_xywh(0, 0, 180, 90),       Rect::from_xywh(2200, 2200, 200, 200),
      Rect::from_xywh(1300, 300, 400, 90),  Rect::from_xywh(300, 1500, 90, 400),
      Rect::from_xywh(1500, 1700, 300, 90), Rect::from_xywh(700, 200, 90, 300),
  };
  for (const Rect& r : local) {
    macro.boundaries.push_back(Polygon::from_rect(r));
    macro.layers.push_back(1);
  }
  macro.refs.push_back({"UNIT", {100, 700}, 3, 3, 300, 300});
  return macro;
}

layout::GdsCell unit_cell() {
  layout::GdsCell unit;
  unit.name = "UNIT";
  unit.boundaries.push_back(Polygon::from_rect(Rect::from_xywh(0, 0, 180, 90)));
  unit.layers.push_back(1);
  return unit;
}

/// TOP = 2x2 array of MACRO at pitch 2400: a 4800x4800 chip, 16 windows
/// in 4 repeated groups — the cache replays rows 2-3 from rows 0-1.
layout::GdsLibrary array_chip() {
  layout::GdsLibrary lib;
  layout::GdsCell top;
  top.name = "TOP";
  top.refs.push_back({"MACRO", {0, 0}, 2, 2, 2400, 2400});
  lib.cells = {unit_cell(), macro_cell(), top};
  return lib;
}

/// Same chip plus placements that overlap the array: a PLUG inside
/// instance (0,0)'s area and a UNIT straddling all four instances.
/// Windows over them get no reuse key — they must still score right.
layout::GdsLibrary overlapping_chip() {
  layout::GdsLibrary lib;
  layout::GdsCell plug;
  plug.name = "PLUG";
  plug.boundaries.push_back(
      Polygon::from_rect(Rect::from_xywh(0, 0, 300, 300)));
  plug.layers.push_back(1);
  layout::GdsCell top;
  top.name = "TOP";
  top.refs.push_back({"MACRO", {0, 0}, 2, 2, 2400, 2400});
  top.refs.push_back({"PLUG", {1500, 1500}});
  top.refs.push_back({"UNIT", {2300, 2350}});
  lib.cells = {unit_cell(), macro_cell(), plug, top};
  return lib;
}

/// The flat oracle: flatten_cell over the library's raw refs, so it shares
/// none of hier_from_library's normalisation with the query path.
layout::Layout flat_expansion(const layout::GdsLibrary& lib,
                              const layout::HierLayout& hier) {
  return layout::Layout(
      hier.extent(),
      layout::flatten_cell(lib, hier.cell(hier.top()).name, 1));
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void expect_same_report(const ScanReport& a, const ScanReport& b) {
  EXPECT_EQ(a.windows_scanned, b.windows_scanned);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].window, b.hits[i].window);
    // Bitwise: cached, sharded and resumed scans must reproduce the
    // flat serial probabilities exactly, not approximately.
    EXPECT_EQ(a.hits[i].probability, b.hits[i].probability);
  }
}

TEST(HierScanTest, CachedHierScanMatchesFlatBitwise) {
  const layout::GdsLibrary lib = array_chip();
  const layout::HierLayout hier = layout::hier_from_library(lib);
  const layout::Layout flat = flat_expansion(lib, hier);
  ASSERT_EQ(hier.extent(), flat.extent());
  const CnnDetector detector(small_config());
  const ChipScanner scanner(band_per_row_config());

  InferenceEngine flat_engine(detector);
  const ScanReport flat_report =
      scanner.scan(layout::FlatSource(flat), flat_engine);
  ASSERT_EQ(flat_report.windows_scanned, 16u);
  EXPECT_EQ(flat_report.windows_from_cache, 0u);

  const layout::HierSource source(hier, 1);
  CellScanCache cache;
  InferenceEngine hier_engine(detector);
  const ScanReport hier_report = scanner.scan(source, hier_engine, &cache);
  expect_same_report(flat_report, hier_report);

  // Rows 0-1 score one window per distinct key (2 keys/row) and alias
  // the in-band duplicate in the second instance column; rows 2-3 land
  // in the second instance row and replay from the cache. 4 windows
  // scored, 12 of 16 served by reuse.
  EXPECT_EQ(hier_report.windows_from_cache, 12u);
  EXPECT_EQ(cache.stats().hits, 8u);  // in-band aliases never probe twice
  // Replayed and aliased windows never reach the engine.
  EXPECT_EQ(hier_engine.stats().requests,
            flat_engine.stats().requests - 12u);

  // A rescan with the warm cache replays everything.
  InferenceEngine warm_engine(detector);
  const ScanReport warm = scanner.scan(source, warm_engine, &cache);
  expect_same_report(flat_report, warm);
  EXPECT_EQ(warm.windows_from_cache, 16u);
  EXPECT_EQ(warm_engine.stats().requests, 0u);
}

TEST(HierScanTest, ShardCountNeverChangesTheReport) {
  const layout::GdsLibrary lib = array_chip();
  const layout::HierLayout hier = layout::hier_from_library(lib);
  const layout::Layout flat = flat_expansion(lib, hier);
  const CnnDetector detector(small_config());
  const ChipScanner scanner(band_per_row_config());

  InferenceEngine flat_engine(detector);
  const ScanReport flat_report =
      scanner.scan(layout::FlatSource(flat), flat_engine);

  const layout::HierSource source(hier, 1);
  const layout::FlatSource flat_source(flat);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    CellScanCache cache;
    const ScanReport sharded =
        scanner.scan_sharded(source, detector, shards, &cache);
    expect_same_report(flat_report, sharded);
    // Without a cache every window is scored, on every shard.
    const ScanReport uncached =
        scanner.scan_sharded(flat_source, detector, shards);
    expect_same_report(flat_report, uncached);
    EXPECT_EQ(uncached.windows_from_cache, 0u);
  }
}

TEST(HierScanTest, ShardedScanFaultSurfacesAfterJoiningWorkers) {
  const layout::HierLayout hier =
      layout::hier_from_library(array_chip());
  const layout::HierSource source(hier, 1);
  const CnnDetector detector(small_config());
  const ChipScanner scanner(band_per_row_config());
  fault::Plan plan;
  plan.specs.push_back({"scan.band", fault::Kind::kFail, 1.0, 0.0,
                        /*start_after=*/1, /*max_fires=*/1});
  fault::ScopedPlan armed(std::move(plan));
  CellScanCache cache;
  // One band of four fails on one of the two shard threads; the error
  // reaches the caller only after both workers have been joined (an
  // unjoined std::thread would terminate the process instead).
  EXPECT_THROW(scanner.scan_sharded(source, detector, 2, &cache), CheckError);
}

TEST(HierScanTest, ReuseMetricsSplitScoredDedupedReplayed) {
  const layout::HierLayout hier =
      layout::hier_from_library(array_chip());
  const layout::HierSource source(hier, 1);
  const CnnDetector detector(small_config());
  const ChipScanner scanner(band_per_row_config());
  metrics::set_enabled(true);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    metrics::reset();
    CellScanCache cache;
    const ScanReport report =
        scanner.scan_sharded(source, detector, shards, &cache);
    // Per row band: two distinct keys, each aliased once in the band;
    // rows 2-3 replay rows 0-1 from the cache (each shard scores its
    // band 0/1 before it reaches band 2/3).
    const std::uint64_t scored =
        metrics::counter("scan.windows_scored").value();
    const std::uint64_t deduped =
        metrics::counter("scan.windows_deduped").value();
    const std::uint64_t replayed =
        metrics::counter("scan.windows_replayed").value();
    EXPECT_EQ(scored, 4u) << shards << " shards";
    EXPECT_EQ(deduped, 4u) << shards << " shards";
    EXPECT_EQ(replayed, 8u) << shards << " shards";
    EXPECT_EQ(scored + deduped + replayed,
              metrics::counter("scan.windows").value());
    EXPECT_EQ(report.windows_from_cache, deduped + replayed);
    EXPECT_EQ(cache.stats().hits, replayed);
    EXPECT_EQ(metrics::gauge("scan.band_rows").value(), 1.0);
  }
  metrics::set_enabled(false);
  metrics::reset();
}

TEST(HierScanTest, OverlappingAndNestedPlacementsStayBitwise) {
  const layout::GdsLibrary lib = overlapping_chip();
  const layout::HierLayout hier = layout::hier_from_library(lib);
  const layout::Layout flat = flat_expansion(lib, hier);
  const CnnDetector detector(small_config());
  const ChipScanner scanner(band_per_row_config());

  InferenceEngine flat_engine(detector);
  const ScanReport flat_report =
      scanner.scan(layout::FlatSource(flat), flat_engine);
  ASSERT_EQ(flat_report.windows_scanned, 16u);

  const layout::HierSource source(hier, 1);
  CellScanCache cache;
  InferenceEngine hier_engine(detector);
  const ScanReport hier_report = scanner.scan(source, hier_engine, &cache);
  expect_same_report(flat_report, hier_report);
  // The PLUG and the straddling UNIT poison some windows' reuse keys —
  // those windows score individually — but not all of them.
  EXPECT_GT(hier_report.windows_from_cache, 0u);
  EXPECT_LT(hier_report.windows_from_cache,
            hier_report.windows_scanned);

  CellScanCache shard_cache;
  expect_same_report(flat_report,
                     scanner.scan_sharded(source, detector, 2, &shard_cache));
}

TEST(HierScanTest, KilledHierScanResumesBitwiseIdentical) {
  const layout::HierLayout hier =
      layout::hier_from_library(array_chip());
  const layout::HierSource source(hier, 1);
  const CnnDetector detector(small_config());
  const ChipScanner scanner(band_per_row_config());
  const std::string path = temp_path("hsdl_hier_scan_resume.journal");
  std::filesystem::remove(path);

  InferenceEngine clean_engine(detector);
  const ScanReport clean = scanner.scan(source, clean_engine);

  {
    fault::Plan plan;
    plan.specs.push_back({"scan.band", fault::Kind::kFail, 1.0, 0.0,
                          /*start_after=*/2, /*max_fires=*/0});
    fault::ScopedPlan armed(std::move(plan));
    InferenceEngine engine(detector);
    CellScanCache cache;
    EXPECT_THROW(scanner.scan_resumable(source, engine, path, &cache),
                 CheckError);
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  InferenceEngine resume_engine(detector);
  CellScanCache resume_cache;
  const ScanReport resumed =
      scanner.scan_resumable(source, resume_engine, path, &resume_cache);
  expect_same_report(clean, resumed);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(HierScanTest, JournalFingerprintSeparatesSources) {
  // A journal recorded against the flat expansion must not be resumed
  // by the hierarchical scan (or vice versa): the source fingerprint is
  // part of the journal fingerprint.
  const layout::GdsLibrary lib = array_chip();
  const layout::HierLayout hier = layout::hier_from_library(lib);
  const layout::Layout flat = flat_expansion(lib, hier);
  const layout::HierSource hier_source(hier, 1);
  const layout::FlatSource flat_source(flat);
  const ScanConfig config = band_per_row_config();
  EXPECT_NE(ScanJournal::fingerprint(config, hier_source.extent(),
                                     hier_source.fingerprint()),
            ScanJournal::fingerprint(config, flat_source.extent(),
                                     flat_source.fingerprint()));
}

TEST(HierScanTest, ShardedScanValidatesShardCount) {
  const layout::HierLayout hier =
      layout::hier_from_library(array_chip());
  const layout::HierSource source(hier, 1);
  const CnnDetector detector(small_config());
  const ChipScanner scanner(band_per_row_config());
  EXPECT_THROW(scanner.scan_sharded(source, detector, 0), CheckError);
}

}  // namespace
}  // namespace hsdl::hotspot
