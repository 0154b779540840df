// Generated-input bitwise contract of feature extraction's front-ends.
//
// extract_into(const Clip&) builds each band's column runs straight from
// the snapped shapes; extract_into(const MaskImage&) finds them by
// comparing adjacent raster columns. Both must reproduce the per-block
// reference path bit for bit — on every generator archetype, on seeded
// random rectangles (overlapping, abutting, hanging off the window, edges
// on pixel centres, windows off the origin) and at every pitch the
// configs use — with the dispatched and the scalar kernels alike.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/cpuinfo.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "fte/feature_tensor.hpp"
#include "layout/generator.hpp"
#include "layout/raster.hpp"

namespace hsdl::fte {
namespace {

using geom::Rect;
using layout::Clip;

std::vector<std::uint32_t> bits(const FeatureTensor& t) {
  std::vector<std::uint32_t> out;
  out.reserve(t.data.size());
  for (const float v : t.data) out.push_back(std::bit_cast<std::uint32_t>(v));
  return out;
}

/// Clip path == raster path == extract_reference, bit for bit (signed zeros
/// included), under the dispatched kernels and under forced scalar.
void expect_bitwise(const FeatureTensorConfig& cfg, const Clip& clip,
                    const std::string& what) {
  SCOPED_TRACE(what);
  const FeatureTensorExtractor ex(cfg);
  const layout::MaskImage raster = layout::rasterize(clip, cfg.nm_per_px);
  const std::vector<std::uint32_t> ref = bits(ex.extract_reference(raster));
  const bool prev = cpu::force_scalar();
  for (const bool scalar : {false, true}) {
    cpu::set_force_scalar(scalar);
    EXPECT_EQ(bits(ex.extract(clip)), ref) << "clip path, scalar=" << scalar;
    EXPECT_EQ(bits(ex.extract(raster)), ref)
        << "raster path, scalar=" << scalar;
  }
  cpu::set_force_scalar(prev);
}

FeatureTensorConfig config(double nm_per_px, std::size_t k = 32,
                           bool normalize = true) {
  FeatureTensorConfig cfg;
  cfg.nm_per_px = nm_per_px;
  cfg.coeffs = k;
  cfg.normalize = normalize;
  return cfg;
}

/// Seeded random layout: rectangles anywhere around a window whose origin
/// is off the grid, with odd coordinates (edges on pixel centres at
/// 2 nm/px), overlaps, abutments and shapes hanging off every side.
Clip random_clip(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto uniform = [&](geom::Coord lo, geom::Coord hi) {
    return std::uniform_int_distribution<geom::Coord>(lo, hi)(rng);
  };
  Clip c;
  const geom::Coord x0 = uniform(-5000, 5000), y0 = uniform(-5000, 5000);
  c.window = Rect::from_xywh(x0, y0, 1200, 1200);
  const int shapes = static_cast<int>(uniform(1, 40));
  for (int i = 0; i < shapes; ++i) {
    const geom::Coord x = x0 + uniform(-300, 1300);
    const geom::Coord y = y0 + uniform(-300, 1300);
    c.shapes.push_back(Rect::from_xywh(x, y, uniform(1, 400), uniform(1, 400)));
    // Every fourth shape gets an abutting neighbour of the same height.
    if (i % 4 == 0) {
      const Rect& r = c.shapes.back();
      c.shapes.push_back(Rect::from_xywh(r.hi.x, r.lo.y, uniform(1, 200),
                                         r.hi.y - r.lo.y));
    }
  }
  return c;
}

TEST(ClipExtractTest, EveryArchetypeMatchesRasterAndReference) {
  for (int a = 0; a < layout::kNumArchetypes; ++a) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      layout::GeneratorConfig gcfg;
      gcfg.stress = 0.2 + 0.3 * static_cast<double>(seed - 1);
      layout::ClipGenerator gen(gcfg, 1000 * seed + static_cast<unsigned>(a));
      const Clip clip = gen.generate(static_cast<layout::Archetype>(a));
      std::ostringstream what;
      what << layout::to_string(static_cast<layout::Archetype>(a))
           << " seed " << seed;
      expect_bitwise(config(2.0), clip, what.str());
    }
  }
}

TEST(ClipExtractTest, RandomRectanglesAtEveryPitchAndPrefix) {
  // nm/px 1, 2, 2.5 and 4 give B = 100, 50, 40 and 25 on n = 12.
  const double pitches[] = {1.0, 2.0, 2.5, 4.0};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const double nm = pitches[seed % 4];
    const std::size_t k = seed % 3 == 0 ? 16 : 32;
    const bool normalize = seed % 5 != 0;
    std::ostringstream what;
    what << "seed " << seed << " nm/px " << nm << " k " << k
         << " normalize " << normalize;
    expect_bitwise(config(nm, k, normalize), random_clip(seed), what.str());
  }
}

TEST(ClipExtractTest, GeneratedClipsAcrossPitchPrefixAndScale) {
  layout::GeneratorConfig gcfg;
  gcfg.stress = 0.45;
  layout::ClipGenerator gen(gcfg, 77);
  const Clip clip = gen.generate(layout::Archetype::kMixed);
  for (const double nm : {1.0, 2.0, 2.5, 4.0})
    for (const std::size_t k : {16u, 32u})
      for (const bool normalize : {true, false}) {
        std::ostringstream what;
        what << "nm/px " << nm << " k " << k << " normalize " << normalize;
        expect_bitwise(config(nm, k, normalize), clip, what.str());
      }
}

TEST(ClipExtractTest, HandcraftedEdgeCases) {
  const Rect window = Rect::from_xywh(-601, 333, 1200, 1200);
  auto at = [&](geom::Coord x, geom::Coord y, geom::Coord w, geom::Coord h) {
    return Rect::from_xywh(window.lo.x + x, window.lo.y + y, w, h);
  };
  struct Case {
    const char* name;
    std::vector<Rect> shapes;
  };
  const std::vector<Case> cases = {
      {"empty", {}},
      {"window exactly covered", {window}},
      {"covered by an overhanging shape",
       {Rect::from_xywh(window.lo.x - 50, window.lo.y - 50, 1300, 1300)}},
      {"overlapping", {at(100, 100, 300, 200), at(250, 150, 300, 400),
                       at(100, 100, 300, 200)}},
      {"abutting", {at(100, 100, 200, 300), at(300, 100, 200, 300),
                    at(100, 400, 400, 100)}},
      {"hanging off every side",
       {at(-100, 500, 300, 50), at(1100, 500, 300, 50), at(500, -100, 50, 300),
        at(500, 1100, 50, 300)}},
      {"edges on pixel centres",
       {at(101, 101, 2, 2), at(203, 1, 1, 1199), at(1, 607, 1199, 1),
        at(999, 999, 1, 1)}},
      {"shapes entirely outside",
       {at(-500, -500, 100, 100), at(1300, 0, 100, 1200)}},
      {"sub-pixel slivers", {at(10, 10, 1, 1), at(20, 0, 1, 1200)}},
  };
  for (const Case& c : cases) {
    Clip clip;
    clip.window = window;
    clip.shapes = c.shapes;
    for (const double nm : {1.0, 2.0, 2.5, 4.0})
      expect_bitwise(config(nm), clip,
                     std::string(c.name) + " at " + std::to_string(nm));
  }
}

TEST(ClipExtractTest, RasterRunsHoldForArbitraryFloats) {
  // The raster front-end merges columns by bit pattern, so it must stay
  // exact on non-binary rasters too: duplicated columns, +0 next to -0,
  // and values the clip path never produces.
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<float> value(-2.0f, 2.0f);
  layout::MaskImage img(600, 600, 2.0);
  for (std::size_t y = 0; y < img.height(); ++y) {
    float v = 0.0f;
    for (std::size_t x = 0; x < img.width(); ++x) {
      if (rng() % 7 == 0) v = value(rng);
      if (rng() % 11 == 0) v = -0.0f;
      img.at(x, y) = v;
    }
  }
  const FeatureTensorExtractor ex(config(2.0));
  const std::vector<std::uint32_t> fast = bits(ex.extract(img));
  EXPECT_EQ(fast, bits(ex.extract_reference(img)));
}

TEST(ClipExtractTest, OneSpanAndOneTensorCountPerExtract) {
  const Clip clip = random_clip(3);
  const bool trace_was = trace::enabled(), metrics_was = metrics::enabled();
  trace::clear();
  trace::set_enabled(true);
  metrics::set_enabled(true);
  // k = 64 needs a 9x9 corner, which takes the reference path via a
  // raster; the counts must not depend on the route.
  for (const std::size_t k : {32u, 64u}) {
    SCOPED_TRACE(k);
    metrics::Counter& tensors = metrics::counter("fte.tensors");
    const std::uint64_t before = tensors.value();
    trace::clear();
    const FeatureTensorExtractor ex(config(2.0, k));
    (void)ex.extract(clip);
    EXPECT_EQ(tensors.value() - before, 1u);
    const json::Value doc = json::parse(trace::chrome_trace_json());
    std::size_t spans = 0;
    for (const json::Value& e : doc.find("traceEvents")->items())
      if (e.find("name")->as_string() == "fte.extract") ++spans;
    EXPECT_EQ(spans, 1u);
  }
  trace::set_enabled(trace_was);
  metrics::set_enabled(metrics_was);
  trace::clear();
}

}  // namespace
}  // namespace hsdl::fte
