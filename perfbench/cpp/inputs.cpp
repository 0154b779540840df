// Seeded input generation and small shared helpers.
#include <malloc.h>

#include <algorithm>
#include <ctime>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "common/check.hpp"
#include "geom/polygon.hpp"
#include "layout/gdsii.hpp"
#include "layout/generator.hpp"
#include "layout/layout.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double iqr_share(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto at = [&](double m) {  // exclusive method, 1-based position m
    const double pos = std::clamp(m, 1.0, n);
    const std::size_t j = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(j);
    const double lo = v[j - 1];
    const double hi = v[std::min<std::size_t>(j, v.size() - 1)];
    return lo + (hi - lo) * frac;
  };
  const double med = quantile_sorted(v, 0.5);
  return med == 0.0 ? 0.0 : (at((n + 1) * 0.75) - at((n + 1) * 0.25)) / med;
}

json::Value spread_json(const std::vector<double>& v) {
  json::Value o = json::Value::object();
  o.set("n", v.size());
  if (!v.empty()) {
    o.set("min", *std::min_element(v.begin(), v.end()));
    o.set("median", median(v));
    o.set("max", *std::max_element(v.begin(), v.end()));
    o.set("iqr_share", iqr_share(v));
    if (v.size() <= 64) {  // scan repetitions can number in the hundreds
      json::Value all = json::Value::array();
      for (double x : v) all.push_back(x);
      o.set("values", std::move(all));
    }
  }
  return o;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

CpuTimes cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTimes t;
  if (!(stat >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  for (int field = 0; field < 8; ++field) {
    double ticks = 0.0;
    if (!(stat >> ticks)) break;
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Model

hotspot::CnnDetectorConfig paper_config() {
  hotspot::CnnDetectorConfig config;
  config.feature.blocks_per_side = 12;
  config.feature.coeffs = 32;
  config.feature.nm_per_px = 2.0;
  config.cnn.input_channels = 32;
  config.cnn.input_side = 12;
  config.cnn.stage1_maps = 16;
  config.cnn.stage2_maps = 32;
  config.cnn.fc_nodes = 250;
  config.cnn.seed = 42;
  config.seed = 1;
  return config;
}

std::unique_ptr<hotspot::CnnDetector> make_detector(
    const std::vector<layout::LabeledClip>& calibration, bool int8) {
  auto detector = std::make_unique<hotspot::CnnDetector>(paper_config());
  detector->quantize(calibration);
  detector->set_use_quantized(false);
  std::vector<layout::Clip> clips;
  clips.reserve(calibration.size());
  for (const layout::LabeledClip& c : calibration) clips.push_back(c.clip);
  std::vector<double> p = detector->predict_probabilities(clips);
  std::sort(p.begin(), p.end());
  detector->set_shift(0.5 - quantile_sorted(p, 0.75));
  detector->set_use_quantized(int8);
  return detector;
}

// ---------------------------------------------------------------------------
// Clips and chips

namespace {

constexpr geom::Coord kTile = 1200;  // generator clip edge, nm

layout::GeneratorConfig generator_config() { return layout::GeneratorConfig{}; }

/// One cell's worth of rectangles as GDS boundaries on layer 1.
layout::GdsCell rect_cell(const std::string& name,
                          const std::vector<geom::Rect>& rects) {
  layout::GdsCell cell;
  cell.name = name;
  cell.boundaries.reserve(rects.size());
  for (const geom::Rect& r : rects) {
    cell.boundaries.push_back(geom::Polygon::from_rect(r));
    cell.layers.push_back(1);
  }
  return cell;
}

std::string encode(const layout::GdsLibrary& lib) {
  std::ostringstream os;
  layout::write_gds(os, lib);
  return os.str();
}

}  // namespace

std::vector<layout::LabeledClip> calibration_clips(std::uint64_t seed,
                                                   std::size_t n) {
  layout::ClipGenerator gen(generator_config(), seed ^ 0x5eedca11ULL);
  std::vector<layout::LabeledClip> out(n);
  for (layout::LabeledClip& c : out) c.clip = gen.generate();
  return out;
}

std::vector<layout::Clip> generator_pool(std::uint64_t seed, std::size_t n) {
  layout::ClipGenerator gen(generator_config(), seed ^ 0x9001ULL);
  std::vector<layout::Clip> out(n);
  for (layout::Clip& c : out) c = gen.generate();
  return out;
}

std::string flat_chip_gds(std::uint64_t seed, int tiles) {
  const layout::Layout chip = layout::generate_chip(
      kTile * tiles, kTile * tiles, generator_config(), seed);
  layout::GdsLibrary lib;
  lib.cells.push_back(rect_cell("TOP", chip.shapes()));
  return encode(lib);
}

std::string tiled_pool_gds(const std::vector<layout::Clip>& pool, int tiles) {
  HSDL_CHECK(!pool.empty());
  std::vector<geom::Rect> rects;
  for (int t = 0; t < tiles * tiles; ++t) {
    const layout::Clip clip = pool[static_cast<std::size_t>(t) % pool.size()]
                                  .normalized();
    const geom::Point at{(t % tiles) * kTile, (t / tiles) * kTile};
    for (const geom::Rect& r : clip.shapes) rects.push_back(r.shifted(at));
  }
  layout::GdsLibrary lib;
  lib.cells.push_back(rect_cell("TOP", rects));
  return encode(lib);
}

std::string hier_chip_gds(std::uint64_t seed, int macros, int bank,
                          int reps) {
  constexpr int kMacroTiles = 2;
  constexpr geom::Coord kMacro = kMacroTiles * kTile;  // 2.4 um
  const geom::Coord bank_pitch = bank * kMacro;
  layout::ClipGenerator gen(generator_config(), seed ^ 0x41e7ULL);
  layout::GdsLibrary lib;
  layout::GdsCell top;
  top.name = "TOP";
  for (int m = 0; m < macros; ++m) {
    std::vector<geom::Rect> rects;
    for (int t = 0; t < kMacroTiles * kMacroTiles; ++t) {
      // Clipped to the tile so the macro stays inside its array pitch.
      const layout::Clip clip = gen.generate();
      const geom::Point at{(t % kMacroTiles) * kTile, (t / kMacroTiles) * kTile};
      for (const geom::Rect& r : clip.shapes) {
        const geom::Rect in = r.intersect(clip.window);
        if (!in.empty()) rects.push_back(in.shifted(at));
      }
    }
    const std::string macro = "MACRO" + std::to_string(m);
    const std::string bank_name = "BANK" + std::to_string(m);
    layout::GdsCell macro_cell = rect_cell(macro, rects);
    // Cell outline on a boundary layer (2): pins each macro's bbox to
    // its array pitch, as a place-and-route boundary does.
    macro_cell.boundaries.push_back(
        geom::Polygon::from_rect(geom::Rect::from_xywh(0, 0, kMacro, kMacro)));
    macro_cell.layers.push_back(2);
    lib.cells.push_back(std::move(macro_cell));
    layout::GdsCell bank_cell;
    bank_cell.name = bank_name;
    bank_cell.refs.push_back({macro, {0, 0}, bank, bank, kMacro, kMacro});
    lib.cells.push_back(std::move(bank_cell));
    const geom::Coord block = reps * bank_pitch;
    top.refs.push_back({bank_name, {(m % 2) * block, (m / 2) * block}, reps,
                        reps, bank_pitch, bank_pitch});
  }
  lib.cells.push_back(std::move(top));
  return encode(lib);
}

}  // namespace perfbench
