// Scan workloads: GDS bytes in -> ranked hits out.
//
// ScanBench times the real entry points (read_gds / read_hier_gds, a
// LayoutSource adapter, ChipScanner::scan through a warm InferenceEngine,
// a CellScanCache on hierarchical chips) and checks every repetition
// against a per-window extract_clip -> predict_probability oracle.
//
// run_scan_traced replays the same scan stage by stage through public
// calls (window_key, CellScanCache lookup/insert, extract_clip,
// rasterize_into, FeatureTensorExtractor::extract_into,
// CnnDetector::score_batch), so each stage's self time is measured where
// the work happens; the replay must reproduce the engine's hits bitwise.
#include <algorithm>
#include <atomic>
#include <istream>
#include <optional>
#include <span>
#include <streambuf>
#include <unordered_map>

#include "bench.hpp"
#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "hotspot/engine/engine.hpp"
#include "hotspot/metrics.hpp"
#include "hotspot/scan_cache.hpp"
#include "hotspot/scanner.hpp"
#include "layout/gds_stream.hpp"
#include "layout/gdsii.hpp"
#include "layout/layout.hpp"
#include "layout/layout_source.hpp"
#include "layout/raster.hpp"
#include "nn/workspace.hpp"

namespace perfbench {

namespace {

constexpr geom::Coord kWindow = 1200;
constexpr std::size_t kBandRows = 16;
/// Engine flush size; the staged replay scores in chunks of this.
constexpr std::size_t kBatch = 64;
/// Stages of the staged replay, in pipeline order (flat chips have no
/// window_key or dedup_cache stage; their share is 0).
constexpr const char* kStages[] = {
    "gds_decode", "source_build", "window_key", "dedup_cache", "band_query",
    "rasterize",  "dct_zigzag",   "forward",    "merge_rank"};

hotspot::ScanConfig scan_config(geom::Coord stride) {
  hotspot::ScanConfig c;
  c.window_size = kWindow;
  c.stride = stride;
  c.band_rows = kBandRows;
  return c;
}

/// Read-only istream over a byte string (no copy of the chip bytes).
class ByteStream : private std::streambuf, public std::istream {
 public:
  explicit ByteStream(const std::string& bytes) : std::istream(this) {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

/// A parsed chip and the LayoutSource serving it.
struct Chip {
  std::unique_ptr<layout::Layout> flat;
  std::unique_ptr<layout::HierLayout> hier;
  std::unique_ptr<layout::LayoutSource> source;
};

layout::GdsLibrary decode_flat(const std::string& gds) {
  ByteStream is(gds);
  return layout::read_gds(is);
}

layout::HierLayout decode_hier(const std::string& gds) {
  ByteStream is(gds);
  return layout::read_hier_gds(is);
}

Chip flat_chip(const layout::GdsLibrary& lib) {
  std::vector<geom::Rect> rects = layout::flatten_cell(lib, "TOP", 1);
  HSDL_CHECK(!rects.empty());
  geom::Rect extent = rects.front();
  for (const geom::Rect& r : rects) extent = extent.bbox_union(r);
  Chip chip;
  chip.flat = std::make_unique<layout::Layout>(extent, std::move(rects));
  chip.source = std::make_unique<layout::FlatSource>(*chip.flat);
  return chip;
}

Chip hier_chip(layout::HierLayout&& h) {
  Chip chip;
  chip.hier = std::make_unique<layout::HierLayout>(std::move(h));
  chip.source = std::make_unique<layout::HierSource>(*chip.hier, 1);
  return chip;
}

Chip parse_chip(const std::string& gds, bool hierarchical) {
  return hierarchical ? hier_chip(decode_hier(gds))
                      : flat_chip(decode_flat(gds));
}

/// Window origins along one axis: the stride grid plus a final origin
/// clamped to the far edge, deduplicated (the scanner's documented grid).
std::vector<geom::Coord> axis_positions(geom::Coord lo, geom::Coord hi,
                                       geom::Coord stride) {
  std::vector<geom::Coord> v;
  for (geom::Coord p = lo; p + kWindow <= hi; p += stride) v.push_back(p);
  if (v.back() + kWindow < hi) v.push_back(hi - kWindow);
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

struct Grid {
  std::vector<geom::Coord> xs, ys;
  Grid(const geom::Rect& extent, geom::Coord stride)
      : xs(axis_positions(extent.lo.x, extent.hi.x, stride)),
        ys(axis_positions(extent.lo.y, extent.hi.y, stride)) {}
  std::size_t size() const { return xs.size() * ys.size(); }
  geom::Rect window(std::size_t idx) const {
    return geom::Rect::from_xywh(xs[idx % xs.size()], ys[idx / xs.size()],
                                 kWindow, kWindow);
  }
};

/// Hits ranked by probability (descending), ties in row-major order.
void rank(std::vector<hotspot::ScanHit>& hits) {
  std::stable_sort(hits.begin(), hits.end(),
                   [](const hotspot::ScanHit& a, const hotspot::ScanHit& b) {
                     return a.probability > b.probability;
                   });
}

bool same_hits(const std::vector<hotspot::ScanHit>& a,
               const std::vector<hotspot::ScanHit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].window != b[i].window || a[i].probability != b[i].probability)
      return false;
  return true;
}

struct ScanRun {
  std::vector<hotspot::ScanHit> ranked;
  std::size_t windows = 0;
  std::size_t from_cache = 0;
  hotspot::CellScanCache::Stats cache;
  double seconds = 0.0;
  double cpu_seconds = 0.0;  ///< process CPU time, all threads
};

/// One end-to-end scan: GDS bytes -> parse -> source -> scan -> rank.
ScanRun scan_once(const ScanWorkload& w, hotspot::InferenceEngine& engine) {
  const hotspot::ChipScanner scanner(scan_config(w.stride));
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  ScanRun run;
  hotspot::ScanReport report;
  if (w.hierarchical) {
    const layout::HierLayout hier = decode_hier(w.gds);
    const layout::HierSource source(hier, 1);
    hotspot::CellScanCache cache;
    report = scanner.scan(source, engine, &cache);
    run.cache = cache.stats();
  } else {
    const Chip chip = flat_chip(decode_flat(w.gds));
    report = scanner.scan(*chip.source, engine);
  }
  run.ranked = std::move(report.hits);
  rank(run.ranked);
  run.seconds = seconds_since(t0);
  run.cpu_seconds = process_cpu_s() - cpu0;
  run.windows = report.windows_scanned;
  run.from_cache = report.windows_from_cache;
  return run;
}

std::uint64_t shapes_hash(const layout::Clip& clip) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over coordinates
  for (const geom::Rect& r : clip.shapes)
    for (geom::Coord v : {r.lo.x, r.lo.y, r.hi.x, r.hi.y}) {
      h ^= static_cast<std::uint64_t>(v);
      h *= 1099511628211ULL;
    }
  return h;
}

/// The oracle: every window extracted on its own and scored by
/// predict_probability. Windows whose normalized clips are exactly equal
/// (compared shape by shape, not by any key) share one score — the
/// detector is a pure function of the clip — which keeps the oracle
/// affordable on array-heavy chips without trusting WindowKey or the
/// cache it is meant to check.
std::vector<hotspot::ScanHit> oracle_hits(const ScanWorkload& w) {
  const Chip chip = parse_chip(w.gds, w.hierarchical);
  const Grid grid(chip.source->extent(), w.stride);
  std::vector<layout::Clip> reps;
  std::vector<std::size_t> rep_of(grid.size());
  std::unordered_multimap<std::uint64_t, std::size_t> by_hash;
  constexpr std::size_t kChunk = 4096;
  std::vector<layout::Clip> clips(kChunk);
  std::vector<std::uint64_t> hashes(kChunk);
  for (std::size_t c0 = 0; c0 < grid.size(); c0 += kChunk) {
    const std::size_t n = std::min(kChunk, grid.size() - c0);
    parallel_for(0, n, 64, [&](std::size_t b, std::size_t e) {
      for (std::size_t k = b; k < e; ++k) {
        clips[k] = chip.source->extract_clip(grid.window(c0 + k)).normalized();
        hashes[k] = shapes_hash(clips[k]);
      }
    });
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t rep = reps.size();
      const auto [lo, hi] = by_hash.equal_range(hashes[k]);
      for (auto it = lo; it != hi; ++it)
        if (reps[it->second].shapes == clips[k].shapes) rep = it->second;
      if (rep == reps.size()) {
        by_hash.emplace(hashes[k], rep);
        reps.push_back(std::move(clips[k]));
      }
      rep_of[c0 + k] = rep;
    }
  }
  std::vector<double> p(reps.size());
  parallel_for(0, reps.size(), 8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      p[i] = w.detector->predict_probability(reps[i]);
  });
  std::vector<hotspot::ScanHit> hits;
  const double threshold = w.detector->decision_threshold();
  for (std::size_t i = 0; i < grid.size(); ++i)
    if (hotspot::is_flagged(p[rep_of[i]], threshold))
      hits.push_back({grid.window(i), p[rep_of[i]]});
  rank(hits);
  return hits;
}

void set_reuse_counts(const ScanRun& run, Results& out) {
  const double replayed = static_cast<double>(run.cache.hits);
  const double deduped = static_cast<double>(run.from_cache) - replayed;
  const double scored = static_cast<double>(run.windows - run.from_cache);
  out.set("hotspot.scan.windows_scored", scored, "count");
  out.set("hotspot.scan.windows_deduped", deduped, "count");
  out.set("hotspot.scan.windows_replayed", replayed, "count");
  out.set("hotspot.cache.hit_rate", run.cache.hit_rate(), "ratio");
  json::Value reuse = json::Value::object();
  reuse.set("base_windows", run.windows);
  reuse.set("scored", scored);
  reuse.set("deduped_in_band", deduped);
  reuse.set("replayed_from_cache", replayed);
  reuse.set("cache_probes", run.cache.hits + run.cache.misses);
  reuse.set("cache_hit_rate", run.cache.hit_rate());
  out.meta.set("reuse", std::move(reuse));
}

/// Per-call self-time accumulator shared by pool threads.
struct CallTimer {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
  void add(Clock::time_point t0, Clock::time_point t1) {
    ns.fetch_add(static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                         .count()),
                 std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
  double us_per_call() const {
    const std::uint64_t n = calls.load();
    return n == 0 ? 0.0 : static_cast<double>(ns.load()) / 1e3 / static_cast<double>(n);
  }
  double total_s() const { return static_cast<double>(ns.load()) / 1e9; }
};

/// Stage ledger: wall seconds per stage, plus a Chrome-trace span list
/// written when the run ends.
struct Ledger {
  std::map<std::string, double> wall;
  json::Value spans = json::Value::array();
  Clock::time_point origin = Clock::now();

  template <typename F>
  void stage(const std::string& name, F&& body) {
    const Clock::time_point t0 = Clock::now();
    body();
    const Clock::time_point t1 = Clock::now();
    wall[name] += std::chrono::duration<double>(t1 - t0).count();
    span(name, t0, t1);
  }
  void span(const std::string& name, Clock::time_point t0,
            Clock::time_point t1) {
    if (spans.items().size() < 4096) {
      json::Value s = json::Value::object();
      s.set("name", name);
      s.set("ph", "X");
      s.set("pid", 1);
      s.set("tid", 1);
      s.set("ts", std::chrono::duration<double, std::micro>(t0 - origin).count());
      s.set("dur", std::chrono::duration<double, std::micro>(t1 - t0).count());
      spans.push_back(std::move(s));
    }
  }
};

struct Replay {
  std::vector<hotspot::ScanHit> ranked;
  std::size_t scored = 0, deduped = 0, replayed = 0;
  double total_s = 0.0;
  std::size_t gds_bytes = 0;
  CallTimer window_key, band_query, rasterize, dct_zigzag;
  Ledger ledger;
};

/// The staged replay of one scan (see file comment). Mirrors the
/// scanner's band walk: cache probe, in-band dedup, extraction of the
/// unique misses, batched scoring, scatter + cache insert, merge, rank.
void staged_replay(const ScanWorkload& w, Replay& r) {
  const hotspot::CnnDetector& det = *w.detector;
  const double nm_per_px = det.extractor().config().nm_per_px;
  const std::vector<std::size_t> in_shape = det.model().input_shape();
  const std::size_t feat = in_shape[0] * in_shape[1] * in_shape[2];
  Ledger& L = r.ledger;
  r.gds_bytes = w.gds.size();
  const Clock::time_point t_begin = Clock::now();

  std::optional<layout::GdsLibrary> lib;
  std::optional<layout::HierLayout> hier_doc;
  L.stage("gds_decode", [&] {
    if (w.hierarchical)
      hier_doc.emplace(decode_hier(w.gds));
    else
      lib.emplace(decode_flat(w.gds));
  });
  Chip chip;
  L.stage("source_build", [&] {
    chip = w.hierarchical ? hier_chip(std::move(*hier_doc)) : flat_chip(*lib);
  });
  const layout::LayoutSource& source = *chip.source;
  const Grid grid(source.extent(), w.stride);
  const std::size_t nx = grid.xs.size();
  const double threshold = det.decision_threshold();
  hotspot::CellScanCache cache;
  nn::WorkspaceArena arena;
  nn::Tensor x;

  for (std::size_t row0 = 0; row0 < grid.ys.size(); row0 += kBandRows) {
    const std::size_t rows = std::min(kBandRows, grid.ys.size() - row0);
    const std::size_t total = rows * nx;
    const std::size_t base = row0 * nx;
    std::vector<std::optional<layout::WindowKey>> keys(total);
    std::vector<double> probs(total, 0.0);
    std::vector<std::size_t> miss;
    std::vector<std::pair<std::size_t, std::size_t>> aliases;
    if (w.hierarchical) {
      L.stage("window_key", [&] {
        parallel_for(0, total, nx, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            const Clock::time_point t0 = Clock::now();
            keys[i] = source.window_key(grid.window(base + i));
            r.window_key.add(t0, Clock::now());
          }
        });
      });
      L.stage("dedup_cache", [&] {
        std::unordered_map<layout::WindowKey, std::size_t,
                           layout::WindowKeyHash>
            rep;
        for (std::size_t i = 0; i < total; ++i) {
          if (keys[i]) {
            if (const std::optional<double> p = cache.lookup(*keys[i])) {
              probs[i] = *p;
              ++r.replayed;
              continue;
            }
            const auto [it, inserted] = rep.try_emplace(*keys[i], miss.size());
            if (!inserted) {
              aliases.emplace_back(i, it->second);
              ++r.deduped;
              continue;
            }
          }
          miss.push_back(i);
        }
      });
    } else {
      miss.resize(total);
      for (std::size_t i = 0; i < total; ++i) miss[i] = i;
    }
    r.scored += miss.size();

    std::vector<double> miss_probs(miss.size(), 0.0);
    for (std::size_t c0 = 0; c0 < miss.size(); c0 += kBatch) {
      const std::size_t n = std::min(kBatch, miss.size() - c0);
      std::vector<layout::Clip> clips(n);
      L.stage("band_query", [&] {
        parallel_for(0, n, 4, [&](std::size_t b, std::size_t e) {
          for (std::size_t k = b; k < e; ++k) {
            const Clock::time_point t0 = Clock::now();
            clips[k] = source.extract_clip(grid.window(base + miss[c0 + k]))
                           .normalized();
            r.band_query.add(t0, Clock::now());
          }
        });
      });
      if (x.shape().empty() || x.shape()[0] != n)
        x = nn::Tensor({n, in_shape[0], in_shape[1], in_shape[2]});
      // Rasterize and DCT alternate per clip on each pool thread; the
      // stage wall is split between them by their summed self times.
      const double ras0 = r.rasterize.total_s(), dct0 = r.dct_zigzag.total_s();
      const Clock::time_point te0 = Clock::now();
      parallel_for(0, n, 4, [&](std::size_t b, std::size_t e) {
        thread_local layout::MaskImage raster;
        for (std::size_t k = b; k < e; ++k) {
          const Clock::time_point t0 = Clock::now();
          layout::rasterize_into(clips[k], nm_per_px, raster);
          const Clock::time_point t1 = Clock::now();
          det.extractor().extract_into(
              raster, std::span<float>(x.data() + k * feat, feat));
          const Clock::time_point t2 = Clock::now();
          r.rasterize.add(t0, t1);
          r.dct_zigzag.add(t1, t2);
        }
      });
      const Clock::time_point te1 = Clock::now();
      const double ras = r.rasterize.total_s() - ras0;
      const double dct = r.dct_zigzag.total_s() - dct0;
      const double wall = std::chrono::duration<double>(te1 - te0).count();
      const double ras_share = ras + dct > 0.0 ? ras / (ras + dct) : 0.5;
      L.wall["rasterize"] += wall * ras_share;
      L.wall["dct_zigzag"] += wall * (1.0 - ras_share);
      L.span("rasterize+dct_zigzag", te0, te1);
      L.stage("forward", [&] {
        nn::Tensor probs_t = det.score_batch(x, arena);
        for (std::size_t k = 0; k < n; ++k)
          miss_probs[c0 + k] =
              static_cast<double>(probs_t.at(k, hotspot::kHotspotIndex));
        arena.recycle(std::move(probs_t));
      });
    }
    L.stage("merge_rank", [&] {
      for (std::size_t k = 0; k < miss.size(); ++k) {
        probs[miss[k]] = miss_probs[k];
        if (keys[miss[k]]) cache.insert(*keys[miss[k]], miss_probs[k]);
      }
      for (const auto& [i, slot] : aliases) probs[i] = miss_probs[slot];
      for (std::size_t i = 0; i < total; ++i)
        if (hotspot::is_flagged(probs[i], threshold))
          r.ranked.push_back({grid.window(base + i), probs[i]});
    });
  }
  L.stage("merge_rank", [&] { rank(r.ranked); });
  r.total_s = seconds_since(t_begin);
}

double hist_quantile_ms(const metrics::Snapshot& snap, const std::string& name,
                        double q) {
  for (const metrics::HistogramSnapshot& h : snap.histograms)
    if (h.name == name) return h.count == 0 ? 0.0 : metrics::quantile(h, q) * 1e3;
  return 0.0;
}

double hist_mean(const metrics::Snapshot& snap, const std::string& name) {
  for (const metrics::HistogramSnapshot& h : snap.histograms)
    if (h.name == name)
      return h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count);
  return 0.0;
}

}  // namespace

std::vector<layout::Clip> chip_window_pool(const ScanWorkload& w,
                                           std::size_t n) {
  const std::string& gds = w.gds;
  const bool hierarchical = w.hierarchical;
  const geom::Coord stride = w.stride;
  const Chip chip = parse_chip(gds, hierarchical);
  const Grid grid(chip.source->extent(), stride);
  std::vector<layout::Clip> pool;
  for (std::size_t i = 0; i < std::min(n, grid.size()); ++i)
    pool.push_back(chip.source->extract_clip(grid.window(i)).normalized());
  return pool;
}

struct ScanBench::Impl {
  const ScanWorkload& w;
  hotspot::InferenceEngine engine;
  ScanRun first;  // also warms the engine
  ScanRun last;
  std::vector<double> wps, wpcs;  // windows per wall / CPU second
  double windows = 0.0, cpu_s = 0.0;

  explicit Impl(const ScanWorkload& w_)
      : w(w_), engine(*w_.detector), first(scan_once(w_, engine)) {}
};

ScanBench::ScanBench(const ScanWorkload& w) : impl_(new Impl(w)) {}
ScanBench::~ScanBench() = default;

void ScanBench::run_for(double seconds, Results& out) {
  Impl& m = *impl_;
  const Clock::time_point t0 = Clock::now();
  do {
    m.last = scan_once(m.w, m.engine);
    m.wps.push_back(static_cast<double>(m.last.windows) / m.last.seconds);
    m.wpcs.push_back(static_cast<double>(m.last.windows) /
                     m.last.cpu_seconds);
    m.windows += static_cast<double>(m.last.windows);
    m.cpu_s += m.last.cpu_seconds;
    out.check(same_hits(m.last.ranked, m.first.ranked),
              "scan repetition " + std::to_string(m.wps.size()) +
                  " differs from the first scan");
  } while (seconds_since(t0) < seconds);
}

void ScanBench::finish(Results& out) {
  Impl& m = *impl_;
  const std::vector<hotspot::ScanHit> oracle = oracle_hits(m.w);
  out.check(same_hits(m.first.ranked, oracle),
            "scan hits differ from the per-window oracle");
  // A ratio of totals, not a median of repetitions: the host's speed
  // (CPU time per unit of work) drifts between a few levels as other
  // guests come and go, and a median jumps between them where a mean
  // moves smoothly.
  out.set("scan_windows_per_cpu_s", m.windows / m.cpu_s, "1/s");
  json::Value scan = json::Value::object();
  scan.set("windows", m.last.windows);
  scan.set("hits", oracle.size());
  scan.set("gds_bytes", m.w.gds.size());
  scan.set("cpu_s", m.cpu_s);
  scan.set("windows_per_cpu_s", spread_json(m.wpcs));
  scan.set("windows_per_s", spread_json(m.wps));
  out.meta.set("scan", std::move(scan));
  set_reuse_counts(m.last, out);
}

void run_scan_traced(const ScanWorkload& w, Results& out) {
  hotspot::InferenceEngine engine(*w.detector);
  const ScanRun reference = scan_once(w, engine);  // warm-up + reference

  // Untraced against instrumented repetitions of the same scan: at least
  // three, and at least a second of untraced scanning.
  std::vector<double> plain, instrumented;
  for (double spent = 0.0; plain.size() < 3 || spent < 1.0;
       spent += plain.back())
    plain.push_back(scan_once(w, engine).seconds);
  const std::size_t reps = plain.size();
  metrics::reset();
  metrics::set_enabled(true);
  trace::set_enabled(true);
  const hotspot::EngineStats before = engine.stats();
  ScanRun traced_run;
  for (std::size_t i = 0; i < reps; ++i) {
    traced_run = scan_once(w, engine);
    instrumented.push_back(traced_run.seconds);
  }
  const hotspot::EngineStats after = engine.stats();
  const metrics::Snapshot snap = metrics::snapshot();
  trace::set_enabled(false);
  trace::clear();
  metrics::set_enabled(false);
  out.check(same_hits(traced_run.ranked, reference.ranked),
            "instrumented scan differs from the untraced scan");
  out.set("trace.overhead_frac", median(instrumented) / median(plain) - 1.0,
          "ratio");
  out.set("hotspot.engine.queue_wait_ms_p50",
          hist_quantile_ms(snap, "engine.queue_wait_seconds", 0.50), "ms");
  out.set("hotspot.engine.queue_wait_ms_p99",
          hist_quantile_ms(snap, "engine.queue_wait_seconds", 0.99), "ms");
  out.set("hotspot.engine.batch_fill", hist_mean(snap, "engine.batch_fill"),
          "ratio");
  out.set("hotspot.engine.flush_full",
          static_cast<double>(after.flush_full - before.flush_full) / reps,
          "count");
  out.set("hotspot.engine.flush_timeout",
          static_cast<double>(after.flush_timeout - before.flush_timeout) /
              reps,
          "count");
  out.set("hotspot.engine.flush_inline",
          static_cast<double>(after.inline_batches - before.inline_batches) /
              reps,
          "count");
  set_reuse_counts(reference, out);

  // As many replays as untraced scans; the ledger reported is the one of
  // median wall time. Every replay must reproduce the untraced scan.
  std::vector<std::unique_ptr<Replay>> replays;
  for (std::size_t i = 0; i < reps; ++i) {
    replays.push_back(std::make_unique<Replay>());
    const Replay& r = *replays.back();
    staged_replay(w, *replays.back());
    out.check(same_hits(r.ranked, reference.ranked),
              "staged replay differs from the untraced scan");
    out.check(r.scored == reference.windows - reference.from_cache &&
                  r.replayed == reference.cache.hits &&
                  r.scored + r.deduped + r.replayed == reference.windows,
              "staged replay reuse counts differ from the scanner's");
  }
  std::sort(replays.begin(), replays.end(), [](const auto& a, const auto& b) {
    return a->total_s < b->total_s;
  });
  Replay& r = *replays[replays.size() / 2];

  // Coverage is the replay's summed stage time over the untraced scan
  // of the same chip. The engine extracts one batch while the previous
  // one is in the network and queues whole bands; the replay runs the
  // stages one after the other, so coverage away from 1 shows by how
  // much the staged path (and the trace.share.* split taken from it)
  // departs from the real one.
  const double windows = static_cast<double>(reference.windows);
  const double e2e_s = median(plain);
  double covered = 0.0;
  for (const auto& [name, s] : r.ledger.wall) covered += s;
  out.set("trace.stage_coverage", covered / e2e_s, "ratio");
  for (const char* stage : kStages)
    out.set(std::string("trace.share.") + stage,
            r.ledger.wall[stage] / covered, "ratio");
  out.set("layout.gds_read_mb_per_s",
          static_cast<double>(r.gds_bytes) / 1e6 / r.ledger.wall["gds_decode"],
          "MB/s");
  out.set("layout.window_key_us", r.window_key.us_per_call(), "us");
  out.set("layout.extract_clip_us", r.band_query.us_per_call(), "us");
  out.set("layout.rasterize_us", r.rasterize.us_per_call(), "us");
  out.set("fte.dct_zigzag_us", r.dct_zigzag.us_per_call(), "us");
  json::Value ledger = json::Value::object();
  ledger.set("replays", replays.size());
  ledger.set("replay_seconds", r.total_s);
  ledger.set("untraced_scan_seconds", e2e_s);
  ledger.set("replay_over_untraced", r.total_s / e2e_s);
  ledger.set("replay_windows_per_s", windows / r.total_s);
  for (const auto& [name, s] : r.ledger.wall) ledger.set(name + "_s", s);
  out.meta.set("ledger", std::move(ledger));
  out.spans = std::move(r.ledger.spans);
}

}  // namespace perfbench
