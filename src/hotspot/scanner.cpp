#include "hotspot/scanner.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "hotspot/band_iter.hpp"
#include "hotspot/engine/engine.hpp"
#include "hotspot/scan_cache.hpp"
#include "hotspot/scan_journal.hpp"

namespace hsdl::hotspot {
namespace {

/// How many of one band's windows were served without being scored.
struct BandReuse {
  std::size_t deduped = 0;   ///< aliased to a congruent window in the band
  std::size_t replayed = 0;  ///< CellScanCache hits
};

/// Extracts and scores one band into `probs` (row-major). The band runs
/// in phases: reuse keys + cache probes per window (only with a cache;
/// without one no key is computed, so every window is a miss), then an
/// in-band dedup pass (the first window of each distinct key is the
/// representative, later ones alias it — crucial on array-heavy chips
/// where one band holds many congruent windows that the cache cannot
/// serve yet because inserts land only after the band is scored), then
/// extraction and one score_band call over the unique misses only, then
/// scatter + cache fill. `parallel_extract` routes probing and
/// extraction through the global pool; shard workers pass false and
/// extract serially on their own thread (the fork-join pool serializes
/// top-level regions, so pool-routing shard extraction would just add
/// contention).
///
/// Determinism: equal keys guarantee bitwise-identical normalized clips
/// (the WindowKey contract) and the engine scores every sample
/// independently of its batch, so replaying cache hits and aliasing
/// in-band duplicates — in row-major order — yields bitwise the same
/// probabilities as extracting and scoring the full band.
template <typename ScoreBand>
BandReuse score_one_band(const ScanGrid& grid, std::size_t band_index,
                         const layout::LayoutSource& source,
                         ScoreBand& score_band, CellScanCache* cache,
                         bool parallel_extract,
                         std::vector<layout::Clip>& band,
                         std::vector<double>& probs) {
  const std::size_t row_lo = grid.band_row_begin(band_index);
  const std::size_t rows = grid.band_row_end(band_index) - row_lo;
  const std::size_t nx = grid.cols();
  const std::size_t total = rows * nx;
  probs.assign(total, 0.0);
  const auto run = [&](std::size_t n, const auto& body) {
    if (parallel_extract)
      parallel_for(0, n, 1, body);
    else
      body(0, n);
  };

  // Phase 1: reuse keys and cache probes (cheap — no extraction yet).
  std::vector<std::optional<layout::WindowKey>> keys(total);
  std::vector<char> hit(total, 0);
  if (cache != nullptr) {
    HSDL_TRACE_SPAN("scan.probe_band");
    run(rows, [&](std::size_t rb, std::size_t re) {
      for (std::size_t r = rb; r < re; ++r) {
        for (std::size_t i = 0; i < nx; ++i) {
          const std::size_t idx = r * nx + i;
          keys[idx] = source.window_key(grid.window(row_lo + r, i));
          if (keys[idx]) {
            if (const std::optional<double> p = cache->lookup(*keys[idx])) {
              probs[idx] = *p;
              hit[idx] = 1;
            }
          }
        }
      }
    });
  }

  // Phase 2: in-band dedup. miss_idx holds the windows that will be
  // extracted and scored; aliases map a duplicate window to the miss
  // slot of its representative.
  BandReuse reuse;
  std::unordered_map<layout::WindowKey, std::size_t, layout::WindowKeyHash>
      rep;
  std::vector<std::size_t> miss_idx;
  std::vector<std::pair<std::size_t, std::size_t>> aliases;
  miss_idx.reserve(total);
  for (std::size_t idx = 0; idx < total; ++idx) {
    if (hit[idx]) {
      ++reuse.replayed;
      continue;
    }
    if (keys[idx]) {
      const auto [it, inserted] = rep.try_emplace(*keys[idx], miss_idx.size());
      if (!inserted) {
        aliases.emplace_back(idx, it->second);
        ++reuse.deduped;
        continue;
      }
    }
    miss_idx.push_back(idx);
  }

  // Phase 3: extract only the unique misses.
  band.assign(miss_idx.size(), layout::Clip{});
  {
    HSDL_TRACE_SPAN("scan.extract_band");
    run(miss_idx.size(), [&](std::size_t kb, std::size_t ke) {
      for (std::size_t k = kb; k < ke; ++k) {
        const std::size_t idx = miss_idx[k];
        band[k] = source.extract_clip(grid.window(row_lo + idx / nx, idx % nx))
                      .normalized();
      }
    });
  }

  HSDL_TRACE_SPAN("scan.classify_band");
  std::vector<double> miss_probs(miss_idx.size(), 0.0);
  if (!miss_idx.empty())
    score_band(std::span<const layout::Clip>(band.data(), band.size()),
               std::span<double>(miss_probs.data(), miss_probs.size()));
  for (std::size_t k = 0; k < miss_idx.size(); ++k) {
    const std::size_t idx = miss_idx[k];
    probs[idx] = miss_probs[k];
    if (keys[idx]) cache->insert(*keys[idx], miss_probs[k]);
  }
  for (const auto& [idx, slot] : aliases) probs[idx] = miss_probs[slot];
  return reuse;
}

/// One band as the walk merges it.
struct BandOutcome {
  BandResult result;
  BandReuse reuse;
  bool journaled = false;  ///< replayed from the journal, not scored
  bool done = false;       ///< ready to merge
};

/// The one scan loop. Worker w handles bands w, w + n, w + 2n, ... with
/// its own scorer from `make_scorer`; a single worker runs on the
/// caller's thread and extracts through the pool, several run on their
/// own threads and extract serially. Each band is journal-replayed or
/// scored (then journaled) in one place, and band results are merged in
/// row-major band order, so hits and probabilities are independent of
/// the worker count and bitwise identical to a serial scan (only the
/// reuse split can vary, when workers race on the cache).
template <typename MakeScorer>
ScanReport walk_bands(const ScanConfig& config,
                      const layout::LayoutSource& source, double threshold,
                      CellScanCache* cache, ScanJournal* journal,
                      std::size_t workers, MakeScorer&& make_scorer) {
  HSDL_TRACE_SPAN("scan");
  WallTimer timer;
  const ScanGrid grid(source.extent(), config);
  const std::size_t nbands = grid.bands();
  const std::size_t nx = grid.cols();
  const std::size_t n = std::min(workers, nbands);
  std::vector<BandOutcome> outcomes(nbands);
  ScanReport report;
  std::size_t deduped = 0;
  std::size_t replayed = 0;
  std::size_t merged = 0;  // bands [0, merged) are in the report
  std::mutex mu;           // guards the journal and the merge

  // Marks band b done (caller holds mu) and moves every done band at
  // the head of the unmerged range into the report. Bands merge in band
  // order as soon as they can, so a single worker holds one band's hits
  // at a time.
  const auto finish = [&](std::size_t b) {
    outcomes[b].done = true;
    for (; merged < nbands && outcomes[merged].done; ++merged) {
      BandOutcome& o = outcomes[merged];
      report.windows_scanned += o.result.windows;
      // Per-hit appends: a band-sized range insert would grow the
      // report past the power-of-two capacity a serial scan reaches.
      for (const ScanHit& hit : o.result.hits) report.hits.push_back(hit);
      o.result.hits = std::vector<ScanHit>();
      if (o.journaled) {
        replayed += o.result.windows;
      } else {
        deduped += o.reuse.deduped;
        replayed += o.reuse.replayed;
        report.windows_from_cache += o.reuse.deduped + o.reuse.replayed;
      }
    }
  };

  const auto worker = [&](std::size_t w, bool parallel_extract) {
    auto score_band = make_scorer();
    std::vector<layout::Clip> clips;
    std::vector<double> probs;
    for (std::size_t b = w; b < nbands; b += n) {
      BandOutcome& out = outcomes[b];
      if (journal != nullptr) {
        // Replay a band a previous run already completed: same windows,
        // same hits, no scoring.
        const std::lock_guard<std::mutex> lock(mu);
        if (const BandResult* done = journal->result(b)) {
          out.result = *done;
          out.journaled = true;
          finish(b);
          continue;
        }
      }
      // Chaos hook: a fired "scan.band" fault simulates the process
      // dying at the start of this band — journaled bands stay durable.
      if (fault::armed() && fault::fail_point("scan.band"))
        throw CheckError("scan: injected failure at band " +
                         std::to_string(b));
      out.reuse = score_one_band(grid, b, source, score_band, cache,
                                 parallel_extract, clips, probs);
      const std::size_t row_lo = grid.band_row_begin(b);
      const std::size_t rows = grid.band_row_end(b) - row_lo;
      out.result.band_index = b;
      out.result.windows = rows * nx;
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t i = 0; i < nx; ++i) {
          const double p = probs[r * nx + i];
          if (is_flagged(p, threshold))
            out.result.hits.push_back({grid.window(row_lo + r, i), p});
        }
      const std::lock_guard<std::mutex> lock(mu);
      if (journal != nullptr) journal->append(out.result);
      finish(b);
    }
  };
  if (n <= 1) {
    worker(0, /*parallel_extract=*/true);
  } else {
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t w = 0; w < n; ++w)
      threads.emplace_back([&, w] {
        try {
          worker(w, /*parallel_extract=*/false);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    for (std::thread& t : threads) t.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
  }

  report.scan_seconds = timer.seconds();
  if (metrics::enabled()) {
    static metrics::Counter& windows = metrics::counter("scan.windows");
    static metrics::Counter& scored = metrics::counter("scan.windows_scored");
    static metrics::Counter& aliased =
        metrics::counter("scan.windows_deduped");
    static metrics::Counter& replays =
        metrics::counter("scan.windows_replayed");
    static metrics::Counter& hits = metrics::counter("scan.hits");
    static metrics::Gauge& wps = metrics::gauge("scan.windows_per_sec");
    static metrics::Gauge& depth = metrics::gauge("scan.band_rows");
    windows.add(report.windows_scanned);
    scored.add(report.windows_scanned - deduped - replayed);
    aliased.add(deduped);
    replays.add(replayed);
    hits.add(report.hits.size());
    wps.set(report.windows_per_second());
    depth.set(static_cast<double>(std::min(config.band_rows, grid.rows())));
  }
  return report;
}

/// Scorer factory over one caller-owned engine.
auto engine_scorer(InferenceEngine& engine) {
  return [&engine] {
    return [&engine](std::span<const layout::Clip> clips,
                     std::span<double> out) { engine.score_into(clips, out); };
  };
}

}  // namespace

void ScanConfig::validate() const {
  HSDL_CHECK_MSG(window_size > 0,
                 "scan config: window_size must be positive, got "
                     << window_size);
  HSDL_CHECK_MSG(stride > 0,
                 "scan config: stride must be positive, got " << stride);
  HSDL_CHECK_MSG(band_rows > 0, "scan config: band_rows must be positive");
}

void ScanConfig::validate_for(const CnnDetector& detector) const {
  validate();
  const fte::FeatureTensorConfig& f = detector.extractor().config();
  const double px = static_cast<double>(window_size) / f.nm_per_px;
  HSDL_CHECK_MSG(std::abs(px - std::round(px)) < 1e-9,
                 "scan config: window_size "
                     << window_size
                     << " nm is not an integer number of pixels at "
                     << f.nm_per_px << " nm/px");
  const auto side = static_cast<std::size_t>(std::llround(px));
  HSDL_CHECK_MSG(side % f.blocks_per_side == 0,
                 "scan config: window_size "
                     << window_size << " nm rasterizes to " << side
                     << " px, which does not divide into the detector's "
                     << f.blocks_per_side << "x" << f.blocks_per_side
                     << " feature-tensor blocks");
}

ChipScanner::ChipScanner(const ScanConfig& config) : config_(config) {
  config_.validate();
}

ScanReport ChipScanner::scan(const layout::LayoutSource& source,
                             const Detector& detector) const {
  if (const auto* cnn = dynamic_cast<const CnnDetector*>(&detector)) {
    // Production path: a scan-local engine overlaps feature extraction
    // with the batched CNN forward pass. Results are bitwise identical
    // to the per-clip path (DESIGN.md §11).
    InferenceEngine engine(*cnn);
    return scan(source, engine);
  }
  return walk_bands(config_, source, detector.decision_threshold(), nullptr,
                    nullptr, 1, [&] {
                      return [&](std::span<const layout::Clip> clips,
                                 std::span<double> out) {
                        const std::vector<double> p =
                            detector.predict_probabilities(clips);
                        std::copy(p.begin(), p.end(), out.begin());
                      };
                    });
}

ScanReport ChipScanner::scan(const layout::LayoutSource& source,
                             InferenceEngine& engine,
                             CellScanCache* cache) const {
  config_.validate_for(engine.detector());
  return walk_bands(config_, source, engine.detector().decision_threshold(),
                    cache, nullptr, 1, engine_scorer(engine));
}

ScanReport ChipScanner::scan_resumable(const layout::LayoutSource& source,
                                       InferenceEngine& engine,
                                       const std::string& journal_path,
                                       CellScanCache* cache) const {
  config_.validate_for(engine.detector());
  ScanJournal journal(journal_path,
                      ScanJournal::fingerprint(config_, source.extent(),
                                               source.fingerprint()));
  ScanReport report =
      walk_bands(config_, source, engine.detector().decision_threshold(),
                 cache, &journal, 1, engine_scorer(engine));
  // The scan is complete; stale resume state must not leak into a
  // future scan of a (possibly different) chip at the same path.
  journal.remove();
  return report;
}

ScanReport ChipScanner::scan_sharded(const layout::LayoutSource& source,
                                     const CnnDetector& detector,
                                     std::size_t shards,
                                     CellScanCache* cache) const {
  HSDL_CHECK_MSG(shards >= 1, "scan: shards must be >= 1, got " << shards);
  config_.validate_for(detector);
  // Each shard owns an engine (and its arena); the cache is the only
  // shared mutable state, and every value two shards could race to
  // insert under one key is bitwise identical.
  return walk_bands(config_, source, detector.decision_threshold(), cache,
                    nullptr, shards, [&] {
                      return [engine = std::make_unique<InferenceEngine>(
                                  detector)](
                                 std::span<const layout::Clip> clips,
                                 std::span<double> out) {
                        engine->score_into(clips, out);
                      };
                    });
}

}  // namespace hsdl::hotspot
