// Shared declarations of the pipeline benchmark (see perfbench/run.py).
//
// The benchmark drives the library only through its public entry points:
// GDSII readers, LayoutSource adapters, ChipScanner, InferenceEngine,
// CellScanCache, CnnDetector, and the HotspotServer/ServeClient pair.
// Every stage timing the per-layer ledger reports is taken here, around
// those calls; nothing inside the library is instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "hotspot/detector.hpp"
#include "layout/clip.hpp"

namespace perfbench {

using namespace hsdl;

// ---------------------------------------------------------------------------
// Command line and result sink

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and budgets: exercises every code path and the output
  /// schema in a few seconds (perfbench/smoke_test.py).
  bool smoke = false;
};

/// Metric values by name, plus the operation tally and the meta block.
/// perfbench/run.py selects the names BENCHMARK.json lists.
struct Results {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable reasons for every failed check (printed to stderr).
  std::vector<std::string> failures;
  json::Value meta = json::Value::object();
  /// Stage spans of the traced run (Chrome trace events).
  json::Value spans = json::Value::array();

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one checked operation; a false `ok` counts it failed.
  void check(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }
  /// Counts `n` operations of which `bad` failed, for reason `what`.
  void tally(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad != 0 && failures.size() < 20) failures.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Statistics and clocks

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);
/// Linear-interpolated quantile of an ascending-sorted sample.
double quantile_sorted(const std::vector<double>& sorted, double q);
/// (Q3 - Q1) / median with the same quartile rule as Python's
/// statistics.quantiles(n=4) (exclusive method).
double iqr_share(std::vector<double> v);
/// {n, min, median, max, iqr_share} summary for the meta block.
json::Value spread_json(const std::vector<double>& v);
/// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb();
/// CPU time of the whole process (all threads), in seconds. The
/// end-to-end timings use it rather than wall time: on a virtual machine
/// with steal-time accounting it leaves out the time the hypervisor ran
/// another guest, which on a shared host swings wall time by 2x between
/// runs of the same code.
double process_cpu_s();
/// Returns freed heap to the system and restarts the peak-resident
/// count (VmHWM) from the current resident set, so a later peak_rss_mb
/// leaves out the transient peaks of set-up.
void reset_peak_rss();
/// Host-wide CPU time from /proc/stat, in clock ticks; both 0 where it
/// cannot be read.
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;  ///< time the hypervisor ran something else
};
CpuTimes cpu_times();

// ---------------------------------------------------------------------------
// Inputs (inputs.cpp) — everything is generated from the workload seed.

/// Paper configuration: 1200 nm window at 2 nm/px (600 x 600 px),
/// n = 12 blocks, k = 32 coefficients, Table-1 CNN 16/32/250. Weights
/// come from a fixed seed, independent of the workload seed.
hotspot::CnnDetectorConfig paper_config();

/// Builds the paper-configuration detector, calibrates an int8 copy on
/// `calibration`, and sets the decision threshold to the 75th
/// percentile of the calibration probabilities (untrained weights have
/// no meaningful 0.5 boundary; this keeps about a quarter of windows
/// flagged so the hit lists the checks compare are not empty).
/// `int8` picks the serving path the detector's toggle starts on.
std::unique_ptr<hotspot::CnnDetector> make_detector(
    const std::vector<layout::LabeledClip>& calibration, bool int8);

/// Generator clips (all archetypes) for quantization calibration.
std::vector<layout::LabeledClip> calibration_clips(std::uint64_t seed,
                                                   std::size_t n);

/// Pool of generator clips the serving client draws requests from.
std::vector<layout::Clip> generator_pool(std::uint64_t seed, std::size_t n);

/// GDSII bytes of a flat chip: tiles x tiles generator clips (random
/// archetypes, random Manhattan routing among them) in one cell TOP.
std::string flat_chip_gds(std::uint64_t seed, int tiles);

/// GDSII bytes of a flat chip tiling `pool` clips row-major on a
/// tiles x tiles grid (one cell TOP).
std::string tiled_pool_gds(const std::vector<layout::Clip>& pool, int tiles);

/// GDSII bytes of a memory-array-like hierarchical chip: `macros`
/// distinct macros of 2x2 generator tiles (2.4 um), each arrayed
/// bank x bank into a bank cell, each bank cell arrayed reps x reps in
/// TOP. The macro types tile TOP two per row, so they occupy different
/// scan bands and the cache replays across bands.
std::string hier_chip_gds(std::uint64_t seed, int macros, int bank,
                          int reps);

// ---------------------------------------------------------------------------
// Phases

struct ScanWorkload {
  std::string gds;         ///< the chip, as GDSII bytes
  bool hierarchical = false;
  /// Window stride (nm): half the 1200 nm window on flat chips; the
  /// window itself on the array chip, aligned with its macro pitch.
  geom::Coord stride = 600;
  const hotspot::CnnDetector* detector = nullptr;  ///< fp32 or int8
};

/// End-to-end scan repetitions, each from GDS bytes to ranked hits,
/// taken in slices so they interleave with the serving segments. Every
/// repetition must equal the first; finish() checks the first against
/// the per-window oracle and sets scan_windows_per_cpu_s (all windows
/// over all process CPU seconds of the repetitions) and meta.scan
/// (wall-clock rates too).
class ScanBench {
 public:
  /// Builds the engine and runs the first (warm-up, reference) scan.
  /// Nothing else may run meanwhile: its peak memory is peak_rss_mb.
  explicit ScanBench(const ScanWorkload& w);
  ~ScanBench();
  /// Repeats the scan until `seconds` have passed (at least once).
  void run_for(double seconds, Results& out);
  void finish(Results& out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Traced run of a scan workload: untraced and instrumented repetitions
/// (trace.overhead_frac, engine counters), then the staged replay that
/// times every stage through public calls and must reproduce the
/// untraced hits bitwise. Sets the layout.*, fte.*, hotspot.* and
/// trace.* per-layer metrics.
void run_scan_traced(const ScanWorkload& w, Results& out);

/// Window clips of a chip (first `n` windows in scan order), for the
/// serving pool of scan_flat.
std::vector<layout::Clip> chip_window_pool(const ScanWorkload& w,
                                           std::size_t n);

struct ServeWorkload {
  std::vector<layout::Clip> pool;
  std::uint64_t seed = 1;
  const hotspot::CnnDetector* oracle_fp32 = nullptr;
  const hotspot::CnnDetector* oracle_int8 = nullptr;
  /// The served detector is rebuilt from these (same weights, threshold
  /// and int8 calibration as the oracles).
  std::vector<layout::LabeledClip> calibration;
};

/// Open-loop serving at the low and high ladder rates, one segment of
/// each per segment() call, every response checked against the oracle.
/// finish() sets serve_cpu_ms_per_req_{low,high}: process CPU time
/// (client and server threads) over all segments of the rate, per
/// request sent; wall-clock latencies go to meta.serve.
class ServeBench {
 public:
  /// Starts the in-process server several times (the last one serves);
  /// server_start_s() is the median CPU time of a start. Every request
  /// sent, warm-up included, is tallied into `out`.
  ServeBench(const ServeWorkload& w, Results& out);
  ~ServeBench();
  double server_start_s() const;
  /// One low-rate then one high-rate segment of a second each.
  void segment();
  void finish(Results& out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Traced serving run: the low and high rates untraced, then
/// instrumented (metrics + spans + stats endpoint), then the untraced
/// goodput search. Sets the serve.* (wall-clock latencies and
/// serve.goodput_rps included),
/// hotspot.engine.* and trace.* per-layer metrics.
void run_serve_traced(const ServeWorkload& w, double budget_s,
                      Results& out);

/// Per-window rasterize / DCT+zig-zag self times over `clips` through
/// rasterize_into and FeatureTensorExtractor::extract_into.
void measure_extraction(const hotspot::CnnDetector& detector,
                        const std::vector<layout::Clip>& clips,
                        double& rasterize_us, double& dct_zigzag_us);

/// nn ledger: score_batch forward time per window (fp32 b1/b64, int8
/// b64), per-layer Layer::infer time and GFLOP/s on real feature
/// tensors of `clips`, and the GEMM peak measured in the same run.
/// The detector must carry an int8 calibration (make_detector does).
void run_nn_ledger(const hotspot::CnnDetector& detector,
                   const std::vector<layout::Clip>& clips, Results& out);

}  // namespace perfbench
