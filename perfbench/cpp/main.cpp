// hsdl_perfbench: the repository benchmark's measuring program.
//
//   hsdl_perfbench --workload <scan_flat|scan_hier|serve_open> --seed <n>
//                  --seconds <s> --trace <0|1> [--smoke]
//
// Every run sets up its inputs from the seed (several times; set-up time
// is the median), then carries them through both user-facing entry
// points — a full-chip scan from GDS bytes to ranked hits, and open-loop
// serving at two fixed rates — in alternating rounds for --seconds,
// checking every output against an oracle. End-to-end timings are
// process CPU time, which a shared host's hypervisor steal leaves alone.
// The workloads differ in the inputs and in which layer dominates:
//
//   scan_flat   flat generator chip, fp32 engine, no reuse
//   scan_hier   hierarchical AREF chip, int8 engine + CellScanCache
//   serve_open  generator clip pool; the scan phase tiles the pool
//
// --trace 1 replaces the end-to-end measurement with the traced run of
// the workload's own layer (the scan workloads' staged replay, or the
// instrumented serving rungs and the goodput search) plus the nn ledger.
//
// stdout ends with two JSON lines: {"meta": {...}} and the result
// {"correct", "attempted", "failed", "metrics"} carrying every metric
// measured; perfbench/run.py selects the ones BENCHMARK.json lists.
// Exit status: 0 when every check passed, 1 when a check failed, 2 on
// a usage or runtime error (no result line).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/cpuinfo.hpp"
#include "common/parallel.hpp"

#ifndef PERFBENCH_GIT_DESCRIBE
#define PERFBENCH_GIT_DESCRIBE "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Input sizes; --smoke shrinks every one of them.
struct Sizes {
  int flat_tiles = 21;        // 25.2 um flat chip, 1681 windows
  int hier_macros = 8;        // 345.6 x 691.2 um, 165888 windows
  int hier_bank = 12;
  int hier_reps = 6;
  int pool_tiles = 16;        // serve_open scan phase: 19.2 um, 961 windows
  std::size_t pool = 256;     // serving clip pool
  std::size_t calibration = 64;
  int setup_reps = 5;
};

Sizes sizes(bool smoke) {
  Sizes s;
  if (smoke) {
    s.flat_tiles = 6;
    s.hier_macros = 2;
    s.hier_bank = 3;
    s.hier_reps = 2;
    s.pool_tiles = 5;
    s.pool = 32;
    s.calibration = 16;
    s.setup_reps = 1;
  }
  return s;
}

/// Each round of the end-to-end run scans for this long, then serves
/// one segment at each reported rate (a second each); at least
/// kMinRounds rounds, then as many as --seconds holds.
constexpr double kScanSliceSeconds = 2.0;
constexpr int kMinRounds = 2;

/// Everything a run needs, built from the seed.
struct Inputs {
  std::vector<layout::LabeledClip> calibration;
  std::unique_ptr<hotspot::CnnDetector> fp32;  // oracle + fp32 scans
  std::unique_ptr<hotspot::CnnDetector> int8;  // oracle + int8 scans
  ScanWorkload scan;
  ServeWorkload serve;
};

Inputs build_inputs(const Args& args, const Sizes& sz) {
  Inputs in;
  in.calibration = calibration_clips(args.seed, sz.calibration);
  in.fp32 = make_detector(in.calibration, /*int8=*/false);
  in.int8 = make_detector(in.calibration, /*int8=*/true);
  if (args.workload == "scan_flat") {
    in.scan.gds = flat_chip_gds(args.seed, sz.flat_tiles);
    in.scan.detector = in.fp32.get();
    in.serve.pool = chip_window_pool(in.scan, sz.pool);
  } else if (args.workload == "scan_hier") {
    in.scan.gds = hier_chip_gds(args.seed, sz.hier_macros, sz.hier_bank,
                                sz.hier_reps);
    in.scan.hierarchical = true;
    in.scan.stride = 1200;
    in.scan.detector = in.int8.get();
    // The chip's own windows repeat a few macros, and which ones varies
    // with the seed; generator clips keep serving comparable across seeds.
    in.serve.pool = generator_pool(args.seed, sz.pool);
  } else {
    in.serve.pool = generator_pool(args.seed, sz.pool);
    in.scan.gds = tiled_pool_gds(in.serve.pool, sz.pool_tiles);
    in.scan.detector = in.fp32.get();
  }
  in.serve.seed = args.seed;
  in.serve.oracle_fp32 = in.fp32.get();
  in.serve.oracle_int8 = in.int8.get();
  in.serve.calibration = in.calibration;
  return in;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
      return argv[++i];
    };
    if (key == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value());
    } else if (key == "--seconds") {
      a.seconds = std::stod(value());
    } else if (key == "--trace") {
      a.trace = std::stoi(value()) != 0;
    } else if (key == "--smoke") {
      a.smoke = true;
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (!have_workload || (a.workload != "scan_flat" &&
                         a.workload != "scan_hier" &&
                         a.workload != "serve_open"))
    throw std::runtime_error(
        "--workload must be scan_flat, scan_hier or serve_open");
  if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

void print_result(const Args& args, Results& out) {
  out.meta.set("workload", args.workload);
  out.meta.set("seed", args.seed);
  out.meta.set("seconds", args.seconds);
  out.meta.set("trace", args.trace);
  out.meta.set("smoke", args.smoke);
  out.meta.set("cores", std::thread::hardware_concurrency());
  out.meta.set("isa", cpu::active_isa());
  out.meta.set("build_type", PERFBENCH_BUILD_TYPE);
  out.meta.set("git_describe", PERFBENCH_GIT_DESCRIBE);
  out.meta.set("failed_frac", out.attempted == 0
                                  ? 0.0
                                  : static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted));
  json::Value meta_line = json::Value::object();
  meta_line.set("meta", out.meta);
  json::Value metrics = json::Value::object();
  for (const auto& [name, m] : out.metrics) {
    json::Value v = json::Value::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(name, std::move(v));
  }
  json::Value result = json::Value::object();
  result.set("correct", out.failed == 0);
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", std::move(metrics));
  std::cout << meta_line.dump() << "\n" << result.dump() << std::endl;
}

/// Chrome trace of the traced run's stage spans, inside the checkout.
void write_spans(const Args& args, const Results& out) {
  if (out.spans.items().empty()) return;
  std::filesystem::create_directories(".bench_out");
  json::Value doc = json::Value::object();
  doc.set("traceEvents", out.spans);
  std::ofstream(".bench_out/" + args.workload + "-seed" +
                std::to_string(args.seed) + ".trace.json")
      << doc.dump() << "\n";
}

int run(const Args& args) {
  // Set-up, scans and the nn ledger run on one pool thread: every
  // end-to-end timing is process CPU time (see process_cpu_s), and with
  // one thread it is also the single-core wall time of a quiet host,
  // free of the pool's wake-up and hand-off cost, which on a shared host
  // varies with how often the hypervisor preempts a helper. Serving gets
  // the pool (at most 4 threads) so the engine micro-batches as deployed.
  const std::size_t serve_threads = std::min<std::size_t>(4, hardware_threads());
  set_num_threads(1);
  const Sizes sz = sizes(args.smoke);
  Results out;
  const CpuTimes host0 = cpu_times();

  // Set-up is timed in process CPU seconds, like every end-to-end
  // timing (see process_cpu_s); wall seconds go to meta.
  std::vector<double> setup, setup_wall;
  Inputs in;
  for (int i = 0; i < sz.setup_reps; ++i) {
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    in = build_inputs(args, sz);
    setup.push_back(process_cpu_s() - cpu0);
    setup_wall.push_back(seconds_since(t0));
  }

  if (!args.trace) {
    json::Value rss = json::Value::object();
    rss.set("after_setup", peak_rss_mb());
    // Peak memory of the inputs plus one scan, GDS bytes to ranked hits.
    // Later repetitions fragment the heap by an amount that depends on
    // the chip and on how many of them fit the run, so they are left out.
    reset_peak_rss();
    ScanBench scan(in.scan);
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    set_num_threads(serve_threads);
    ServeBench serve(in.serve, out);
    // Rounds of scanning and serving take turns for the whole run, so
    // each figure averages the host's speed over the same span of time.
    int rounds = 0;
    const Clock::time_point t0 = Clock::now();
    while (rounds < kMinRounds || seconds_since(t0) < args.seconds) {
      set_num_threads(1);
      scan.run_for(kScanSliceSeconds, out);
      set_num_threads(serve_threads);
      serve.segment();
      ++rounds;
    }
    rss.set("after_rounds", peak_rss_mb());
    scan.finish(out);  // the oracle, untimed, on the whole pool
    serve.finish(out);
    out.meta.set("rounds", rounds);
    out.meta.set("peak_rss_mb", std::move(rss));
    out.set("setup_s", median(setup) + serve.server_start_s(), "s");
    json::Value s = spread_json(setup);
    s.set("server_start_s", serve.server_start_s());
    s.set("wall_s", spread_json(setup_wall));
    out.meta.set("setup_s", std::move(s));
  } else {
    // Per-layer metrics of layers this traced path never runs: run.py
    // reports them as 0, and refuses any other metric left unset.
    json::Value not_measured = json::Value::array();
    if (args.workload == "serve_open") {
      for (const char* prefix :
           {"layout.gds_read_mb_per_s", "layout.extract_clip_us",
            "layout.window_key_us", "hotspot.scan.", "hotspot.cache.",
            "trace.share."})
        not_measured.push_back(prefix);
    } else {
      not_measured.push_back("serve.");
    }
    out.meta.set("not_measured", std::move(not_measured));
    if (args.workload == "serve_open") {
      set_num_threads(serve_threads);
      run_serve_traced(in.serve, args.seconds, out);
      set_num_threads(1);
      double ras = 0.0, dct = 0.0;
      measure_extraction(*in.fp32, in.serve.pool, ras, dct);
      out.set("layout.rasterize_us", ras, "us");
      out.set("fte.dct_zigzag_us", dct, "us");
    } else {
      run_scan_traced(in.scan, out);
    }
    run_nn_ledger(*in.int8, in.serve.pool, out);
    write_spans(args, out);
  }
  // Share of the host's CPU time stolen by the hypervisor during the
  // run: on a shared virtual machine, the wall-clock figures in meta and
  // the per-layer ledger degrade with it.
  const CpuTimes host1 = cpu_times();
  if (host1.total > host0.total)
    out.meta.set("host_steal_share",
                 (host1.steal - host0.steal) / (host1.total - host0.total));
  out.meta.set("pool_threads", serve_threads);
  out.meta.set("scan_threads", 1);
  for (const std::string& f : out.failures)
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  print_result(args, out);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hsdl_perfbench: %s\n", e.what());
    return 2;
  }
}
