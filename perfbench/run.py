#!/usr/bin/env python3
"""Repository benchmark: GDS-to-ranked-hits scans and open-loop serving.

Usage (from the repository root):

    python3 perfbench/run.py --workload <scan_flat|scan_hier|serve_open> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Builds perfbench/ (the library sources plus the measuring program
hsdl_perfbench) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, on first use; later runs only re-check the build.
Runs one workload from the given seed and prints, as the last line of
stdout, {"correct", "attempted", "failed", "metrics"} where metrics holds
every end_to_end metric of BENCHMARK.json (--trace 0) or every per_layer
metric (--trace 1). The line before it is {"meta": {...}}: host cores
and ISA, build type, git describe, seed, pool threads, failed_frac and
the repetition counts and spreads behind each figure. A traced run
reports 0 for the per-layer metrics of layers its workload never runs
(meta.not_measured) and fails on any other metric it did not measure.
The full result (all metrics, meta) is also kept under .bench_out/.

Exit status: 0 when every output matched its oracle; 1 when a check
failed (the result line then says "correct": false); 2 when the program
could not be built or run, with no result line.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout
    and always waits for it, so nothing outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.abspath(os.path.join(ROOT, base, "perfbench"))
    if os.path.commonpath([path, ROOT]) != ROOT:
        fail("build directory must lie inside the checkout: " + path)
    return path


def build():
    """Configures (once) and builds hsdl_perfbench; returns its path."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            rc, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
            if rc != 0:
                shutil.rmtree(bdir, ignore_errors=True)
                fail("configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        rc, _ = run_group(
            ["cmake", "--build", bdir, "--target", "hsdl_perfbench", "-j", jobs],
            BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            fail("build failed")
    return os.path.join(bdir, "hsdl_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs; exercises every path in seconds")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # SIGTERM becomes an ordinary exit, so run_group still kills the
    # child's process group before this script ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        rc, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                            cwd=ROOT, text=True)
    except subprocess.TimeoutExpired:
        fail("measuring program exceeded %d s" % RUN_TIMEOUT_S)
    lines = [l for l in out.strip().split("\n") if l.strip()]
    if rc not in (0, 1) or len(lines) < 2:
        fail("measuring program failed (exit %d)" % rc)
    meta = json.loads(lines[-2])
    full = json.loads(lines[-1])

    # A traced path names the layers it never runs (name prefixes); those
    # report 0, and any other metric it leaves unset is an error.
    not_measured = tuple(meta["meta"].get("not_measured", [])
                         if args.trace else [])
    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None and m["name"].startswith(not_measured):
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            fail("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        if not math.isfinite(got["value"]):
            fail("metric %s is not finite" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    keep = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(keep, "w") as f:
        json.dump({"meta": meta["meta"], "result": full}, f)

    result = {"correct": bool(full["correct"]) and rc == 0,
              "attempted": int(full["attempted"]),
              "failed": int(full["failed"]),
              "metrics": metrics}
    print(json.dumps(meta))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
