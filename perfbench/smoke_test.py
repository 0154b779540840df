#!/usr/bin/env python3
"""Tiny-size smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Checks BENCHMARK.json against the benchmark contract (keys, name and unit
syntax, bounds, set-up metric), checks that perfbench/interaction_map.json
covers every per-layer metric, then runs every workload with --smoke in
both modes and checks the output schema: the last line has exactly
correct/attempted/failed/metrics, every metric BENCHMARK.json lists is
present with its unit and a finite value, the run attempted something and
nothing failed, and the meta line records the host and build. Exits 0
when all checks pass.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
META_KEYS = {"workload", "seed", "cores", "pool_threads", "isa", "build_type",
             "git_describe", "failed_frac"}

errors = []


def check(ok, message):
    if not ok:
        errors.append(message)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= spec["run_seconds"] <= 60 and
          isinstance(spec["run_seconds"], int), "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    seen = set()
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"}, "workload keys %s" % w)
        check(bool(NAME.match(w["name"])), "workload name %s" % w["name"])
        check(len(w["why"]) <= 200 and "\n" not in w["why"], "why of %s" % w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, "keys of %s" % m)
        check(0 < m["bound"] <= 0.25, "bound of %s" % m["name"])
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, "keys of %s" % m)
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        check(m["name"] not in seen, "duplicate name %s" % m["name"])
        seen.add(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(bool(NAME.match(m["name"])), "metric name %s" % m["name"])
        check(bool(UNIT.match(m["unit"])), "unit of %s" % m["name"])
        check(m["better"] in ("higher", "lower"), "better of %s" % m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and
          setup[0]["better"] == "lower", "setup_s metric")
    if setup:
        check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
              "setup_s must carry the largest bound")


def check_map(spec):
    with open(os.path.join(HERE, "interaction_map.json")) as f:
        imap = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    # A layer metric moves an end-to-end metric, or a wall-clock serving
    # figure, which is reported per layer (see its note in the map).
    moved = {m["name"] for m in spec["end_to_end"]} | {
        "serve.goodput_rps", "serve.p50_ms_low", "serve.p50_ms_high"}
    entries = imap["per_layer"]
    for m in spec["per_layer"]:
        e = entries.get(m["name"])
        check(e is not None, "interaction map lacks %s" % m["name"])
        if e is None:
            continue
        for move in e["moves"]:
            check(move["metric"] in moved, "%s moves unknown %s"
                  % (m["name"], move["metric"]))
            check(move["workload"] in workloads, "%s names unknown workload %s"
                  % (m["name"], move["workload"]))
        check(e["moves_nothing_on"] in workloads,
              "%s: moves_nothing_on must name a workload" % m["name"])
    check(set(imap["workloads"]) == workloads, "interaction map workloads")


def run(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = "%s --trace %d" % (workload, trace)
    check(proc.returncode == 0, "%s exited %d: %s"
          % (where, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or len(lines) < 2:
        return
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2]).get("meta", {})
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s result keys" % where)
    check(result["correct"] is True, "%s not correct" % where)
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          "%s attempted" % where)
    check(result["failed"] == 0, "%s failed" % where)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted},
          "%s metric names" % where)
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        check(set(got) == {"value", "unit"}, "%s %s keys" % (where, m["name"]))
        check(got.get("unit") == m["unit"], "%s %s unit" % (where, m["name"]))
        value = got.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              "%s %s value" % (where, m["name"]))
    check(META_KEYS <= set(meta), "%s meta lacks %s"
          % (where, sorted(META_KEYS - set(meta))))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    check_map(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            run(w["name"], trace, spec)
    for e in errors:
        print("FAIL: " + e)
    print("smoke test: %s" % ("FAILED" if errors else "ok"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
