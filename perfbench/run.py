"""Benchmark of the `dormant` toolkit: three workloads, one metric line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding BENCHMARK.json and
src/).  Every pass runs in a fresh interpreter (child.py), one at a time,
with DORMANT_PRECISION removed from its environment and PYTHONHASHSEED
fixed, so no process-level cache carries over and call counts repeat.

--trace 0: a few set-up-only children, then S / PASS_SECONDS passes
(rounded, at least one; PASS_SECONDS is the workload's pass time at the
commit that added the benchmark, so a run lasts about S seconds); prints
the end-to-end metrics of BENCHMARK.json.  --trace 1: one untraced and
one traced pass of the same inputs; prints the per-layer metrics, the
tracing overhead, and fails the run if the two passes' answers differ.
Spans of the traced pass go to perfbench/out/.  The last stdout line is
the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from child import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
RUN_CAP_S = 170.0      # the whole run ends within this, kills included
PASS_CAP_S = 150.0     # a pass running longer is stopped and its items fail


def _child_env(root):
    env = dict(os.environ)
    env.pop("DORMANT_PRECISION", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _run_child(root, args, timeout):
    """Run child.py to completion; its JSON result, or None if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + args
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"pass stopped after {timeout:.0f} s: {' '.join(args)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child exited {proc.returncode}: {' '.join(args)}", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(setups, passes, attempted, failed):
    done = [r for r in passes if r is not None]
    if not done:
        return {}, 0
    # a unit's latency is its median over the passes (every pass runs the
    # same units), which drops a scheduling stall that hit one pass only;
    # each item then carries its unit's latency over the unit's item count,
    # so a sweep of p^r vectors weighs p^r times, at its per-vector time
    lat_ms = []
    for unit in zip(*(r["units"] for r in done)):
        n = unit[0][1]
        lat_ms += [statistics.median(wall for wall, _ in unit) * 1000.0 / n] * n
    return {
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in done),
        "cpu_s_per_item": statistics.median(r["cpu_s"] / r["items"] for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        "ok_rate": 1.0 - failed / attempted,
        "setup_s": statistics.median(setups),
        "job_ms.p50": _quantile(lat_ms, 50),
        "job_ms.p90": _quantile(lat_ms, 90),
    }, len(lat_ms)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    root = os.getcwd()
    bench_file = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(bench_file) or not os.path.isfile(
            os.path.join(root, "src", "dormant", "__init__.py")):
        print("error: run from a checkout holding BENCHMARK.json and src/dormant",
              file=sys.stderr)
        return 2
    with open(bench_file, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    # the build: byte-compile once, so set-up times do not include compiling
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)

    workload = __import__(WORKLOADS[args.workload])
    plan_items = workload.plan(args.seed)["items"]
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    def remaining():
        return RUN_CAP_S - (time.perf_counter() - start)

    def one_pass(trace, extra=()):
        return _run_child(root, base + ["--trace", str(trace), *extra],
                          min(PASS_CAP_S, remaining()))

    passes, setups, notes = [], [], []
    correct = True
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        plain = one_pass(0)
        traced = one_pass(1, ("--spans", spans))
        passes = [plain, traced]
        values = {}
        if plain is not None and traced is not None:
            values = dict(traced["metrics"])
            values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            same = plain["digest"] == traced["digest"]
            correct = same
            notes.append(f"traced and untraced answers identical: {same} "
                         f"(sha256 {plain['digest'][:16]} / {traced['digest'][:16]})")
            notes.append(f"untraced {plain['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s; "
                         f"spans in {os.path.relpath(spans, root)}")
    else:
        for _ in range(SETUP_PROBES):
            probe = _run_child(root, base + ["--setup-only"], min(30.0, remaining()))
            if probe is not None:
                setups.append(probe["setup_s"])
        # a fixed number of passes for given --seconds: a count decided on
        # the clock would flip between runs whose passes take nearly
        # --seconds / n, and the passes of one run do not run equally fast
        wanted = max(1, round(args.seconds / workload.PASS_SECONDS))
        took = []  # wall seconds of each pass child, start to exit
        while len(passes) < wanted:
            # stop early only to end well before the cap
            if took and remaining() < 2 * max(took) + 5:
                break
            c0 = time.perf_counter()
            res = one_pass(0)
            took.append(time.perf_counter() - c0)
            passes.append(res)
            if res is None:
                break
            setups.append(res["setup_s"])

    done = [r for r in passes if r is not None]
    attempted = plan_items * len(passes)
    failed = sum(r["failed"] for r in done) + plan_items * (len(passes) - len(done))
    correct = correct and failed == 0 and len(done) == len(passes) and bool(done)
    if len({r["digest"] for r in done if "metrics" not in r}) > 1:
        correct = False
        notes.append("untraced passes of one seed gave different answers")
    if not args.trace:
        values, n_lat = _end_to_end(setups or [0.0], passes, attempted, failed)
        notes.append(f"{len(done)} passes, {len(setups)} set-ups, "
                     f"{n_lat} item latencies, each a median over the passes")

    metrics = {}
    for m in declared:
        if values and m["name"] not in values:
            raise KeyError(f"declared metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        print(f"{m['name']:<40} {metrics[m['name']]['value']:>16.6g} {m['unit']}")
    for note in notes:
        print(note)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
