"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1
                               [--setup-only] [--spans PATH]

Started by run.py with `src` on PYTHONPATH and DORMANT_PRECISION removed.
Prints one JSON object as its last stdout line: set-up time (import of
`dormant` plus the workload's curve objects), then, unless --setup-only,
the pass's wall time, CPU (self and children), peak RSS, the wall time
and item count of each unit of work, failed items, and a digest of the
answers.  With --trace 1 the library is wrapped before the pass and
per-layer metrics are added.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

WORKLOADS = {
    "moduli-sweep": "moduli_sweep",
    "raynaud-surface": "raynaud_surface",
    "cli-jobs": "cli_jobs",
}


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(units, tracer, trace):
    """Time each unit, then check it untimed and untraced and drop it.

    Returns the pass's wall and CPU seconds (units only), (wall, items) per
    unit, the answers, and the number of failed items.  A unit that raises
    counts all its items as failed.
    """
    wall = cpu = 0.0
    timings, answers, failed = [], [], 0
    for label, n_items, call, check in units:
        # every unit starts from an empty young heap, as a job run by the
        # command does; otherwise a collection owed to earlier units lands
        # on whichever unit comes next, and that moves with the job order
        gc.collect()
        tracer.item, tracer.on = label, trace
        c0, t0 = _cpu(), time.perf_counter()
        try:
            result = call()
        except Exception:  # the unit failed; the pass goes on
            traceback.print_exc(file=sys.stderr)
            result, ok = None, False
        else:
            ok = True
        dt, dc = time.perf_counter() - t0, _cpu() - c0
        tracer.item, tracer.on = None, False
        wall, cpu = wall + dt, cpu + dc
        timings.append((dt, n_items))
        if not ok:
            failed += n_items
            continue
        ans, bad = check(result)
        result = None  # nothing of a unit stays alive into the next one
        answers += ans
        failed += bad
    return wall, cpu, timings, answers, failed


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    from tracer import LAYERS, Tracer

    for name in LAYERS:
        importlib.import_module(f"dormant.{name}")
    wl = importlib.import_module(WORKLOADS[args.workload])
    plan = wl.plan(args.seed)
    state = wl.setup(plan)
    out = {"setup_s": time.perf_counter() - _T0}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = Tracer()
    if args.trace:
        tracer.install()
    gc.freeze()  # the modules and inputs stay alive all pass; collections skip them
    wall, cpu, timings, answers, failed = run_pass(
        wl.units(state, tracer.span), tracer, bool(args.trace))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer.uninstall()
    out.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "items": plan["items"],
        "failed": failed,
        "units": timings,
        "digest": hashlib.sha256("\n".join(answers).encode()).hexdigest(),
    })
    if args.trace:
        out["metrics"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
