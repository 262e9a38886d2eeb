"""raynaud-surface: generalized Tango data, glued surfaces, cocycle checks.

Items are surfaces certified: (p, l) = (3, 3) and (5, 3) with N = 9, and
criterion 8's (3, 2) surface with N = 3, which also gets a 100-sample
fiber smoothness probe and the pathology witness.  The candidate is
f = -1/y throughout.  (7, 3) takes over 200 s today and is left out.
"""
from __future__ import annotations

import random

SURFACES = ((3, 3, 9), (5, 3, 9), (3, 2, 3))
PROBED = (3, 2)
PROBE_SAMPLES = 100


# wall seconds of one pass child at the commit that added the benchmark
# (25 to 30 s on a 2-vCPU VM); run.py makes --seconds / PASS_SECONDS passes
PASS_SECONDS = 30


def plan(seed):
    # the seed only draws the fiber samples of the probe
    probe_seed = random.Random(seed).randrange(1 << 30)
    return {"surfaces": [list(s) for s in SURFACES], "probe_seed": probe_seed,
            "items": len(SURFACES)}


def setup(plan):
    from dormant.curves import RaynaudPlane
    from dormant.field import PrimeField

    return {"plan": plan,
            "curves": [RaynaudPlane(PrimeField(p), l) for p, l, _ in plan["surfaces"]]}


def _check(p, l, n, res):
    q = p * l
    genus = (q - 1) * (q - 2) // 2
    data = res["data"]
    bad = not res["report"].ok or p * (p - 1) * n != 2 * genus - 2
    # criterion 8's differential transition, derived directly
    for (i, j), (u, _r) in data.overlaps.items():
        lhs = data.t[i].derivative()
        rhs = (u ** (p - 1)).pth_power() * data.t[j].derivative()
        bad = bad or lhs != rhs
    answers = [f"surface {p} {l} N={n}", data.render(), res["report"].render()]
    if "probe" in res:
        probe, witness = res["probe"], res["witness"]
        bad = (bad or len(probe.entries) != PROBE_SAMPLES or not probe.all_smooth
               or witness.dim_global_sections <= 0 or not witness.flag)
        answers += [probe.render(), witness.render()]
    return answers, int(bad)


def units(state, span):
    """(label, items, call, check) per unit; check(result) -> (answers, failed)."""
    from dormant.curves import Divisor, raynaud_p_inf
    from dormant.surface import (
        build_surface,
        fiber_smoothness_probe,
        pathology_witness,
        random_fiber_samples,
        validate_cocycle,
    )
    from dormant.tango import build_generalized_tango

    def surface(curve, n):
        f = -(curve.y_elem() ** -1)
        pinf = raynaud_p_inf(curve, 24)
        gtc = build_generalized_tango(curve, f, Divisor([(pinf, n)]))
        data = build_surface(gtc)
        out = {"data": data, "report": validate_cocycle(data)}
        if (curve.p, curve.l) == PROBED:
            samples = random_fiber_samples(data, PROBE_SAMPLES, seed=state["plan"]["probe_seed"])
            out["probe"] = fiber_smoothness_probe(data, samples)
            out["witness"] = pathology_witness(gtc)
        return out

    for (p, l, n), curve in zip(state["plan"]["surfaces"], state["curves"]):
        yield (f"surface{p},{l}", 1, lambda c=curve, n=n: surface(c, n),
               lambda res, p=p, l=l, n=n: _check(p, l, n, res))
