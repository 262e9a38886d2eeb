"""moduli-sweep: genus-0 sweeps, elliptic pre-Tango counts, Miura round trips.

Items are monodromy vectors (one per `EnumerationReport` of a sweep) and
elliptic curves.  A unit of latency is one `sweep_genus0(p, r)` call or one
elliptic curve's count, each with the round trips of the pre-Tango
connections it found.
"""
from __future__ import annotations

import itertools
import random

# the acceptance list minus (7, 5), which alone costs about 25 s
SWEEPS = ((3, 3), (3, 4), (5, 3), (5, 4), (5, 5), (7, 3), (7, 4))

# curves drawn per (p, Hasse class); class 1 at p = 11 costs about 11 s
# per curve on this path, so it is left out there
ELLIPTIC_DRAWS = {
    5: {"one": 2, "zero": 2, "other": 2},
    7: {"one": 1, "zero": 1, "other": 2},
    11: {"zero": 2, "other": 2},
}


def hasse(p, a, b):
    """x^(p-1) coefficient of (x^3 + a x + b)^((p-1)/2), in plain ints."""
    poly = [1]
    for _ in range((p - 1) // 2):
        out = [0] * (len(poly) + 3)
        for i, c in enumerate(poly):
            out[i] += c * b
            out[i + 1] += c * a
            out[i + 3] += c
        poly = [c % p for c in out]
    return poly[p - 1] if p - 1 < len(poly) else 0


def hasse_class(h):
    return "one" if h == 1 else "zero" if h == 0 else "other"


# wall seconds of one pass child at the commit that added the benchmark
# (12 to 16 s on a 2-vCPU VM); run.py makes --seconds / PASS_SECONDS passes
PASS_SECONDS = 14


def plan(seed):
    rng = random.Random(seed)
    curves = []
    for p, draws in ELLIPTIC_DRAWS.items():
        by_class = {}
        for a in range(p):
            for b in range(p):
                if (4 * a ** 3 + 27 * b ** 2) % p:
                    by_class.setdefault(hasse_class(hasse(p, a, b)), []).append((a, b))
        for cls, n in draws.items():
            for a, b in rng.sample(by_class[cls], n):
                curves.append((p, a, b))
    items = sum(p ** r for p, r in SWEEPS) + len(curves)
    return {"sweeps": [list(s) for s in SWEEPS], "curves": curves, "items": items}


def setup(plan):
    from dormant.curves import Weierstrass
    from dormant.field import PrimeField

    return {"plan": plan,
            "curves": [Weierstrass(PrimeField(p), a, b) for p, a, b in plan["curves"]]}


def _roundtrips(conns, span):
    from dormant.miura import is_dormant, miura_from_tango, pretango_of

    out = []
    for conn in conns:
        with span("miura.roundtrip"):
            m = miura_from_tango(conn)
            out.append((conn, is_dormant(m), pretango_of(m)))
    return out


def _trips_ok(trips):
    return all(dormant and back == conn for conn, dormant, back in trips)


def _check_sweep(p, r, res):
    reps, trips = res
    ok_trips = _trips_ok(trips)
    answers = [f"sweep {p} {r} roundtrips={len(trips)} ok={ok_trips}"]
    vectors = list(itertools.product(range(p), repeat=r))
    if len(reps) != len(vectors):
        return answers, p ** r
    failed = 0
    for mu, rep in zip(vectors, reps):
        law = 1 if (r - 2 + sum(mu)) % p == 0 else 0
        failed += bool(
            tuple(rep.monodromy) != mu
            or rep.flat_count != law
            or (rep.dimension_formula_value < 0 and rep.pretango_count)
            or not ok_trips
        )
        answers.append(rep.machine_block())
    return answers, failed


def _check_elliptic(p, a, b, res):
    rep, trips = res
    h = hasse(p, a, b)
    want = (p, p - 1) if h == 1 else (1, 1) if h == 0 else (1, 0)
    bad = (rep.flat_count, rep.pretango_count) != want or not _trips_ok(trips)
    return [f"ell {p} {a} {b} h={h} {rep.machine_block()}"], int(bad)


def units(state, span):
    """(label, items, call, check) per unit; check(result) -> (answers, failed)."""
    from dormant.moduli import count_pretango, sweep_genus0

    def sweep(p, r):
        reps = sweep_genus0(p, r)
        return reps, _roundtrips([c for rep in reps for c in rep.pretango_list], span)

    def elliptic(curve):
        rep = count_pretango(curve)
        return rep, _roundtrips(rep.pretango_list, span)

    for p, r in state["plan"]["sweeps"]:
        yield (f"sweep{p},{r}", p ** r, lambda p=p, r=r: sweep(p, r),
               lambda res, p=p, r=r: _check_sweep(p, r, res))
    for (p, a, b), curve in zip(state["plan"]["curves"], state["curves"]):
        yield (f"ell{p},{a},{b}", 1, lambda c=curve: elliptic(c),
               lambda res, p=p, a=a, b=b: _check_elliptic(p, a, b, res))
